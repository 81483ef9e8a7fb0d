"""Shared batched single-flip annealing engine.

Every local-search solver in this package (simulated annealing, the
Digital-Annealer-style parallel-trial annealer, tabu search and, through tabu,
qbsolv) explores QUBO energy landscapes with the same primitive: flip one
binary variable and pay the energy change

.. math:: \\Delta E_i = (1 - 2 x_i)\\,(Q_{ii} + 2 H_i - 2 Q_{ii} x_i),
          \\qquad H_i = \\sum_j Q_{ij} x_j,

where ``Q`` is the symmetrised coefficient matrix and ``H`` the *local field*.
This module owns that kernel once, batched over ``num_reads`` independent
replicas, so the solvers only express their acceptance policies.

Kernel contract
---------------
:class:`AnnealingState` maintains, for a batch of ``R`` replicas over ``n``
variables:

* ``X`` — the binary states, float matrix of shape ``(R, n)``;
* ``H`` — the local fields ``X @ Q``, kept incrementally consistent with ``X``
  after every flip (``H_i`` *includes* the diagonal term ``Q_ii x_i``);
* ``current_energies`` — QUBO energies of ``X`` (offset included), updated
  incrementally from the accepted deltas;
* ``best_X`` / ``best_energies`` — the lowest-energy state each replica has
  visited at the instants :meth:`update_best` was called.

State transitions go through two kinds of mutator:

* :meth:`apply_single_flips` — one flip per listed replica, *exact*: the
  supplied deltas are the true energy changes, so ``current_energies`` stays
  exact up to float accumulation.
* :meth:`metropolis_block` — the blocked Metropolis step of SA and PT: it
  proposes a flip of every variable of a block, accepts each with
  :func:`metropolis_accept` and applies the accepted flips simultaneously,
  writing the block's new states from the states and flip signs ``1 - 2x``
  its proposal gathered.  Deltas of variables flipped together in one block
  interact, so after a block step ``current_energies`` is recomputed from
  the (always exact) local fields via ``E = sum_i x_i H_i + offset`` rather
  than summed from the proposed deltas.

What a step may keep between steps: only values that are a function of the
state it reads them from.  Batched tabu keeps the ``(R, n)`` single-flip
delta matrix (:meth:`flip_deltas`) across its steps and passes it to
:meth:`apply_single_flips` as ``kept``, which recomputes the entries whose
inputs moved: the flipped variables and the local fields the operator's
``add_rows`` reports it changed (every field, for a dense row).  Each delta
is a function of one state bit, one field and one diagonal entry, computed
by the one formula :func:`_flip_terms` holds, so a refreshed entry has the
bytes a full recompute gives, and an entry whose inputs did not move keeps
them.  The kept matrix therefore stays ``np.array_equal`` to a fresh
:meth:`flip_deltas` after every step, in both dtypes and on both storages.
A replica reset (:meth:`reset_replicas`) changes whole rows, so a caller
recomputes the matrix after one.

Coefficient access is routed through the operator returned by
:meth:`repro.qubo.model.QUBOModel.operator` — CSR for a sparse model, dense
otherwise.  The state never gathers coefficient rows itself: a single flip
adds its row through the operator's ``add_rows`` and a block flip adds the
operator's ``block_product``.  On CSR both touch only the flipped rows'
stored entries, ``O(R · nnz)`` per block instead of the dense
``O(R · b · n)``, and a block product sums each field's terms in block
order from zero, as the dense GEMM does, so sparse instances (e.g. MVC)
run faster without any solver-side changes.  What a flip changed is
likewise the operator's answer, so no caller branches on the storage.

Precision
---------
The kernels compute in one numpy float dtype per call, float64 or float32.
A solver's ``dtype`` option sets it; when the option is unset the
``QROSS_ENGINE_DTYPE`` environment variable does, and float64 is the default
(:func:`resolve_engine_dtype`).  :class:`AnnealingState` holds its arrays and
its operator in that dtype.  Float32 only steers the search: every solver
re-scores its returned assignments against the exact float64 model.  Random
numbers always come from the host numpy ``Generator`` in float64 and are cast
afterwards, so both dtypes consume the same random stream.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

import numpy as np

from repro.qubo.model import QUBOModel, stack_rows
from repro.utils.rng import ensure_rng

#: Environment variable selecting the engine dtype when a solver leaves its
#: ``dtype`` option unset.
DTYPE_ENV = "QROSS_ENGINE_DTYPE"
#: The float dtypes the engine computes in.
SUPPORTED_DTYPES = ("float64", "float32")
_ENGINE_FLOATS = tuple(np.dtype(name) for name in SUPPORTED_DTYPES)


def validate_engine_dtype(dtype: Optional[str]) -> Optional[str]:
    """Validate a solver's ``dtype`` option (``None`` means "inherit")."""
    if dtype is None:
        return None
    key = str(dtype).strip().lower()
    if key not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported engine dtype {dtype!r}; supported: {SUPPORTED_DTYPES}"
        )
    return key


def resolve_engine_dtype(dtype: Optional[str] = None) -> np.dtype:
    """The dtype of one engine call: ``dtype`` if set, else
    ``QROSS_ENGINE_DTYPE``, else float64."""
    return np.dtype(validate_engine_dtype(dtype or os.environ.get(DTYPE_ENV) or "float64"))


def metropolis_accept(delta, temperature, uniforms) -> np.ndarray:
    """Metropolis acceptance mask for proposed energy changes ``delta``.

    Downhill (``delta <= 0``) moves are always accepted; uphill moves are
    accepted when ``uniforms < exp(-delta / temperature)``.  ``uniforms`` must
    have the same shape as ``delta``.

    ``temperature`` is either one scalar for the whole batch (the annealing
    solvers) or a per-replica array of length ``delta.shape[0]`` (the
    parallel-tempering ladder, where every replica row owns its own fixed
    temperature).  Rows at temperature zero accept downhill moves only.

    The comparison runs in the float dtype of ``delta`` (float64 for integer
    input): a float64 caller gets float64 temperatures whatever the engine
    dtype setting.  A float32 or float64 ``delta`` with a scalar temperature
    (every block of an annealing sweep) takes the path with no conversion.
    """
    delta = np.asarray(delta)
    if delta.dtype not in _ENGINE_FLOATS:
        delta = delta.astype(np.result_type(delta.dtype, np.float32))
    dtype = delta.dtype
    accept = delta <= 0.0
    # ``max(delta, 0) / -t`` is ``-max(delta, 0) / t`` to the bit (division
    # rounds symmetrically), one array pass fewer.
    if isinstance(temperature, (float, int, np.generic)) or np.ndim(temperature) == 0:
        temperature = dtype.type(temperature)
        if temperature > 0:
            accept |= uniforms < np.exp(np.maximum(delta, 0.0) / -temperature)
        return accept
    temps = np.asarray(temperature, dtype=dtype)
    if temps.shape != (delta.shape[0],):
        raise ValueError(
            f"temperature array must have one entry per replica row "
            f"({delta.shape[0]}), got shape {temps.shape}"
        )
    cols = temps.reshape(-1, *([1] * (delta.ndim - 1)))
    positive = cols > 0
    safe = np.where(positive, cols, dtype.type(1.0))
    boltzmann = uniforms < np.exp(np.maximum(delta, 0.0) / -safe)
    return accept | (boltzmann & positive)


def _flip_terms(x, h, d, out=None):
    """``(1 - 2x, ΔE)`` of single flips, from gathered states, fields and diagonal.

    The one place the single-flip energy change is written; every engine
    read of it goes through here, so equal inputs give equal bytes whichever
    entries a caller gathers.
    """
    sign = 1.0 - 2.0 * x
    return sign, np.multiply(sign, d + 2.0 * h - 2.0 * d * x, out=out)


def default_block_size(num_variables: int) -> int:
    """Sweep block size used by blocked simulated annealing.

    Chosen so a sweep needs ``O(n / block)`` Python iterations while keeping
    blocks small relative to ``n`` (simultaneous flips within a block
    approximate sequential Metropolis updates; see :class:`AnnealingState`).
    """
    return int(np.clip(num_variables // 8, 1, 64))


#: Sweep acceptance rates below which :class:`AdaptiveBlockSizer` doubles
#: the block, and above which it halves it.
BLOCK_GROW_BELOW = 0.02
BLOCK_SHRINK_ABOVE = 0.2


class AdaptiveBlockSizer:
    """Acceptance-rate feedback controller for the blocked-sweep block size.

    Flips proposed together in one block do not see each other's move, so a
    block sweep is only a faithful approximation of sequential Metropolis when
    few of its proposals are accepted.  The fixed :func:`default_block_size`
    heuristic ignores that: early hot sweeps (acceptance near one) get the
    same block as late cold sweeps (acceptance near zero).  This controller
    doubles the block while the sweep acceptance rate stays below
    :data:`BLOCK_GROW_BELOW` (almost nothing flips together — bigger blocks
    are free speed) and halves it back toward the baseline when the rate
    exceeds :data:`BLOCK_SHRINK_ABOVE` (many simultaneous flips).  The
    baseline, :func:`default_block_size`, is also the floor: hot sweeps run
    exactly the block the fixed heuristic would have used (no fidelity
    regression), cold sweeps run up to ``n // 4`` clipped to ``[1, 256]``
    (pure Python-overhead savings: a sweep's multiply-adds do not depend on
    the block size, on the dense GEMM and on the CSR block product, which
    touches only the block's stored entries; on CSR a bigger block also
    writes fewer ``(n, R)`` results).

    The update consumes only the accepted-flip count of the previous sweep —
    no random draws — so enabling adaptivity never perturbs a solver's RNG
    stream; trajectories change only through the block partition itself.
    """

    def __init__(self, num_variables: int) -> None:
        self.block = self.min_block = default_block_size(num_variables)
        self.max_block = max(self.block, int(np.clip(num_variables // 4, 1, 256)))

    def update(self, acceptance_rate: float) -> int:
        """Fold one sweep's acceptance rate in; return the next block size."""
        if acceptance_rate > BLOCK_SHRINK_ABOVE:
            self.block = max(self.min_block, self.block // 2)
        elif acceptance_rate < BLOCK_GROW_BELOW:
            self.block = min(self.max_block, self.block * 2)
        return self.block


def propose_ladder_swaps(energies, betas, offset: int, uniforms) -> np.ndarray:
    """Metropolis accept mask for neighbour swaps on a temperature ladder.

    ``energies`` has shape ``(num_reads, num_replicas)`` — each read owns an
    independent ladder whose rung ``j`` runs at inverse temperature
    ``betas[j]``.  Rungs are paired ``(offset, offset+1), (offset+2, ...)``
    (callers alternate ``offset`` 0/1 between rounds so every neighbour pair
    is eventually proposed); a swap of pair ``(i, j)`` is accepted with
    probability ``min(1, exp((beta_i - beta_j) (E_i - E_j)))`` — the detailed-
    balance criterion of replica exchange.  ``uniforms`` must have shape
    ``(num_reads, num_pairs)``; the comparison runs in log space so large
    positive arguments cannot overflow, and in the dtype of the inputs.
    Returns the accept mask, shape ``(num_reads, num_pairs)``.
    """
    i = np.arange(offset, betas.shape[0] - 1, 2)
    if i.shape[0] == 0:
        return np.zeros((energies.shape[0], 0), dtype=bool)
    j = i + 1
    log_ratio = (betas[i] - betas[j])[None, :] * (energies[:, i] - energies[:, j])
    if uniforms.shape != log_ratio.shape:
        raise ValueError(
            f"uniforms must have shape {log_ratio.shape}, got {uniforms.shape}"
        )
    with np.errstate(divide="ignore"):
        return np.log(uniforms) < log_ratio


class AnnealingState:
    """Batched single-flip search state shared by the annealing solvers.

    ``model`` is one :class:`~repro.qubo.model.QUBOModel`, or a sequence of
    ``K`` models of one size (one problem's relaxations).  The state then
    holds ``K`` row groups of ``num_reads`` replicas, group ``g`` in rows
    ``g * num_reads`` to ``(g + 1) * num_reads - 1``; one model is the
    ``K = 1`` case.  ``rng`` is one generator per group (a lone generator or
    seed for one model), and group ``g`` draws its initial states from its
    own.  The per-model constants are per row, in the state dtype: ``offset``
    has shape ``(R,)``, and ``diag`` is the model's ``(n,)`` diagonal for one
    group (it broadcasts over the rows) and ``(R, n)`` for ``K``.  Every
    mutator computes a group's rows exactly as a state of its model alone
    would, so a group keeps the trajectory of a lone call byte for byte.

    ``dtype`` is the solver's ``dtype`` option: the state's arrays and its
    coefficient operators live in :func:`resolve_engine_dtype` of it; the
    operators are the models' own (:meth:`repro.qubo.model.QUBOModel.operator`).
    Initial states are drawn on the host in float64 and cast once, so the
    random stream does not depend on the dtype.
    """

    def __init__(
        self,
        model: Union[QUBOModel, Sequence[QUBOModel]],
        num_reads: int,
        rng=None,
        initial_states: Optional[np.ndarray] = None,
        dtype: Optional[str] = None,
    ) -> None:
        self.models = [model] if isinstance(model, QUBOModel) else list(model)
        sizes = sorted({m.num_variables for m in self.models})
        if len(sizes) != 1:
            raise ValueError(f"grouped models must share one size, got sizes {sizes}")
        n = sizes[0]
        self.num_groups = len(self.models)
        self.group_size = int(num_reads)
        total = self.num_groups * self.group_size
        self.dtype = resolve_engine_dtype(dtype)
        self.ops = [m.operator(self.dtype) for m in self.models]
        if initial_states is not None:
            X = np.array(initial_states, dtype=np.float64)
            if X.ndim == 1:
                X = X[None, :]
            if X.shape != (total, n):
                raise ValueError(
                    f"initial_states must have shape ({total}, {n}), got {X.shape}"
                )
        else:
            rngs = list(rng) if isinstance(rng, (list, tuple)) else [rng]
            if len(rngs) != self.num_groups:
                raise ValueError(f"need one rng per model, got {len(rngs)} for {self.num_groups}")
            X = np.concatenate([
                ensure_rng(r).integers(0, 2, size=(num_reads, n), dtype=np.int8).astype(np.float64)
                for r in rngs
            ])
        self.X = X.astype(self.dtype, copy=False)
        #: ``(rows, operator)`` of every group, rows as a slice.
        self._groups = [
            (slice(g * self.group_size, (g + 1) * self.group_size), op)
            for g, op in enumerate(self.ops)
        ]
        self.H = np.concatenate([op.right_multiply(self.X[rows]) for rows, op in self._groups])
        self.offset = self.per_row([m.offset for m in self.models])
        if self.num_groups == 1:
            self.op = self.ops[0]
            self._row_base = None
            self.diag = self.op.diag
        else:
            # A replica's coefficient row lives at ``group * n + col`` of the
            # row stack, so one ``add_rows`` serves every group.  The stack
            # copies the K models' rows (K * n * n entries when dense): the
            # per-step update over all groups needs one operator, and K
            # separate updates per step cost about what grouping saves.
            self.op = stack_rows(self.ops)
            self._row_base = np.repeat(np.arange(self.num_groups) * n, self.group_size)
            self.diag = np.repeat(np.stack([op.diag for op in self.ops]), self.group_size, axis=0)
        self.current_energies = self.energies_from_fields()
        self.best_X = self.X.copy()
        self.best_energies = self.current_energies.copy()

    def per_row(self, values) -> np.ndarray:
        """One value per group (last axis) -> one per replica row, in the state dtype.

        Per-model constants must enter the kernels in the state dtype: a
        float64 array would promote float32 states, where a lone call's
        Python-float constant does not.
        """
        values = np.asarray(values, dtype=np.float64)
        return np.repeat(values, self.group_size, axis=-1).astype(self.dtype, copy=False)

    def uniforms(self, rng: np.random.Generator, shape) -> np.ndarray:
        """``rng.random(shape)`` in the state dtype (drawn in float64, then cast)."""
        return rng.random(shape).astype(self.dtype, copy=False)

    def group_uniforms(self, rngs, rows=None) -> np.ndarray:
        """Uniforms for every replica row, each group's block from its own rng.

        With a boolean ``rows`` mask (at least one row selected), only the
        groups with a selected row draw; the rows of the others read 0.
        Drawn in float64, then cast, as :meth:`uniforms` does.
        """
        shape = (self.group_size, self.num_variables)
        if self.num_groups == 1:
            return self.uniforms(rngs[0], shape)
        drawing = [True] * self.num_groups if rows is None else rows.reshape(self.num_groups, -1).any(axis=1)
        draws = [rng.random(shape) if draw else np.zeros(shape) for rng, draw in zip(rngs, drawing)]
        return np.concatenate(draws).astype(self.dtype, copy=False)

    # ----------------------------------------------------------------- shapes
    @property
    def num_reads(self) -> int:
        return int(self.X.shape[0])

    @property
    def num_variables(self) -> int:
        return int(self.X.shape[1])

    # ------------------------------------------------------------------ reads
    def energies_from_fields(self):
        """Exact batch energies ``sum_i x_i H_i + offset`` in ``O(R n)``."""
        return (self.X * self.H).sum(axis=1) + self.offset

    def flip_deltas(self, cols=None):
        """Single-flip energy changes, all variables or just ``cols``.

        Shape ``(R, n)`` without ``cols``, ``(R, len(cols))`` with.
        """
        return self._proposal(cols)[2]

    def _proposal(self, cols):
        """``(x, 1 - 2x, ΔE)`` of flipping ``cols`` (every variable for ``None``)."""
        x, h, d = self.X, self.H, self.diag
        if cols is not None:
            x, h = x[:, cols], h[:, cols]
            d = d[cols] if d.ndim == 1 else d[:, cols]
        return (x, *_flip_terms(x, h, d))

    # --------------------------------------------------------------- mutators
    def apply_single_flips(self, rows, cols, deltas, kept=None) -> None:
        """Flip variable ``cols[k]`` of replica ``rows[k]`` for every ``k``.

        ``deltas`` must be the matching single-flip energy changes (as returned
        by :meth:`flip_deltas`); ``current_energies`` is advanced exactly.

        ``kept``, when given, is the ``(R, n)`` :meth:`flip_deltas` matrix of
        the state before the flips; it is brought up to date in place.  Only
        the entries whose inputs moved are recomputed: the flipped variables
        and the fields the operator's ``add_rows`` reports it changed.  When
        the operator reports no positions (a dense row changes every field),
        every entry is recomputed.
        """
        dx = 1.0 - 2.0 * self.X[rows, cols]
        self.X[rows, cols] += dx
        self.current_energies[rows] += deltas
        stacked = cols if self._row_base is None else self._row_base[rows] + cols
        changed = self.op.add_rows(self.H, rows, stacked, dx)
        if kept is None:
            return
        if changed is None:
            _flip_terms(self.X, self.H, self.diag, out=kept)
            return
        r = np.concatenate([rows, changed[0]])
        c = np.concatenate([cols, changed[1]])
        d = self.diag[c] if self.diag.ndim == 1 else self.diag[r, c]
        kept[r, c] = _flip_terms(self.X[r, c], self.H[r, c], d)[1]

    def metropolis_block(self, block, temperature, uniforms) -> int:
        """One blocked Metropolis step over the variables ``block``.

        Every replica proposes a flip of every variable of ``block`` (host
        variable indices) against its state at the start of the step, accepts
        each by :func:`metropolis_accept` (``temperature`` and ``uniforms`` as
        there, ``uniforms`` of shape ``(R, len(block))``) and applies the
        accepted flips together.  The states the proposal gathers and their
        flip signs ``1 - 2x`` give the whole block's new states in one pass (a
        column no replica accepted gets ``x + 0``, its own bytes); only the
        field update gathers the active columns, and each group with an
        accepted flip applies its own model's block product.  The local fields
        are exact for the new states, but interactions *within* the block are
        not re-evaluated between flips, so this approximates sequential
        Metropolis; call :meth:`refresh_energies` before reading
        ``current_energies``.  Returns the number of accepted flips.
        """
        x, sign, delta = self._proposal(block)
        accept = metropolis_accept(delta, temperature, uniforms)
        dX = np.where(accept, sign, self.dtype.type(0.0))
        self.X[:, block] = x + dX
        accepted = int(np.count_nonzero(accept))
        if not accepted:
            return 0
        for rows, op in self._groups:
            group_accept = accept[rows]
            if self.num_groups > 1 and not group_accept.any():
                continue
            active = group_accept.any(axis=0)
            self.H[rows] += op.block_product(dX[rows, active], block[active])
        return accepted

    def refresh_energies(self) -> None:
        """Recompute ``current_energies`` from the local fields."""
        self.current_energies = self.energies_from_fields()

    def reset_replicas(self, mask, new_states) -> None:
        """Replace the states of the replicas selected by boolean ``mask``."""
        new_states = new_states.astype(self.dtype, copy=False)
        self.X[mask] = new_states
        taken = 0
        for rows, op in self._groups:
            picked = mask[rows]
            count = int(np.count_nonzero(picked))
            if count:
                self.H[rows][picked] = op.right_multiply(new_states[taken : taken + count])
                taken += count
        self.current_energies[mask] = (new_states * self.H[mask]).sum(axis=1) + self.offset[mask]

    def swap_rows(self, rows_i, rows_j) -> None:
        """Exchange replica rows ``rows_i`` and ``rows_j`` of the live state.

        Used by parallel tempering to realise accepted ladder swaps; ``best``
        tracking is deliberately untouched (each replica slot keeps its own
        best-visited record).  Both rows must lie in one group.
        """
        for arr in (self.X, self.H, self.current_energies):
            tmp = arr[rows_i].copy()
            arr[rows_i] = arr[rows_j]
            arr[rows_j] = tmp

    def update_best(self):
        """Fold the current states into the per-replica best tracking.

        Returns the boolean mask of replicas that strictly improved.
        """
        improved = self.current_energies < self.best_energies
        if improved.any():
            self.best_energies[improved] = self.current_energies[improved]
            self.best_X[improved] = self.X[improved]
        return improved
