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

State transitions go through exactly two mutators:

* :meth:`apply_single_flips` — one flip per listed replica, *exact*: the
  supplied deltas are the true energy changes, so ``current_energies`` stays
  exact up to float accumulation.
* :meth:`apply_block_flips` — simultaneous flips of a variable block with a
  per-replica accept mask.  Deltas of variables flipped together in one block
  interact, so after a block application ``current_energies`` is recomputed
  from the (always exact) local fields via ``E = sum_i x_i H_i + offset``
  rather than summed from the proposed deltas.

Coefficient access is routed through the operator returned by
:meth:`repro.qubo.model.QUBOModel.operator` — CSR for a sparse model, dense
otherwise — so sparse instances (e.g. MVC) avoid dense ``n × n`` row traffic
without any solver-side changes.

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
from typing import Optional

import numpy as np

from repro.qubo.model import QUBOModel
from repro.utils.rng import ensure_rng

#: Environment variable selecting the engine dtype when a solver leaves its
#: ``dtype`` option unset.
DTYPE_ENV = "QROSS_ENGINE_DTYPE"
#: The float dtypes the engine computes in.
SUPPORTED_DTYPES = ("float64", "float32")


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
    dtype setting.
    """
    delta = np.asarray(delta)
    dtype = np.result_type(delta.dtype, np.float32)
    accept = delta <= 0.0
    temps = np.asarray(temperature, dtype=dtype)
    if temps.ndim == 0:
        if temps > 0:
            accept = accept | (uniforms < np.exp(-np.clip(delta, 0.0, None) / temps))
        return accept
    if temps.shape != (delta.shape[0],):
        raise ValueError(
            f"temperature array must have one entry per replica row "
            f"({delta.shape[0]}), got shape {temps.shape}"
        )
    cols = temps.reshape(-1, *([1] * (delta.ndim - 1)))
    positive = cols > 0
    safe = np.where(positive, cols, dtype.type(1.0))
    boltzmann = uniforms < np.exp(-np.clip(delta, 0.0, None) / safe)
    return accept | (boltzmann & positive)


def default_block_size(num_variables: int) -> int:
    """Sweep block size used by blocked simulated annealing.

    Chosen so a sweep needs ``O(n / block)`` Python iterations while keeping
    blocks small relative to ``n`` (simultaneous flips within a block
    approximate sequential Metropolis updates; see :class:`AnnealingState`).
    """
    return int(np.clip(num_variables // 8, 1, 64))


class AdaptiveBlockSizer:
    """Acceptance-rate feedback controller for the blocked-sweep block size.

    Flips proposed together in one block do not see each other's move, so a
    block sweep is only a faithful approximation of sequential Metropolis when
    few of its proposals are accepted.  The fixed :func:`default_block_size`
    heuristic ignores that: early hot sweeps (acceptance near one) get the
    same block as late cold sweeps (acceptance near zero).  This controller
    doubles the block while the sweep acceptance rate stays below ``low``
    (almost nothing flips together — bigger blocks are free speed) and halves
    it back toward the baseline when the rate exceeds ``high`` (many
    simultaneous flips).  The baseline is also the floor: hot sweeps run
    exactly the block the fixed heuristic would have used (no fidelity
    regression), cold sweeps run up to ``max_block`` (pure Python-overhead
    savings).  Pass ``min_block`` explicitly to allow shrinking further, down
    to the exact sequential sweep at ``1``.

    The update consumes only the accepted-flip count of the previous sweep —
    no random draws — so enabling adaptivity never perturbs a solver's RNG
    stream; trajectories change only through the block partition itself.
    """

    def __init__(
        self,
        num_variables: int,
        initial: Optional[int] = None,
        low: float = 0.02,
        high: float = 0.2,
        min_block: Optional[int] = None,
        max_block: Optional[int] = None,
    ) -> None:
        if not 0.0 <= low < high:
            raise ValueError("thresholds must satisfy 0 <= low < high")
        self.block = int(initial if initial is not None else default_block_size(num_variables))
        if self.block < 1:
            raise ValueError("initial block size must be positive")
        self.min_block = int(min_block if min_block is not None else self.block)
        self.max_block = int(
            max_block
            if max_block is not None
            else max(self.block, int(np.clip(num_variables // 4, 1, 256)))
        )
        if not 1 <= self.min_block <= self.max_block:
            raise ValueError("must satisfy 1 <= min_block <= max_block")
        self.low = float(low)
        self.high = float(high)

    def update(self, acceptance_rate: float) -> int:
        """Fold one sweep's acceptance rate in; return the next block size."""
        if acceptance_rate > self.high:
            self.block = max(self.min_block, self.block // 2)
        elif acceptance_rate < self.low:
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

    ``dtype`` is the solver's ``dtype`` option: the state's arrays and its
    coefficient operator live in :func:`resolve_engine_dtype` of it; the
    operator is the model's own (:meth:`repro.qubo.model.QUBOModel.operator`).
    Initial states are drawn on the host in float64 and cast once, so the
    random stream does not depend on the dtype.
    """

    def __init__(
        self,
        model: QUBOModel,
        num_reads: int,
        rng: Optional[np.random.Generator] = None,
        initial_states: Optional[np.ndarray] = None,
        dtype: Optional[str] = None,
    ) -> None:
        self.model = model
        self.dtype = resolve_engine_dtype(dtype)
        self.op = model.operator(self.dtype)
        n = model.num_variables
        if initial_states is not None:
            X = np.array(initial_states, dtype=np.float64)
            if X.ndim == 1:
                X = X[None, :]
            if X.shape != (num_reads, n):
                raise ValueError(
                    f"initial_states must have shape ({num_reads}, {n}), got {X.shape}"
                )
        else:
            rng = ensure_rng(rng)
            X = rng.integers(0, 2, size=(num_reads, n), dtype=np.int8).astype(np.float64)
        self.X = X.astype(self.dtype, copy=False)
        self.H = self.op.right_multiply(self.X)
        self.diag = self.op.diag
        self.offset = model.offset
        self.current_energies = self.energies_from_fields()
        self.best_X = self.X.copy()
        self.best_energies = self.current_energies.copy()
        #: Optional :class:`repro.obs.SweepProfiler`; solvers attach one when
        #: ``QROSS_ENGINE_PROFILE`` is on.  ``None`` keeps the mutators on a
        #: single-attribute-test fast path.
        self.profiler = None

    def uniforms(self, rng: np.random.Generator, shape) -> np.ndarray:
        """``rng.random(shape)`` in the state dtype (drawn in float64, then cast)."""
        return rng.random(shape).astype(self.dtype, copy=False)

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
        if cols is None:
            x = self.X
            h = self.H
            d = self.diag[None, :]
        else:
            x = self.X[:, cols]
            h = self.H[:, cols]
            d = self.diag[cols][None, :]
        return (1.0 - 2.0 * x) * (d + 2.0 * h - 2.0 * d * x)

    # --------------------------------------------------------------- mutators
    def apply_single_flips(self, rows, cols, deltas) -> None:
        """Flip variable ``cols[k]`` of replica ``rows[k]`` for every ``k``.

        ``deltas`` must be the matching single-flip energy changes (as returned
        by :meth:`flip_deltas`); ``current_energies`` is advanced exactly.
        """
        dx = 1.0 - 2.0 * self.X[rows, cols]
        self.X[rows, cols] += dx
        self.current_energies[rows] += deltas
        self.H[rows] += dx[:, None] * self.op.rows(cols)

    def apply_block_flips(self, block, accept) -> None:
        """Apply the accepted flips of a variable block simultaneously.

        ``block`` holds host variable indices, ``accept`` a boolean mask of
        shape ``(R, len(block))``.  All accepted flips are applied at once; the
        local fields are updated exactly for the new states, but because
        interactions *within* the block are not re-evaluated between flips this
        is an approximation of sequential Metropolis — callers should refresh
        ``current_energies`` via :meth:`refresh_energies` before reading them.
        """
        if self.profiler is not None:
            # Count before the no-accepts early return so proposals are never
            # dropped from the acceptance-rate denominator.
            proposed = int(accept.shape[0]) * int(accept.shape[1])
            self.profiler.count_flips(proposed, int(np.count_nonzero(accept)))
        if not accept.any():
            return
        active = accept.any(axis=0)
        cols = block[active]
        dX = np.where(accept[:, active], 1.0 - 2.0 * self.X[:, cols], self.dtype.type(0.0))
        self.X[:, cols] += dX
        self.H += self.op.block_product(dX, cols)

    def refresh_energies(self) -> None:
        """Recompute ``current_energies`` from the local fields."""
        self.current_energies = self.energies_from_fields()

    def reset_replicas(self, mask, new_states) -> None:
        """Replace the states of the replicas selected by boolean ``mask``."""
        new_states = new_states.astype(self.dtype, copy=False)
        self.X[mask] = new_states
        self.H[mask] = self.op.right_multiply(new_states)
        self.current_energies[mask] = (new_states * self.H[mask]).sum(axis=1) + self.offset

    def swap_rows(self, rows_i, rows_j) -> None:
        """Exchange replica rows ``rows_i`` and ``rows_j`` of the live state.

        Used by parallel tempering to realise accepted ladder swaps; ``best``
        tracking is deliberately untouched (each replica slot keeps its own
        best-visited record).
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
