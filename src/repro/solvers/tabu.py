"""Single-flip tabu search over QUBO models, vectorised across replicas.

Tabu search is the classical sub-solver used by D-Wave's qbsolv decomposer and
is also useful as a deterministic-ish local-search baseline.  The implementation
keeps the matrix of single-flip energy changes up to date incrementally through
the shared :class:`~repro.solvers.engine.AnnealingState`, picks the best
non-tabu move per replica (with aspiration: a tabu move is allowed when it
improves the incumbent), and restarts a replica from its perturbed incumbent
when that replica stalls.

All ``num_reads`` searches propagate together: each step takes one argmin
per replica over the ``(num_reads, n)`` delta matrix and makes one batched
local-field update — so the wall time of a batch grows far slower than
``num_reads`` serial searches.  The delta matrix is kept across steps: a
flip refreshes only the entries whose inputs it changed (its own column and,
on a CSR model, the stored entries of its coefficient row; a dense row
changes them all), and the refreshed entries are exactly what a full
recompute gives (see the engine's kernel contract).  Each replica's tabu set
is a ring of the columns it flipped at its last ``tenure`` steps, so a step
checks aspiration on those entries only.

:meth:`TabuSearchSolver.refine_many` batches the other way round for qbsolv:
many small sub-problems, each with its own coefficients and RNG stream, step
together while each one keeps the exact trajectory of a single-replica
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.qubo.model import QUBOModel
from repro.solvers.base import QUBOSolver
from repro.solvers.engine import AnnealingState, resolve_engine_dtype, validate_engine_dtype


@dataclass(frozen=True)
class TabuSearchConfig:
    """Configuration of :class:`TabuSearchSolver`.

    Parameters
    ----------
    num_steps:
        Total number of single-flip moves per read.
    tenure:
        Number of steps a just-flipped variable stays tabu.  ``None`` selects
        ``min(20, n // 4 + 1)``.
    restart_after:
        Steps without incumbent improvement before a perturbation restart.
    dtype:
        Engine float precision (``"float64"`` / ``"float32"``; ``None``
        defers to ``QROSS_ENGINE_DTYPE``, then float64).
    """

    num_steps: int = 500
    tenure: int | None = None
    restart_after: int = 100
    dtype: str | None = None

    def __post_init__(self) -> None:
        if self.num_steps <= 0:
            raise ValueError("num_steps must be positive")
        if self.tenure is not None and self.tenure < 0:
            raise ValueError("tenure must be non-negative")
        if self.restart_after <= 0:
            raise ValueError("restart_after must be positive")
        validate_engine_dtype(self.dtype)


class TabuSearchSolver(QUBOSolver):
    """Best-improvement single-flip tabu search, batched over replicas."""

    name = "tabu-search"

    def __init__(self, config: TabuSearchConfig | None = None) -> None:
        self.config = config or TabuSearchConfig()

    def _sample(
        self, model: QUBOModel, num_reads: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, Optional[dict]]:
        state = AnnealingState(model, num_reads, rng=rng, dtype=self.config.dtype)
        if num_reads == 1:
            # The scalar kernel avoids the 2-D indexing overhead that
            # dominates batched steps at num_reads == 1.
            self._search_single(state, rng)
        else:
            self._search_batch(state, rng)
        return state.best_X, None

    # ------------------------------------------------------------------ internals
    def _search_single(self, state: AnnealingState, rng: np.random.Generator) -> None:
        n = state.num_variables
        tenure = self.config.tenure if self.config.tenure is not None else min(20, n // 4 + 1)
        op = state.op
        diag = state.diag
        # 1-D views: in-place updates keep the engine state consistent.
        x = state.X[0]
        h = state.H[0]
        energy = float(state.current_energies[0])
        best_energy = float(state.best_energies[0])
        tabu_until = np.full(n, -1, dtype=np.int64)
        stall = 0

        for step in range(self.config.num_steps):
            delta = (1.0 - 2.0 * x) * (diag + 2.0 * h - 2.0 * diag * x)
            allowed = tabu_until < step
            # Aspiration: a tabu move that beats the incumbent is always allowed.
            allowed |= (energy + delta) < best_energy
            if not allowed.any():
                allowed = np.ones(n, dtype=bool)
            candidate_delta = np.where(allowed, delta, np.inf)
            i = int(candidate_delta.argmin())

            dx = 1.0 - 2.0 * x[i]
            x[i] += dx
            energy += delta[i]
            op.add_rows(state.H, 0, i, dx)
            tabu_until[i] = step + tenure

            if energy < best_energy - 1e-12:
                best_energy = energy
                state.best_X[0] = x
                state.best_energies[0] = energy
                stall = 0
            else:
                stall += 1
                if stall >= self.config.restart_after:
                    x[:] = state.best_X[0]
                    flips = rng.choice(n, size=max(1, n // 10), replace=False)
                    x[flips] = 1.0 - x[flips]
                    h[:] = op.right_multiply(x[None, :])[0]
                    energy = float((x * h).sum() + state.offset[0])
                    tabu_until[:] = -1
                    stall = 0
        state.current_energies[0] = energy

    def _search_batch(self, state: AnnealingState, rng: np.random.Generator) -> None:
        n = state.num_variables
        num_reads = state.num_reads
        tenure = self.config.tenure if self.config.tenure is not None else min(20, n // 4 + 1)
        inf = state.dtype.type(np.inf)

        # A column is tabu while it is in its replica's ring of the columns
        # flipped at the last ``tenure`` steps (-1 marks an empty slot).
        ring = np.full((num_reads, tenure), -1, dtype=np.intp)
        stall = np.zeros(num_reads, dtype=np.int64)
        replica_rows = np.arange(num_reads)
        ring_rows = np.repeat(replica_rows[:, None], tenure, axis=1)
        # Kept across steps: each flip refreshes only the entries it changed.
        delta = state.flip_deltas()

        for step in range(self.config.num_steps):
            candidate = delta
            if tenure:
                # Aspiration: a tabu move that beats the incumbent is always allowed.
                aspirated = (
                    state.current_energies[:, None] + delta[ring_rows, ring]
                ) < state.best_energies[:, None]
                barred = (ring >= 0) & ~aspirated
                candidate = delta.copy()
                candidate[ring_rows[barred], ring[barred]] = inf
            cols = candidate.argmin(axis=1)
            if tenure >= n:
                # Every column can be tabu: a replica with none allowed (its
                # finite deltas all barred) may take any move.
                blocked = candidate[replica_rows, cols] == inf
                if blocked.any():
                    cols[blocked] = delta[blocked].argmin(axis=1)

            state.apply_single_flips(replica_rows, cols, delta[replica_rows, cols], kept=delta)
            if tenure:
                ring[:, step % tenure] = cols

            improved = state.current_energies < state.best_energies - 1e-12
            state.update_best()
            stall = np.where(improved, 0, stall + 1)

            restart = stall >= self.config.restart_after
            if restart.any():
                num_restarts = int(restart.sum())
                perturbed = np.array(state.best_X[restart], dtype=np.float64)
                num_flips = max(1, n // 10)
                flip_cols = rng.random((num_restarts, n)).argsort(axis=1)[:, :num_flips]
                flip_rows = np.arange(num_restarts)[:, None]
                perturbed[flip_rows, flip_cols] = 1.0 - perturbed[flip_rows, flip_cols]
                state.reset_replicas(restart, perturbed)
                ring[restart] = -1
                stall[restart] = 0
                delta = state.flip_deltas()

    def refine_many(
        self,
        sub_Q: np.ndarray,
        offsets: Sequence[float],
        X0: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Refine ``R`` independent sub-problems from given starts (used by qbsolv).

        Row ``r`` runs tabu search on ``x^T sub_Q[r] x + offsets[r]`` from
        ``X0[r]`` and draws its restart perturbations from ``rngs[r]`` alone.
        ``sub_Q`` is an ``(R, w, w)`` stack of window QUBOs.  Every row follows
        the trajectory :meth:`_search_single` takes on its own problem,
        element for element: the rows share only the Python dispatch of each
        step.  Returns the best state of every row as an ``(R, w)`` int8 array.
        """
        sub_Q = np.asarray(sub_Q, dtype=np.float64)
        X0 = np.array(X0, dtype=np.float64)
        num_rows, n = X0.shape
        if sub_Q.shape != (num_rows, n, n) or len(offsets) != num_rows or len(rngs) != num_rows:
            raise ValueError(
                f"refine_many needs sub_Q of shape ({num_rows}, {n}, {n}) and "
                f"{num_rows} offsets and rngs, got {sub_Q.shape}, {len(offsets)} "
                f"and {len(rngs)}"
            )
        # Symmetrise as QUBOModel does (exact for the symmetric windows qbsolv
        # builds), so both kernels below see the same coefficients.
        sub_Q = (sub_Q + sub_Q.transpose(0, 2, 1)) / 2.0
        if num_rows == 1:
            # A lone row runs the scalar kernel: it steps about twice as fast
            # as a batch of one.
            model = QUBOModel(sub_Q[0], offset=offsets[0])
            state = AnnealingState(model, 1, initial_states=X0, dtype=self.config.dtype)
            self._search_single(state, rngs[0])
            return state.best_X.astype(np.int8)
        return self._search_stacked(sub_Q, offsets, X0, rngs)

    def _search_stacked(self, sub_Q, offsets, X0, rngs) -> np.ndarray:
        """:meth:`_search_single` on every row of a window-QUBO stack at once.

        Each line applies the scalar kernel's arithmetic row-wise.  The moves
        of a step address the state through flat indices (``row * w + col``),
        the cheapest gather and scatter; restarts are rare, so they run per
        row on that row's own host stream.
        """
        num_rows, n = X0.shape
        tenure = self.config.tenure if self.config.tenure is not None else min(20, n // 4 + 1)
        num_flips = max(1, n // 10)
        dtype = resolve_engine_dtype(self.config.dtype)
        Q = sub_Q.astype(dtype, copy=False)
        Q_rows = Q.reshape(num_rows * n, n)
        diag = np.diagonal(Q, axis1=1, axis2=2).copy()
        two_diag = 2.0 * diag
        offset = np.asarray(offsets, dtype=dtype)
        X = X0.astype(dtype, copy=False)
        H = (X[:, None, :] @ Q)[:, 0, :]
        energy = (X * H).sum(axis=1) + offset
        best_X = X.copy()
        best_energy = energy.copy()
        tabu_until = np.full((num_rows, n), -1, dtype=np.int64)
        stall = np.zeros(num_rows, dtype=np.int64)
        # Flat views share memory with X / tabu_until: writes land in both.
        X_flat = X.reshape(-1)
        tabu_flat = tabu_until.reshape(-1)
        row_start = np.arange(num_rows) * n
        inf = dtype.type(np.inf)

        for step in range(self.config.num_steps):
            delta = (1.0 - 2.0 * X) * (diag + 2.0 * H - two_diag * X)
            allowed = tabu_until < step
            # Aspiration: a tabu move that beats the incumbent is always allowed.
            allowed |= (energy[:, None] + delta) < best_energy[:, None]
            any_allowed = allowed.any(axis=1)
            if not any_allowed.all():
                allowed[~any_allowed] = True
            flat = row_start + np.where(allowed, delta, inf).argmin(axis=1)

            x = X_flat[flat]
            dx = 1.0 - 2.0 * x
            X_flat[flat] = x + dx
            energy += delta.reshape(-1)[flat]
            H += dx[:, None] * Q_rows[flat]
            tabu_flat[flat] = step + tenure

            improved = energy < best_energy - 1e-12
            best_energy = np.where(improved, energy, best_energy)
            best_X = np.where(improved[:, None], X, best_X)
            stall = np.where(improved, 0, stall + 1)
            restart = stall >= self.config.restart_after
            if not restart.any():
                continue
            for r in np.flatnonzero(restart):
                flips = rngs[r].choice(n, size=num_flips, replace=False)
                X[r] = best_X[r]
                X[r, flips] = 1.0 - X[r, flips]
                H[r] = (X[r][None, :] @ Q[r])[0]
                energy[r] = (X[r] * H[r]).sum() + offset[r]
                tabu_until[r] = -1
                stall[r] = 0
        return best_X.astype(np.int8)
