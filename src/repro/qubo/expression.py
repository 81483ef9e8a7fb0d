"""Sparse-first QUBO expression building.

The paper's whole loop is "re-relax the same instance at many values of the
relaxation parameter ``A`` and solve" (Sec. 3: ``H_B + A * H_A``).  This
module provides the two pieces that make that loop cheap at scale:

* :class:`QUBOAccumulator` — vectorised COO triplet accumulation with
  duplicate coalescing.  Problem encoders append whole index/value arrays
  (``add_linear`` / ``add_quadratic`` / ``add_squared_linear_penalty``) instead
  of filling a dense ``n x n`` array entry by entry; :meth:`QUBOAccumulator.build`
  coalesces once through scipy's COO→CSR conversion and the model picks its
  storage from the coefficients, so a large sparse instance is encoded
  without any dense allocation.
* :class:`RelaxedEncoding` — a frozen ``(objective, penalty)`` pair (``H_B``,
  ``H_A``) that composes ``H_B + A * H_A`` on demand, with a small per-``A``
  LRU so the service materialises each relaxed model once.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.qubo.model import QUBOModel

#: Bound on :meth:`RelaxedEncoding.relax`'s per-parameter model cache.
#: Relaxed models of large instances are big; tuning sweeps mostly evaluate
#: each parameter once, so a small LRU captures the service's dedup needs
#: without hoarding.
RELAXATION_CACHE_SIZE = 8


class QUBOAccumulator:
    """Vectorised COO accumulation of QUBO coefficients.

    Terms are appended as whole arrays of ``(row, col, value)`` triplets; the
    energy contribution of a triplet is ``value * x_row * x_col`` (diagonal
    triplets are linear terms because ``x^2 = x`` for binary variables).
    Duplicate coordinates are coalesced (summed) at :meth:`build` time, so
    encoders are free to emit the same coordinate from several constraints.

    All ``add_*`` methods return ``self`` for chaining.
    """

    def __init__(self, num_variables: int) -> None:
        num_variables = int(num_variables)
        if num_variables <= 0:
            raise ValueError("num_variables must be positive")
        self._num_variables = num_variables
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self._offset = 0.0

    @property
    def num_variables(self) -> int:
        return self._num_variables

    @property
    def num_terms(self) -> int:
        """Number of accumulated (uncoalesced) triplets."""
        return int(sum(chunk.size for chunk in self._rows))

    @property
    def offset(self) -> float:
        return self._offset

    # ------------------------------------------------------------------ terms
    def _append(self, rows, cols, values) -> "QUBOAccumulator":
        # Always copy: the accumulator holds the chunks until build(), and a
        # caller reusing a scratch buffer between add_* calls must not be able
        # to alias previously appended terms.
        rows = np.atleast_1d(np.array(rows, dtype=np.int64)).ravel()
        cols = np.atleast_1d(np.array(cols, dtype=np.int64)).ravel()
        if rows.shape != cols.shape:
            raise ValueError(f"rows and cols must match, got {rows.shape} vs {cols.shape}")
        values = np.array(
            np.broadcast_to(np.asarray(values, dtype=np.float64), rows.shape)
        )
        if rows.size == 0:
            return self
        lo = min(int(rows.min()), int(cols.min()))
        hi = max(int(rows.max()), int(cols.max()))
        if lo < 0 or hi >= self._num_variables:
            raise ValueError(
                f"index out of range for n={self._num_variables} "
                f"(saw indices in [{lo}, {hi}])"
            )
        self._rows.append(rows)
        self._cols.append(cols)
        self._vals.append(values)
        return self

    def add_constant(self, value: float) -> "QUBOAccumulator":
        """Add a constant energy offset."""
        self._offset += float(value)
        return self

    def add_linear(self, indices, values) -> "QUBOAccumulator":
        """Add ``sum_k values[k] * x[indices[k]]`` (scalar ``values`` broadcasts)."""
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64)).ravel()
        return self._append(indices, indices, values)

    def add_quadratic(self, rows, cols, values) -> "QUBOAccumulator":
        """Add ``sum_k values[k] * x[rows[k]] * x[cols[k]]``.

        ``rows[k] == cols[k]`` entries fold onto the diagonal (linear terms).
        The triplet is recorded as given; the model's symmetrisation spreads it
        over ``(i, j)`` and ``(j, i)`` without changing the energy.
        """
        return self._append(rows, cols, values)

    def add_squared_linear_penalty(
        self, indices, coefficients, constant: float = 0.0
    ) -> "QUBOAccumulator":
        """Add ``(sum_k coefficients[k] * x[indices[k]] - constant)^2``.

        The expansion is fully vectorised: the quadratic part is the flattened
        outer product of the coefficient vector over the support, the linear
        part folds onto the diagonal, and ``constant**2`` goes to the offset.
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64)).ravel()
        coefficients = np.broadcast_to(
            np.asarray(coefficients, dtype=np.float64), indices.shape
        )
        k = indices.size
        if k:
            rows = np.repeat(indices, k)
            cols = np.tile(indices, k)
            vals = np.repeat(coefficients, k) * np.tile(coefficients, k)
            self._append(rows, cols, vals)
            constant = float(constant)
            if constant != 0.0:
                self.add_linear(indices, -2.0 * constant * coefficients)
        return self.add_constant(float(constant) ** 2)

    # ------------------------------------------------------------------ build
    def build(self, offset: float = 0.0, name: str = "") -> QUBOModel:
        """Coalesce the accumulated triplets into a :class:`QUBOModel`.

        The coalescing always happens in sparse COO form and the model keeps
        CSR inside the sparse regime
        (:data:`~repro.qubo.model.SPARSE_MIN_VARIABLES`,
        :data:`~repro.qubo.model.SPARSE_DENSITY_THRESHOLD`) — an ``n x n``
        array is only ever allocated for a model that ends up dense.
        """
        n = self._num_variables
        if self._rows:
            rows = np.concatenate(self._rows)
            cols = np.concatenate(self._cols)
            vals = np.concatenate(self._vals)
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0, dtype=np.float64)
        coo = sparse.coo_array((vals, (rows, cols)), shape=(n, n))
        return QUBOModel(coo.tocsr(), offset=self._offset + float(offset), name=name)


@dataclass(frozen=True, eq=False)
class RelaxedEncoding:
    """Frozen ``(H_B, H_A)`` pair composing ``H_B + A * H_A`` on demand.

    Each model holds the storage its coefficients give; :meth:`relax` sums
    two sparse models in CSR (never densifying them), the relaxed model picks
    its own storage, and the most recent relaxed models are cached per
    parameter, so service-level batching materialises each ``(encoding, A)``
    exactly once.
    """

    objective: QUBOModel
    penalty: QUBOModel
    name: str = ""

    _cache: "OrderedDict[float, QUBOModel]" = field(
        init=False, repr=False, compare=False, default_factory=OrderedDict
    )
    _lock: threading.Lock = field(
        init=False, repr=False, compare=False, default_factory=threading.Lock
    )
    _fingerprint_cache: list = field(
        init=False, repr=False, compare=False, default_factory=list
    )

    def __post_init__(self) -> None:
        if self.objective.num_variables != self.penalty.num_variables:
            raise ValueError(
                "objective and penalty are defined over different numbers of "
                f"variables ({self.objective.num_variables} vs "
                f"{self.penalty.num_variables})"
            )

    @property
    def num_variables(self) -> int:
        return int(self.objective.num_variables)

    # ------------------------------------------------------------ composition
    def relax(self, relaxation_parameter: float) -> QUBOModel:
        """The relaxed model ``H_B + A * H_A`` for ``A = relaxation_parameter``.

        Repeated calls with the same parameter return the cached model (LRU of
        :data:`RELAXATION_CACHE_SIZE`); a sparse encoding never densifies here.
        """
        from repro.utils.validation import check_positive

        A = check_positive(relaxation_parameter, "relaxation_parameter")
        with self._lock:
            cached = self._cache.get(A)
            if cached is not None:
                self._cache.move_to_end(A)
                return cached
        # Compose outside the lock: concurrent workers relaxing *different*
        # parameters of the same encoding must not serialise on each other's
        # O(nnz..n^2) compositions.  A racing duplicate composition of the
        # same parameter is benign (models are immutable) — first store wins.
        combined = self.objective + self.penalty.scaled(A)
        combined.name = self.name or self.objective.name or "relaxed"
        with self._lock:
            existing = self._cache.get(A)
            if existing is not None:
                self._cache.move_to_end(A)
                return existing
            self._cache[A] = combined
            while len(self._cache) > RELAXATION_CACHE_SIZE:
                self._cache.popitem(last=False)
        return combined

    def fingerprint(self) -> str:
        """Stable hash of the ``(objective, penalty)`` pair.

        Together with the relaxation parameter this identifies the relaxed
        model *without materialising it* — the service keys request groups on
        ``(encoding fingerprint, A)`` and builds the model lazily in a worker.
        """
        if not self._fingerprint_cache:
            digest = hashlib.sha256()
            digest.update(self.objective.fingerprint().encode("ascii"))
            digest.update(self.penalty.fingerprint().encode("ascii"))
            self._fingerprint_cache.append(digest.hexdigest()[:16])
        return self._fingerprint_cache[0]

    # --------------------------------------------------------------- energies
    def objective_energy(self, x: np.ndarray) -> float:
        """Original objective value of an assignment (independent of ``A``)."""
        return self.objective.energy(x)

    def penalty_energy(self, x: np.ndarray) -> float:
        """Constraint-violation energy of an assignment (independent of ``A``)."""
        return self.penalty.energy(x)

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Whether an assignment satisfies the constraints (penalty energy ~ 0)."""
        return self.penalty_energy(x) <= tol
