"""QUBO model representation and energy evaluation.

A QUBO (quadratic unconstrained binary optimisation) problem is

.. math:: \\min_{x \\in \\{0,1\\}^n} \\; x^T Q x + c

where :math:`Q` is an upper-triangular (or symmetric) real matrix and ``c`` an
optional constant offset.  A model picks its storage from its own
coefficients, whatever form the caller passed: canonical float64 CSR when it
has at least :data:`SPARSE_MIN_VARIABLES` variables and density below
:data:`SPARSE_DENSITY_THRESHOLD` (MVC on large sparse graphs, say), which is
encoded, fingerprinted and solved without ever allocating an ``n x n`` dense
array; a dense float64 array otherwise (the small TSP instances of the
paper).  One fingerprint therefore always means one storage and one set of
seeded solver outputs.  Every public operation works on both storages; a
sparse model is never silently densified — dense views of it go through the
explicit :meth:`QUBOModel.dense_Q`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from repro.utils.validation import check_square_matrix

#: A model denser than this keeps the dense float64 backend.  Deliberately
#: strict: at borderline densities (~0.2, e.g. TSP QUBOs) the CSR row gathers
#: cost more than dense BLAS saves, and the sparse backend only starts winning
#: clearly below ~10% density on large instances.
SPARSE_DENSITY_THRESHOLD = 0.10
#: Below this size the dense backend always wins (sparse overhead dominates).
SPARSE_MIN_VARIABLES = 512


def _canonical_csr(matrix):
    """Canonical float64 CSR: sorted indices, duplicates summed, no stored zeros.

    Canonical form makes sparse reductions deterministic (they visit entries in
    the same row-major order a dense scan would) and keeps ``nnz`` equal to the
    true number of non-zero coefficients, so density and fingerprints agree
    with the dense storage of the same model.
    """
    csr = sparse.csr_array(matrix).astype(np.float64)
    csr.sum_duplicates()
    csr.sort_indices()
    csr.eliminate_zeros()
    return csr


class DenseOperator:
    """Dense view of ``Q`` in one float dtype, exposing the kernels the solvers need.

    The solver engine never touches ``Q`` directly; it goes through this small
    interface (``right_multiply`` / ``rows`` / ``add_rows`` /
    ``block_product``) so that the same annealing code runs unchanged on the
    CSR operator.  Every array it returns is in ``dtype``.
    """

    kind = "dense"

    def __init__(self, Q: np.ndarray, dtype="float64") -> None:
        self.dtype = np.dtype(dtype)
        self._Q = np.ascontiguousarray(Q, dtype=self.dtype)
        self.diag = np.ascontiguousarray(np.diag(self._Q))

    @property
    def num_variables(self) -> int:
        return int(self._Q.shape[1])

    def right_multiply(self, X: np.ndarray) -> np.ndarray:
        """``X @ Q`` for a batch of states — initialises local fields."""
        return np.asarray(X @ self._Q, dtype=self.dtype)

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Dense gather of the requested rows, shape ``(len(indices), n)``."""
        return self._Q[indices]

    def add_rows(self, H: np.ndarray, rows, indices, dx) -> None:
        """``H[rows[k]] += dx[k] * Q[indices[k]]`` for every ``k``, in place.

        The local-field update of single flips (``dx`` in {-1, +1}, an
        array or a numpy scalar).  ``rows`` must not repeat; scalar arguments
        update one row.  A dense row reaches every column, so it reports no
        positions (see :meth:`SparseOperator.add_rows`).
        """
        H[rows] += dx[..., None] * self._Q[indices]

    def block_product(self, dX_block: np.ndarray, block: np.ndarray) -> np.ndarray:
        """``dX_block @ Q[block, :]`` — the local-field update of a block flip."""
        return np.asarray(dX_block @ self._Q[block], dtype=self.dtype)


class SparseOperator:
    """CSR operator for sparse models (e.g. MVC QUBOs), in one float dtype.

    Takes a canonical float64 CSR ``Q`` (a sparse model's own coefficients,
    or :meth:`QUBOModel.sparse_Q`) as given and shares its index arrays.  The
    coefficients the products and row gathers read are rounded to single
    precision whatever ``dtype`` is: the annealers only use them to steer the
    search, and every returned energy is re-evaluated against the exact
    float64 model, so the rounding never leaks into reported results.
    ``diag`` stays exact, and products and local fields accumulate in
    ``dtype``.

    Costs, for ``R`` states and ``b`` indexed rows holding ``nnz_b`` stored
    entries:

    * :meth:`right_multiply` — ``O(R * nnz(Q))``, through scipy;
    * :meth:`rows` — a zero-filled ``(b, n)`` array plus an ``O(nnz_b)``
      scatter, for callers that need dense rows (qbsolv's windows);
    * :meth:`add_rows` — ``O(nnz_b)``: only the flipped rows' non-zeros
      reach ``H``;
    * :meth:`block_product` — ``O(R * nnz_b)`` multiply-adds, plus one
      zero-filled ``(n, R)`` result.  The dense operator's GEMM costs
      ``O(R * b * n)``.
    """

    kind = "sparse"

    def __init__(self, Q, dtype="float64") -> None:
        self.dtype = np.dtype(dtype)
        self.diag = np.asarray(Q.diagonal(), dtype=self.dtype)
        data = Q.data.astype(np.float32).astype(self.dtype)
        self._csr = sparse.csr_array((data, Q.indices, Q.indptr), shape=Q.shape)
        # Raw CSR triplet: the kernels index these directly because scipy's
        # fancy row indexing spends ~100x the gather cost on index validation
        # and matrix construction, which dominates per-step use.
        self._indptr, self._indices, self._data = self._csr.indptr, self._csr.indices, self._csr.data
        self._row_nnz = np.diff(self._indptr)
        self._num_variables = int(Q.shape[1])

    @property
    def num_variables(self) -> int:
        return self._num_variables

    def right_multiply(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X @ self._csr, dtype=self.dtype)

    def _nonzeros(self, indices):
        """Stored entries of rows ``indices``: counts, row pointer, positions.

        ``positions[ptr[k]:ptr[k + 1]]`` are the CSR positions of the
        ``counts[k]`` entries of row ``indices[k]``, in column order; ``ptr``
        is in the index dtype.
        """
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        counts = self._row_nnz[idx]
        ptr = np.zeros(idx.size + 1, dtype=self._indices.dtype)
        ptr[1:] = counts.cumsum()
        positions = (self._indptr[idx] - ptr[:-1]).repeat(counts) + np.arange(ptr[-1])
        return counts, ptr, positions

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Dense rows ``Q[indices]``, gathered in one vectorised scatter."""
        counts, _, positions = self._nonzeros(indices)
        out = np.zeros((counts.size, self._num_variables), dtype=self.dtype)
        out[np.arange(counts.size).repeat(counts), self._indices[positions]] = self._data[positions]
        return out

    def add_rows(self, H: np.ndarray, rows, indices, dx):
        """``H[rows[k]] += dx[k] * Q[indices[k]]`` for every ``k``, in place.

        Touches only the stored entries of the indexed rows.  Skipping the
        zero terms leaves ``H`` byte-equal to the dense update unless it holds
        ``-0.0``, which local fields summed from zero never do.  ``rows`` must
        not repeat; scalar arguments update one row.  Returns the
        ``(rows, columns)`` index arrays of the entries of ``H`` it changed.
        """
        counts, _, positions = self._nonzeros(indices)
        changed = np.repeat(rows, counts), self._indices[positions]
        H[changed] += np.repeat(dx, counts) * self._data[positions]
        return changed

    def block_product(self, dX_block: np.ndarray, block: np.ndarray) -> np.ndarray:
        """``dX_block @ Q[block, :]`` for ``dX_block`` in {-1, 0, +1}.

        Every term ``dX[r, k] * Q[block[k], j]`` is then exact, so a sum is
        fixed by its order alone.  Each column sums its terms in block order,
        starting from zero.  In float64 a sum of a few float32-rounded
        coefficients is exact in any order, so the product equals the dense
        GEMM ``dX_block @ self.rows(block)``; in float32 the block order is
        the contract (an optimised sgemm may split a column's sum).  The
        kernel is scipy's compiled CSC multi-vector product (the one
        ``csc_array @ ndarray`` reaches), run on the block rows' raw CSR
        entries read as the CSC form of ``Q[block].T``; building a scipy
        array per block costs more than the product.
        """
        counts, ptr, positions = self._nonzeros(block)
        if dX_block.ndim != 2 or dX_block.shape[1] != counts.size:
            # The compiled kernel reads len(block) columns of dX unchecked.
            raise ValueError(
                f"dX_block must have shape (R, {counts.size}), got {dX_block.shape}"
            )
        num_states = dX_block.shape[0]
        out = np.zeros((self._num_variables, num_states), dtype=self.dtype)
        _sparsetools.csc_matvecs(
            self._num_variables, counts.size, num_states,
            ptr, self._indices[positions], self._data[positions],
            np.ascontiguousarray(dX_block.T, dtype=self.dtype).ravel(), out.ravel(),
        )
        return out.T


def stack_rows(ops: Sequence["DenseOperator | SparseOperator"]):
    """One operator over the rows of same-size, same-dtype operators, stacked.

    Row ``g * n + i`` of the result is row ``i`` of ``ops[g]``, with the
    values ``ops[g].rows`` returns.  Only its row kernels (:meth:`rows`,
    :meth:`add_rows`) are meaningful.  All-sparse operators stack as CSR; any
    dense one makes the stack dense, ``len(ops) * n * n`` entries.
    """
    dtype = ops[0].dtype
    if all(op.kind == "sparse" for op in ops):
        return SparseOperator(sparse.vstack([op._csr for op in ops], format="csr"), dtype)
    return DenseOperator(
        np.concatenate(
            [op._Q if op.kind == "dense" else op.rows(np.arange(op.num_variables)) for op in ops]
        ),
        dtype,
    )


@dataclass(frozen=True)
class IsingModel:
    """Ising form ``h . s + s^T J s + offset`` with spins in {-1, +1}.

    ``J`` is symmetric with a zero diagonal; the quadratic term therefore counts
    every pair twice (``J_ij s_i s_j + J_ji s_j s_i``), matching the QUBO
    convention used by :class:`QUBOModel`.  ``J`` is a dense ndarray when the
    source QUBO was dense and a CSR matrix when it was sparse.
    """

    h: np.ndarray
    J: np.ndarray
    offset: float

    @property
    def num_variables(self) -> int:
        return int(self.h.shape[0])


class QUBOModel:
    """QUBO model ``x^T Q x + offset`` over binary variables.

    Parameters
    ----------
    Q:
        Square coefficient matrix — a dense ndarray or a scipy sparse matrix.
        It is stored internally in *symmetrised* form ``(Q + Q^T) / 2`` which
        leaves the quadratic form unchanged and simplifies incremental energy
        updates in the solvers.  The storage follows from the coefficients
        alone: canonical CSR inside the sparse regime (at least
        :data:`SPARSE_MIN_VARIABLES` variables, density below
        :data:`SPARSE_DENSITY_THRESHOLD`), a dense array outside it.
    offset:
        Constant added to every energy.
    name:
        Optional human-readable label used in reports.
    """

    def __init__(self, Q, offset: float = 0.0, name: str = "") -> None:
        if sparse.issparse(Q):
            if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
                raise ValueError(f"Q must be a square 2-D array, got shape {Q.shape}")
            csr = _canonical_csr(Q)
            Q = _canonical_csr((csr + csr.T) / 2.0)
        else:
            Q = check_square_matrix(Q, "Q")
            Q = (Q + Q.T) / 2.0
        n = Q.shape[0]
        self._density: Optional[float] = None
        # Only a model of sparse-regime size pays for the non-zero count.
        if n >= SPARSE_MIN_VARIABLES:
            nnz = Q.nnz if sparse.issparse(Q) else np.count_nonzero(Q)
            self._density = float(nnz) / float(n * n)
        is_sparse = self._density is not None and self._density < SPARSE_DENSITY_THRESHOLD
        if is_sparse != sparse.issparse(Q):
            Q = _canonical_csr(Q) if is_sparse else Q.toarray()
        self._Q = Q
        self._storage = "sparse" if is_sparse else "dense"
        self._offset = float(offset)
        self.name = name
        self._operators: Dict[str, object] = {}
        self._coefficient_stats: Optional[Tuple[float, float]] = None
        self._fingerprint: Optional[str] = None
        self._dense_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ basic
    @property
    def storage(self) -> str:
        """Coefficient storage, fixed by the coefficients: ``"dense"`` or ``"sparse"``."""
        return self._storage

    @property
    def is_sparse(self) -> bool:
        return self._storage == "sparse"

    def _dense(self) -> np.ndarray:
        """Dense float64 coefficient array (cached); the densification choke point.

        Every dense materialisation of a sparse-stored model funnels through
        here, which is what lets tests assert that the sparse encode/solve path
        never densifies.
        """
        if self._storage == "dense":
            return self._Q
        if self._dense_cache is None:
            self._dense_cache = np.asarray(self._Q.toarray(), dtype=np.float64)
        return self._dense_cache

    @property
    def Q(self) -> np.ndarray:
        """Symmetrised dense coefficient matrix of a dense model (read-only view).

        A sparse model raises instead of densifying silently — call
        :meth:`dense_Q` to densify explicitly or :meth:`sparse_Q` for the CSR
        form.
        """
        if self.is_sparse:
            raise ValueError(
                f"model {self.name!r} (n={self.num_variables}, "
                f"density={self.density():.4f}) is stored sparse; refusing to "
                "densify silently. Use dense_Q() to densify explicitly or "
                "sparse_Q() for the CSR form."
            )
        view = self._Q.view()
        view.flags.writeable = False
        return view

    def dense_Q(self) -> np.ndarray:
        """Explicit dense float64 view of the coefficients (read-only)."""
        view = self._dense().view()
        view.flags.writeable = False
        return view

    def sparse_Q(self):
        """Coefficients as a canonical float64 CSR matrix (converting if dense)."""
        if self.is_sparse:
            return self._Q
        return _canonical_csr(self._Q)

    @property
    def offset(self) -> float:
        return self._offset

    @property
    def num_variables(self) -> int:
        return int(self._Q.shape[0])

    def _diagonal(self) -> np.ndarray:
        return np.asarray(self._Q.diagonal(), dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"QUBOModel(n={self.num_variables}, offset={self._offset:.4g}, "
            f"storage={self._storage!r}, name={self.name!r})"
        )

    # ---------------------------------------------------------------- algebra
    @classmethod
    def from_dict(
        cls,
        coefficients: Mapping[Tuple[int, int], float],
        num_variables: int | None = None,
        offset: float = 0.0,
        name: str = "",
    ) -> "QUBOModel":
        """Build a model from a ``{(i, j): value}`` mapping (dimod-style)."""
        if num_variables is None:
            if not coefficients:
                raise ValueError("num_variables is required for an empty coefficient dict")
            num_variables = 1 + max(max(i, j) for i, j in coefficients)
        Q = np.zeros((num_variables, num_variables), dtype=np.float64)
        for (i, j), value in coefficients.items():
            if not (0 <= i < num_variables and 0 <= j < num_variables):
                raise ValueError(f"index ({i}, {j}) out of range for n={num_variables}")
            Q[i, j] += float(value)
        return cls(Q, offset=offset, name=name)

    def to_dict(self, tol: float = 0.0) -> Dict[Tuple[int, int], float]:
        """Return upper-triangular ``{(i, j): value}`` coefficients above ``tol``."""
        coo = self.sparse_Q().tocoo()
        rows = np.asarray(coo.coords[0], dtype=np.int64)
        cols = np.asarray(coo.coords[1], dtype=np.int64)
        vals = np.asarray(coo.data, dtype=np.float64)
        upper = rows <= cols
        rows, cols, vals = rows[upper], cols[upper], vals[upper]
        vals = np.where(rows == cols, vals, 2.0 * vals)
        keep = np.abs(vals) > tol
        return {
            (int(i), int(j)): float(v)
            for i, j, v in zip(rows[keep], cols[keep], vals[keep])
        }

    def scaled(self, factor: float) -> "QUBOModel":
        """Return a new model with every coefficient (and offset) multiplied by ``factor``."""
        return QUBOModel(self._Q * factor, offset=self._offset * factor, name=self.name)

    def __add__(self, other: "QUBOModel") -> "QUBOModel":
        if not isinstance(other, QUBOModel):
            return NotImplemented
        if other.num_variables != self.num_variables:
            raise ValueError(
                f"cannot add QUBOs of different sizes ({self.num_variables} vs {other.num_variables})"
            )
        offset = self._offset + other._offset
        if self._storage == "sparse" and other._storage == "sparse":
            return QUBOModel(self._Q + other._Q, offset=offset, name=self.name)
        # Mixed storage: the dense operand already holds an n x n array, so
        # summing densely costs no extra memory; the sum picks its own storage.
        return QUBOModel(self._dense() + other._dense(), offset=offset, name=self.name)

    def __mul__(self, factor: float) -> "QUBOModel":
        return self.scaled(float(factor))

    __rmul__ = __mul__

    # --------------------------------------------------------------- energies
    def energy(self, x: np.ndarray) -> float:
        """Energy of a single binary assignment ``x`` (shape ``(n,)``)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.num_variables,):
            raise ValueError(f"expected shape ({self.num_variables},), got {x.shape}")
        if self._storage == "sparse":
            return float(x @ (self._Q @ x) + self._offset)
        return float(x @ self._Q @ x + self._offset)

    def energies(self, X: np.ndarray) -> np.ndarray:
        """Energies of a batch of assignments ``X`` (shape ``(batch, n)``)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.num_variables:
            raise ValueError(f"expected shape (batch, {self.num_variables}), got {X.shape}")
        if self._storage == "sparse":
            return np.asarray((X @ self._Q) * X).sum(axis=1) + self._offset
        return np.einsum("bi,ij,bj->b", X, self._Q, X) + self._offset

    def local_fields(self, X: np.ndarray) -> np.ndarray:
        """Single-flip energy changes for every variable of every assignment.

        For symmetric ``Q`` the change of energy when flipping variable ``i`` of
        assignment ``x`` is ``dE_i = (1 - 2 x_i) * (Q_ii + 2 * sum_{j != i} Q_ij x_j)``.
        Returns an array of shape ``(batch, n)``.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.num_variables:
            raise ValueError(f"expected shape (batch, {self.num_variables}), got {X.shape}")
        diag = self._diagonal()
        # 2 * Q x includes 2*Q_ii*x_i; subtract the extra diagonal contribution.
        field = 2.0 * np.asarray(X @ self._Q) - 2.0 * X * diag + diag
        return (1.0 - 2.0 * X) * field

    # --------------------------------------------------------------- convert
    def to_ising(self) -> IsingModel:
        """Convert to Ising form using ``x = (1 + s) / 2``.

        Sparse models produce a sparse (CSR) ``J`` — the conversion never
        densifies.
        """
        Q = self._Q
        if self._storage == "sparse":
            diag = self._diagonal()
            J = _canonical_csr((Q - sparse.diags_array(diag)) / 4.0)
            h = np.asarray(Q.sum(axis=1)).ravel() / 2.0
            offset = self._offset + float(Q.sum()) / 4.0 + float(diag.sum()) / 4.0
            return IsingModel(h=h, J=J, offset=float(offset))
        n = self.num_variables
        J = Q / 4.0
        np.fill_diagonal(J, 0.0)
        h = Q.sum(axis=1) / 2.0
        offset = self._offset + Q.sum() / 4.0 + np.trace(Q) / 4.0
        return IsingModel(h=h, J=J, offset=float(offset))

    @classmethod
    def from_ising(cls, ising: IsingModel, name: str = "") -> "QUBOModel":
        """Convert an Ising model back into QUBO form (sparse ``J`` stays sparse)."""
        h = np.asarray(ising.h, dtype=np.float64)
        if sparse.issparse(ising.J):
            J = _canonical_csr(ising.J)
            J = _canonical_csr((J + J.T) / 2.0)
            if np.any(J.diagonal() != 0):
                raise ValueError("Ising J must have a zero diagonal")
            diag = 2.0 * h - 4.0 * np.asarray(J.sum(axis=1)).ravel()
            Q = 4.0 * J + sparse.diags_array(diag)
            offset = ising.offset - h.sum() + float(J.sum())
            return cls(Q, offset=float(offset), name=name)
        J = check_square_matrix(ising.J, "J")
        J = (J + J.T) / 2.0
        np_diag = np.diag(J).copy()
        if np.any(np_diag != 0):
            raise ValueError("Ising J must have a zero diagonal")
        Q = 4.0 * J
        diag = 2.0 * h - 4.0 * J.sum(axis=1)
        Q = Q.copy()
        np.fill_diagonal(Q, diag)
        offset = ising.offset - h.sum() + J.sum()
        return cls(Q, offset=float(offset), name=name)

    # ------------------------------------------------------------- operators
    def density(self) -> float:
        """Fraction of non-zero coefficients in the symmetrised matrix.

        A model of sparse-regime size counts its non-zeros when it picks its
        storage; a smaller one pays the ``O(n^2)`` scan on the first call.
        Cached either way.
        """
        if self._density is None:
            n = self.num_variables
            self._density = float(np.count_nonzero(self._Q)) / float(n * n) if n else 0.0
        return self._density

    def operator(self, dtype="float64"):
        """Return the solver-facing coefficient operator for this model.

        A sparse model gets the CSR operator, a dense one the dense operator.
        ``dtype`` (float64 or float32) is the dtype the operator computes in.
        Operators are cached on the model per dtype, so repeated solver calls
        reuse the same arrays.
        """
        key = np.dtype(dtype).name
        op = self._operators.get(key)
        if op is None:
            op_type = SparseOperator if self.is_sparse else DenseOperator
            op = self._operators[key] = op_type(self._Q, dtype)
        return op

    def coefficient_stats(self) -> Tuple[float, float]:
        """Cached ``(max_abs_row_sum, min_nonzero_abs)`` of the coefficients.

        These drive the automatic temperature range; caching them means
        repeated solver calls on the same model skip the coefficient scan.
        """
        if self._coefficient_stats is None:
            if self._storage == "sparse":
                abs_Q = abs(self._Q)
                row_sums = np.asarray(abs_Q.sum(axis=1)).ravel()
                max_row = float(row_sums.max(initial=1.0))
                data = np.abs(self._Q.data)
                nonzero = data[data > 0]
                min_nonzero = float(nonzero.min()) if nonzero.size else 1.0
            else:
                abs_Q = np.abs(self._Q)
                max_row = float(abs_Q.sum(axis=1).max(initial=1.0))
                nonzero = abs_Q[abs_Q > 0]
                min_nonzero = float(nonzero.min()) if nonzero.size else 1.0
            self._coefficient_stats = (max_row, min_nonzero)
        return self._coefficient_stats

    # ------------------------------------------------------------------ misc
    def max_abs_coefficient(self) -> float:
        """Largest absolute coefficient, used for normalisation and noise models."""
        if self._storage == "sparse":
            return float(np.abs(self._Q.data).max(initial=0.0))
        return float(np.abs(self._Q).max(initial=0.0))

    # ---------------------------------------------------------------- wire I/O
    def to_wire(self) -> Tuple[dict, Tuple[np.ndarray, ...]]:
        """Header + raw numpy buffers for the cross-process wire format.

        Dense models ship the symmetrised ``n x n`` float64 array; sparse
        models ship the canonical CSR triplet — a sparse model is *never*
        densified on its way across a process boundary.  The header carries
        the fingerprint so :meth:`from_wire` can verify the reconstruction.
        Framing (versioning, byte layout) lives in
        :mod:`repro.service.distributed.wire`; this hook only decides what a
        model *is* on the wire.
        """
        header = {
            "storage": self._storage,
            "num_variables": self.num_variables,
            "offset": self._offset,
            "name": self.name,
            "fingerprint": self.fingerprint(),
        }
        if self._storage == "sparse":
            buffers = (
                np.asarray(self._Q.data, dtype=np.float64),
                np.asarray(self._Q.indices, dtype=np.int64),
                np.asarray(self._Q.indptr, dtype=np.int64),
            )
        else:
            buffers = (self._Q,)
        return header, buffers

    @classmethod
    def from_wire(cls, header: dict, buffers: "Sequence[np.ndarray]") -> "QUBOModel":
        """Rebuild a model from :meth:`to_wire` output, verifying the fingerprint."""
        n = int(header["num_variables"])
        if header["storage"] == "sparse":
            data, indices, indptr = buffers
            Q = sparse.csr_array(
                (
                    np.asarray(data, dtype=np.float64),
                    np.asarray(indices, dtype=np.int64),
                    np.asarray(indptr, dtype=np.int64),
                ),
                shape=(n, n),
            )
        else:
            (Q,) = buffers
            Q = np.asarray(Q, dtype=np.float64).reshape(n, n)
        model = cls(Q, offset=float(header["offset"]), name=str(header.get("name", "")))
        expected = header.get("fingerprint")
        if expected is not None and model.fingerprint() != expected:
            raise ValueError(
                f"decoded QUBO model fingerprint {model.fingerprint()} does not "
                f"match the encoded fingerprint {expected}; wire payload corrupt"
            )
        return model

    def fingerprint(self) -> str:
        """Stable hash of the coefficients, usable as a cache key.

        The hash covers the canonical COO triplets of the symmetrised matrix,
        which both storages enumerate in the same row-major order.  The
        storage is itself a function of the coefficients, so one fingerprint
        means one storage, and the service's seeded-request deduplication can
        key on it.  Cached — immutable models are fingerprinted on every
        seeded request.
        """
        if self._fingerprint is None:
            if self._storage == "sparse":
                coo = self._Q.tocoo()
                rows = np.asarray(coo.coords[0], dtype=np.int64)
                cols = np.asarray(coo.coords[1], dtype=np.int64)
                vals = np.asarray(coo.data, dtype=np.float64)
            else:
                rows, cols = np.nonzero(self._Q)
                rows = np.asarray(rows, dtype=np.int64)
                cols = np.asarray(cols, dtype=np.int64)
                vals = np.asarray(self._Q[rows, cols], dtype=np.float64)
            digest = hashlib.sha256()
            digest.update(np.int64(self.num_variables).tobytes())
            digest.update(np.ascontiguousarray(rows).tobytes())
            digest.update(np.ascontiguousarray(cols).tobytes())
            digest.update(np.ascontiguousarray(vals).tobytes())
            digest.update(np.float64(self._offset).tobytes())
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint


def random_qubo(
    num_variables: int,
    density: float = 1.0,
    scale: float = 1.0,
    rng: np.random.Generator | None = None,
    name: str = "random",
    storage: str = "dense",
) -> QUBOModel:
    """Generate a random QUBO with Gaussian coefficients (testing / benchmarking aid).

    ``storage`` picks the sampling scheme, not the storage of the result,
    which follows the model's rule like every other model.
    ``storage="dense"`` (the default, unchanged from earlier releases) draws a
    full ``n x n`` Gaussian matrix and masks it down to ``density``.
    ``storage="sparse"`` instead accumulates COO triplets sized to the target
    density and never allocates a dense intermediate, so instances far beyond
    dense memory limits (``n`` in the hundreds of thousands at low density)
    can be generated directly as CSR models.  The two schemes draw different
    random streams, so they are *not* sample-for-sample identical at equal
    seeds; the sparse scheme's density is exact in expectation (upper-triangle
    positions are drawn i.i.d., duplicates coalesce by summation).
    """
    from repro.utils.rng import ensure_rng

    if num_variables <= 0:
        raise ValueError("num_variables must be positive")
    if not (0.0 < density <= 1.0):
        raise ValueError("density must lie in (0, 1]")
    if storage not in ("dense", "sparse"):
        raise ValueError(f"unknown storage {storage!r}")
    rng = ensure_rng(rng)
    if storage == "sparse":
        from repro.qubo.expression import QUBOAccumulator

        n = num_variables
        num_draws = int(round(density * n * (n + 1) / 2.0))
        acc = QUBOAccumulator(n)
        if num_draws:
            i = rng.integers(0, n, size=num_draws)
            j = rng.integers(0, n, size=num_draws)
            rows = np.minimum(i, j)
            cols = np.maximum(i, j)
            values = rng.normal(0.0, scale, size=num_draws)
            acc.add_quadratic(rows, cols, values)
        return acc.build(name=name)
    Q = rng.normal(0.0, scale, size=(num_variables, num_variables))
    Q = (Q + Q.T) / 2.0
    if density < 1.0:
        mask = rng.random((num_variables, num_variables)) < density
        mask = np.triu(mask) | np.triu(mask).T
        Q = np.where(mask, Q, 0.0)
    return QUBOModel(Q, name=name)
