"""Weighted Minimum Vertex Cover instances (paper Appendix B)."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import sparse


@dataclass
class MVCInstance:
    """An undirected graph with vertex weights.

    Parameters
    ----------
    adjacency:
        Symmetric boolean adjacency matrix with a ``False`` diagonal — a dense
        ndarray or a scipy sparse matrix.  Sparse adjacency keeps large sparse
        graphs (the regime the sparse QUBO encoding targets) free of any dense
        ``n x n`` allocation; :meth:`from_edges` builds one from an edge list.
    weights:
        Per-vertex weights; defaults to all ones (unweighted MVC).
    name:
        Instance label.
    """

    adjacency: np.ndarray
    weights: Optional[np.ndarray] = None
    name: str = "mvc"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        adjacency = self.adjacency
        if sparse.issparse(adjacency):
            adjacency = sparse.csr_array(adjacency).astype(bool)
            if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
                raise ValueError(f"adjacency must be square, got shape {adjacency.shape}")
            if (adjacency != adjacency.T).nnz != 0:
                raise ValueError("adjacency must be symmetric")
            if adjacency.diagonal().any():
                raise ValueError("adjacency must have no self-loops")
        else:
            adjacency = np.asarray(adjacency, dtype=bool)
            if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
                raise ValueError(f"adjacency must be square, got shape {adjacency.shape}")
            if not np.array_equal(adjacency, adjacency.T):
                raise ValueError("adjacency must be symmetric")
            if np.any(np.diag(adjacency)):
                raise ValueError("adjacency must have no self-loops")
        self.adjacency = adjacency
        if self.weights is None:
            self.weights = np.ones(adjacency.shape[0], dtype=np.float64)
        else:
            weights = np.asarray(self.weights, dtype=np.float64)
            if weights.shape != (adjacency.shape[0],):
                raise ValueError("weights must have one entry per vertex")
            if np.any(weights < 0):
                raise ValueError("weights must be non-negative")
            self.weights = weights
        self._edge_cache: Optional[np.ndarray] = None

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Sequence[Sequence[int]] | np.ndarray,
        weights: Optional[np.ndarray] = None,
        name: str = "mvc",
    ) -> "MVCInstance":
        """Build an instance from an ``(m, 2)`` edge list without densifying.

        The adjacency is stored as CSR.  Duplicate edges and either vertex
        order are accepted; self-loops are rejected.
        """
        num_vertices = int(num_vertices)
        if num_vertices < 2:
            raise ValueError("num_vertices must be at least 2")
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
        if edges.size:
            if edges.min() < 0 or edges.max() >= num_vertices:
                raise ValueError(f"edge endpoints out of range for n={num_vertices}")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed")
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        data = np.ones(rows.shape[0], dtype=np.int8)
        adjacency = sparse.coo_array(
            (data, (rows, cols)), shape=(num_vertices, num_vertices)
        ).tocsr()
        return cls(adjacency=adjacency.astype(bool), weights=weights, name=name)

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.adjacency)

    @property
    def num_vertices(self) -> int:
        return int(self.adjacency.shape[0])

    @property
    def num_edges(self) -> int:
        if self.is_sparse:
            return int(self.adjacency.nnz) // 2
        return int(self.adjacency.sum()) // 2

    def edges(self) -> np.ndarray:
        """Array of undirected edges as ``(i, j)`` pairs with ``i < j`` (cached).

        The sparse representation extracts the upper triangle directly from
        the CSR structure — no dense ``n x n`` temporary.
        """
        if self._edge_cache is None:
            if self.is_sparse:
                upper = sparse.triu(self.adjacency, k=1).tocoo()
                i = np.asarray(upper.coords[0], dtype=np.int64)
                j = np.asarray(upper.coords[1], dtype=np.int64)
                # Canonical row-major order, matching the dense np.where scan
                # (edge order feeds the storage-invariant fingerprint).
                order = np.lexsort((j, i))
                edges = np.column_stack([i[order], j[order]])
            else:
                i, j = np.where(np.triu(self.adjacency, k=1))
                edges = np.column_stack([i, j])
            # Read-only: callers share the cached array, and the fingerprint
            # and encoders hash/read it — an in-place edit must fail loudly.
            edges.flags.writeable = False
            self._edge_cache = edges
        return self._edge_cache

    def _validated_selection(self, selection: np.ndarray, context: str) -> np.ndarray:
        """Shape- and binarity-checked boolean view of a vertex selection."""
        selection = np.asarray(selection)
        if selection.shape != (self.num_vertices,):
            raise ValueError(
                f"{context}: selection must have shape ({self.num_vertices},) — "
                f"one entry per vertex — got {selection.shape}"
            )
        if selection.dtype != bool and not np.all((selection == 0) | (selection == 1)):
            raise ValueError(f"{context}: selection must be binary (0/1 or bool values)")
        return selection.astype(bool)

    def is_vertex_cover(self, selection: np.ndarray) -> bool:
        """Whether the 0/1 vector ``selection`` covers every edge.

        Raises ``ValueError`` on a wrong-length or non-binary selection (the
        same validation contract as the TSP decoder).
        """
        selection = self._validated_selection(selection, "is_vertex_cover")
        edges = self.edges()
        if edges.size == 0:
            return True
        return bool(np.all(selection[edges[:, 0]] | selection[edges[:, 1]]))

    def cover_weight(self, selection: np.ndarray) -> float:
        """Total weight of the selected vertices."""
        selection = np.asarray(selection).astype(bool)
        return float(self.weights[selection].sum())

    def fingerprint(self) -> str:
        """Stable content hash usable as a cache key.

        Storage invariant: the hash covers the vertex count, the sorted edge
        list and the weights, so a dense instance and its sparse twin key the
        same cache entries.
        """
        digest = hashlib.sha256()
        digest.update(np.int64(self.num_vertices).tobytes())
        digest.update(np.ascontiguousarray(self.edges(), dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(self.weights).tobytes())
        return digest.hexdigest()[:16]
