"""Weighted Minimum Vertex Cover instances (paper Appendix B).

An instance holds its adjacency as boolean CSR whatever form it was given in,
so a dense Erdős–Rényi graph and a large sparse one share one code path; the
QUBO encoder and the cover checks read the instance's sorted edge list.
"""

from __future__ import annotations

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
        array or a scipy sparse matrix, stored as boolean CSR either way, so
        large sparse graphs (the regime the sparse QUBO encoding targets) hold
        no dense ``n x n`` array; :meth:`from_edges` builds one from an edge
        list without ever allocating one.
    weights:
        Per-vertex weights; defaults to all ones (unweighted MVC).
    name:
        Instance label.
    """

    adjacency: sparse.csr_array
    weights: Optional[np.ndarray] = None
    name: str = "mvc"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        shape = np.shape(self.adjacency)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"adjacency must be square, got shape {shape}")
        adjacency = sparse.csr_array(self.adjacency).astype(bool)
        # A stored zero is no edge; num_edges and edges() count stored entries.
        adjacency.eliminate_zeros()
        if (adjacency != adjacency.T).nnz != 0:
            raise ValueError("adjacency must be symmetric")
        if adjacency.diagonal().any():
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
        data = np.ones(rows.shape[0], dtype=bool)
        adjacency = sparse.coo_array((data, (rows, cols)), shape=(num_vertices, num_vertices))
        return cls(adjacency=adjacency, weights=weights, name=name)

    @property
    def num_vertices(self) -> int:
        return int(self.adjacency.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.nnz) // 2

    def edges(self) -> np.ndarray:
        """Array of undirected edges as ``(i, j)`` pairs with ``i < j`` (cached).

        Read from the upper triangle of the CSR structure in row-major order
        (the order a dense scan would give; it feeds the fingerprint), with no
        dense ``n x n`` temporary.
        """
        if self._edge_cache is None:
            upper = sparse.triu(self.adjacency, k=1).tocoo()
            i = np.asarray(upper.coords[0], dtype=np.int64)
            j = np.asarray(upper.coords[1], dtype=np.int64)
            order = np.lexsort((j, i))
            edges = np.column_stack([i[order], j[order]])
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
