"""Random MVC instance generation.

The Appendix B experiment uses Erdős–Rényi graphs with 65 vertices, 50 % edge
probability and vertex weights uniform on ``[0, 1)``; those are the defaults
here (65 being the largest complete graph embeddable on the DW_2000Q chimera
topology).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.problems.mvc.instance import MVCInstance
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class RandomMVCConfig:
    """Configuration of the random graph generator."""

    num_vertices: int = 65
    edge_probability: float = 0.5
    weighted: bool = True

    def __post_init__(self) -> None:
        if self.num_vertices < 2:
            raise ValueError("num_vertices must be at least 2")
        if not (0.0 < self.edge_probability <= 1.0):
            raise ValueError("edge_probability must lie in (0, 1]")


def generate_mvc_instance(
    config: RandomMVCConfig | None = None,
    rng: RngLike = None,
    name: str | None = None,
) -> MVCInstance:
    """Generate one Erdős–Rényi weighted MVC instance."""
    config = config or RandomMVCConfig()
    rng = ensure_rng(rng)
    n = config.num_vertices
    upper = rng.random((n, n)) < config.edge_probability
    upper = np.triu(upper, k=1)
    adjacency = upper | upper.T
    # Isolated vertices are legal but make the instance degenerate; connect them
    # to a random neighbour so every vertex participates in at least one edge.
    degrees = adjacency.sum(axis=1)
    for vertex in np.where(degrees == 0)[0]:
        other = int(rng.integers(0, n - 1))
        other = other if other < vertex else other + 1
        adjacency[vertex, other] = adjacency[other, vertex] = True
    weights = rng.random(n) if config.weighted else np.ones(n)
    instance = MVCInstance(
        adjacency=adjacency,
        weights=weights,
        name=name or f"mvc-er-{n}-{config.edge_probability:.2f}",
    )
    instance.metadata["edge_probability"] = config.edge_probability
    return instance


def generate_sparse_mvc_instance(
    num_vertices: int,
    num_edges: int | None = None,
    edge_density: float | None = None,
    weighted: bool = True,
    rng: RngLike = None,
    name: str | None = None,
) -> MVCInstance:
    """Generate a large sparse MVC instance without any dense allocation.

    Samples ``num_edges`` distinct undirected edges uniformly (a G(n, M)
    random graph) and builds the instance through
    :meth:`MVCInstance.from_edges`, so the adjacency is CSR end to end —
    suitable for instances far beyond what a dense adjacency matrix allows.
    Exactly one of ``num_edges`` / ``edge_density`` must be given
    (``edge_density`` is the fraction of the ``n * (n - 1) / 2`` vertex pairs).
    """
    if num_vertices < 2:
        raise ValueError("num_vertices must be at least 2")
    if (num_edges is None) == (edge_density is None):
        raise ValueError("provide exactly one of num_edges= or edge_density=")
    n = int(num_vertices)
    max_edges = n * (n - 1) // 2
    if num_edges is None:
        if not (0.0 < edge_density <= 1.0):
            raise ValueError("edge_density must lie in (0, 1]")
        num_edges = int(round(edge_density * max_edges))
    num_edges = int(num_edges)
    if not (0 < num_edges <= max_edges):
        raise ValueError(f"num_edges must lie in [1, {max_edges}]")
    rng = ensure_rng(rng)

    # Rejection sampling on (i, j) pairs keeps memory at O(num_edges): draw a
    # batch of ordered pairs, fold to i < j, dedupe by linear code, repeat.
    codes = np.zeros(0, dtype=np.int64)
    while codes.size < num_edges:
        batch = max(1024, int(1.5 * (num_edges - codes.size)))
        raw = rng.integers(0, n, size=(batch, 2), dtype=np.int64)
        raw = raw[raw[:, 0] != raw[:, 1]]
        lo = np.minimum(raw[:, 0], raw[:, 1])
        hi = np.maximum(raw[:, 0], raw[:, 1])
        codes = np.unique(np.concatenate([codes, lo * n + hi]))
    codes = rng.permutation(codes)[:num_edges]
    edges = np.column_stack([codes // n, codes % n])
    weights = rng.random(n) if weighted else None
    instance = MVCInstance.from_edges(
        n,
        edges,
        weights=weights,
        name=name or f"mvc-sparse-{n}-{num_edges}",
    )
    instance.metadata["num_edges"] = num_edges
    return instance
