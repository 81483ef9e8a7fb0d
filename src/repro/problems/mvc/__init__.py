"""Minimum Vertex Cover substrate (paper Appendix B)."""

from repro.problems.mvc.generator import (
    RandomMVCConfig,
    generate_mvc_instance,
    generate_sparse_mvc_instance,
)
from repro.problems.mvc.heuristics import (
    best_known_cover_weight,
    exact_minimum_cover,
    greedy_weighted_cover,
    prune_cover,
)
from repro.problems.mvc.instance import MVCInstance
from repro.problems.mvc.qubo import MVCProblem

__all__ = [
    "MVCInstance",
    "MVCProblem",
    "RandomMVCConfig",
    "generate_mvc_instance",
    "generate_sparse_mvc_instance",
    "greedy_weighted_cover",
    "prune_cover",
    "exact_minimum_cover",
    "best_known_cover_weight",
]
