"""Reference algorithms for weighted Minimum Vertex Cover.

They provide ground truth in tests and :meth:`MVCProblem.reference_fitness`
(through :func:`best_known_cover_weight`).  Fig. 6 does not use them: it
normalises each run by the best fitness that run found.  Not used by QROSS.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.problems.mvc.instance import MVCInstance


def greedy_weighted_cover(instance: MVCInstance) -> np.ndarray:
    """Classic greedy: repeatedly pick the vertex with the best coverage/weight ratio."""
    n = instance.num_vertices
    selection = np.zeros(n, dtype=np.int8)
    uncovered = {tuple(edge) for edge in instance.edges().tolist()}
    weights = instance.weights
    while uncovered:
        gain = np.zeros(n)
        for i, j in uncovered:
            gain[i] += 1
            gain[j] += 1
        with np.errstate(divide="ignore"):
            ratio = np.where(gain > 0, gain / np.maximum(weights, 1e-12), -np.inf)
        best = int(np.argmax(ratio))
        selection[best] = 1
        uncovered = {edge for edge in uncovered if best not in edge}
    return selection


def prune_cover(instance: MVCInstance, selection: np.ndarray) -> np.ndarray:
    """Remove redundant vertices (heaviest first) while keeping the cover valid."""
    selection = np.asarray(selection, dtype=np.int8).copy()
    order = np.argsort(-instance.weights)
    for vertex in order:
        if not selection[vertex]:
            continue
        selection[vertex] = 0
        if not instance.is_vertex_cover(selection):
            selection[vertex] = 1
    return selection


def exact_minimum_cover(instance: MVCInstance) -> np.ndarray:
    """Exhaustive minimum-weight cover; practical for graphs with <= 20 vertices."""
    n = instance.num_vertices
    if n > 20:
        raise ValueError("exact search is limited to 20 vertices")
    best_selection = np.ones(n, dtype=np.int8)
    best_weight = instance.cover_weight(best_selection)
    vertices = list(range(n))
    for size in range(n + 1):
        for subset in combinations(vertices, size):
            selection = np.zeros(n, dtype=np.int8)
            selection[list(subset)] = 1
            if instance.is_vertex_cover(selection):
                weight = instance.cover_weight(selection)
                if weight < best_weight:
                    best_weight = weight
                    best_selection = selection
        # Unweighted instances cannot improve once a cover of this size exists.
        if np.all(instance.weights == instance.weights[0]) and best_weight < np.inf and instance.is_vertex_cover(best_selection):
            if best_selection.sum() <= size:
                break
    return best_selection


def best_known_cover_weight(instance: MVCInstance) -> float:
    """Best cover weight found by the reference algorithms."""
    if instance.num_vertices <= 16:
        return instance.cover_weight(exact_minimum_cover(instance))
    cover = prune_cover(instance, greedy_weighted_cover(instance))
    return instance.cover_weight(cover)
