"""Instance feature extraction for the solver surrogate.

The surrogate needs a *fixed-size* vector describing a problem instance,
whatever its size (paper Section 3.2: "an feature extraction layer that
handles problems of different sizes").  The paper aggregates edge-level
features from a pre-trained TSP graph-conv network; without that PyTorch model
we provide:

* :class:`TSPStatisticsExtractor` — deterministic graph-level statistics of the
  distance matrix (size, distance moments, minimum-spanning-tree and
  nearest-neighbour statistics, spectral summary), which capture the "common
  structure" the surrogate conditions on;
* :class:`GraphEncoderExtractor` — an optional learned-embedding alternative
  built on :class:`repro.nn.GraphConvEncoder`;
* :class:`QuboStatisticsExtractor` — a problem-agnostic fallback computed from
  the objective / penalty QUBOs, so non-TSP problems (e.g. MVC) work unchanged.
"""

from __future__ import annotations

import abc
import threading
from collections import OrderedDict
from typing import Dict, NamedTuple

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.nn.graph import GraphConvEncoder
from repro.problems.base import ConstrainedProblem
from repro.problems.tsp.heuristics import nearest_neighbour_tour
from repro.problems.tsp.qubo import TSPProblem
from repro.utils.rng import RngLike


class FeatureExtractor(abc.ABC):
    """Maps a problem instance to a fixed-size feature vector."""

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Length of the feature vector."""

    @abc.abstractmethod
    def extract(self, problem: ConstrainedProblem) -> np.ndarray:
        """Feature vector of ``problem`` (shape ``(dim,)``)."""

    def extract_batch(self, problems) -> np.ndarray:
        """Stack features of several problems into a matrix."""
        return np.vstack([self.extract(problem) for problem in problems])


class TSPStatisticsExtractor(FeatureExtractor):
    """Hand-crafted graph-level statistics of a TSP distance matrix.

    All distance-valued features are normalised by the maximum distance so the
    representation is scale-invariant; the absolute scale enters the surrogate
    separately through the normalised relaxation parameter.
    """

    _FEATURE_NAMES = (
        "num_cities",
        "log_num_cities",
        "dist_mean",
        "dist_std",
        "dist_min",
        "dist_median",
        "dist_q25",
        "dist_q75",
        "dist_skew",
        "mst_per_city",
        "nn_tour_per_city",
        "nn_edge_mean",
        "nn_edge_std",
        "eccentricity_mean",
        "eccentricity_std",
        "spectral_top1",
        "spectral_top2",
        "spectral_ratio",
        "coefficient_of_variation",
        "triangle_slack",
    )

    @property
    def dim(self) -> int:
        return len(self._FEATURE_NAMES)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self._FEATURE_NAMES

    def extract(self, problem: ConstrainedProblem) -> np.ndarray:
        if not isinstance(problem, TSPProblem):
            raise TypeError(f"TSPStatisticsExtractor expects a TSPProblem, got {type(problem).__name__}")
        return self.extract_instance_features(problem)

    def extract_instance_features(self, problem: TSPProblem) -> np.ndarray:
        instance = problem.instance
        D = np.asarray(instance.distances, dtype=np.float64)
        n = instance.num_cities
        d_max = float(D.max(initial=1.0)) or 1.0
        scaled = D / d_max
        off = scaled[~np.eye(n, dtype=bool)]

        mst = minimum_spanning_tree(scaled).toarray()
        mst_length = float(mst.sum())

        nn_tour = nearest_neighbour_tour(instance, start=0)
        nn_length = instance.tour_length(nn_tour) / d_max

        masked = scaled + np.eye(n) * 10.0
        nn_edges = masked.min(axis=1)
        eccentricity = scaled.max(axis=1)

        eigenvalues = np.sort(np.abs(np.linalg.eigvalsh(scaled)))[::-1]
        top1 = float(eigenvalues[0]) / n
        top2 = float(eigenvalues[1]) / n if eigenvalues.size > 1 else 0.0

        mean = float(off.mean())
        std = float(off.std())
        skew = float(((off - mean) ** 3).mean() / (std**3 + 1e-12))
        # How far the matrix is from being an ultrametric / how much triangle slack exists.
        sample_slack = self._triangle_slack(scaled)

        features = np.array(
            [
                float(n),
                float(np.log(n)),
                mean,
                std,
                float(off.min()),
                float(np.median(off)),
                float(np.quantile(off, 0.25)),
                float(np.quantile(off, 0.75)),
                skew,
                mst_length / n,
                nn_length / n,
                float(nn_edges.mean()),
                float(nn_edges.std()),
                float(eccentricity.mean()),
                float(eccentricity.std()),
                top1,
                top2,
                top2 / (top1 + 1e-12),
                std / (mean + 1e-12),
                sample_slack,
            ]
        )
        return features

    @staticmethod
    def _triangle_slack(scaled: np.ndarray, num_samples: int = 64) -> float:
        """Average relative slack of random triangle inequalities (structure indicator)."""
        n = scaled.shape[0]
        rng = np.random.default_rng(0)
        triples = rng.integers(0, n, size=(num_samples, 3))
        valid = (
            (triples[:, 0] != triples[:, 1])
            & (triples[:, 1] != triples[:, 2])
            & (triples[:, 0] != triples[:, 2])
        )
        triples = triples[valid]
        if triples.size == 0:
            return 0.0
        direct = scaled[triples[:, 0], triples[:, 2]]
        detour = scaled[triples[:, 0], triples[:, 1]] + scaled[triples[:, 1], triples[:, 2]]
        return float(np.mean((detour - direct) / (detour + 1e-12)))


class GraphEncoderExtractor(FeatureExtractor):
    """Learned-embedding alternative: a frozen numpy GCN over the distance matrix."""

    def __init__(self, hidden_dim: int = 16, num_layers: int = 2, rng: RngLike = 0) -> None:
        self._encoder = GraphConvEncoder(hidden_dim=hidden_dim, num_layers=num_layers, rng=rng)

    @property
    def dim(self) -> int:
        return self._encoder.embedding_dim

    def extract(self, problem: ConstrainedProblem) -> np.ndarray:
        if not isinstance(problem, TSPProblem):
            raise TypeError(f"GraphEncoderExtractor expects a TSPProblem, got {type(problem).__name__}")
        return self._encoder.encode(problem.instance.distances)


def _scaled_matrix_stats(model, scale: float) -> tuple[float, float, float, float]:
    """``(abs_mean, std, density, diag_mean)`` of ``Q / scale``.

    Summarised from the stored coefficients of ``model.sparse_Q()`` (zero
    entries contribute zero to every moment), so no model is densified.
    """
    Q = model.sparse_Q()
    size = float(Q.shape[0] * Q.shape[1])
    data = np.asarray(Q.data, dtype=np.float64) / scale
    mean = float(data.sum()) / size
    second_moment = float(np.square(data).sum()) / size
    return (
        float(np.abs(data).sum()) / size,
        float(np.sqrt(max(second_moment - mean**2, 0.0))),
        float(Q.nnz) / size,
        float(np.asarray(Q.diagonal()).mean()) / scale,
    )


class QuboStatisticsExtractor(FeatureExtractor):
    """Problem-agnostic features derived from the objective and penalty QUBOs."""

    _NUM_FEATURES = 12

    @property
    def dim(self) -> int:
        return self._NUM_FEATURES

    def extract(self, problem: ConstrainedProblem) -> np.ndarray:
        encoding = problem.encode()
        n = problem.num_qubo_variables
        obj_scale = max(encoding.objective.max_abs_coefficient(), 1.0)
        pen_scale = max(encoding.penalty.max_abs_coefficient(), 1.0)
        obj_abs_mean, obj_std, obj_density, obj_diag_mean = _scaled_matrix_stats(
            encoding.objective, obj_scale
        )
        pen_abs_mean, pen_std, pen_density, pen_diag_mean = _scaled_matrix_stats(
            encoding.penalty, pen_scale
        )
        return np.array(
            [
                float(n),
                float(np.log(n)),
                obj_abs_mean,
                obj_std,
                obj_density,
                obj_diag_mean,
                pen_abs_mean,
                pen_std,
                pen_density,
                pen_diag_mean,
                obj_scale / (pen_scale + 1e-12),
                float(problem.relaxation_scale()),
            ]
        )


class CompositeExtractor(FeatureExtractor):
    """Concatenation of several extractors (e.g. statistics + learned embedding)."""

    def __init__(self, *extractors: FeatureExtractor) -> None:
        if not extractors:
            raise ValueError("at least one extractor is required")
        self._extractors = extractors

    @property
    def dim(self) -> int:
        return sum(extractor.dim for extractor in self._extractors)

    def extract(self, problem: ConstrainedProblem) -> np.ndarray:
        return np.concatenate([extractor.extract(problem) for extractor in self._extractors])


def default_extractor_for(problem: ConstrainedProblem) -> FeatureExtractor:
    """Sensible default extractor for a problem type."""
    if isinstance(problem, TSPProblem):
        return TSPStatisticsExtractor()
    return QuboStatisticsExtractor()


# --------------------------------------------------------------- memoisation
class CacheInfo(NamedTuple):
    """Hit/miss counters of a feature cache (mirrors ``functools.lru_cache``)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class _FingerprintLRU:
    """A small thread-safe LRU keyed by fingerprint strings.

    Values are feature vectors; they are returned as copies so a caller
    mutating its result cannot poison the cache.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def lookup(self, key: str) -> "np.ndarray | None":
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value.copy()

    def store(self, key: str, value: np.ndarray) -> None:
        with self._lock:
            self._entries[key] = np.asarray(value, dtype=np.float64).copy()
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self._hits, self._misses, self.maxsize, len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0


class MemoisedExtractor(FeatureExtractor):
    """Wrap any extractor with an encoding-fingerprint LRU.

    Repeat traffic on the same instance (the portfolio's per-request feature
    lookup, the tuning loops logging one record per trial) pays the feature
    computation once: the key is the problem's *encoding* fingerprint, which
    identifies the instance independently of the relaxation parameter.
    """

    def __init__(self, inner: FeatureExtractor, maxsize: int = 256) -> None:
        self._inner = inner
        self._cache = _FingerprintLRU(maxsize=maxsize)

    @property
    def dim(self) -> int:
        return self._inner.dim

    def extract(self, problem: ConstrainedProblem) -> np.ndarray:
        key = problem.encode().fingerprint()
        cached = self._cache.lookup(key)
        if cached is not None:
            return cached
        features = np.asarray(self._inner.extract(problem), dtype=np.float64)
        self._cache.store(key, features)
        return features.copy()

    def cache_info(self) -> CacheInfo:
        return self._cache.cache_info()

    def cache_clear(self) -> None:
        self._cache.clear()


#: Process-wide cache behind :func:`model_feature_vector`: the portfolio
#: solver calls it once per request, and repeat traffic on the same model is
#: a fingerprint lookup instead of a matrix scan.
_MODEL_FEATURE_CACHE = _FingerprintLRU(maxsize=256)

#: Length of the :func:`model_feature_vector` output.
MODEL_FEATURE_DIM = 8


def model_feature_vector(model) -> np.ndarray:
    """Fixed-size feature vector of a :class:`~repro.qubo.model.QUBOModel`.

    This is the feature space the portfolio conditions on: a solver call sees
    only the relaxed model (not the problem that produced it), so the outcome
    log and the per-request lookup must describe *models*.  Storage-aware
    (sparse models are summarised from their CSR data) and memoised by model
    fingerprint.
    """
    key = model.fingerprint()
    cached = _MODEL_FEATURE_CACHE.lookup(key)
    if cached is not None:
        return cached
    n = model.num_variables
    scale = max(float(model.max_abs_coefficient()), 1e-12)
    abs_mean, std, density, diag_mean = _scaled_matrix_stats(model, scale)
    features = np.array(
        [
            float(n),
            float(np.log(max(n, 1))),
            abs_mean,
            std,
            density,
            diag_mean,
            float(np.log10(scale)) if scale > 0 else 0.0,
            abs_mean / (std + 1e-12),
        ]
    )
    _MODEL_FEATURE_CACHE.store(key, features)
    return features


def model_feature_cache_info() -> CacheInfo:
    """Hit/miss counters of the :func:`model_feature_vector` cache."""
    return _MODEL_FEATURE_CACHE.cache_info()


def model_feature_cache_clear() -> None:
    """Reset the :func:`model_feature_vector` cache (tests)."""
    _MODEL_FEATURE_CACHE.clear()
