"""Unit tests for instance feature extraction (repro.core.features)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import (
    MODEL_FEATURE_DIM,
    QuboStatisticsExtractor,
    TSPStatisticsExtractor,
    _FingerprintLRU,
    default_extractor_for,
    model_feature_cache_clear,
    model_feature_cache_info,
    model_feature_vector,
)
from repro.problems.mvc.generator import RandomMVCConfig, generate_mvc_instance
from repro.problems.mvc.qubo import MVCProblem
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem


@pytest.fixture
def tsp_problems():
    return [TSPProblem(generate_instance(n, rng=n)) for n in (6, 9, 12)]


class TestTSPStatisticsExtractor:
    def test_fixed_size_across_instance_sizes(self, tsp_problems):
        extractor = TSPStatisticsExtractor()
        features = [extractor.extract(problem) for problem in tsp_problems]
        assert all(f.shape == (extractor.dim,) for f in features)

    def test_feature_names_match_dim(self):
        extractor = TSPStatisticsExtractor()
        assert len(extractor.feature_names) == extractor.dim

    def test_features_are_finite(self, tsp_problems):
        extractor = TSPStatisticsExtractor()
        for problem in tsp_problems:
            assert np.all(np.isfinite(extractor.extract(problem)))

    def test_scale_invariance_except_size(self):
        extractor = TSPStatisticsExtractor()
        instance = generate_instance(8, rng=0)
        base = extractor.extract(TSPProblem(instance))
        scaled = extractor.extract(TSPProblem(instance.scaled(13.0)))
        np.testing.assert_allclose(base, scaled, atol=1e-9)

    def test_num_cities_feature(self):
        extractor = TSPStatisticsExtractor()
        features = extractor.extract(TSPProblem(generate_instance(10, rng=1)))
        assert features[0] == 10.0

    def test_different_instances_have_different_features(self):
        extractor = TSPStatisticsExtractor()
        a = extractor.extract(TSPProblem(generate_instance(10, distribution="uniform", rng=0)))
        b = extractor.extract(TSPProblem(generate_instance(10, distribution="clustered", rng=1)))
        assert not np.allclose(a, b)

    def test_rejects_non_tsp_problem(self, tsp_problems):
        mvc = MVCProblem(generate_mvc_instance(RandomMVCConfig(num_vertices=8), rng=0))
        with pytest.raises(TypeError):
            TSPStatisticsExtractor().extract(mvc)


class TestOtherExtractors:
    def test_qubo_statistics_extractor_works_for_mvc(self):
        mvc = MVCProblem(generate_mvc_instance(RandomMVCConfig(num_vertices=8), rng=0))
        extractor = QuboStatisticsExtractor()
        features = extractor.extract(mvc)
        assert features.shape == (extractor.dim,)
        assert np.all(np.isfinite(features))

    def test_qubo_statistics_extractor_works_for_tsp(self, tsp_problems):
        extractor = QuboStatisticsExtractor()
        assert extractor.extract(tsp_problems[0]).shape == (extractor.dim,)

    def test_default_extractor_dispatch(self, tsp_problems):
        assert isinstance(default_extractor_for(tsp_problems[0]), TSPStatisticsExtractor)
        mvc = MVCProblem(generate_mvc_instance(RandomMVCConfig(num_vertices=6), rng=0))
        assert isinstance(default_extractor_for(mvc), QuboStatisticsExtractor)


class TestFingerprintLRU:
    """The LRU behind :func:`model_feature_vector`."""

    def test_cached_result_is_a_private_copy(self):
        cache = _FingerprintLRU()
        stored = np.arange(3.0)
        cache.store("a", stored)
        stored[:] = -1.0
        first = cache.lookup("a")
        first[:] = -1.0
        np.testing.assert_array_equal(cache.lookup("a"), np.arange(3.0))

    def test_eviction_honours_maxsize(self):
        cache = _FingerprintLRU(maxsize=2)
        for key in ("a", "b", "c"):  # three distinct keys, capacity two
            cache.store(key, np.zeros(2))
        assert cache.cache_info().currsize == 2
        assert cache.lookup("a") is None  # the least recently used went first

    def test_clear_resets_counters(self):
        cache = _FingerprintLRU()
        cache.store("a", np.zeros(2))
        cache.lookup("a")
        cache.lookup("b")
        cache.clear()
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_counts_hits_and_misses(self):
        cache = _FingerprintLRU(maxsize=4)
        assert cache.lookup("a") is None
        cache.store("a", np.ones(2))
        np.testing.assert_array_equal(cache.lookup("a"), np.ones(2))
        cache.lookup("a")
        assert tuple(cache.cache_info()) == (2, 1, 4, 1)

    def test_lookup_refreshes_recency(self):
        cache = _FingerprintLRU(maxsize=2)
        cache.store("a", np.zeros(1))
        cache.store("b", np.zeros(1))
        cache.lookup("a")  # "b" is now the least recently used
        cache.store("c", np.zeros(1))
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None

    def test_rejects_non_positive_maxsize(self):
        with pytest.raises(ValueError):
            _FingerprintLRU(maxsize=0)


class TestModelFeatureVector:
    def test_shape_and_finiteness(self):
        from repro.qubo.model import random_qubo

        features = model_feature_vector(random_qubo(12, rng=3))
        assert features.shape == (MODEL_FEATURE_DIM,)
        assert np.all(np.isfinite(features))

    def test_repeat_lookup_is_a_cache_hit(self):
        from repro.qubo.model import random_qubo

        model = random_qubo(10, rng=7)
        model_feature_cache_clear()
        first = model_feature_vector(model)
        before = model_feature_cache_info()
        second = model_feature_vector(model)
        after = model_feature_cache_info()
        np.testing.assert_array_equal(first, second)
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_distinct_models_miss_independently(self):
        from repro.qubo.model import random_qubo

        model_feature_cache_clear()
        models = [random_qubo(8, rng=seed) for seed in range(3)]
        features = [model_feature_vector(model) for model in models]
        info = model_feature_cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 3)
        assert not np.allclose(features[0], features[1])

    def test_result_is_a_private_copy(self):
        from repro.qubo.model import random_qubo

        model = random_qubo(9, rng=11)
        first = model_feature_vector(model)
        expected = first.copy()
        first[:] = -1.0
        np.testing.assert_array_equal(model_feature_vector(model), expected)
