"""Unit and behavioural tests for the solver surrogate."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.dataset import SurrogateDataset, SurrogateRecord, energy_scale, parameter_scale
from repro.core.features import TSPStatisticsExtractor
from repro.core.surrogate import SolverSurrogate, SurrogateConfig
from repro.nn.serialization import state_dict
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem


class TestSurrogateConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SurrogateConfig(hidden_sizes=())
        with pytest.raises(ValueError):
            SurrogateConfig(hidden_sizes=(0,))
        with pytest.raises(ValueError):
            SurrogateConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            SurrogateConfig(validation_fraction=1.5)
        with pytest.raises(ValueError):
            SurrogateConfig(huber_delta=0.0)
        with pytest.raises(ValueError):
            SurrogateConfig(patience=0)


class TestSurrogateLifecycle:
    def test_untrained_surrogate_refuses_prediction(self, tsp_problem):
        surrogate = SolverSurrogate(TSPStatisticsExtractor(), rng=0)
        with pytest.raises(RuntimeError):
            surrogate.predict(tsp_problem, [1.0])

    def test_untrained_surrogate_refuses_save(self, tmp_path):
        surrogate = SolverSurrogate(TSPStatisticsExtractor(), rng=0)
        with pytest.raises(RuntimeError):
            surrogate.save(tmp_path / "weights.npz")

    def test_fit_requires_enough_data(self):
        surrogate = SolverSurrogate(TSPStatisticsExtractor(), rng=0)
        with pytest.raises(ValueError):
            surrogate.fit(SurrogateDataset([]))

    def test_fit_returns_histories(self, surrogate_dataset):
        surrogate = SolverSurrogate(
            TSPStatisticsExtractor(),
            config=SurrogateConfig(hidden_sizes=(16,), num_epochs=30, patience=None),
            rng=0,
        )
        histories = surrogate.fit(surrogate_dataset, rng=0)
        assert set(histories) == {"pf", "energy"}
        assert histories["pf"].num_epochs > 0
        assert surrogate.is_trained


class TestSurrogatePredictions:
    def test_prediction_shapes_and_ranges(self, trained_surrogate, training_problems):
        problem = training_problems[0]
        parameters = np.linspace(0.1, 3.0, 16) * problem.relaxation_scale()
        prediction = trained_surrogate.predict(problem, parameters)
        assert prediction.probability_of_feasibility.shape == (16,)
        assert np.all((prediction.probability_of_feasibility >= 0) & (prediction.probability_of_feasibility <= 1))
        assert np.all(prediction.energy_std >= 0)
        assert np.all(np.isfinite(prediction.energy_mean))

    def test_rejects_non_positive_parameters(self, trained_surrogate, training_problems):
        with pytest.raises(ValueError):
            trained_surrogate.predict(training_problems[0], [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_parameters(self, trained_surrogate, training_problems, bad):
        scale = training_problems[0].relaxation_scale()
        with pytest.raises(ValueError):
            trained_surrogate.predict(training_problems[0], [scale, bad])

    def test_pf_increases_with_parameter(self, trained_surrogate, training_problems):
        """The learned Pf(A) must reproduce the sigmoid trend: higher A, higher Pf."""
        problem = training_problems[0]
        scale = problem.relaxation_scale()
        pf = trained_surrogate.predict_pf(problem, np.array([0.15, 3.0]) * scale)
        assert pf[1] > pf[0]

    def test_pf_plateaus_learned(self, trained_surrogate, training_problems):
        """Far left of the transition Pf should be low, far right high."""
        lows, highs = [], []
        for problem in training_problems[:4]:
            scale = problem.relaxation_scale()
            pf = trained_surrogate.predict_pf(problem, np.array([0.1, 2.5]) * scale)
            lows.append(pf[0])
            highs.append(pf[1])
        assert np.mean(lows) < 0.5
        assert np.mean(highs) > 0.5

    def test_energy_head_tracks_measured_energies(
        self, trained_surrogate, training_problems, surrogate_dataset
    ):
        """Within an instance, predicted Eavg should track the measured Eavg across A."""
        problems = {problem.name: problem for problem in training_problems}
        correlations = []
        for name, problem in problems.items():
            records = [r for r in surrogate_dataset.records if r.instance_name == name]
            if len(records) < 4:
                continue
            parameters = np.array([r.parameter for r in records])
            measured = np.array([r.energy_mean for r in records])
            predicted = trained_surrogate.predict(problem, parameters).energy_mean
            if measured.std() < 1e-9:
                continue
            correlations.append(np.corrcoef(predicted, measured)[0, 1])
        assert correlations, "expected at least one instance with enough records"
        assert np.median(correlations) > 0.5


class _CountingExtractor(TSPStatisticsExtractor):
    def __init__(self):
        self.calls = []

    def extract(self, problem):
        self.calls.append(problem.name)
        return super().extract(problem)


def _memo_surrogate(surrogate_dataset, extractor):
    surrogate = SolverSurrogate(
        extractor, config=SurrogateConfig(hidden_sizes=(8,), num_epochs=2), rng=0
    )
    surrogate.fit(surrogate_dataset, rng=0)
    return surrogate


class TestFeatureMemo:
    def test_predict_extracts_each_problem_once(self, surrogate_dataset, training_problems):
        extractor = _CountingExtractor()
        surrogate = _memo_surrogate(surrogate_dataset, extractor)
        first, second = training_problems[:2]
        scale = first.relaxation_scale()
        fresh = surrogate.predict(first, [0.5 * scale, 1.5 * scale])
        for _ in range(3):
            again = surrogate.predict(first, [0.5 * scale, 1.5 * scale])
            surrogate.predict(second, [scale])
        assert extractor.calls == [first.name, second.name]
        assert again.probability_of_feasibility.tobytes() == fresh.probability_of_feasibility.tobytes()
        assert again.energy_mean.tobytes() == fresh.energy_mean.tobytes()

    def test_memo_keeps_no_problem_alive(self, surrogate_dataset):
        import gc
        import weakref

        surrogate = _memo_surrogate(surrogate_dataset, TSPStatisticsExtractor())
        problem = TSPProblem(generate_instance(6, rng=41, name="memo-transient"))
        surrogate.predict(problem, [problem.relaxation_scale()])
        assert len(surrogate._feature_memo) == 1
        alive = weakref.ref(problem)
        del problem
        gc.collect()
        assert alive() is None
        assert len(surrogate._feature_memo) == 0

    def test_a_new_problem_is_extracted_afresh(self, surrogate_dataset):
        import gc

        extractor = _CountingExtractor()
        surrogate = _memo_surrogate(surrogate_dataset, extractor)
        for k in range(3):
            # Each problem dies before the next is built, so CPython may hand
            # the next one the same ``id``; it must still be extracted.
            problem = TSPProblem(generate_instance(6, rng=50 + k, name=f"memo-{k}"))
            surrogate.predict(problem, [problem.relaxation_scale()])
            surrogate.predict(problem, [problem.relaxation_scale()])
            del problem
            gc.collect()
        assert extractor.calls == ["memo-0", "memo-1", "memo-2"]

    def test_cached_features_are_read_only(self, trained_surrogate, training_problems):
        features = trained_surrogate._problem_features(training_problems[0])
        with pytest.raises(ValueError):
            features[0] = 0.0


class TestSurrogatePersistence:
    def test_save_load_roundtrip(self, trained_surrogate, training_problems, tmp_path):
        path = tmp_path / "surrogate.npz"
        trained_surrogate.save(path)
        clone = SolverSurrogate(
            TSPStatisticsExtractor(),
            config=SurrogateConfig(hidden_sizes=(32, 32), num_epochs=120, patience=30),
            rng=0,
        )
        clone.load(path)
        problem = training_problems[0]
        parameters = np.array([0.5, 1.0, 1.5]) * problem.relaxation_scale()
        original = trained_surrogate.predict(problem, parameters)
        restored = clone.predict(problem, parameters)
        np.testing.assert_allclose(
            restored.probability_of_feasibility, original.probability_of_feasibility, atol=1e-9
        )
        np.testing.assert_allclose(restored.energy_mean, original.energy_mean, atol=1e-6)


def _synthetic_dataset(problems, rng) -> SurrogateDataset:
    """Sigmoid-shaped records built without any solver call.

    Pf follows a logistic in the normalised parameter around a per-instance
    centre, and the energy statistics are smooth functions of it, so the
    training stream depends only on numpy and the feature extractor: no
    engine dtype or execution backend can move its bytes.
    """
    extractor = TSPStatisticsExtractor()
    multipliers = np.array([0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0, 1.3, 1.8, 2.5])
    records = []
    for problem in problems:
        features = extractor.extract(problem)
        centre = rng.uniform(0.4, 0.9)
        a_scale, e_scale = parameter_scale(problem), energy_scale(problem)
        for multiplier in multipliers:
            pf = float(np.round(1.0 / (1.0 + np.exp(-8.0 * (multiplier - centre))), 2))
            mean = e_scale * (0.5 + multiplier + rng.normal(0.0, 0.05))
            std = e_scale * (0.1 + 0.2 * multiplier)
            records.append(
                SurrogateRecord(
                    instance_name=problem.name,
                    features=features,
                    parameter=multiplier * a_scale,
                    normalized_parameter=float(multiplier),
                    probability_of_feasibility=pf,
                    energy_mean=mean,
                    energy_std=std,
                    normalized_energy_mean=mean / e_scale,
                    normalized_energy_std=std / e_scale,
                )
            )
    return SurrogateDataset(records)


#: sha256 of both heads' ``state_dict`` and a fixed-grid ``predict`` after a
#: seeded ``fit`` on synthetic records; any change to the training arithmetic
#: (initialisation, minibatch order, losses, Adam, early stopping) moves it.
_TRAINING_DIGEST = "39588ddbe40ca2f30edd80965391db0e2bc5287dfee2927dffa79c807c430d7a"


class TestSeededTrainingDigest:
    def test_seeded_fit_matches_recorded_digest(self):
        problems = [
            TSPProblem(generate_instance(n, rng=40 + i, name=f"digest-train{i}"))
            for i, n in enumerate((5, 6, 6, 7, 7, 8))
        ]
        dataset = _synthetic_dataset(problems, np.random.default_rng(17))
        surrogate = SolverSurrogate(
            TSPStatisticsExtractor(),
            config=SurrogateConfig(hidden_sizes=(16, 16), num_epochs=60, batch_size=16, patience=8),
            rng=0,
        )
        histories = surrogate.fit(dataset, rng=1)
        hasher = hashlib.sha256()
        for network in (surrogate._pf_network, surrogate._energy_network):
            for key, value in state_dict(network).items():
                hasher.update(key.encode())
                hasher.update(value.tobytes())
        unseen = TSPProblem(generate_instance(7, rng=99, name="digest-unseen"))
        for problem in (problems[0], unseen):
            prediction = surrogate.predict(problem, np.linspace(0.1, 3.0, 9) * problem.relaxation_scale())
            for values in (
                prediction.probability_of_feasibility,
                prediction.energy_mean,
                prediction.energy_std,
            ):
                hasher.update(values.tobytes())
        assert histories["pf"].num_epochs > 0 and histories["energy"].num_epochs > 0
        assert hasher.hexdigest() == _TRAINING_DIGEST
