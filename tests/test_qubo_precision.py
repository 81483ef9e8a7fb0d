"""Unit tests for analog-noise and quantisation models (repro.qubo.precision)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.qubo.model import QUBOModel, random_qubo
from repro.qubo.precision import AnalogNoiseModel, QuantizationModel


class TestAnalogNoiseModel:
    def test_zero_noise_is_identity(self):
        model = random_qubo(5, rng=0)
        perturbed = AnalogNoiseModel(relative_error=0.0, absolute_error=0.0).perturb(model, rng=0)
        np.testing.assert_allclose(perturbed.Q, model.Q)

    def test_noise_changes_coefficients(self):
        model = random_qubo(5, rng=0)
        perturbed = AnalogNoiseModel(relative_error=0.1).perturb(model, rng=1)
        assert not np.allclose(perturbed.Q, model.Q)

    def test_perturbed_matrix_is_symmetric(self):
        model = random_qubo(6, rng=0)
        perturbed = AnalogNoiseModel(relative_error=0.1, absolute_error=0.05).perturb(model, rng=2)
        np.testing.assert_allclose(perturbed.Q, perturbed.Q.T)

    def test_zero_couplers_of_a_dense_model_stay_zero(self):
        # Noise lands only on the couplers present in the program, whatever
        # the model's storage.
        model = random_qubo(40, density=0.2, rng=4)
        assert model.storage == "dense"
        Q = model.dense_Q()
        perturbed = AnalogNoiseModel(relative_error=0.1, absolute_error=0.1).perturb(model, rng=3)
        zero = Q == 0.0
        assert zero.any() and (~zero).any()
        assert np.all(perturbed.Q[zero] == 0.0)
        assert np.all(perturbed.Q[~zero] != Q[~zero])

    def test_offset_preserved(self):
        model = QUBOModel(np.eye(3), offset=7.0)
        perturbed = AnalogNoiseModel(relative_error=0.1).perturb(model, rng=0)
        assert perturbed.offset == pytest.approx(7.0)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            AnalogNoiseModel(relative_error=-0.1)

    def test_relative_error_scales_with_magnitude(self):
        # The absolute perturbation of a large penalty coefficient exceeds the
        # absolute perturbation of a small objective coefficient.
        Q = np.diag([1.0, 1000.0])
        model = QUBOModel(Q)
        diffs = []
        for seed in range(20):
            perturbed = AnalogNoiseModel(relative_error=0.05).perturb(model, rng=seed)
            diff = np.abs(np.diag(perturbed.Q) - np.diag(Q))
            diffs.append(diff)
        diffs = np.mean(diffs, axis=0)
        assert diffs[1] > diffs[0] * 10


class TestQuantizationModel:
    def test_quantisation_rounds_to_grid(self):
        model = QUBOModel(np.array([[1.0, 0.30001], [0.30001, -1.0]]))
        quantised = QuantizationModel(num_bits=8).quantize(model)
        levels = 2**7 - 1
        step = 1.0 / levels
        remainder = np.abs(quantised.Q / step - np.round(quantised.Q / step))
        assert np.all(remainder < 1e-9)

    def test_high_precision_changes_little(self):
        model = random_qubo(5, rng=0)
        quantised = QuantizationModel(num_bits=24).quantize(model)
        np.testing.assert_allclose(quantised.Q, model.Q, atol=1e-5)

    def test_low_precision_loses_small_coefficients(self):
        # A tiny objective coefficient next to a huge penalty coefficient
        # disappears entirely at low precision — the Appendix B mechanism.
        Q = np.diag([0.001, 1000.0])
        quantised = QuantizationModel(num_bits=4).quantize(QUBOModel(Q))
        assert quantised.Q[0, 0] == pytest.approx(0.0)

    def test_zero_matrix_passthrough(self):
        model = QUBOModel(np.zeros((3, 3)), offset=1.0)
        quantised = QuantizationModel(num_bits=8).quantize(model)
        np.testing.assert_allclose(quantised.Q, 0.0)
        assert quantised.offset == pytest.approx(1.0)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantizationModel(num_bits=1)
