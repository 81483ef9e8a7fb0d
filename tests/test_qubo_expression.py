"""Unit tests for repro.qubo.expression (QUBOAccumulator, RelaxedEncoding)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.qubo.expression import RELAXATION_CACHE_SIZE, QUBOAccumulator, RelaxedEncoding
from repro.qubo.model import QUBOModel, random_qubo


def enumerate_assignments(n: int):
    for bits in range(2**n):
        yield np.array([(bits >> i) & 1 for i in range(n)], dtype=float)


class TestAccumulatorTerms:
    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            QUBOAccumulator(0)

    def test_add_linear(self):
        model = QUBOAccumulator(3).add_linear([0, 2], [1.5, -2.0]).build()
        for x in enumerate_assignments(3):
            assert model.energy(x) == pytest.approx(1.5 * x[0] - 2.0 * x[2])

    def test_add_linear_broadcasts_scalar(self):
        model = QUBOAccumulator(4).add_linear(np.arange(4), 2.0).build()
        assert model.energy(np.ones(4)) == pytest.approx(8.0)

    def test_add_quadratic(self):
        model = QUBOAccumulator(3).add_quadratic([0, 1], [1, 2], [2.0, -1.0]).build()
        for x in enumerate_assignments(3):
            assert model.energy(x) == pytest.approx(2.0 * x[0] * x[1] - x[1] * x[2])

    def test_add_quadratic_diagonal_is_linear(self):
        model = QUBOAccumulator(2).add_quadratic([1], [1], [3.0]).build()
        assert model.energy(np.array([0.0, 1.0])) == pytest.approx(3.0)

    def test_add_constant(self):
        model = QUBOAccumulator(2).add_constant(2.0).add_constant(-0.5).build(offset=1.0)
        assert model.energy(np.zeros(2)) == pytest.approx(2.5)

    def test_duplicate_coordinates_coalesce(self):
        accumulator = QUBOAccumulator(2)
        accumulator.add_quadratic([0, 0], [1, 1], [1.0, 2.0])
        accumulator.add_quadratic([0], [1], [0.5])
        model = accumulator.build()
        assert model.energy(np.ones(2)) == pytest.approx(3.5)
        assert model.to_dict() == {(0, 1): pytest.approx(3.5)}

    def test_squared_linear_penalty(self):
        accumulator = QUBOAccumulator(4).add_squared_linear_penalty(
            [0, 1, 3], [1.0, 2.0, -1.0], constant=1.0
        )
        model = accumulator.build()
        for x in enumerate_assignments(4):
            expected = (x[0] + 2.0 * x[1] - x[3] - 1.0) ** 2
            assert model.energy(x) == pytest.approx(expected)

    def test_squared_linear_penalty_empty_support(self):
        model = QUBOAccumulator(2).add_squared_linear_penalty([], [], constant=3.0).build()
        assert model.energy(np.zeros(2)) == pytest.approx(9.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QUBOAccumulator(3).add_linear([3], [1.0])
        with pytest.raises(ValueError):
            QUBOAccumulator(3).add_quadratic([0], [-1], [1.0])

    def test_mismatched_rows_cols_rejected(self):
        with pytest.raises(ValueError):
            QUBOAccumulator(3).add_quadratic([0, 1], [1], [1.0])

    def test_appended_terms_do_not_alias_caller_buffers(self):
        indices = np.array([0, 1], dtype=np.int64)
        values = np.array([1.0, 2.0])
        accumulator = QUBOAccumulator(3).add_linear(indices, values)
        indices[:] = 2
        values[:] = -5.0
        model = accumulator.build()
        assert model.to_dict() == {(0, 0): 1.0, (1, 1): 2.0}

    def test_num_terms_counts_triplets(self):
        accumulator = QUBOAccumulator(3).add_linear([0, 1], 1.0).add_quadratic([0], [2], 1.0)
        assert accumulator.num_terms == 3


class TestAccumulatorStorage:
    def test_small_model_auto_densifies(self):
        model = QUBOAccumulator(4).add_linear([0], [1.0]).build()
        assert model.storage == "dense"

    def test_large_sparse_model_stays_sparse(self):
        n = 600
        model = QUBOAccumulator(n).add_quadratic(np.arange(n - 1), np.arange(1, n), 1.0).build()
        assert model.storage == "sparse"

    def test_empty_accumulator_builds_zero_model(self):
        model = QUBOAccumulator(3).build(offset=1.5)
        assert model.num_variables == 3
        assert model.energy(np.ones(3)) == pytest.approx(1.5)


class TestRelaxedEncoding:
    def _encoding(self, n=4, seed=0, **kwargs) -> RelaxedEncoding:
        rng = np.random.default_rng(seed)
        objective = random_qubo(n, rng=rng, name="obj")
        penalty = random_qubo(n, rng=rng, name="pen")
        return RelaxedEncoding(objective=objective, penalty=penalty, **kwargs)

    def test_relax_composes_objective_and_penalty(self):
        encoding = self._encoding()
        x = np.array([1.0, 0.0, 1.0, 1.0])
        relaxed = encoding.relax(2.5)
        expected = encoding.objective_energy(x) + 2.5 * encoding.penalty_energy(x)
        assert relaxed.energy(x) == pytest.approx(expected)

    def test_relax_requires_positive_parameter(self):
        encoding = self._encoding()
        with pytest.raises(ValueError):
            encoding.relax(0.0)
        with pytest.raises(ValueError):
            encoding.relax(-1.0)

    def test_relax_is_cached_per_parameter(self):
        encoding = self._encoding()
        assert encoding.relax(1.5) is encoding.relax(1.5)
        assert encoding.relax(1.5) is not encoding.relax(2.0)

    def test_relax_cache_is_bounded(self):
        encoding = self._encoding()
        first = encoding.relax(1.0)
        second = encoding.relax(2.0)
        for A in range(3, RELAXATION_CACHE_SIZE + 2):
            encoding.relax(float(A))  # the last one evicts 1.0
        assert encoding.relax(2.0) is second
        assert encoding.relax(1.0) is not first

    def test_sparse_encoding_composes_sparse(self):
        n = 600
        objective = QUBOAccumulator(n).add_linear(np.arange(n), 1.0).build()
        penalty = QUBOAccumulator(n).add_quadratic(np.arange(n - 1), np.arange(1, n), 1.0).build()
        assert objective.is_sparse and penalty.is_sparse
        encoding = RelaxedEncoding(objective=objective, penalty=penalty)
        assert encoding.relax(2.0).storage == "sparse"

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RelaxedEncoding(objective=random_qubo(3, rng=0), penalty=random_qubo(4, rng=0))

    def test_fingerprint_tracks_contents(self):
        a = self._encoding(seed=0)
        b = self._encoding(seed=0)
        c = self._encoding(seed=1)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_name_propagates_to_relaxed_model(self):
        encoding = self._encoding(name="my-instance")
        assert encoding.relax(1.0).name == "my-instance"

    def test_is_feasible_uses_penalty(self):
        objective = QUBOModel(np.diag([1.0, 1.0]))
        penalty = QUBOModel(np.diag([0.0, 5.0]))
        encoding = RelaxedEncoding(objective=objective, penalty=penalty)
        assert encoding.is_feasible(np.array([1.0, 0.0]))
        assert not encoding.is_feasible(np.array([0.0, 1.0]))
