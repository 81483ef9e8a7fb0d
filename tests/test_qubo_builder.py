"""Unit tests for penalty QUBO construction (repro.qubo.builder)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.qubo.builder import LinearConstraints, slack_encode_inequality
from repro.qubo.expression import RelaxedEncoding
from repro.qubo.model import QUBOModel


@pytest.fixture
def one_hot_constraints() -> LinearConstraints:
    """x0 + x1 + x2 = 1 (one-hot selection over three variables)."""
    return LinearConstraints(C=np.ones((1, 3)), d=np.array([1.0]))


class TestLinearConstraints:
    def test_violation_zero_when_satisfied(self, one_hot_constraints):
        assert one_hot_constraints.violation(np.array([0, 1, 0])) == pytest.approx(0.0)

    def test_violation_counts_squared_residual(self, one_hot_constraints):
        assert one_hot_constraints.violation(np.array([1, 1, 1])) == pytest.approx(4.0)

    def test_is_satisfied(self, one_hot_constraints):
        assert one_hot_constraints.is_satisfied(np.array([1, 0, 0]))
        assert not one_hot_constraints.is_satisfied(np.array([0, 0, 0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearConstraints(C=np.ones((2, 3)), d=np.ones(3))

    def test_penalty_qubo_equals_violation(self, one_hot_constraints):
        penalty = one_hot_constraints.penalty_qubo()
        for bits in range(8):
            x = np.array([(bits >> i) & 1 for i in range(3)], dtype=float)
            assert penalty.energy(x) == pytest.approx(one_hot_constraints.violation(x))

    def test_penalty_qubo_multiple_constraints(self):
        constraints = LinearConstraints(
            C=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), d=np.array([1.0, 1.0])
        )
        penalty = constraints.penalty_qubo()
        for bits in range(8):
            x = np.array([(bits >> i) & 1 for i in range(3)], dtype=float)
            assert penalty.energy(x) == pytest.approx(constraints.violation(x))


class TestConstraintPenaltyEncoding:
    """``RelaxedEncoding`` over a penalty built from linear constraints."""

    def test_penalty_energy_independent_of_parameter(self, one_hot_constraints):
        objective = QUBOModel(np.zeros((3, 3)))
        encoding = RelaxedEncoding(objective, one_hot_constraints.penalty_qubo())
        x = np.array([1, 1, 1])
        violation = one_hot_constraints.violation(x)
        assert encoding.penalty_energy(x) == pytest.approx(violation)
        for parameter in (0.5, 5.0):
            assert encoding.relax(parameter).energy(x) == pytest.approx(parameter * violation)

    def test_larger_parameter_weights_constraints_more(self, one_hot_constraints):
        objective = QUBOModel(np.diag([-1.0, -1.0, -1.0]))
        encoding = RelaxedEncoding(objective, one_hot_constraints.penalty_qubo())
        infeasible = np.array([1.0, 1.0, 1.0])
        small = encoding.relax(0.5).energy(infeasible)
        large = encoding.relax(50.0).energy(infeasible)
        assert large > small


class TestSlackEncoding:
    def test_basic_encoding(self):
        extended, bound, num_slack = slack_encode_inequality([1.0, 2.0], bound=3.0)
        assert bound == 3.0
        assert num_slack >= 1
        assert extended.shape[0] == 2 + num_slack

    def test_slack_weights_cover_bound(self):
        extended, bound, num_slack = slack_encode_inequality([1.0, 1.0, 1.0], bound=3.0)
        slack_weights = extended[3:]
        assert slack_weights.sum() >= bound - 1e-9

    def test_infeasible_constraint_raises(self):
        with pytest.raises(ValueError):
            slack_encode_inequality([1.0, 1.0], bound=-5.0)

    @pytest.mark.parametrize("bound", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 11.0, 100.0])
    def test_slack_register_maximum_is_exactly_max_slack(self, bound):
        # The top binary weight is capped: the register must reach max_slack
        # exactly, never beyond (a plain power-of-two expansion overshoots for
        # non-power-of-two max_slack and encodes infeasible slack values).
        extended, _, num_slack = slack_encode_inequality([1.0, 1.0], bound=bound)
        slack_weights = extended[2:]
        assert slack_weights.shape[0] == num_slack
        assert slack_weights.sum() == pytest.approx(bound)  # max_slack == bound here
        assert np.all(slack_weights > 0)

    @pytest.mark.parametrize("bound", [1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 11.0])
    def test_slack_register_reaches_every_integer_slack(self, bound):
        extended, _, num_slack = slack_encode_inequality([1.0, 1.0], bound=bound)
        slack_weights = extended[2:]
        reachable = {0.0}
        for weight in slack_weights:
            reachable |= {value + weight for value in reachable}
        for target in range(int(bound) + 1):
            assert float(target) in reachable

    def test_negative_coefficients_extend_max_slack(self):
        extended, bound, num_slack = slack_encode_inequality([-2.0, 1.0], bound=3.0)
        # max_slack = 3 - (-2) = 5 -> weights [1, 2, 2]
        slack_weights = extended[2:]
        assert num_slack == 3
        assert slack_weights.sum() == pytest.approx(5.0)
        np.testing.assert_allclose(slack_weights, [1.0, 2.0, 2.0])

    def test_zero_max_slack_needs_no_bits(self):
        extended, _, num_slack = slack_encode_inequality([1.0, 1.0], bound=0.0)
        assert num_slack == 0
        assert extended.shape[0] == 2


class TestSparseConstraints:
    def test_sparse_and_dense_penalties_match(self):
        C = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0]])
        d = np.array([1.0, 2.0])
        dense = LinearConstraints(C=C, d=d)
        csr = LinearConstraints(C=sparse.csr_array(C), d=d)
        assert csr.C.format == dense.C.format == "csr"
        assert dense.penalty_qubo().to_dict() == csr.penalty_qubo().to_dict()
        for bits in range(16):
            x = np.array([(bits >> i) & 1 for i in range(4)], dtype=float)
            assert csr.violation(x) == pytest.approx(dense.violation(x))
            assert csr.penalty_qubo().energy(x) == pytest.approx(dense.violation(x))

    def test_sparse_shape_validation(self):
        with pytest.raises(ValueError):
            LinearConstraints(C=sparse.csr_array(np.ones((2, 3))), d=np.ones(3))
