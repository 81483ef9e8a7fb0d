"""Penalty-based QUBO construction for linearly-constrained binary programmes.

The paper's starting point is the relaxation

.. math::

    \\min_{x \\in \\{0,1\\}^n} x^T Q x \\quad \\text{s.t. } Cx = d
    \\;\\longrightarrow\\;
    \\min_{x \\in \\{0,1\\}^n} x^T Q x + A \\, \\lVert Cx - d \\rVert^2

where ``A`` is the relaxation (penalty) parameter QROSS tunes.  This module
provides that conversion for arbitrary linear equality constraints — sparse
first: ``C`` may be a scipy sparse matrix, the penalty ``C^T C`` is computed
sparsely and coalesced through a :class:`~repro.qubo.expression.QUBOAccumulator`,
so large constraint systems never materialise a dense ``n x n`` array — plus a
small helper for inequality constraints via slack variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from repro.qubo.expression import QUBOAccumulator
from repro.qubo.model import QUBOModel


@dataclass(frozen=True)
class LinearConstraints:
    """Equality constraints ``C x = d`` over binary variables.

    ``C`` may be a dense ndarray or any scipy sparse matrix (stored as CSR);
    every method works on both representations.
    """

    C: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        C = self.C
        if sparse.issparse(C):
            C = sparse.csr_array(C).astype(np.float64)
        else:
            C = np.asarray(C, dtype=np.float64)
        if C.ndim != 2:
            raise ValueError(f"C must be 2-D, got shape {C.shape}")
        d = np.asarray(self.d, dtype=np.float64)
        if d.shape != (C.shape[0],):
            raise ValueError(f"d must have shape ({C.shape[0]},), got {d.shape}")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "d", d)

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.C)

    @property
    def num_constraints(self) -> int:
        return int(self.C.shape[0])

    @property
    def num_variables(self) -> int:
        return int(self.C.shape[1])

    def violation(self, x: np.ndarray) -> float:
        """Squared Euclidean violation ``||Cx - d||^2`` of an assignment."""
        x = np.asarray(x, dtype=np.float64)
        residual = self.C @ x - self.d
        return float(residual @ residual)

    def is_satisfied(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether ``x`` satisfies every constraint within ``tol``."""
        return self.violation(x) <= tol

    def penalty_qubo(self) -> QUBOModel:
        """QUBO whose energy equals ``||Cx - d||^2`` for binary ``x``.

        Expanding the norm gives ``x^T (C^T C) x - 2 d^T C x + d^T d``; the
        linear part is folded onto the diagonal because ``x_i^2 = x_i``.
        ``C^T C`` is computed sparsely (scipy spGEMM) and coalesced through a
        :class:`QUBOAccumulator`; the model keeps CSR only inside the sparse
        regime.
        """
        n = self.num_variables
        C = self.C if self.is_sparse else sparse.csr_array(np.asarray(self.C))
        CtC = (C.T @ C).tocoo()
        linear = np.asarray(-2.0 * (self.d @ C))
        accumulator = QUBOAccumulator(n)
        accumulator.add_quadratic(CtC.coords[0], CtC.coords[1], CtC.data)
        nonzero = np.nonzero(linear)[0]
        accumulator.add_linear(nonzero, linear[nonzero])
        accumulator.add_constant(float(self.d @ self.d))
        return accumulator.build(name="penalty")


def slack_encode_inequality(
    coefficients: Sequence[float],
    bound: float,
) -> tuple[np.ndarray, float, int]:
    """Encode ``sum_i c_i x_i <= bound`` as an equality with binary slack bits.

    Returns the extended coefficient row, the unchanged bound and the number of
    slack bits appended.  The slack bits use a binary expansion whose top
    weight is capped at ``max_slack - (2**(k-1) - 1)`` so the register's
    maximum is *exactly* the maximum possible slack — a plain power-of-two
    expansion overshoots for non-power-of-two ``max_slack`` and would let the
    solver encode slack values no feasible assignment can have.
    """
    coeffs = np.asarray(coefficients, dtype=np.float64)
    max_slack = float(bound - coeffs[coeffs < 0].sum())
    if max_slack < 0:
        raise ValueError("constraint is infeasible for every binary assignment")
    num_slack = max(1, int(np.ceil(np.log2(max_slack + 1)))) if max_slack > 0 else 0
    slack_weights = [2.0**k for k in range(max(0, num_slack - 1))]
    if num_slack:
        slack_weights.append(max_slack - (2.0 ** (num_slack - 1) - 1.0))
    extended = np.concatenate([coeffs, np.asarray(slack_weights)])
    return extended, float(bound), num_slack
