"""Pf-based Strategy (PBS, paper Section 3.4.2).

PBS proposes the parameter whose predicted probability of feasibility matches a
user-chosen target ``p`` (Eq. 3): ``argmin_A |Pf(A) - p|``.  Because the
optimal parameter lies on the sigmoid slope (the paper's central hypothesis),
sweeping a few targets such as 80 % and 20 % brackets the optimum cheaply and
without any solver calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.strategies.base import OfflineStrategy, dense_parameter_grid
from repro.core.surrogate import SolverSurrogate
from repro.problems.base import ConstrainedProblem
from repro.tuning.base import ParameterBounds
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class PfBasedStrategy(OfflineStrategy):
    """Propose parameters whose predicted ``Pf`` equals the requested targets.

    Parameters
    ----------
    targets:
        Desired feasibility probabilities, proposed in order.
    num_grid_points:
        Resolution of the grid on which ``|Pf(A) - p|`` is minimised.
    """

    targets: tuple[float, ...] = (0.8, 0.2)
    num_grid_points: int = 256

    name: str = "PBS"

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("at least one target probability is required")
        for target in self.targets:
            check_probability(target, "target")

    def propose(
        self,
        surrogate: SolverSurrogate,
        problem: ConstrainedProblem,
        bounds: ParameterBounds,
    ) -> List[float]:
        grid = dense_parameter_grid(bounds, self.num_grid_points)
        pf = surrogate.predict_pf(problem, grid)
        return [float(grid[int(np.argmin(np.abs(pf - target)))]) for target in self.targets]


def propose_probability_ladder(
    surrogate: SolverSurrogate,
    problem: ConstrainedProblem,
    bounds: ParameterBounds,
    num_trials: int,
) -> List[float]:
    """Spread ``num_trials`` PBS proposals evenly over the feasibility range.

    Mirrors the paper's example of using ``p = 90%, 70%, 50%, 30%, 10%`` when
    five trials are affordable.
    """
    if num_trials <= 0:
        raise ValueError("num_trials must be positive")
    targets = np.linspace(0.9, 0.1, num_trials)
    strategy = PfBasedStrategy(targets=tuple(float(t) for t in targets))
    return strategy.propose(surrogate, problem, bounds)
