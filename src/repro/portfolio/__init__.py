"""Per-instance algorithm portfolio: budget-aware solver scheduling.

The registry holds many solver families, but a caller usually does not know
which one is cheapest for *this* instance.  The portfolio layer closes that
gap in the borg-portfolio style:

* :mod:`repro.portfolio.outcomes` — an append-only JSONL :class:`OutcomeLog`
  recording what each solver achieved on each instance (feature vector, spec,
  budget, best energy, time-to-target), harvested from experiment runs;
* :mod:`repro.portfolio.strategies` — the scheduling seam:
  :class:`FixedStrategy`, :class:`SequenceStrategy` and the
  feature-conditioned :class:`ModelingStrategy` (per-spec success model +
  UCB / epsilon-greedy selection with mid-budget replanning);
* :mod:`repro.portfolio.solver` — :class:`PortfolioSolver`, the ``portfolio``
  registry backend, whose ``_sample`` fans member
  :class:`~repro.service.requests.SolveRequest` slices out through a
  :class:`~repro.service.service.SolveService` in interleaved rounds.

>>> from repro.service import make_solver
>>> solver = make_solver("portfolio?members=sa,pt&strategy=ucb&sweep_budget=400")
"""

from repro.portfolio.members import (
    BUDGET_FIELDS,
    budget_field,
    join_member_list,
    slice_solver,
    split_member_list,
)
from repro.portfolio.outcomes import (
    OutcomeLog,
    OutcomeRecord,
    harvest_outcomes,
    time_to_target,
)
from repro.portfolio.solver import PortfolioConfig, PortfolioSolver
from repro.portfolio.strategies import (
    FixedStrategy,
    ModelingStrategy,
    PortfolioModel,
    SequenceStrategy,
    SliceOutcome,
    Strategy,
)

__all__ = [
    "BUDGET_FIELDS",
    "budget_field",
    "join_member_list",
    "slice_solver",
    "split_member_list",
    "OutcomeLog",
    "OutcomeRecord",
    "harvest_outcomes",
    "time_to_target",
    "PortfolioConfig",
    "PortfolioSolver",
    "FixedStrategy",
    "ModelingStrategy",
    "PortfolioModel",
    "SequenceStrategy",
    "SliceOutcome",
    "Strategy",
]
