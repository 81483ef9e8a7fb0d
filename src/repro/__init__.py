"""QROSS reproduction: QUBO relaxation-parameter optimisation via learning solver surrogates.

The package is organised bottom-up:

* :mod:`repro.qubo` — QUBO models, penalty construction, sample batches;
* :mod:`repro.solvers` — simulated annealing, a Digital-Annealer-style solver,
  tabu search, a qbsolv-style decomposer and a noisy "quantum" annealer;
* :mod:`repro.problems` — TSP and MVC substrates with their QUBO relaxations;
* :mod:`repro.nn` — the surrogate's numpy ReLU MLP and its training loop
  (only what the surrogate trains, not a general library);
* :mod:`repro.core` — the QROSS contribution: solver surrogate, MFS/PBS/OFS
  strategies and the composed tuner;
* :mod:`repro.tuning` — the generic baselines (Random Search, TPE, Bayesian
  Optimisation);
* :mod:`repro.experiments` — profiles, runners and generators for every figure
  and table in the paper.

Solving a QUBO is one call through the solve service::

    import repro

    result = repro.solve(problem=problem, solver="da", num_reads=64,
                         relaxation_parameter=12.5, seed=0)
    print(result.best_energy)

Problems encode sparse-first: ``problem.encode()`` caches a frozen
:class:`repro.RelaxedEncoding` (``H_B``, ``H_A``) built through
:class:`repro.QUBOAccumulator`, and the relaxed ``H_B + A * H_A`` is composed
lazily — large sparse instances (e.g. MVC on a 5000-vertex graph) never touch
a dense ``n x n`` array.

Solvers are constructed from registry specs (``"sa"``, ``"tabu?tenure=16"``,
``repro.make_solver("sa", num_sweeps=2000)``); batched and asynchronous
workloads go through :class:`repro.service.SolveService`.

Reproducing the paper end to end::

    from repro.experiments import resolve_profile, build_problems, train_surrogate_for_solver
    from repro.experiments import qross_tuner_factory, baseline_tuner_factories, run_comparison

    profile = resolve_profile("smoke")
    datasets = build_problems(profile)
    surrogate, solver, _ = train_surrogate_for_solver(profile, "da", datasets.train_problems)
    factories = {"QROSS": qross_tuner_factory(surrogate), **baseline_tuner_factories()}
    result = run_comparison(datasets.test_problems, solver, factories,
                            num_trials=profile.num_trials, num_reads=profile.num_reads, rng=0)
    print({m: s.at_trial(3) for m, s in result.summaries().items()})
"""

from repro.core.surrogate import SolverSurrogate, SurrogateConfig
from repro.core.tuner import QROSSTuner
from repro.portfolio import (
    OutcomeLog,
    PortfolioConfig,
    PortfolioSolver,
    harvest_outcomes,
)
from repro.problems.mvc import MVCInstance, MVCProblem
from repro.problems.tsp import TSPInstance, TSPProblem
from repro.qubo import QUBOAccumulator, QUBOModel, RelaxedEncoding
from repro.service import (
    SolveRequest,
    SolveResult,
    SolverRegistry,
    SolveService,
    make_solver,
    solve,
)
from repro.solvers import (
    DigitalAnnealerSolver,
    ParallelTemperingSolver,
    QbsolvSolver,
    QuantumAnnealerSolver,
    SimulatedAnnealingSolver,
    TabuSearchSolver,
)
from repro.tuning import (
    BayesianOptimisationTuner,
    ParameterBounds,
    RandomSearchTuner,
    TPETuner,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "QUBOModel",
    "QUBOAccumulator",
    "RelaxedEncoding",
    "solve",
    "make_solver",
    "SolverRegistry",
    "SolveRequest",
    "SolveResult",
    "SolveService",
    "SimulatedAnnealingSolver",
    "DigitalAnnealerSolver",
    "ParallelTemperingSolver",
    "TabuSearchSolver",
    "QbsolvSolver",
    "QuantumAnnealerSolver",
    "PortfolioSolver",
    "PortfolioConfig",
    "OutcomeLog",
    "harvest_outcomes",
    "TSPInstance",
    "TSPProblem",
    "MVCInstance",
    "MVCProblem",
    "SolverSurrogate",
    "SurrogateConfig",
    "QROSSTuner",
    "ParameterBounds",
    "RandomSearchTuner",
    "TPETuner",
    "BayesianOptimisationTuner",
]
