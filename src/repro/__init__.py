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

Every name in ``__all__`` resolves on first access: ``import repro`` loads
no subpackage, and ``repro.solve`` loads the service layer without the
tuners, so a spawned worker never imports ``repro.core`` or its scipy
modules.

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

import importlib

# Public name -> the module to import it from, on first access (PEP 562).
_EXPORTS = {
    "QUBOModel": "repro.qubo",
    "QUBOAccumulator": "repro.qubo",
    "RelaxedEncoding": "repro.qubo",
    "solve": "repro.service",
    "make_solver": "repro.service",
    "SolverRegistry": "repro.service",
    "SolveRequest": "repro.service",
    "SolveResult": "repro.service",
    "SolveService": "repro.service",
    "SimulatedAnnealingSolver": "repro.solvers",
    "DigitalAnnealerSolver": "repro.solvers",
    "ParallelTemperingSolver": "repro.solvers",
    "TabuSearchSolver": "repro.solvers",
    "QbsolvSolver": "repro.solvers",
    "QuantumAnnealerSolver": "repro.solvers",
    "PortfolioSolver": "repro.portfolio",
    "PortfolioConfig": "repro.portfolio",
    "OutcomeLog": "repro.portfolio",
    "harvest_outcomes": "repro.portfolio",
    "TSPInstance": "repro.problems.tsp",
    "TSPProblem": "repro.problems.tsp",
    "MVCInstance": "repro.problems.mvc",
    "MVCProblem": "repro.problems.mvc",
    "SolverSurrogate": "repro.core.surrogate",
    "SurrogateConfig": "repro.core.surrogate",
    "QROSSTuner": "repro.core.tuner",
    "ParameterBounds": "repro.tuning",
    "RandomSearchTuner": "repro.tuning",
    "TPETuner": "repro.tuning",
    "BayesianOptimisationTuner": "repro.tuning",
}

__version__ = "1.0.0"

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
