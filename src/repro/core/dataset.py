"""Training-data collection and normalisation for the solver surrogate.

One *record* corresponds to one solver call: a problem instance ``g``, a
relaxation parameter ``A`` and the resulting batch statistics ``Pf``, ``Eavg``
and ``Estd`` (paper Section 3.3).  An instance's records come from two
:meth:`~repro.service.service.SolveService.evaluate_many` calls on a service
(the default one unless the caller passes its own), one for the coarse grid
and one for the refinement points: two
engine calls per instance for a solver that batches models (DA, qbsolv), and
records byte-identical to one :meth:`~repro.service.service.SolveService.evaluate`
per ``A``, the path every tuning trial takes.  This module handles

* running a solver over a collection of instances and a well-chosen set of
  parameter values (covering the sigmoid slope *and* both plateaus),
* the normalisations the paper describes as data augmentation / pre-processing
  (per-instance parameter scaling, energy scaling, feature standardisation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.features import FeatureExtractor, default_extractor_for
from repro.problems.base import ConstrainedProblem
from repro.service.cache import CachedEvaluation
from repro.service.service import SolveService, default_service
from repro.solvers.base import QUBOSolver
from repro.utils.rng import RngLike, ensure_rng


def parameter_scale(problem: ConstrainedProblem) -> float:
    """Per-instance scale used to normalise the relaxation parameter."""
    return float(problem.relaxation_scale())


def energy_scale(problem: ConstrainedProblem) -> float:
    """Per-instance scale used to normalise QUBO energies.

    For the TSP formulation this is roughly the magnitude of a tour length
    (``d_max * n_cities``); normalising by it puts the energy targets of
    differently-sized instances on a comparable footing.
    """
    return float(problem.relaxation_scale()) * float(np.sqrt(problem.num_qubo_variables))


@dataclass(frozen=True)
class SurrogateRecord:
    """One (instance, parameter) -> (Pf, Eavg, Estd) training example."""

    instance_name: str
    features: np.ndarray
    parameter: float
    normalized_parameter: float
    probability_of_feasibility: float
    energy_mean: float
    energy_std: float
    normalized_energy_mean: float
    normalized_energy_std: float
    best_fitness: Optional[float] = None


@dataclass
class SurrogateDataset:
    """A collection of :class:`SurrogateRecord` with array views for training."""

    records: List[SurrogateRecord] = field(default_factory=list)

    def append(self, record: SurrogateRecord) -> None:
        self.records.append(record)

    def extend(self, records: Sequence[SurrogateRecord]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    # ---------------------------------------------------------------- arrays
    @property
    def features(self) -> np.ndarray:
        return np.vstack([r.features for r in self.records])

    @property
    def normalized_parameters(self) -> np.ndarray:
        return np.array([r.normalized_parameter for r in self.records])

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([r.probability_of_feasibility for r in self.records])

    @property
    def normalized_energy_means(self) -> np.ndarray:
        return np.array([r.normalized_energy_mean for r in self.records])

    @property
    def normalized_energy_stds(self) -> np.ndarray:
        return np.array([r.normalized_energy_std for r in self.records])

    def instance_names(self) -> List[str]:
        return sorted({r.instance_name for r in self.records})

    def split(self, validation_fraction: float = 0.2, rng: RngLike = None) -> tuple["SurrogateDataset", "SurrogateDataset"]:
        """Split into train / validation sets *by instance* (no leakage across the split).

        The validation set takes ``validation_fraction`` of the instances,
        rounded, but at least one and never all of them.
        """
        if not 0.0 < validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")
        rng = ensure_rng(rng)
        names = self.instance_names()
        if len(names) < 2:
            raise ValueError("need at least two instances to split by instance")
        shuffled = list(names)
        rng.shuffle(shuffled)
        num_validation = max(1, int(round(validation_fraction * len(shuffled))))
        num_validation = min(num_validation, len(shuffled) - 1)
        validation_names = set(shuffled[:num_validation])
        train = SurrogateDataset([r for r in self.records if r.instance_name not in validation_names])
        validation = SurrogateDataset([r for r in self.records if r.instance_name in validation_names])
        return train, validation

    def summary(self) -> dict:
        """Dataset-level statistics useful for reports and sanity tests."""
        probabilities = self.probabilities
        return {
            "num_records": len(self),
            "num_instances": len(self.instance_names()),
            "fraction_on_slope": float(np.mean((probabilities > 0.0) & (probabilities < 1.0))),
            "fraction_plateau_zero": float(np.mean(probabilities == 0.0)),
            "fraction_plateau_one": float(np.mean(probabilities == 1.0)),
        }


class FeatureNormalizer:
    """Standardises instance features to zero mean / unit variance."""

    def __init__(self) -> None:
        self.mean: Optional[np.ndarray] = None
        self.std: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray) -> "FeatureNormalizer":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        self.mean = features.mean(axis=0)
        std = features.std(axis=0)
        std[std < 1e-12] = 1.0
        self.std = std
        return self

    @property
    def is_fitted(self) -> bool:
        return self.mean is not None

    def transform(self, features: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise RuntimeError("transform called before fit")
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)

    def state(self) -> dict:
        """Serialisable state (used when saving a trained surrogate)."""
        if not self.is_fitted:
            raise RuntimeError("normalizer is not fitted")
        return {"mean": self.mean.copy(), "std": self.std.copy()}

    @classmethod
    def from_state(cls, state: dict) -> "FeatureNormalizer":
        normalizer = cls()
        normalizer.mean = np.asarray(state["mean"], dtype=np.float64)
        normalizer.std = np.asarray(state["std"], dtype=np.float64)
        return normalizer


@dataclass(frozen=True)
class SamplingPlan:
    """How relaxation parameters are sampled per instance when collecting data.

    The coarse multipliers are applied to each instance's
    :meth:`~repro.problems.base.ConstrainedProblem.relaxation_scale`; the
    refinement step then adds extra samples inside the observed ``0 < Pf < 1``
    transition region so the sigmoid slope is well covered (paper Section 3.3).
    """

    coarse_multipliers: tuple[float, ...] = (0.1, 0.25, 0.4, 0.6, 0.8, 1.0, 1.25, 1.6, 2.2, 3.0)
    num_refinement_points: int = 6
    num_reads: int = 32

    def __post_init__(self) -> None:
        if len(self.coarse_multipliers) < 2:
            raise ValueError("need at least two coarse multipliers")
        if any(m <= 0 for m in self.coarse_multipliers):
            raise ValueError("multipliers must be positive")
        if self.num_refinement_points < 0:
            raise ValueError("num_refinement_points must be non-negative")
        if self.num_reads <= 0:
            raise ValueError("num_reads must be positive")


def collect_instance_records(
    problem: ConstrainedProblem,
    solver: QUBOSolver,
    extractor: FeatureExtractor,
    plan: SamplingPlan,
    rng: RngLike = None,
    service: Optional[SolveService] = None,
) -> List[SurrogateRecord]:
    """Collect training records for a single instance following ``plan``.

    The coarse grid and then the refinement points each run as one
    :meth:`~repro.service.service.SolveService.evaluate_many` call on
    ``service`` (the default service when ``None``) over the parameters not
    evaluated yet.  Every evaluation draws one child seed from ``rng``, so
    the records are byte-identical on every execution backend.
    """
    rng = ensure_rng(rng)
    service = default_service() if service is None else service
    features = extractor.extract(problem)
    a_scale = parameter_scale(problem)
    e_scale = energy_scale(problem)

    evaluated: dict[float, CachedEvaluation] = {}

    def evaluate(parameters) -> None:
        fresh = list(dict.fromkeys(p for p in parameters if p not in evaluated))
        entries = service.evaluate_many(problem, solver, fresh, plan.num_reads, rng=rng)
        evaluated.update(zip(fresh, entries))

    evaluate([multiplier * a_scale for multiplier in plan.coarse_multipliers])

    # Refine the transition region so the sigmoid slope is well sampled.
    if plan.num_refinement_points > 0:
        parameters = np.array(sorted(evaluated))
        pf_values = np.array([evaluated[p].probability_of_feasibility for p in parameters])
        on_slope = (pf_values > 0.0) & (pf_values < 1.0)
        if on_slope.any():
            low = parameters[on_slope].min()
            high = parameters[on_slope].max()
        else:
            # Pf jumps from 0 to 1 between two coarse samples; refine that gap.
            below = parameters[pf_values == 0.0]
            above = parameters[pf_values >= 1.0]
            low = below.max() if below.size else parameters[0]
            high = above.min() if above.size else parameters[-1]
        if high < low:
            low, high = high, low
        if high == low:
            low, high = 0.8 * low, 1.2 * high
        evaluate(
            float(parameter)
            for parameter in np.linspace(low, high, plan.num_refinement_points + 2)[1:-1]
        )

    return [
        SurrogateRecord(
            instance_name=problem.name,
            features=features,
            parameter=parameter,
            normalized_parameter=parameter / a_scale,
            probability_of_feasibility=entry.probability_of_feasibility,
            energy_mean=entry.energy_mean,
            energy_std=entry.energy_std,
            normalized_energy_mean=entry.energy_mean / e_scale,
            normalized_energy_std=entry.energy_std / e_scale,
            best_fitness=entry.best_fitness,
        )
        for parameter, entry in sorted(evaluated.items())
    ]


def collect_training_data(
    problems: Sequence[ConstrainedProblem],
    solver: QUBOSolver,
    extractor: Optional[FeatureExtractor] = None,
    plan: SamplingPlan | None = None,
    rng: RngLike = None,
    service: Optional[SolveService] = None,
) -> SurrogateDataset:
    """Collect a full surrogate training dataset over many instances.

    This is the expensive, offline part of QROSS: it is the "history of solved
    instances" the surrogate learns from.  Every solver call goes through
    ``service`` (the default service when ``None``).
    """
    if not problems:
        raise ValueError("at least one problem instance is required")
    plan = plan or SamplingPlan()
    extractor = extractor or default_extractor_for(problems[0])
    rng = ensure_rng(rng)
    dataset = SurrogateDataset()
    for problem in problems:
        dataset.extend(
            collect_instance_records(problem, solver, extractor, plan, rng=rng, service=service)
        )
    return dataset
