"""QROSS core: feature extraction, solver surrogate, strategies and the tuner."""

from repro.core.dataset import (
    FeatureNormalizer,
    SamplingPlan,
    SurrogateDataset,
    SurrogateRecord,
    collect_instance_records,
    collect_training_data,
    energy_scale,
    parameter_scale,
)
from repro.core.features import (
    FeatureExtractor,
    QuboStatisticsExtractor,
    TSPStatisticsExtractor,
    default_extractor_for,
)
from repro.core.fitness import expected_minimum_fitness, expected_minimum_of_gaussian_sample
from repro.core.strategies import (
    ComposedStrategyConfig,
    MinimumFitnessStrategy,
    OnlineFittingStrategy,
    PfBasedStrategy,
    SigmoidFit,
    fit_sigmoid,
    offline_proposals,
    propose_probability_ladder,
    sigmoid_ansatz,
)
from repro.core.surrogate import SolverSurrogate, SurrogateConfig, SurrogatePrediction
from repro.core.tuner import QROSSTuner

__all__ = [
    "FeatureExtractor",
    "TSPStatisticsExtractor",
    "QuboStatisticsExtractor",
    "default_extractor_for",
    "SurrogateRecord",
    "SurrogateDataset",
    "SamplingPlan",
    "FeatureNormalizer",
    "collect_training_data",
    "collect_instance_records",
    "parameter_scale",
    "energy_scale",
    "SolverSurrogate",
    "SurrogateConfig",
    "SurrogatePrediction",
    "expected_minimum_fitness",
    "expected_minimum_of_gaussian_sample",
    "MinimumFitnessStrategy",
    "PfBasedStrategy",
    "propose_probability_ladder",
    "OnlineFittingStrategy",
    "SigmoidFit",
    "fit_sigmoid",
    "sigmoid_ansatz",
    "ComposedStrategyConfig",
    "offline_proposals",
    "QROSSTuner",
]
