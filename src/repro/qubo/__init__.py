"""QUBO substrate: model representation, penalty construction and sample batches."""

from repro.qubo.builder import LinearConstraints, slack_encode_inequality
from repro.qubo.expression import QUBOAccumulator, RelaxedEncoding
from repro.qubo.model import IsingModel, QUBOModel, random_qubo
from repro.qubo.precision import AnalogNoiseModel, QuantizationModel
from repro.qubo.sampleset import SampleRecord, SampleSet

__all__ = [
    "QUBOModel",
    "IsingModel",
    "random_qubo",
    "QUBOAccumulator",
    "RelaxedEncoding",
    "LinearConstraints",
    "slack_encode_inequality",
    "AnalogNoiseModel",
    "QuantizationModel",
    "SampleRecord",
    "SampleSet",
]
