"""The solver surrogate's network: a numpy ReLU MLP trained with BCE or Huber loss and Adam."""

from repro.nn.initializers import glorot_uniform, he_normal
from repro.nn.layers import Dense, Module, ReLU, sigmoid
from repro.nn.losses import BCEWithLogitsLoss, HuberLoss, Loss
from repro.nn.network import Sequential, TrainingHistory, fit, iterate_minibatches, mlp
from repro.nn.optimizers import Adam
from repro.nn.parameter import Parameter
from repro.nn.serialization import load_state_dict, state_dict

__all__ = [
    "Parameter",
    "Module",
    "Dense",
    "ReLU",
    "sigmoid",
    "Loss",
    "HuberLoss",
    "BCEWithLogitsLoss",
    "Adam",
    "Sequential",
    "mlp",
    "fit",
    "iterate_minibatches",
    "TrainingHistory",
    "glorot_uniform",
    "he_normal",
    "state_dict",
    "load_state_dict",
]
