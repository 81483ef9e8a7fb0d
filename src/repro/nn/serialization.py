"""Copying network parameters out of and back into a network.

Parameters travel as a flat ``name -> array`` mapping, which
:meth:`~repro.core.surrogate.SolverSurrogate.save` writes to an ``.npz`` file.
Loading requires a network with an identical architecture (same parameter
names and shapes), which is checked explicitly so silent shape mismatches
cannot corrupt a trained surrogate.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.nn.layers import Module


def state_dict(module: Module) -> Dict[str, np.ndarray]:
    """Copy all parameter values into a ``name -> array`` mapping."""
    state: Dict[str, np.ndarray] = {}
    for index, param in enumerate(module.parameters()):
        key = f"{index:03d}:{param.name}"
        state[key] = param.value.copy()
    return state


def load_state_dict(module: Module, state: Dict[str, np.ndarray]) -> None:
    """Load parameter values produced by :func:`state_dict` into ``module``."""
    params = module.parameters()
    if len(params) != len(state):
        raise ValueError(f"expected {len(params)} parameters, state has {len(state)}")
    for index, param in enumerate(params):
        key = f"{index:03d}:{param.name}"
        if key not in state:
            raise KeyError(f"missing parameter {key!r} in state")
        value = np.asarray(state[key], dtype=np.float64)
        if value.shape != param.value.shape:
            raise ValueError(
                f"shape mismatch for {key!r}: expected {param.value.shape}, got {value.shape}"
            )
        param.value[...] = value

