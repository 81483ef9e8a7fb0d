"""Simulated quantum annealer with analog control errors.

The paper's Appendix B runs weighted Minimum Vertex Cover on a D-Wave DW_2000Q
to show that over-sized penalty weights degrade solution quality because the
hardware implements the Hamiltonian coefficients only approximately (analog
control error).  Without access to a QPU we reproduce the *mechanism*: the
wrapped solver optimises a noise-perturbed / precision-limited copy of the
QUBO, while the returned energies are evaluated against the exact model.  When
the penalty term dominates the coefficient range, the objective part of the
problem falls below the error floor and the solutions drift away from optimal
— exactly the Fig. 6 behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.qubo.model import QUBOModel
from repro.qubo.precision import AnalogNoiseModel, QuantizationModel
from repro.solvers.base import QUBOSolver
from repro.solvers.engine import validate_engine_dtype
from repro.solvers.simulated_annealing import SimulatedAnnealingConfig, SimulatedAnnealingSolver


@dataclass(frozen=True)
class QuantumAnnealerConfig:
    """Configuration of :class:`QuantumAnnealerSolver`.

    Parameters
    ----------
    noise:
        Analog control-error model applied to the coefficients before solving.
    quantization:
        Optional coefficient-precision model (DAC resolution of the device).
    base_config:
        Configuration of the underlying annealing dynamics.
    dtype:
        Engine float precision forwarded to the wrapped annealer (unless the
        ``base_config`` pins its own).
    """

    noise: AnalogNoiseModel = field(default_factory=lambda: AnalogNoiseModel(relative_error=0.02, absolute_error=0.005))
    quantization: Optional[QuantizationModel] = field(default_factory=lambda: QuantizationModel(num_bits=8))
    base_config: SimulatedAnnealingConfig = field(default_factory=SimulatedAnnealingConfig)
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        validate_engine_dtype(self.dtype)


class QuantumAnnealerSolver(QUBOSolver):
    """Annealer that sees a perturbed Hamiltonian but is scored on the exact one."""

    name = "quantum-annealer"

    def __init__(self, config: QuantumAnnealerConfig | None = None) -> None:
        self.config = config or QuantumAnnealerConfig()
        base = self.config.base_config
        if self.config.dtype is not None and base.dtype is None:
            base = replace(base, dtype=self.config.dtype)
        self._base = SimulatedAnnealingSolver(base)

    def _sample(
        self, model: QUBOModel, num_reads: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, Optional[dict]]:
        perturbed = self.config.noise.perturb(model, rng=rng)
        if self.config.quantization is not None:
            perturbed = self.config.quantization.quantize(perturbed)
        raw = self._base.sample(perturbed, num_reads=num_reads, rng=rng)
        # The template re-scores the assignments against the exact model.
        return raw.assignments, {
            "relative_error": self.config.noise.relative_error,
            "absolute_error": self.config.noise.absolute_error,
        }
