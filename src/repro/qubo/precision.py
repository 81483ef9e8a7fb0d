"""Coefficient precision and analog-control-error models.

Appendix B of the paper attributes solution degradation at large penalty
weights to (a) floating-point round-off on classical annealers and (b) analog
control errors on quantum annealers, where the implemented Hamiltonian
coefficients differ from the intended ones.  These models let us reproduce
Fig. 6 without quantum hardware: a solver is wrapped so that it optimises a
*perturbed* QUBO while solutions are still scored against the exact one.
Both models act on the stored coefficients of a model's canonical CSR form
(:meth:`~repro.qubo.model.QUBOModel.sparse_Q`), whatever its storage, and
return a new model that picks its own storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.qubo.model import QUBOModel
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class AnalogNoiseModel:
    """Multiplicative + additive Gaussian perturbation of QUBO coefficients.

    Each stored coefficient ``q`` becomes ``q * (1 + eps_m) + eps_a * scale``
    where ``eps_m ~ N(0, relative_error)``, ``eps_a ~ N(0, absolute_error)``
    and ``scale`` is the dynamic range of the coefficient matrix.  This
    mirrors the analog control error of annealing hardware: the error floor is
    fixed by the device, so when the penalty term inflates the dynamic range
    the *objective* part of the Hamiltonian drowns in noise.
    """

    relative_error: float = 0.0
    absolute_error: float = 0.0

    def __post_init__(self) -> None:
        if self.relative_error < 0 or self.absolute_error < 0:
            raise ValueError("error magnitudes must be non-negative")

    def perturb(self, model: QUBOModel, rng: RngLike = None) -> QUBOModel:
        """Return a perturbed copy of ``model``.

        Noise lands on the stored couplers of ``model.sparse_Q()`` only,
        mirroring hardware that only realises the couplings present in the
        program: a zero coupler stays zero, and no model is densified.
        """
        rng = ensure_rng(rng)
        scale = model.max_abs_coefficient()
        Q = model.sparse_Q().copy()
        if self.relative_error > 0:
            Q.data = Q.data * (1.0 + rng.normal(0.0, self.relative_error, size=Q.data.shape))
        if self.absolute_error > 0 and scale > 0:
            Q.data = Q.data + rng.normal(0.0, self.absolute_error * scale, size=Q.data.shape)
        return QUBOModel(Q, offset=model.offset, name=model.name)


@dataclass(frozen=True)
class QuantizationModel:
    """Uniform coefficient quantisation to a fixed number of bits.

    Digital annealers represent coefficients with finite precision; once the
    penalty term dominates, the objective differences fall below one quantum
    and become invisible to the solver.  ``num_bits`` is the signed integer
    width used for the coefficients after scaling to the dynamic range.
    """

    num_bits: int = 16

    def __post_init__(self) -> None:
        if self.num_bits < 2:
            raise ValueError("num_bits must be at least 2")

    def quantize(self, model: QUBOModel) -> QUBOModel:
        """Return a copy of ``model`` with quantised coefficients.

        Quantises the stored coefficients of ``model.sparse_Q()`` (zeros
        quantise to zero anyway), so no model is densified.
        """
        scale = model.max_abs_coefficient()
        Q = model.sparse_Q().copy()
        if scale > 0:
            step = scale / (2 ** (self.num_bits - 1) - 1)
            Q.data = np.round(Q.data / step) * step
        return QUBOModel(Q, offset=model.offset, name=model.name)
