"""The QROSS solver surrogate.

The surrogate approximates *only* the aspects of a QUBO solver that matter for
relaxation-parameter tuning (paper Fig. 8): given an instance ``g`` and a
relaxation parameter ``A`` it predicts

* ``Pf(g, A)`` — the probability that a solver read is feasible,
* ``Eavg(g, A)`` and ``Estd(g, A)`` — the mean / standard deviation of the
  QUBO energies of a read batch,

but never explicit solutions.  Architecturally (paper Appendix G) the instance
goes through a feature extractor, the resulting fixed-size vector is
concatenated with the (normalised) parameter and fed to fully-connected heads:
a sigmoid/BCE head for ``Pf`` and a Huber-loss regression head for the energy
statistics.  The two heads are trained separately, as in the paper.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.core.dataset import (
    FeatureNormalizer,
    SurrogateDataset,
    energy_scale,
    parameter_scale,
)
from repro.core.features import FeatureExtractor
from repro.nn.layers import sigmoid
from repro.nn.losses import BCEWithLogitsLoss, HuberLoss
from repro.nn.network import Sequential, TrainingHistory, fit, mlp
from repro.nn.optimizers import Adam
from repro.nn.serialization import load_state_dict, state_dict
from repro.problems.base import ConstrainedProblem
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class SurrogateConfig:
    """Architecture and training hyper-parameters of the surrogate.

    Parameters
    ----------
    hidden_sizes:
        Widths of the shared fully-connected trunk of each head.
    learning_rate, num_epochs, batch_size, patience:
        Training-loop settings (both heads use the same ones); all positive,
        and ``patience=None`` disables early stopping.
    huber_delta:
        Huber-loss transition point for the energy head (in normalised units).
    weight_decay:
        L2 regularisation applied by Adam.  The surrogate must generalise to
        *unseen* instances from a modest number of training instances, so a
        little shrinkage on the instance-feature weights matters.
    """

    hidden_sizes: tuple[int, ...] = (64, 64)
    learning_rate: float = 3e-3
    num_epochs: int = 300
    batch_size: int = 64
    patience: Optional[int] = 40
    huber_delta: float = 1.0
    weight_decay: float = 1e-3
    validation_fraction: float = 0.15

    def __post_init__(self) -> None:
        if not self.hidden_sizes or any(size <= 0 for size in self.hidden_sizes):
            raise ValueError("hidden_sizes must be positive")
        if self.learning_rate <= 0 or self.num_epochs <= 0 or self.batch_size <= 0:
            raise ValueError("training hyper-parameters must be positive")
        if self.patience is not None and self.patience <= 0:
            raise ValueError("patience must be positive (or None to disable early stopping)")
        if self.huber_delta <= 0:
            raise ValueError("huber_delta must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class SurrogatePrediction:
    """Vectorised surrogate outputs over a grid of relaxation parameters."""

    parameters: np.ndarray
    probability_of_feasibility: np.ndarray
    energy_mean: np.ndarray
    energy_std: np.ndarray


class SolverSurrogate:
    """Neural surrogate of a stochastic QUBO solver.

    Parameters
    ----------
    extractor:
        Instance feature extractor (shared by training and inference).
    config:
        Architecture / training configuration.
    rng:
        Seed controlling weight initialisation and minibatch order.
    """

    def __init__(
        self,
        extractor: FeatureExtractor,
        config: SurrogateConfig | None = None,
        rng: RngLike = None,
    ) -> None:
        self.extractor = extractor
        self.config = config or SurrogateConfig()
        self._rng = ensure_rng(rng)
        input_dim = extractor.dim + 1  # instance features + normalised parameter
        sizes = [input_dim, *self.config.hidden_sizes]
        self._pf_network: Sequential = mlp([*sizes, 1], rng=self._rng)
        self._energy_network: Sequential = mlp([*sizes, 2], rng=self._rng)
        self._normalizer = FeatureNormalizer()
        self._trained = False
        #: ``problem -> features``; an entry goes when its problem does.
        self._feature_memo: "weakref.WeakKeyDictionary[ConstrainedProblem, np.ndarray]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------ train
    @property
    def is_trained(self) -> bool:
        return self._trained

    def fit(self, dataset: SurrogateDataset, rng: RngLike = None) -> dict[str, TrainingHistory]:
        """Train both heads on a collected dataset and return their loss histories."""
        if len(dataset) < 10:
            raise ValueError("the dataset is too small to train a surrogate")
        rng = ensure_rng(rng if rng is not None else self._rng)

        try:
            train_set, validation_set = dataset.split(self.config.validation_fraction, rng=rng)
        except ValueError:
            train_set, validation_set = dataset, None

        features = self._normalizer.fit_transform(train_set.features)
        inputs = np.column_stack([features, train_set.normalized_parameters])
        validation_inputs = None
        if validation_set is not None:
            validation_inputs = np.column_stack(
                [
                    self._normalizer.transform(validation_set.features),
                    validation_set.normalized_parameters,
                ]
            )

        histories: dict[str, TrainingHistory] = {}

        pf_targets = train_set.probabilities[:, None]
        pf_validation = None
        if validation_inputs is not None:
            pf_validation = (validation_inputs, validation_set.probabilities[:, None])
        histories["pf"] = fit(
            self._pf_network,
            inputs,
            pf_targets,
            loss=BCEWithLogitsLoss(),
            optimizer=Adam(
                self._pf_network.parameters(),
                learning_rate=self.config.learning_rate,
                weight_decay=self.config.weight_decay,
            ),
            num_epochs=self.config.num_epochs,
            batch_size=self.config.batch_size,
            validation_data=pf_validation,
            patience=self.config.patience,
            rng=rng,
        )

        energy_targets = np.column_stack(
            [train_set.normalized_energy_means, train_set.normalized_energy_stds]
        )
        energy_validation = None
        if validation_inputs is not None:
            energy_validation = (
                validation_inputs,
                np.column_stack(
                    [validation_set.normalized_energy_means, validation_set.normalized_energy_stds]
                ),
            )
        histories["energy"] = fit(
            self._energy_network,
            inputs,
            energy_targets,
            loss=HuberLoss(delta=self.config.huber_delta),
            optimizer=Adam(
                self._energy_network.parameters(),
                learning_rate=self.config.learning_rate,
                weight_decay=self.config.weight_decay,
            ),
            num_epochs=self.config.num_epochs,
            batch_size=self.config.batch_size,
            validation_data=energy_validation,
            patience=self.config.patience,
            rng=rng,
        )

        self._trained = True
        return histories

    # -------------------------------------------------------------- inference
    def _problem_features(self, problem: ConstrainedProblem) -> np.ndarray:
        """The extractor's (read-only) feature vector of ``problem``, extracted once.

        Features depend on the problem alone, and MFS's refinement predicts
        one parameter per objective evaluation, so each problem's vector is
        kept for as long as the problem lives: the memo holds its keys
        weakly, so it keeps no problem alive and holds at most one entry per
        live problem.  Two threads missing together both extract; the
        vectors are equal.
        """
        features = self._feature_memo.get(problem)
        if features is None:
            features = np.array(self.extractor.extract(problem), dtype=np.float64)
            features.flags.writeable = False
            self._feature_memo[problem] = features
        return features

    def _inputs_for(self, problem: ConstrainedProblem, parameters: np.ndarray) -> np.ndarray:
        features = self._problem_features(problem)
        features = self._normalizer.transform(features[None, :])[0]
        normalized = np.asarray(parameters, dtype=np.float64) / parameter_scale(problem)
        tiled = np.tile(features, (normalized.size, 1))
        return np.column_stack([tiled, normalized])

    def predict(self, problem: ConstrainedProblem, parameters: Sequence[float] | np.ndarray) -> SurrogatePrediction:
        """Predict ``Pf``, ``Eavg`` and ``Estd`` for each parameter value.

        Energies are returned in the original (un-normalised) units of the
        instance's QUBO.
        """
        if not self._trained:
            raise RuntimeError("the surrogate must be trained (or loaded) before prediction")
        parameters = np.atleast_1d(np.asarray(parameters, dtype=np.float64))
        if not np.all(np.isfinite(parameters) & (parameters > 0)):
            raise ValueError("relaxation parameters must be positive and finite")
        inputs = self._inputs_for(problem, parameters)
        pf = sigmoid(self._pf_network.forward(inputs)[:, 0])
        energies = self._energy_network.forward(inputs)
        scale = energy_scale(problem)
        energy_mean = energies[:, 0] * scale
        energy_std = np.abs(energies[:, 1]) * scale
        return SurrogatePrediction(
            parameters=parameters,
            probability_of_feasibility=pf,
            energy_mean=energy_mean,
            energy_std=energy_std,
        )

    def predict_pf(self, problem: ConstrainedProblem, parameters: Sequence[float] | np.ndarray) -> np.ndarray:
        """Convenience wrapper returning only ``Pf``."""
        return self.predict(problem, parameters).probability_of_feasibility

    # ------------------------------------------------------------ persistence
    def save(self, path: str | Path) -> None:
        """Save network weights and feature-normaliser state to an ``.npz`` file."""
        if not self._trained:
            raise RuntimeError("refusing to save an untrained surrogate")
        payload: dict[str, np.ndarray] = {}
        for prefix, network in (("pf", self._pf_network), ("energy", self._energy_network)):
            for key, value in state_dict(network).items():
                payload[f"{prefix}/{key}"] = value
        normalizer_state = self._normalizer.state()
        payload["normalizer/mean"] = normalizer_state["mean"]
        payload["normalizer/std"] = normalizer_state["std"]
        np.savez(Path(path), **payload)

    def load(self, path: str | Path) -> "SolverSurrogate":
        """Restore weights saved by :meth:`save` (architecture must match)."""
        with np.load(Path(path)) as data:
            pf_state = {key.split("/", 1)[1]: data[key] for key in data.files if key.startswith("pf/")}
            energy_state = {
                key.split("/", 1)[1]: data[key] for key in data.files if key.startswith("energy/")
            }
            load_state_dict(self._pf_network, pf_state)
            load_state_dict(self._energy_network, energy_state)
            self._normalizer = FeatureNormalizer.from_state(
                {"mean": data["normalizer/mean"], "std": data["normalizer/std"]}
            )
        self._trained = True
        return self
