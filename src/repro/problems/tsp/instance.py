"""Travelling Salesman Problem instances.

An instance is a symmetric distance matrix, optionally backed by 2-D city
coordinates.  Instances are the unit of data in QROSS: the surrogate is trained
on a *collection* of instances of the same problem class and queried on new
ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.utils.validation import check_symmetric


@dataclass
class TSPInstance:
    """A symmetric TSP instance.

    Parameters
    ----------
    distances:
        Symmetric non-negative distance matrix with a zero diagonal.
    coordinates:
        Optional ``(n, 2)`` city coordinates the distances were derived from.
    name:
        Instance label (e.g. ``"berlin52"`` or ``"synthetic-0042"``).
    best_known_length:
        Optional best-known tour length, used to compute optimality gaps.
    """

    distances: np.ndarray
    coordinates: Optional[np.ndarray] = None
    name: str = "tsp"
    best_known_length: Optional[float] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        distances = check_symmetric(self.distances, "distances")
        if np.any(distances < 0):
            raise ValueError("distances must be non-negative")
        if np.any(np.diag(distances) != 0):
            raise ValueError("distance matrix must have a zero diagonal")
        if distances.shape[0] < 3:
            raise ValueError("a TSP instance needs at least 3 cities")
        self.distances = distances
        if self.coordinates is not None:
            coords = np.asarray(self.coordinates, dtype=np.float64)
            if coords.shape != (distances.shape[0], 2):
                raise ValueError(
                    f"coordinates must have shape ({distances.shape[0]}, 2), got {coords.shape}"
                )
            self.coordinates = coords

    # ------------------------------------------------------------------ basic
    @property
    def num_cities(self) -> int:
        return int(self.distances.shape[0])

    def tour_length(self, tour: np.ndarray) -> float:
        """Length of the closed tour visiting cities in the order of ``tour``."""
        tour = np.asarray(tour, dtype=np.int64)
        if sorted(tour.tolist()) != list(range(self.num_cities)):
            raise ValueError("tour must be a permutation of all cities")
        return float(self.distances[tour, np.roll(tour, -1)].sum())

    # -------------------------------------------------------------- factories
    @classmethod
    def from_coordinates(
        cls,
        coordinates: np.ndarray,
        name: str = "tsp",
        best_known_length: Optional[float] = None,
    ) -> "TSPInstance":
        """Build a Euclidean instance from ``(n, 2)`` coordinates."""
        coords = np.asarray(coordinates, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"coordinates must have shape (n, 2), got {coords.shape}")
        deltas = coords[:, None, :] - coords[None, :, :]
        distances = np.sqrt((deltas**2).sum(axis=-1))
        np.fill_diagonal(distances, 0.0)
        return cls(
            distances=distances,
            coordinates=coords,
            name=name,
            best_known_length=best_known_length,
        )

    # ------------------------------------------------------------- statistics
    def distance_statistics(self) -> dict[str, float]:
        """Summary statistics of the off-diagonal distances (used as features)."""
        n = self.num_cities
        off_diag = self.distances[~np.eye(n, dtype=bool)]
        return {
            "num_cities": float(n),
            "mean": float(off_diag.mean()),
            "std": float(off_diag.std()),
            "min": float(off_diag.min()),
            "max": float(off_diag.max()),
            "median": float(np.median(off_diag)),
        }

    def scaled(self, factor: float) -> "TSPInstance":
        """Return a copy with every distance multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        coords = None if self.coordinates is None else self.coordinates * factor
        best = None if self.best_known_length is None else self.best_known_length * factor
        return TSPInstance(
            distances=self.distances * factor,
            coordinates=coords,
            name=self.name,
            best_known_length=best,
            metadata=dict(self.metadata),
        )
