"""ULI localization-error auditing.

The paper justifies its commune-level tessellation with prior work
showing "the median error of ULI is around 3 km" (§2): the ULI points
at a serving cell, users are somewhere in that cell's footprint, and
the ULI can be stale after intra-RA moves.  The
:class:`LocalizationAuditor` measures exactly that error inside the
simulator: for each accounted flow it compares the subscriber's true
position (a point in the commune they actually occupy) against the
position of the cell the ULI names, and reports the error distribution
— the quantitative argument for aggregating at commune scale.

The auditor only observes: the generator hands it whole batches of
flows, and it draws from its own RNG stream alone, so an audited build
emits exactly the dataset of an unaudited one.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.network.topology import NetworkTopology


class LocalizationAuditor:
    """Collects per-flow localization errors during session generation."""

    def __init__(self, topology: NetworkTopology, seed: SeedLike = None):
        self._rng = as_generator(seed)
        grid = topology.country.grid
        self._half_cell_km = grid.cell_km / 2.0
        self._commune_xy = grid.coordinates_km
        stations = topology.base_stations
        self._cell_xy = np.array([(bs.x_km, bs.y_km) for bs in stations])
        self._cell_commune = np.array(
            [bs.commune_id for bs in stations], dtype=np.int64
        )
        self._errors: List[np.ndarray] = []
        self._correct: List[np.ndarray] = []

    def record(self, true_commune_ids, cell_ids) -> np.ndarray:
        """Record a batch of flows; returns their errors in km.

        Flow ``i`` was carried while its subscriber was in commune
        ``true_commune_ids[i]`` and its ULI named cell ``cell_ids[i]``.
        """
        true = np.asarray(true_commune_ids, dtype=np.int64)
        cells = np.asarray(cell_ids, dtype=np.int64)
        # The subscriber's true position: uniform within the commune's
        # grid cell (the simulator does not track sub-commune movement).
        half = self._half_cell_km
        position = self._commune_xy[true] + self._rng.uniform(
            -half, half, size=(len(true), 2)
        )
        offset = position - self._cell_xy[cells]
        errors = np.hypot(offset[:, 0], offset[:, 1])
        self._errors.append(errors)
        self._correct.append(true == self._cell_commune[cells])
        return errors

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Flows recorded so far."""
        return sum(len(e) for e in self._errors)

    def errors_km(self) -> np.ndarray:
        return np.concatenate(self._errors) if self._errors else np.empty(0)

    def median_error_km(self) -> float:
        """The paper's headline statistic (~3 km in the real network)."""
        if not self.n_samples:
            raise ValueError("no samples recorded")
        return float(np.median(self.errors_km()))

    def commune_accuracy(self) -> float:
        """Fraction of flows whose ULI names the correct commune."""
        if not self.n_samples:
            raise ValueError("no samples recorded")
        return float(np.concatenate(self._correct).mean())

    def summary(self) -> Dict[str, float]:
        errors = self.errors_km()
        return {
            "samples": float(len(errors)),
            "median_error_km": self.median_error_km(),
            "p90_error_km": float(np.percentile(errors, 90)),
            "commune_accuracy": self.commune_accuracy(),
        }


__all__ = ["LocalizationAuditor"]
