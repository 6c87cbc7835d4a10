"""Shared experiment context.

Building the synthetic country and dataset dominates the cost of every
figure, so all experiments share one :class:`ExperimentContext`: the
hourly nationwide dataset for the spatial figures, plus (lazily) a
15-minute-resolution national series bundle for the temporal figures
and the peak signatures of those series, which Figs. 4, 6 and 7 share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro._rng import as_generator, spawn
from repro._time import TimeAxis
from repro.core import topical
from repro.dataset.builder import PipelineArtifacts, build_volume_level_dataset
from repro.dataset.store import MobileTrafficDataset
from repro.geo.country import CountryConfig
from repro.traffic.intensity import build_intensity_model
from repro.traffic.volume_model import synthesize_national_series

#: Time resolution of the temporal analyses (15-minute bins); the peak
#: detector's 2-hour lag then spans 8 samples.
FINE_BINS_PER_HOUR = 4


@dataclass
class ExperimentContext:
    """Everything the figure runners need, built once."""

    artifacts: PipelineArtifacts
    seed: int
    _fine_series: Dict[str, np.ndarray] = field(default_factory=dict)
    _peak_signatures: Dict[str, List[topical.PeakSignature]] = field(
        default_factory=dict
    )
    _fine_axis: TimeAxis = TimeAxis(FINE_BINS_PER_HOUR)

    @property
    def dataset(self) -> MobileTrafficDataset:
        return self.artifacts.dataset

    @property
    def fine_axis(self) -> TimeAxis:
        return self._fine_axis

    def national_series_fine(self, direction: str) -> np.ndarray:
        """(n_head, fine bins) national series at 15-minute resolution.

        The fine-axis streams are spawned from the context seed with
        stable labels (never ad-hoc ``seed + N`` generators), so they are
        decorrelated from the builder's streams by construction; the
        resulting series are pinned by
        ``tests/unit/experiments/test_context.py``.
        """
        if direction not in self._fine_series:
            parent = as_generator(self.seed)
            model = build_intensity_model(
                self.artifacts.country,
                self.artifacts.catalog,
                self.artifacts.profiles,
                axis=self._fine_axis,
                seed=spawn(parent, "context.fine-intensity"),
            )
            for d in ("dl", "ul"):
                self._fine_series[d] = synthesize_national_series(
                    model, d, seed=spawn(parent, f"context.fine-series.{d}")
                )
        return self._fine_series[direction]

    def peak_signatures(self, direction: str) -> List[topical.PeakSignature]:
        """Paper-parameterized peak signature of each head service's fine
        national series, in head order; detected once per direction."""
        if direction not in self._peak_signatures:
            self._peak_signatures[direction] = topical.peak_signatures(
                self.national_series_fine(direction),
                self._fine_axis,
                self.head_names,
            )
        return self._peak_signatures[direction]

    @property
    def head_names(self) -> List[str]:
        return list(self.dataset.head_names)


def build_default_context(
    seed: int = 7,
    n_communes: int = 1_600,
    country_config: Optional[CountryConfig] = None,
) -> ExperimentContext:
    """Build the standard experiment context.

    ``n_communes`` trades fidelity for speed; 1,600 reproduces every
    figure in seconds, 36,000 matches the paper's full tessellation.
    """
    config = country_config or CountryConfig(n_communes=n_communes)
    artifacts = build_volume_level_dataset(country_config=config, seed=seed)
    return ExperimentContext(artifacts=artifacts, seed=seed)


def build_default_dataset(seed: int = 7, n_communes: int = 1_600) -> MobileTrafficDataset:
    """Convenience: just the dataset, for quickstart-style use."""
    return build_default_context(seed=seed, n_communes=n_communes).dataset


__all__ = [
    "FINE_BINS_PER_HOUR",
    "ExperimentContext",
    "build_default_context",
    "build_default_dataset",
]
