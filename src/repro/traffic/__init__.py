"""Workload generation.

Two resolutions share one statistical model (see DESIGN.md §5):

- :mod:`repro.traffic.intensity` — the shared model: expected
  per-subscriber weekly volume per (commune, service) and normalized
  temporal weights per (service, time bin), including the TGV and
  urbanization-class temporal modulations;
- :mod:`repro.traffic.subscribers` — synthetic subscriber population;
- :mod:`repro.traffic.mobility` — weekly itineraries (home, commuting,
  high-speed-rail travel);
- :mod:`repro.traffic.generator` — session-level workload: subscribers
  attach, move, and exchange flows through the network simulator;
- :mod:`repro.traffic.volume_model` — closed-form commune × service ×
  time tensors for nationwide-scale runs.
"""

from repro.traffic.generator import SessionLevelGenerator, WorkloadConfig
from repro.traffic.intensity import IntensityModel, build_intensity_model
from repro.traffic.mobility import Itinerary, MobilityModel
from repro.traffic.subscribers import (
    Subscriber,
    SubscriberClass,
    SubscriberPopulation,
    synthesize_population,
)
from repro.traffic.volume_model import VolumeModelConfig, synthesize_volume_dataset

__all__ = [
    "IntensityModel",
    "build_intensity_model",
    "Subscriber",
    "SubscriberClass",
    "SubscriberPopulation",
    "synthesize_population",
    "Itinerary",
    "MobilityModel",
    "SessionLevelGenerator",
    "WorkloadConfig",
    "VolumeModelConfig",
    "synthesize_volume_dataset",
]
