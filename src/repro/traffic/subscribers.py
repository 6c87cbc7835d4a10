"""Synthetic subscriber population.

Subscribers have a home commune (drawn from the resident distribution), a
behavioural class driving their weekly mobility, a device capability
(4G-capable or 3G-only), a per-service adoption set, and an activity
scale (heavy/light users).  The session-level generator walks these
subscribers through their week.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._rng import SeedLike, as_generator, spawn
from repro.geo.country import Country
from repro.geo.urbanization import UrbanizationClass
from repro.traffic.intensity import IntensityModel


class SubscriberClass(enum.Enum):
    """Behavioural classes with distinct weekly itineraries."""

    RESIDENT = "resident"  # stays in/near the home commune
    COMMUTER = "commuter"  # weekday home -> work -> home
    STUDENT = "student"  # weekday school rhythm with breaks
    TGV_TRAVELLER = "tgv"  # takes high-speed trains on some days


#: Class mix by home urbanization level.  Students and commuters
#: concentrate where there are schools and jobs; TGV travellers are rare
#: everywhere (and irrelevant to where they live — what matters is the
#: traffic they generate along the line).
_CLASS_MIX: Dict[UrbanizationClass, Tuple[Tuple[SubscriberClass, float], ...]] = {
    UrbanizationClass.URBAN: (
        (SubscriberClass.RESIDENT, 0.52),
        (SubscriberClass.COMMUTER, 0.30),
        (SubscriberClass.STUDENT, 0.15),
        (SubscriberClass.TGV_TRAVELLER, 0.03),
    ),
    UrbanizationClass.SEMI_URBAN: (
        (SubscriberClass.RESIDENT, 0.50),
        (SubscriberClass.COMMUTER, 0.35),
        (SubscriberClass.STUDENT, 0.13),
        (SubscriberClass.TGV_TRAVELLER, 0.02),
    ),
    UrbanizationClass.RURAL: (
        (SubscriberClass.RESIDENT, 0.62),
        (SubscriberClass.COMMUTER, 0.28),
        (SubscriberClass.STUDENT, 0.09),
        (SubscriberClass.TGV_TRAVELLER, 0.01),
    ),
    UrbanizationClass.TGV: (
        (SubscriberClass.RESIDENT, 0.60),
        (SubscriberClass.COMMUTER, 0.29),
        (SubscriberClass.STUDENT, 0.09),
        (SubscriberClass.TGV_TRAVELLER, 0.02),
    ),
}


@dataclass(frozen=True)
class Subscriber:
    """One synthetic subscriber."""

    imsi_hash: int
    home_commune: int
    subscriber_class: SubscriberClass
    has_4g_device: bool
    #: Lognormal heavy/light-user multiplier on all volumes.
    activity_scale: float
    #: Indices (into the head-service list) of adopted services.
    adopted_services: Tuple[int, ...]
    #: Work/school commune for commuters and students; None otherwise.
    work_commune: Optional[int] = None


class SubscriberPopulation:
    """A set of subscribers plus the lookups the generator needs."""

    def __init__(self, subscribers: List[Subscriber], country: Country):
        if not subscribers:
            raise ValueError("population cannot be empty")
        self.subscribers = subscribers
        self.country = country

    def __len__(self) -> int:
        return len(self.subscribers)

    def __iter__(self):
        return iter(self.subscribers)

    def counts_by_class(self) -> Dict[SubscriberClass, int]:
        counts = {cls: 0 for cls in SubscriberClass}
        for sub in self.subscribers:
            counts[sub.subscriber_class] += 1
        return counts

    def home_counts(self) -> np.ndarray:
        """Number of subscribers homed in each commune."""
        counts = np.zeros(self.country.n_communes, dtype=int)
        for sub in self.subscribers:
            counts[sub.home_commune] += 1
        return counts


def _draw_class(r: float, cls: UrbanizationClass) -> SubscriberClass:
    """The class a uniform draw ``r`` picks from a home class's mix."""
    mix = _CLASS_MIX[cls]
    acc = 0.0
    for subscriber_class, share in mix:
        acc += share
        if r < acc:
            return subscriber_class
    return mix[-1][0]


def _work_commune_cdf(
    country: Country, home: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Candidate work/school communes of a home, with their CDF.

    Candidates are the communes within a commuting radius, weighted by
    population (jobs follow people); None when there are none, and the
    subscriber works at home.
    """
    xy = country.grid.coordinates_km
    d = np.linalg.norm(xy - xy[home], axis=1)
    candidates = np.nonzero((d <= 30.0) & (d > 0))[0]
    if candidates.size == 0:
        return None
    weights = country.population.residents[candidates]
    cdf = (weights / weights.sum()).cumsum()
    return candidates, cdf / cdf[-1]


def synthesize_population(
    country: Country,
    model: IntensityModel,
    n_subscribers: int,
    seed: SeedLike = None,
) -> SubscriberPopulation:
    """Draw ``n_subscribers`` subscribers consistent with the country.

    Home communes follow the resident distribution; classes follow the
    urbanization-dependent mix; service adoption follows the intensity
    model's per-commune adoption rates, so the session-level workload
    reproduces the same spatial sparsity as the volume model.  Each
    attribute draws from its own stream, whole-population draws in one
    call; a commuter's or student's work commune inverts one uniform
    through their home's candidate CDF, computed once per home.
    """
    if n_subscribers < 1:
        raise ValueError(f"n_subscribers must be >= 1, got {n_subscribers}")
    rng = as_generator(seed)
    home_rng = spawn(rng, "population.homes")
    class_rng = spawn(rng, "population.classes")
    device_rng = spawn(rng, "population.devices")
    adoption_rng = spawn(rng, "population.adoption")
    work_rng = spawn(rng, "population.work")
    scale_rng = spawn(rng, "population.scale")

    residents = country.population.residents
    homes = home_rng.choice(
        country.n_communes, size=n_subscribers, p=residents / residents.sum()
    )
    n_head = model.adoption.shape[1]
    class_draws = class_rng.random(n_subscribers).tolist()
    adopted = adoption_rng.random((n_subscribers, n_head)) < model.adoption[homes]
    has_4g = (device_rng.random(n_subscribers) < 0.62).tolist()
    scales = scale_rng.lognormal(mean=-0.125, sigma=0.5, size=n_subscribers).tolist()
    work_cdfs: Dict[int, Optional[Tuple[np.ndarray, np.ndarray]]] = {}

    subscribers: List[Subscriber] = []
    for i, home in enumerate(homes.tolist()):
        subscriber_class = _draw_class(class_draws[i], country.class_of(home))
        work = None
        if subscriber_class in (SubscriberClass.COMMUTER, SubscriberClass.STUDENT):
            if home not in work_cdfs:
                work_cdfs[home] = _work_commune_cdf(country, home)
            work = home
            if work_cdfs[home] is not None:
                candidates, cdf = work_cdfs[home]
                u = work_rng.random()
                work = int(candidates[np.searchsorted(cdf, u, side="right")])
        subscribers.append(
            Subscriber(
                imsi_hash=int(1_000_000_007 * (i + 1) % (2**61 - 1)),
                home_commune=home,
                subscriber_class=subscriber_class,
                has_4g_device=has_4g[i],
                activity_scale=scales[i],
                adopted_services=tuple(np.flatnonzero(adopted[i]).tolist()),
                work_commune=work,
            )
        )
    return SubscriberPopulation(subscribers, country)


__all__ = [
    "SubscriberClass",
    "Subscriber",
    "SubscriberPopulation",
    "synthesize_population",
]
