"""Weekly itineraries.

The :class:`MobilityModel` answers one question for the session-level
generator: *where is subscriber X at hour t of the week?*  Itineraries
are deterministic per subscriber (drawn once from the subscriber's class
and keyed draws of their imsi hash, so a subscriber's itinerary does
not depend on who else is drawn), piecewise-constant in time:

- **residents** stay in their home commune;
- **commuters** are at work 9am-6pm on working days (arriving through
  the 8am commute, leaving through the 6pm one);
- **students** follow the school rhythm (8am-5pm) — their mid-morning
  presence at school is what concentrates the morning-break usage peak
  of the student-heavy services;
- **TGV travellers** make return trips between two rail hubs on 1-3 days
  of the week, traversing the corridor communes during the ride.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro._rng import KeyedStream, SeedLike, identity_keys, integer_variates, root_key
from repro._time import WEEK_HOURS, WORKING_DAYS, hour_of_week
from repro.geo.country import Country
from repro.traffic.subscribers import Subscriber, SubscriberClass


@dataclass(frozen=True)
class Itinerary:
    """A piecewise-constant weekly location trajectory.

    ``breakpoints`` are hour-of-week values (sorted, starting at 0.0) and
    ``communes[i]`` is the commune occupied from ``breakpoints[i]`` until
    the next breakpoint.
    """

    breakpoints: Tuple[float, ...]
    communes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.communes):
            raise ValueError("breakpoints and communes must have equal length")
        if not self.breakpoints or self.breakpoints[0] != 0.0:
            raise ValueError("itinerary must start at hour 0.0")
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise ValueError("breakpoints must be sorted")

    def location_at(self, hour: float) -> int:
        """Commune occupied at a given hour-of-week."""
        if not 0 <= hour < WEEK_HOURS:
            raise ValueError(f"hour must be in [0, 168), got {hour}")
        idx = bisect.bisect_right(self.breakpoints, hour) - 1
        return self.communes[idx]

    def visited_communes(self) -> Tuple[int, ...]:
        """Distinct communes, in first-visit order."""
        seen: Dict[int, None] = {}
        for commune in self.communes:
            seen.setdefault(commune, None)
        return tuple(seen.keys())


def locations_at(
    itineraries: Sequence[Itinerary], owners: np.ndarray, hours: np.ndarray
) -> np.ndarray:
    """``itineraries[owners[i]].location_at(hours[i])`` for every ``i``.

    Exact for any mix of itineraries: breakpoints and queries are
    merged by one stable sort on ``(owner, hour)``, breakpoints first at
    ties, and each query takes the last breakpoint before it.  Every
    itinerary starts at hour 0, so that breakpoint is its owner's.
    """
    hours = np.asarray(hours, dtype=np.float64)
    owners = np.asarray(owners, dtype=np.int64)
    if len(hours) and not ((hours >= 0).all() and (hours < WEEK_HOURS).all()):
        raise ValueError("hours must be in [0, 168)")
    sizes = np.fromiter((len(it.breakpoints) for it in itineraries), np.int64)
    communes = np.fromiter(
        (c for it in itineraries for c in it.communes), np.int64, int(sizes.sum())
    )
    if (sizes == 1).all():
        return communes[owners]
    breakpoints = np.fromiter(
        (b for it in itineraries for b in it.breakpoints), np.float64, len(communes)
    )
    n_breaks = len(breakpoints)
    owner = np.concatenate((np.repeat(np.arange(len(sizes)), sizes), owners))
    at = np.concatenate((breakpoints, hours))
    is_query = np.arange(n_breaks + len(hours)) >= n_breaks
    order = np.lexsort((is_query, at, owner))
    last_break = np.cumsum(~is_query[order]) - 1
    queries = is_query[order]
    out = np.empty(len(hours), dtype=np.int64)
    out[order[queries] - n_breaks] = communes[last_break[queries]]
    return out


def _segments_to_itinerary(
    segments: List[Tuple[float, int]]
) -> Itinerary:
    """Collapse (start_hour, commune) segments, merging repeats."""
    breakpoints: List[float] = []
    communes: List[int] = []
    for start, commune in segments:
        if communes and communes[-1] == commune:
            continue
        breakpoints.append(start)
        communes.append(commune)
    return Itinerary(tuple(breakpoints), tuple(communes))


class MobilityModel:
    """Builds and caches per-subscriber weekly itineraries.

    A subscriber's draws (commute jitter; TGV hubs, trip days and
    departures) are keyed by their imsi hash under the ``seed``'s root
    key, counters fixed per draw.
    """

    #: Keyed uniforms per subscriber: commute jitter (0), TGV origin and
    #: destination hubs (1, 2), trip count (3), a rank per weekday for
    #: the trip days (4-10) and one departure per trip (11-13).
    _DRAWS = 14

    def __init__(self, country: Country, seed: SeedLike = None):
        self._country = country
        self._draws = KeyedStream(root_key(seed), "mobility.itinerary")
        self._cache: Dict[int, Itinerary] = {}

    def itinerary_for(self, subscriber: Subscriber) -> Itinerary:
        """Return (building on first use) the subscriber's itinerary."""
        return self.itineraries_for([subscriber])[0]

    def itineraries_for(
        self, subscribers: Sequence[Subscriber]
    ) -> List[Itinerary]:
        """Itineraries of many subscribers, drawing the uncached at once."""
        todo = [s for s in subscribers if s.imsi_hash not in self._cache]
        if todo:
            keys = identity_keys([s.imsi_hash for s in todo])
            draws = np.stack(
                [self._draws.uniform(keys, c) for c in range(self._DRAWS)], axis=1
            )
            builders = {
                SubscriberClass.RESIDENT: self._resident,
                SubscriberClass.COMMUTER: self._commuter,
                SubscriberClass.STUDENT: self._student,
                SubscriberClass.TGV_TRAVELLER: self._tgv_traveller,
            }
            for subscriber, u in zip(todo, draws.tolist()):
                builder = builders[subscriber.subscriber_class]
                self._cache[subscriber.imsi_hash] = builder(subscriber, u)
        return [self._cache[s.imsi_hash] for s in subscribers]

    def _resident(self, subscriber: Subscriber, u=None) -> Itinerary:
        return Itinerary((0.0,), (subscriber.home_commune,))

    def _daily_shuttle(
        self, subscriber: Subscriber, leave: float, back: float
    ) -> Itinerary:
        work = subscriber.work_commune
        if work is None or work == subscriber.home_commune:
            return self._resident(subscriber)
        segments: List[Tuple[float, int]] = [(0.0, subscriber.home_commune)]
        for day in WORKING_DAYS:
            segments.append((hour_of_week(day, leave), work))
            segments.append((hour_of_week(day, back), subscriber.home_commune))
        return _segments_to_itinerary(segments)

    def _commuter(self, subscriber: Subscriber, u: List[float]) -> Itinerary:
        jitter = u[0] - 0.5
        return self._daily_shuttle(subscriber, 8.0 + jitter, 18.2 + jitter)

    def _student(self, subscriber: Subscriber, u: List[float]) -> Itinerary:
        return self._daily_shuttle(subscriber, 7.8, 17.2)

    def _tgv_traveller(self, subscriber: Subscriber, u: List[float]) -> Itinerary:
        rail = self._country.rail
        hubs = rail.hub_cities
        if len(hubs) < 2:
            return self._resident(subscriber)
        origin, dest = integer_variates(np.asarray(u[1:3]), [len(hubs), len(hubs) - 1])
        dest += dest >= origin
        origin_rank = hubs[int(origin)].rank
        dest_rank = hubs[int(dest)].rank
        corridor = rail.communes_along(origin_rank, dest_rank, corridor_km=4.0)
        if corridor.size == 0:
            return self._resident(subscriber)

        n_trips = 1 + int(integer_variates(np.asarray(u[3]), 3))
        # The trip days: the n_trips weekdays of lowest rank.
        trip_days = sorted(np.argsort(u[4:11], kind="stable")[:n_trips].tolist())
        departures = integer_variates(np.asarray(u[11:11 + n_trips]), 3).tolist()
        segments: List[Tuple[float, int]] = [(0.0, subscriber.home_commune)]
        ride_hours = max(1.0, len(corridor) * 0.02)  # ~300 km/h over ~6 km cells
        for day, pick in zip(trip_days, departures):
            depart = (7.5, 12.5, 17.5)[pick]
            self._append_ride(segments, day, depart, corridor, ride_hours)
            # Return ride in the evening, along the reversed corridor.
            return_depart = min(21.0, depart + ride_hours + 3.0)
            self._append_ride(
                segments, day, return_depart, corridor[::-1], ride_hours
            )
            arrive_home = hour_of_week(day, return_depart) + ride_hours
            if arrive_home < WEEK_HOURS:
                segments.append((arrive_home, subscriber.home_commune))
        segments.sort(key=lambda item: item[0])
        return _segments_to_itinerary(segments)

    @staticmethod
    def _append_ride(
        segments: List[Tuple[float, int]],
        day: int,
        depart: float,
        corridor: Sequence[int],
        ride_hours: float,
    ) -> None:
        start = hour_of_week(day, depart)
        step = ride_hours / len(corridor)
        for k, commune in enumerate(corridor):
            t = start + k * step
            if t >= WEEK_HOURS:
                break
            segments.append((t, int(commune)))

    def presence_matrix(
        self, subscribers: Sequence[Subscriber], bins_per_hour: int = 1
    ) -> np.ndarray:
        """(n_communes, n_bins) count of subscribers present per bin.

        A diagnostic/aggregation helper: integrates all itineraries onto a
        time grid.  Used by tests and by the dataset pipeline to estimate
        "average number of users per commune" the way the paper does.
        """
        n_bins = WEEK_HOURS * bins_per_hour
        presence = np.zeros((self._country.n_communes, n_bins), dtype=np.int32)
        for itinerary in self.itineraries_for(subscribers):
            # Each bin counts the location at its start, so every
            # subscriber contributes exactly once per bin.
            breaks = list(itinerary.breakpoints) + [WEEK_HOURS]
            for i, commune in enumerate(itinerary.communes):
                b0 = int(np.ceil(breaks[i] * bins_per_hour - 1e-9))
                b1 = int(np.ceil(breaks[i + 1] * bins_per_hour - 1e-9))
                presence[commune, b0:b1] += 1
        return presence


__all__ = ["Itinerary", "MobilityModel", "locations_at"]
