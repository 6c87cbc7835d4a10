"""Routing/Tracking-Area update logic.

The paper's localization is coarse precisely because the ULI refreshes
only on "possibly infrequent events, i.e. the establishment of a new IP
session, and handovers across access technologies or Routing/Tracking
Areas" (§2).  The :class:`HandoverManager` reproduces that behaviour: a
subscriber moving between communes triggers a ULI update *only* when the
move crosses an RA/TA boundary or changes the serving technology — moves
within an RA leave the session geo-referenced to the stale cell.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.network.gtp import GtpcCreateBulk
from repro.network.session import SessionManager
from repro.network.topology import NetworkTopology


@dataclass
class HandoverStats:
    """Counters for update behaviour, exposed for pipeline validation."""

    moves: int = 0
    ra_updates: int = 0
    rat_updates: int = 0

    @property
    def updates(self) -> int:
        return self.ra_updates + self.rat_updates

    @property
    def stale_moves(self) -> int:
        """Moves that left the ULI pointing at the previous location."""
        return self.moves - self.updates

    def merge(self, other: "HandoverStats") -> "HandoverStats":
        """Fold another manager's counters (e.g. a worker shard's) in."""
        self.moves += other.moves
        self.ra_updates += other.ra_updates
        self.rat_updates += other.rat_updates
        return self


class HandoverManager:
    """Decides which commune changes refresh a session's ULI."""

    def __init__(
        self,
        topology: NetworkTopology,
        sessions: SessionManager,
        rng: np.random.Generator,
    ):
        """``rng`` picks the serving cells of refreshed ULIs; a stream
        of its own keeps the attach stream's draws independent of how
        sessions are batched."""
        self._topology = topology
        self._sessions = sessions
        self._rng = rng
        self.stats = HandoverStats()

    def move(
        self,
        sessions: GtpcCreateBulk,
        new_commune_ids: np.ndarray,
        wants_4g,
        timestamps_s: np.ndarray,
    ) -> GtpcCreateBulk:
        """Register one move per session; update ULIs only where due.

        A move refreshes the ULI when the new commune lies in another
        routing/tracking area than the serving cell, or offers another
        technology than the session's.  Returns the sessions' ULI
        columns after the moves: a session without an update keeps its
        previous ULI — subsequent traffic is geo-referenced to the stale
        commune, reproducing the paper's median ~3 km localization error
        at the commune scale.
        """
        self.stats.moves += len(sessions)
        new_tech = self._topology.available_technology_codes(
            new_commune_ids, wants_4g
        )
        crosses_ra = (
            self._topology.routing_area_of(new_commune_ids)
            != sessions.routing_area_ids
        )
        changes_rat = new_tech != sessions.tech_codes
        update = np.flatnonzero(crosses_ra | changes_rat)
        rat_updates = int(changes_rat.sum())
        self.stats.rat_updates += rat_updates
        self.stats.ra_updates += len(update) - rat_updates
        if not len(update):
            return sessions
        refreshed = self._sessions.update_bulk(
            sessions.imsi_hashes[update],
            sessions.teids[update],
            np.asarray(new_commune_ids)[update],
            np.broadcast_to(wants_4g, len(sessions))[update],
            np.asarray(timestamps_s)[update],
            self._rng,
        )
        after = sessions.take(np.arange(len(sessions)))
        for f in dataclasses.fields(refreshed):
            getattr(after, f.name)[update] = getattr(refreshed, f.name)
        return after


__all__ = ["HandoverStats", "HandoverManager"]
