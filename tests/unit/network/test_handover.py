"""Unit tests for RA/TA handover behaviour."""

import numpy as np
import pytest

from repro._rng import as_generator
from repro.network.gtp import GtpcUpdateBulk
from repro.network.handover import HandoverManager
from repro.network.session import SessionManager
from repro.network.topology import build_topology


@pytest.fixture()
def setup(country):
    topology = build_topology(country, seed=17)
    manager = SessionManager(topology, as_generator(3))
    handover = HandoverManager(topology, manager)
    updates = []
    manager.add_control_listener(
        lambda bulk: updates.append(bulk) if type(bulk) is GtpcUpdateBulk else None
    )
    return topology, manager, handover, updates


def find_commune_pair(topology, same_area: bool):
    """A pair of distinct communes in the same (or different) RA."""
    areas = topology.routing_areas
    for area in areas.values():
        if same_area and len(area.commune_ids) >= 2:
            return area.commune_ids[0], area.commune_ids[1]
    if not same_area:
        ids = sorted(areas)
        return areas[ids[0]].commune_ids[0], areas[ids[-1]].commune_ids[0]
    raise AssertionError("no suitable commune pair")


def move_one(manager, handover, a, b, wants_4g=False):
    """Attach one session in ``a``, move it to ``b``; return both ULIs."""
    created = manager.attach_bulk(1, np.array([a]), wants_4g, np.array([0.0]))
    moved = handover.move(created, np.array([b]), wants_4g, np.array([10.0]))
    return created, moved


class TestMoves:
    def test_move_within_ra_keeps_stale_uli(self, setup):
        topology, manager, handover, updates = setup
        a, b = find_commune_pair(topology, same_area=True)
        created, moved = move_one(manager, handover, a, b)
        assert moved.cell_commune_ids.tolist() == [a]  # stale, as per §2
        assert moved.cell_ids.tolist() == created.cell_ids.tolist()
        assert updates == []
        assert handover.stats.moves == 1
        assert handover.stats.updates == 0
        assert handover.stats.stale_moves == 1

    def test_move_across_ra_updates(self, setup):
        topology, manager, handover, updates = setup
        a, b = find_commune_pair(topology, same_area=False)
        created, moved = move_one(manager, handover, a, b)
        assert moved.cell_commune_ids.tolist() == [b]
        assert moved.teids.tolist() == created.teids.tolist()
        (update,) = updates
        assert update.teids.tolist() == created.teids.tolist()
        assert update.cell_ids.tolist() == moved.cell_ids.tolist()
        assert handover.stats.ra_updates == 1

    def test_rat_change_updates(self, setup, country):
        topology, manager, handover, updates = setup
        has_4g = country.coverage.has_4g
        pairs = None
        for area in topology.routing_areas.values():
            ids = area.commune_ids
            with_4g = [c for c in ids if has_4g[c]]
            without = [c for c in ids if not has_4g[c]]
            if with_4g and without:
                pairs = (without[0], with_4g[0])
                break
        if pairs is None:
            pytest.skip("no mixed-technology routing area in this country")
        a, b = pairs
        _, moved = move_one(manager, handover, a, b, wants_4g=True)  # camps on 3G
        assert handover.stats.rat_updates == 1
        assert handover.stats.ra_updates == 0
        assert moved.cell_commune_ids.tolist() == [b]
        assert len(updates) == 1

    def test_batched_moves_update_only_due_sessions(self, setup):
        topology, manager, handover, updates = setup
        a, b = find_commune_pair(topology, same_area=True)
        c, d = find_commune_pair(topology, same_area=False)
        created = manager.attach_bulk(
            np.array([1, 2, 3]), np.array([a, c, a]), False, np.zeros(3)
        )
        moved = handover.move(
            created, np.array([b, d, a]), False, np.array([5.0, 6.0, 7.0])
        )
        assert moved.cell_commune_ids.tolist() == [a, d, a]
        assert moved.imsi_hashes.tolist() == [1, 2, 3]
        (update,) = updates
        assert update.teids.tolist() == [int(created.teids[1])]
        assert update.timestamps_s.tolist() == [6.0]
        assert (handover.stats.moves, handover.stats.updates) == (3, 1)
        # The create batch the generator still holds is left untouched.
        assert created.cell_commune_ids.tolist() == [a, c, a]
