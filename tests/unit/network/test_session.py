"""Unit tests for session lifecycle and event publication."""

import numpy as np
import pytest

from repro import obs
from repro._rng import as_generator
from repro.network.gtp import (
    TECH_3G,
    TECH_4G,
    EMPTY_CODEBOOK,
    GtpcCreateBulk,
    GtpcDeleteBulk,
    GtpcUpdateBulk,
    GtpuBulk,
)
from repro.network.probes import CoreProbe
from repro.network.session import SessionManager
from repro.network.topology import build_topology


@pytest.fixture()
def manager(country):
    topology = build_topology(country, seed=17)
    return SessionManager(topology, as_generator(3))


@pytest.fixture()
def listeners(manager):
    control, user = [], []
    manager.add_control_listener(control.append)
    manager.add_user_plane_listener(user.append)
    return control, user


def report_one_flow(manager, teid):
    codes, _ = EMPTY_CODEBOOK.encode([(None, None, None, 443, "tcp")])
    return manager.report_flows_bulk(
        session_teids=np.array([teid], dtype=np.int64),
        flows_per_session=np.array([1], dtype=np.int64),
        timestamps_s=np.array([10.0]),
        dl_bytes=np.array([1000], dtype=np.int64),
        ul_bytes=np.array([50], dtype=np.int64),
        flow_ids=np.array([1], dtype=np.int64),
        feature_codes=codes,
        codebook=EMPTY_CODEBOOK,
    )


class TestAttach:
    def test_emits_request_and_response(self, manager, listeners):
        control, _ = listeners
        with obs.observed() as session:
            created = manager.attach_bulk(
                111, np.array([2]), False, np.array([5.0])
            )
        assert control == [created]
        assert type(created) is GtpcCreateBulk
        assert created.tech_codes.tolist() == [TECH_3G]
        assert created.cell_commune_ids.tolist() == [2]
        # The one entry stands for the request/response pair.
        counters = session.registry.export_counters()
        assert counters["gtp.control_messages"] == 2

    def test_4g_attach_uses_gtpv2(self, manager, listeners, country):
        control, _ = listeners
        idx_4g = int(np.nonzero(country.coverage.has_4g)[0][0])
        manager.attach_bulk(111, np.array([idx_4g]), True, np.array([0.0]))
        assert control[0].tech_codes.tolist() == [TECH_4G]

    def test_unique_teids(self, manager):
        first = manager.attach_bulk(1, np.zeros(3, dtype=np.int64), False, np.zeros(3))
        second = manager.attach_bulk(2, np.zeros(3, dtype=np.int64), False, np.zeros(3))
        teids = np.concatenate([first.teids, second.teids])
        assert len(set(teids.tolist())) == 6


class TestFlows:
    def test_report_flow_emits_gtpu(self, manager, listeners):
        _, user = listeners
        created = manager.attach_bulk(1, np.array([0]), False, np.array([0.0]))
        bulk = report_one_flow(manager, int(created.teids[0]))
        assert user == [bulk]
        assert type(bulk) is GtpuBulk
        assert bulk.session_teids.tolist() == created.teids.tolist()
        assert bulk.dl_bytes.tolist() == [1000]

    def test_flow_on_released_session_rejected(self, manager):
        # The manager keeps no session state: a flow on a released
        # tunnel reaches the probe, which cannot geo-reference it.
        batches = []
        probe = CoreProbe(batches.append).attach_to(manager)
        created = manager.attach_bulk(1, np.array([0]), False, np.array([0.0]))
        manager.detach_bulk(1, created.teids, created.tech_codes, np.array([1.0]))
        report_one_flow(manager, int(created.teids[0]))
        assert probe.stats.orphan_packets == 1
        probe.flush_stream()
        assert batches == []


class TestRelocation:
    def test_update_location_changes_uli(self, manager, listeners):
        control, _ = listeners
        created = manager.attach_bulk(1, np.array([0]), False, np.array([0.0]))
        updated = manager.update_bulk(
            1, created.teids, np.array([7]), False, np.array([3.0]),
            created.session_keys,
        )
        assert control[-1] is updated
        assert type(updated) is GtpcUpdateBulk
        assert updated.teids.tolist() == created.teids.tolist()
        assert updated.cell_commune_ids.tolist() == [7]

    def test_update_counts_one_message_per_entry(self, manager):
        created = manager.attach_bulk(
            1, np.arange(3, dtype=np.int64), False, np.zeros(3)
        )
        with obs.observed() as session:
            manager.update_bulk(
                1, created.teids, np.arange(3, 6), False, np.ones(3),
                created.session_keys,
            )
        assert session.registry.export_counters()["gtp.control_messages"] == 3


class TestDetach:
    def test_emits_delete_and_clears(self, manager, listeners):
        control, _ = listeners
        probe = CoreProbe([].append).attach_to(manager)
        created = manager.attach_bulk(1, np.array([0]), False, np.array([0.0]))
        assert probe.n_tracked_tunnels == 1
        manager.detach_bulk(1, created.teids, created.tech_codes, np.array([9.0]))
        assert type(control[-1]) is GtpcDeleteBulk
        assert control[-1].teids.tolist() == created.teids.tolist()
        assert probe.n_tracked_tunnels == 0
