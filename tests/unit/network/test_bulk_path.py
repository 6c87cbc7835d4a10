"""Unit tests for the columnar (bulk) session/probe fast path.

The bulk API must be observationally equivalent to the scalar one:
same probe records, same counters, and no double-delivery when a tap
listens on both the scalar and bulk planes.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro._rng import as_generator
from repro.dataset.parallel import _drop_batch_tail
from repro.network.gtp import (
    EMPTY_CODEBOOK,
    FeatureCodebook,
    FlowDescriptor,
    GtpcMessage,
    GtpuPacket,
)
from repro.network.probes import CoreProbe, ProbeRecordBatch, ProbeStats
from repro.network.session import SessionManager
from repro.network.topology import build_topology

CODEBOOK = FeatureCodebook(suffixes=("youtube.com", "imap."), hints=("quic-yt",))


@pytest.fixture()
def manager(country):
    topology = build_topology(country, seed=17)
    return SessionManager(topology, as_generator(3))


def _features(n_flows):
    """Flow features covering endpoints, hints and both protocols."""
    return [
        (f"edge-{i:03d}.youtube.com", None, "quic-yt", 443, "tcp")
        if i % 2 == 0
        else (None, f"imap.provider{i:02d}.example", None, 993, "udp")
        for i in range(n_flows)
    ]

#: A name CODEBOOK has no code for: it rides in a batch's overflow table.
FOREIGN = ("edge.youtube.com", None, None, 443, "tcp")


def _bulk_session_batch(manager, probe, imsi=42, n_sessions=3, flows_per=2):
    """Drive n_sessions through attach/report/detach on the bulk path."""
    commune_ids = np.arange(n_sessions, dtype=np.int64)
    timestamps = np.arange(n_sessions, dtype=np.float64)
    teids, tech_codes = manager.attach_bulk(imsi, commune_ids, False, timestamps)
    n_flows = n_sessions * flows_per
    codes, overflow = CODEBOOK.encode(_features(n_flows))
    assert overflow == ()
    manager.report_flows_bulk(
        session_teids=teids,
        flows_per_session=np.full(n_sessions, flows_per, dtype=np.int64),
        timestamps_s=np.linspace(10.0, 20.0, n_flows),
        dl_bytes=np.full(n_flows, 500.0),
        ul_bytes=np.full(n_flows, 20.0),
        flow_ids=np.arange(n_flows, dtype=np.int64),
        feature_codes=codes,
        codebook=CODEBOOK,
    )
    manager.detach_bulk(imsi, teids, tech_codes, timestamps + 100.0)
    return teids


def _flow_features(records):
    return [
        (
            r.flow.flow_id,
            r.flow.sni,
            r.flow.host,
            r.flow.payload_hint,
            r.flow.server_port,
            r.flow.protocol,
        )
        for r in records
    ]


class TestBulkProbe:
    def test_bulk_records_join_planes(self, manager):
        probe = CoreProbe().attach_to(manager)
        probe.attach_to_bulk(manager)
        _bulk_session_batch(manager, probe, imsi=42, n_sessions=3, flows_per=2)
        records = probe.drain()
        assert len(records) == 6
        assert all(r.imsi_hash == 42 for r in records)
        assert all(r.total_bytes == 520.0 for r in records)
        # commune follows the session the flow rode on
        assert sorted({r.commune_id for r in records}) == [0, 1, 2]
        # the codes decode to the reported features
        assert _flow_features(records) == [
            (i,) + features for i, features in enumerate(_features(6))
        ]

    def test_create_bulk_counts_request_and_response(self, manager):
        probe = CoreProbe().attach_to_bulk(manager)
        n = 4
        teids, tech_codes = manager.attach_bulk(
            7, np.arange(n), False, np.zeros(n)
        )
        assert probe.n_tracked_tunnels == n
        # each create is a request/response pair on the wire
        assert probe.stats.control_messages == 2 * n
        manager.detach_bulk(7, teids, tech_codes, np.full(n, 9.0))
        assert probe.n_tracked_tunnels == 0
        # deletes are single messages, so 2n creates + n deletes
        assert probe.stats.control_messages == 3 * n

    def test_orphan_flows_counted(self, manager):
        probe = CoreProbe().attach_to_bulk(manager)
        codes, overflow = EMPTY_CODEBOOK.encode(
            [(None, None, None, 80, "tcp")] * 2
        )
        assert overflow == ()
        manager.report_flows_bulk(
            session_teids=np.array([999_999], dtype=np.int64),
            flows_per_session=np.array([2], dtype=np.int64),
            timestamps_s=np.array([1.0, 2.0]),
            dl_bytes=np.array([1.0, 1.0]),
            ul_bytes=np.array([0.0, 0.0]),
            flow_ids=np.array([1, 2], dtype=np.int64),
            feature_codes=codes,
            codebook=EMPTY_CODEBOOK,
        )
        assert probe.stats.orphan_packets == 2
        assert probe.drain() == []

    def test_drain_batches_matches_drain(self, manager):
        scalar_probe = CoreProbe().attach_to(manager)
        scalar_probe.attach_to_bulk(manager)
        _bulk_session_batch(manager, scalar_probe, n_sessions=3, flows_per=4)
        expected = scalar_probe.drain()

        probe = CoreProbe().attach_to(manager)
        probe.attach_to_bulk(manager)
        _bulk_session_batch(manager, probe, n_sessions=3, flows_per=4)
        got = [r for batch in probe.drain_batches() for r in batch.to_records()]
        assert [(r.imsi_hash, r.flow.flow_id, r.dl_bytes) for r in got] == [
            (r.imsi_hash, r.flow.flow_id, r.dl_bytes) for r in expected
        ]
        assert probe.drain_batches() == []


class TestMaterialization:
    def test_scalar_listeners_see_materialized_events(self, manager):
        """With only legacy taps attached, bulk calls materialize
        per-message scalar events so old listeners miss nothing."""
        control, user = [], []
        manager.add_control_listener(control.append)
        manager.add_user_plane_listener(user.append)
        _bulk_session_batch(manager, None, n_sessions=2, flows_per=3)
        # 2 creates x (request+response) + 2 single-message deletes
        assert len(control) == 6
        assert all(isinstance(m, GtpcMessage) for m in control)
        assert len(user) == 6
        assert all(isinstance(p, GtpuPacket) for p in user)

    def test_no_double_delivery_with_bulk_listener(self, manager):
        """A probe tapping both planes must see each event exactly once."""
        probe = CoreProbe().attach_to(manager)
        probe.attach_to_bulk(manager)
        _bulk_session_batch(manager, probe, n_sessions=2, flows_per=3)
        assert probe.stats.user_packets == 6
        assert probe.stats.control_messages == 6
        assert len(probe.drain()) == 6

    def test_scalar_and_bulk_paths_agree(self, country):
        """The same workload produces identical records on both paths."""
        topology = build_topology(country, seed=17)

        scalar_mgr = SessionManager(topology, as_generator(3))
        scalar_probe = CoreProbe().attach_to(scalar_mgr)

        features = _features(6)
        for i in range(3):
            session = scalar_mgr.attach(42, i, False, float(i))
            for j in range(2):
                sni, host, hint, port, protocol = features[i * 2 + j]
                scalar_mgr.report_flow(
                    session,
                    FlowDescriptor(i * 2 + j, sni, host, port, protocol, hint),
                    500.0,
                    20.0,
                    10.0 + j,
                )
            scalar_mgr.detach(session, 100.0)

        bulk_mgr = SessionManager(topology, as_generator(3))
        bulk_probe = CoreProbe().attach_to(bulk_mgr)
        bulk_probe.attach_to_bulk(bulk_mgr)
        _bulk_session_batch(bulk_mgr, bulk_probe, imsi=42, n_sessions=3, flows_per=2)

        scalar_records = scalar_probe.drain()
        bulk_records = bulk_probe.drain()
        assert len(scalar_records) == len(bulk_records) == 6
        assert [
            (r.imsi_hash, r.commune_id, r.dl_bytes, r.ul_bytes)
            for r in scalar_records
        ] == [
            (r.imsi_hash, r.commune_id, r.dl_bytes, r.ul_bytes)
            for r in bulk_records
        ]
        assert _flow_features(scalar_records) == _flow_features(bulk_records)


class TestProbeRecordBatch:
    def test_round_trip(self, manager):
        probe = CoreProbe().attach_to(manager)
        probe.attach_to_bulk(manager)
        _bulk_session_batch(manager, probe, n_sessions=2, flows_per=2)
        batches = probe.drain_batches()
        records = [r for b in batches for r in b.to_records()]
        sni, host, hint, port, protocol = FOREIGN
        foreign = replace(
            records[0], flow=FlowDescriptor(99, sni, host, port, protocol, hint)
        )
        records += [foreign, foreign]
        for codebook in (EMPTY_CODEBOOK, CODEBOOK):
            rebuilt = ProbeRecordBatch.from_records(records, codebook)
            assert rebuilt.to_records() == records
        # Only the name outside CODEBOOK overflows, and only once.
        rebuilt = ProbeRecordBatch.from_records(records, CODEBOOK)
        assert rebuilt.overflow == (FOREIGN,)
        assert rebuilt.feature_codes.tolist()[-2:] == [-1, -1]
        assert (rebuilt.feature_codes >= 0).sum() == len(records) - 2

    def test_concat_preserves_order(self, manager):
        probe = CoreProbe().attach_to(manager)
        probe.attach_to_bulk(manager)
        _bulk_session_batch(manager, probe, n_sessions=2, flows_per=2)
        (batch,) = probe.drain_batches()
        half = len(batch) // 2
        records = batch.to_records()
        first = ProbeRecordBatch.from_records(records[:half])
        second = ProbeRecordBatch.from_records(records[half:])
        merged = ProbeRecordBatch.concat([first, second])
        assert merged.to_records() == records
        with pytest.raises(ValueError):
            ProbeRecordBatch.concat([])

    def test_concat_recodes_to_the_first_codebook(self, manager):
        probe = CoreProbe().attach_to(manager)
        probe.attach_to_bulk(manager)
        _bulk_session_batch(manager, probe, n_sessions=3, flows_per=2)
        records = probe.drain()
        sni, host, hint, port, protocol = FOREIGN
        records.append(
            replace(
                records[0], flow=FlowDescriptor(99, sni, host, port, protocol, hint)
            )
        )
        first = ProbeRecordBatch.from_records(records[:3], EMPTY_CODEBOOK)
        second = ProbeRecordBatch.from_records(records[3:], CODEBOOK)
        assert first.overflow and second.overflow
        merged = ProbeRecordBatch.concat([first, second])
        assert merged.codebook is EMPTY_CODEBOOK
        assert merged.to_records() == records
        back = merged.recoded(CODEBOOK)
        assert back.codebook is CODEBOOK
        assert back.to_records() == records
        equal = FeatureCodebook(CODEBOOK.suffixes, CODEBOOK.hints)
        assert back.recoded(equal) is back

    def test_drop_tail_keeps_codes_and_overflow(self, manager):
        probe = CoreProbe(codebook=CODEBOOK).attach_to(manager)
        _bulk_session_batch(manager, probe, n_sessions=3, flows_per=2)
        (batch,) = probe.drain_batches()
        kept, dropped = _drop_batch_tail(batch, 0.5)
        assert (len(kept), dropped) == (3, 3)
        assert kept.to_records() == batch.to_records()[:3]

    def test_stats_merge(self):
        a = ProbeStats(control_messages=1, user_packets=2, orphan_packets=3, records=4)
        b = ProbeStats(control_messages=10, user_packets=20, orphan_packets=30, records=40)
        a.merge(b)
        assert (a.control_messages, a.user_packets, a.orphan_packets, a.records) == (
            11,
            22,
            33,
            44,
        )
