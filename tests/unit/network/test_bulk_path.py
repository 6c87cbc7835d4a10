"""Unit tests for the columnar session/probe chain.

Bulk sessions must reach the probe as records that decode to the
reported flows, with the right counters, and with no double delivery
to a probe tapping both planes of one manager.
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
    created = manager.attach_bulk(imsi, commune_ids, False, timestamps)
    n_flows = n_sessions * flows_per
    codes, overflow = CODEBOOK.encode(_features(n_flows))
    assert overflow == ()
    manager.report_flows_bulk(
        session_teids=created.teids,
        flows_per_session=np.full(n_sessions, flows_per, dtype=np.int64),
        timestamps_s=np.linspace(10.0, 20.0, n_flows),
        dl_bytes=np.full(n_flows, 500.0),
        ul_bytes=np.full(n_flows, 20.0),
        flow_ids=np.arange(n_flows, dtype=np.int64),
        feature_codes=codes,
        codebook=CODEBOOK,
    )
    manager.detach_bulk(imsi, created.teids, created.tech_codes, timestamps + 100.0)
    return created.teids


def _streamed(probe):
    """Collect ``probe``'s streamed batches; ``flush_stream`` ends the run."""
    batches = []
    probe.stream_to(batches.append, chunk_rows=8192)
    return batches


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
        probe = CoreProbe().attach_to(manager)
        n = 4
        created = manager.attach_bulk(7, np.arange(n), False, np.zeros(n))
        assert probe.n_tracked_tunnels == n
        # each create is a request/response pair on the wire
        assert probe.stats.control_messages == 2 * n
        manager.detach_bulk(7, created.teids, created.tech_codes, np.full(n, 9.0))
        assert probe.n_tracked_tunnels == 0
        # deletes are single messages, so 2n creates + n deletes
        assert probe.stats.control_messages == 3 * n

    def test_orphan_flows_counted(self, manager):
        probe = CoreProbe().attach_to(manager)
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

    def test_streamed_batches_match_drain(self, manager):
        scalar_probe = CoreProbe().attach_to(manager)
        _bulk_session_batch(manager, scalar_probe, n_sessions=3, flows_per=4)
        expected = scalar_probe.drain()

        probe = CoreProbe().attach_to(manager)
        batches = _streamed(probe)
        _bulk_session_batch(manager, probe, n_sessions=3, flows_per=4)
        probe.flush_stream()
        got = [r for batch in batches for r in batch.to_records()]
        assert [(r.imsi_hash, r.flow.flow_id, r.dl_bytes) for r in got] == [
            (r.imsi_hash, r.flow.flow_id, r.dl_bytes) for r in expected
        ]
        assert probe.drain() == []


class TestMaterialization:
    def test_no_double_delivery_with_bulk_listener(self, manager):
        """A probe tapping both planes must see each event exactly once."""
        probe = CoreProbe().attach_to(manager)
        _bulk_session_batch(manager, probe, n_sessions=2, flows_per=3)
        assert probe.stats.user_packets == 6
        assert probe.stats.control_messages == 6
        assert len(probe.drain()) == 6


class TestProbeRecordBatch:
    def test_round_trip(self, manager):
        probe = CoreProbe().attach_to(manager)
        batches = _streamed(probe)
        _bulk_session_batch(manager, probe, n_sessions=2, flows_per=2)
        probe.flush_stream()
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
        batches = _streamed(probe)
        _bulk_session_batch(manager, probe, n_sessions=2, flows_per=2)
        probe.flush_stream()
        (batch,) = batches
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
        probe = CoreProbe().attach_to(manager)
        batches = _streamed(probe)
        _bulk_session_batch(manager, probe, n_sessions=3, flows_per=2)
        probe.flush_stream()
        (batch,) = batches
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
