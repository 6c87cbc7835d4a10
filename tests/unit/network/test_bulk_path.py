"""Unit tests for the columnar session/probe chain.

Bulk sessions must reach the probe's sink as record batches whose codes
decode to the reported flows, with the right counters, and with no
double delivery to a probe tapping both planes of one manager.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro._rng import as_generator
from repro.dataset.parallel import _drop_batch_tail
from repro.network.gtp import EMPTY_CODEBOOK, FeatureCodebook
from repro.network.probes import CoreProbe, ProbeRecordBatch, ProbeStats
from repro.network.session import SessionManager
from repro.network.topology import build_topology

CODEBOOK = FeatureCodebook(suffixes=("youtube.com", "imap."), hints=("quic-yt",))

#: Every column of a batch, in declaration order.
COLUMNS = (
    "timestamps_s",
    "imsi_hashes",
    "commune_ids",
    "tech_codes",
    "dl_bytes",
    "ul_bytes",
    "flow_ids",
    "feature_codes",
)


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


def _bulk_session_batch(manager, imsi=42, n_sessions=3, flows_per=2):
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


def _tapped(manager, chunk_rows=8192):
    """A probe on ``manager`` whose sink collects the returned list."""
    batches = []
    return CoreProbe(batches.append, chunk_rows).attach_to(manager), batches


def _emitted(probe, batches):
    """Flush ``probe``; everything its sink received, as one batch."""
    probe.flush_stream()
    return ProbeRecordBatch.concat(batches)


def _columns(batch):
    return {name: getattr(batch, name).tolist() for name in COLUMNS}


def _rows(batch, rows):
    """The batch restricted to ``rows`` (a slice)."""
    return replace(batch, **{name: getattr(batch, name)[rows] for name in COLUMNS})


class TestBulkProbe:
    def test_bulk_records_join_planes(self, manager):
        probe, batches = _tapped(manager)
        _bulk_session_batch(manager, imsi=42, n_sessions=3, flows_per=2)
        batch = _emitted(probe, batches)
        assert len(batch) == 6
        assert set(batch.imsi_hashes.tolist()) == {42}
        assert (batch.dl_bytes + batch.ul_bytes).tolist() == [520] * 6
        # commune follows the session the flow rode on
        assert batch.commune_ids.tolist() == [0, 0, 1, 1, 2, 2]
        # the codes decode to the reported features
        assert batch.codebook is CODEBOOK
        assert batch.flow_ids.tolist() == list(range(6))
        assert batch.codebook.decode(batch.feature_codes) == _features(6)

    def test_create_bulk_counts_request_and_response(self, manager):
        probe, _ = _tapped(manager)
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
        probe, batches = _tapped(manager)
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
        probe.flush_stream()
        assert batches == []

    def test_chunk_size_keeps_rows_and_order(self, manager):
        # One-row chunks flush per arrival; the default chunk holds the
        # whole run until the final flush.  Both sinks see the same rows
        # in the same order.
        small, small_batches = _tapped(manager, chunk_rows=1)
        whole, whole_batches = _tapped(manager)
        _bulk_session_batch(manager, n_sessions=3, flows_per=4)
        _bulk_session_batch(manager, imsi=43, n_sessions=2, flows_per=1)
        expected = _emitted(whole, whole_batches)
        assert len(whole_batches) == 1 and len(expected) == 14
        assert len(small_batches) == 2
        assert _columns(_emitted(small, small_batches)) == _columns(expected)


class TestMaterialization:
    def test_no_double_delivery_with_bulk_listener(self, manager):
        """A probe tapping both planes must see each event exactly once."""
        probe, batches = _tapped(manager)
        _bulk_session_batch(manager, n_sessions=2, flows_per=3)
        assert probe.stats.user_packets == 6
        assert probe.stats.control_messages == 6
        assert len(_emitted(probe, batches)) == 6


class TestProbeRecordBatch:
    def test_concat_preserves_order(self, manager):
        probe, batches = _tapped(manager)
        _bulk_session_batch(manager, n_sessions=2, flows_per=2)
        batch = _emitted(probe, batches)
        half = len(batch) // 2
        first, second = _rows(batch, slice(half)), _rows(batch, slice(half, None))
        merged = ProbeRecordBatch.concat([first, second])
        assert merged.codebook is CODEBOOK
        assert _columns(merged) == _columns(batch)
        with pytest.raises(ValueError):
            ProbeRecordBatch.concat([])

    def test_concat_refuses_mixed_codebooks(self, manager):
        probe, batches = _tapped(manager)
        _bulk_session_batch(manager, n_sessions=2, flows_per=2)
        batch = _emitted(probe, batches)
        # An equal codebook is the same code space: no recoding needed.
        equal = replace(
            batch, codebook=FeatureCodebook(CODEBOOK.suffixes, CODEBOOK.hints)
        )
        merged = ProbeRecordBatch.concat([batch, equal])
        assert merged.codebook is CODEBOOK
        assert len(merged) == 2 * len(batch)
        foreign = replace(batch, codebook=EMPTY_CODEBOOK)
        with pytest.raises(ValueError, match="codebook"):
            ProbeRecordBatch.concat([batch, foreign])

    def test_drop_tail_keeps_prefix_and_codebook(self, manager):
        # The kept prefix keeps its rows, codes and codebook.
        probe, batches = _tapped(manager)
        _bulk_session_batch(manager, n_sessions=3, flows_per=2)
        batch = _emitted(probe, batches)
        kept, dropped = _drop_batch_tail(batch, 0.5)
        assert (len(kept), dropped) == (3, 3)
        assert kept.codebook is batch.codebook
        assert _columns(kept) == _columns(_rows(batch, slice(3)))

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
