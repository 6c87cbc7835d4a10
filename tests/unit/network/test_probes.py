"""Unit tests for the passive core probe's columnar handlers."""

import numpy as np
import pytest

from repro.network.gtp import (
    TECH_3G,
    EMPTY_CODEBOOK,
    GtpcCreateBulk,
    GtpcDeleteBulk,
    GtpcUpdateBulk,
    GtpuBulk,
)
from repro.network.probes import CoreProbe


def control(kind, teids, communes=None, imsi=42):
    """A control batch of ``kind`` for ``teids`` (ULI at ``communes``)."""
    n = len(teids)
    columns = dict(
        timestamps_s=np.zeros(n),
        imsi_hashes=np.full(n, imsi, dtype=np.int64),
        teids=np.asarray(teids, dtype=np.int64),
        tech_codes=np.full(n, TECH_3G, dtype=np.uint8),
    )
    if kind is GtpcDeleteBulk:
        return GtpcDeleteBulk(**columns)
    communes = np.asarray(communes, dtype=np.int64)
    return kind(
        routing_area_ids=np.zeros(n, dtype=np.int64),
        cell_ids=communes * 10,
        cell_commune_ids=communes,
        **columns,
    )


def flows(teids, per_session=1):
    """A user-plane batch of ``per_session`` flows on each TEID."""
    n = len(teids) * per_session
    codes, _ = EMPTY_CODEBOOK.encode([(None, None, None, 443, "tcp")] * n)
    return GtpuBulk(
        session_teids=np.asarray(teids, dtype=np.int64),
        flows_per_session=np.full(len(teids), per_session, dtype=np.int64),
        timestamps_s=np.arange(n, dtype=np.float64),
        dl_bytes=np.full(n, 500, dtype=np.int64),
        ul_bytes=np.full(n, 20, dtype=np.int64),
        flow_ids=np.arange(n, dtype=np.int64),
        feature_codes=codes,
        codebook=EMPTY_CODEBOOK,
    )


def sunk_probe(**kwargs):
    """A probe whose sink appends each emitted batch to the returned list."""
    batches = []
    return CoreProbe(batches.append, **kwargs), batches


def column(probe, batches, name):
    """Flush ``probe``; the ``name`` column over every batch it emitted."""
    probe.flush_stream()
    return [value for batch in batches for value in getattr(batch, name).tolist()]


class TestCorrelation:
    def test_record_joins_planes(self):
        probe, batches = sunk_probe()
        probe.on_control(control(GtpcCreateBulk, [7], communes=[3]))
        probe.on_user_plane(flows([7]))
        probe.flush_stream()
        (batch,) = batches
        assert len(batch) == 1
        assert batch.imsi_hashes.tolist() == [42]
        assert batch.commune_ids.tolist() == [3]
        assert batch.tech_codes.tolist() == [TECH_3G]
        assert batch.dl_bytes.tolist() == [500]
        assert batch.ul_bytes.tolist() == [20]
        assert batch.codebook is EMPTY_CODEBOOK

    def test_location_update_reflected(self):
        probe, batches = sunk_probe()
        probe.on_control(control(GtpcCreateBulk, [7, 8], communes=[3, 3]))
        probe.on_control(control(GtpcUpdateBulk, [8], communes=[5]))
        probe.on_user_plane(flows([7, 8]))
        assert column(probe, batches, "commune_ids") == [3, 5]

    def test_update_of_unknown_tunnel_sets_it(self):
        probe, batches = sunk_probe()
        probe.on_control(control(GtpcUpdateBulk, [9], communes=[4], imsi=5))
        probe.on_user_plane(flows([9]))
        assert column(probe, batches, "imsi_hashes") == [5]
        assert column(probe, batches, "commune_ids") == [4]

    def test_tunnel_removed_on_delete(self):
        probe, batches = sunk_probe()
        probe.on_control(control(GtpcCreateBulk, [7, 8], communes=[3, 4]))
        assert probe.n_tracked_tunnels == 2
        probe.on_control(control(GtpcDeleteBulk, [7]))
        assert probe.n_tracked_tunnels == 1
        probe.on_user_plane(flows([7, 8]))
        assert column(probe, batches, "commune_ids") == [4]

    def test_bulk_aliases_are_the_handlers(self):
        assert CoreProbe.on_control_bulk is CoreProbe.on_control
        assert CoreProbe.on_user_plane_bulk is CoreProbe.on_user_plane


class TestStreaming:
    def test_sink_gets_a_chunk_once_it_fills(self):
        probe, batches = sunk_probe(chunk_rows=4)
        probe.on_control(control(GtpcCreateBulk, [1, 2], communes=[0, 1]))
        probe.on_user_plane(flows([1], per_session=3))
        assert batches == []
        probe.on_user_plane(flows([2], per_session=3))
        (batch,) = batches
        # The two arrivals leave as one chunk, in arrival order.
        assert batch.commune_ids.tolist() == [0, 0, 0, 1, 1, 1]
        assert batch.flow_ids.tolist() == [0, 1, 2, 0, 1, 2]

    def test_flush_hands_over_the_tail_once(self):
        probe, batches = sunk_probe()
        probe.on_control(control(GtpcCreateBulk, [1], communes=[0]))
        probe.on_user_plane(flows([1]))
        assert batches == []
        probe.flush_stream()
        probe.flush_stream()
        assert [len(batch) for batch in batches] == [1]

    def test_chunk_rows_validation(self):
        with pytest.raises(ValueError):
            CoreProbe([].append, chunk_rows=0)


class TestLoss:
    def test_lost_control_orphans_traffic(self):
        probe, batches = sunk_probe(control_loss_rate=0.999999, seed=1)
        probe.on_control(control(GtpcCreateBulk, [1], communes=[0]))
        probe.on_user_plane(flows([1]))
        assert probe.stats.orphan_packets == 1
        probe.flush_stream()
        assert batches == []

    def test_lost_update_keeps_stale_commune(self):
        probe, batches = sunk_probe(control_loss_rate=0.5, seed=3)
        teids = list(range(400))
        probe.on_control(control(GtpcCreateBulk, teids, communes=[3] * 400))
        probe.on_control(control(GtpcUpdateBulk, teids, communes=[5] * 400))
        probe.on_user_plane(flows(teids))
        communes = column(probe, batches, "commune_ids")
        # An update is one message, so about half are lost; the tunnels
        # they were meant for stay at the stale commune (a create is
        # lost only with both its messages, 1 in 4).
        stale = communes.count(3) / 400
        assert 0.3 < stale < 0.45
        assert communes.count(5) + communes.count(3) == len(communes)
        assert 0.4 < communes.count(5) / 400 < 0.6

    def test_loss_rate_validation(self):
        with pytest.raises(ValueError):
            CoreProbe([].append, control_loss_rate=1.0)

    def test_stats_counters(self):
        probe, _ = sunk_probe()
        probe.on_control(control(GtpcCreateBulk, [1, 2], communes=[0, 0]))
        probe.on_control(control(GtpcUpdateBulk, [2], communes=[4]))
        probe.on_user_plane(flows([1, 2, 3], per_session=2))
        probe.on_control(control(GtpcDeleteBulk, [1, 2]))
        # 2 creates (request + response each), 1 update, 2 deletes.
        assert probe.stats.control_messages == 2 * 2 + 1 + 2
        assert probe.stats.user_packets == 6
        assert probe.stats.orphan_packets == 2
        assert probe.stats.records == 4
