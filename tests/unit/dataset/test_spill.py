"""Unit tests of the shard-partial spill substrate (`repro.dataset.merge`)."""

import pickle

import numpy as np
import pytest

from repro._rng import as_generator
from repro.dataset.merge import (
    SPILL_SCHEMA,
    SpilledShardResult,
    SpillStore,
    partial_nbytes,
    read_envelope,
    write_envelope,
)
from repro.dataset.parallel import ShardResult
from repro.dpi.classifier import ClassificationReport
from repro.network.handover import HandoverStats
from repro.network.probes import ProbeStats

RUN_KEY = "session/seed=7/shards=2/subscribers=100/services=40"


def _result(shard_index: int = 0, n_communes: int = 4) -> ShardResult:
    rng = as_generator(shard_index)
    return ShardResult(
        shard_index=shard_index,
        dl=rng.random((n_communes, 3, 8)),
        ul=rng.random((n_communes, 3, 8)),
        national_dl=rng.random(5),
        national_ul=rng.random(5),
        records_ingested=42,
        users_seen=[{1, 2}, {3}, set(), {4, 5, 6}],
        report=ClassificationReport(
            flows_total=42, bytes_total=999, bytes_classified=876
        ),
        probe_stats=ProbeStats(),
        handover_stats=HandoverStats(),
        sessions_generated=17,
        flows_generated=42,
        obs_export={"counters": {"generator.flows": 42}},
        records_dropped=3,
    )


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.spill"
        write_envelope(path, {"a": [1, 2]}, SPILL_SCHEMA, RUN_KEY, 0)
        assert read_envelope(path, SPILL_SCHEMA, RUN_KEY, 0) == {"a": [1, 2]}

    def test_missing_file_is_none(self, tmp_path):
        assert read_envelope(tmp_path / "no.spill", SPILL_SCHEMA, RUN_KEY, 0) is None

    @pytest.mark.parametrize(
        "schema,run_key,index",
        [
            ("other/1", RUN_KEY, 0),
            (SPILL_SCHEMA, "different-run", 0),
            (SPILL_SCHEMA, RUN_KEY, 1),
        ],
    )
    def test_mismatched_key_is_none(self, tmp_path, schema, run_key, index):
        path = tmp_path / "x.spill"
        write_envelope(path, "payload", SPILL_SCHEMA, RUN_KEY, 0)
        assert read_envelope(path, schema, run_key, index) is None

    def test_flipped_payload_byte_is_none(self, tmp_path):
        path = tmp_path / "x.spill"
        write_envelope(path, list(range(100)), SPILL_SCHEMA, RUN_KEY, 0)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert read_envelope(path, SPILL_SCHEMA, RUN_KEY, 0) is None

    def test_truncation_is_none(self, tmp_path):
        path = tmp_path / "x.spill"
        write_envelope(path, list(range(100)), SPILL_SCHEMA, RUN_KEY, 0)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert read_envelope(path, SPILL_SCHEMA, RUN_KEY, 0) is None

    def test_no_tmp_file_left_behind(self, tmp_path):
        write_envelope(tmp_path / "x.spill", 1, SPILL_SCHEMA, RUN_KEY, 0)
        assert [p.name for p in tmp_path.iterdir()] == ["x.spill"]

    def test_checkpoint_store_shares_the_codec(self, tmp_path):
        # ShardCheckpoint writes through the same envelope functions;
        # a file written by one layer is readable by the other under
        # the matching schema/run_key.
        from repro.resilience.checkpoint import SCHEMA, ShardCheckpoint

        checkpoint = ShardCheckpoint(tmp_path, RUN_KEY)
        path = checkpoint.store(3, {"partial": True})
        assert read_envelope(path, SCHEMA, RUN_KEY, 3) == {"partial": True}
        assert checkpoint.load(3) == {"partial": True}


class TestPartialNbytes:
    def test_counts_tensors_and_user_sets(self):
        result = _result()
        expected = (
            result.dl.nbytes
            + result.ul.nbytes
            + result.national_dl.nbytes
            + result.national_ul.nbytes
            + 64 * 6
        )
        assert partial_nbytes(result) == expected

    def test_deterministic(self):
        assert partial_nbytes(_result(1)) == partial_nbytes(_result(1))


class TestSpillStore:
    def test_validates_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="run_key"):
            SpillStore(tmp_path, "")
        with pytest.raises(ValueError, match="budget_bytes"):
            SpillStore(tmp_path, RUN_KEY, budget_bytes=-1)
        with pytest.raises(ValueError, match="shard_index"):
            SpillStore(tmp_path, RUN_KEY).path_for(-1)

    def test_spill_and_load_round_trip_bit_exact(self, tmp_path):
        store = SpillStore(tmp_path, RUN_KEY)
        original = _result(1)
        reference = pickle.dumps(
            _result(1), protocol=pickle.HIGHEST_PROTOCOL
        )
        handle = store.spill(original)
        assert isinstance(handle, SpilledShardResult)
        assert handle.shard_index == 1
        assert handle.run_key == RUN_KEY
        assert handle.sessions_generated == original.sessions_generated
        assert handle.flows_generated == original.flows_generated
        assert handle.records_ingested == original.records_ingested
        assert handle.records_dropped == original.records_dropped
        assert handle.nbytes == partial_nbytes(original)
        loaded = handle.load()
        assert np.array_equal(loaded.dl, original.dl)
        assert np.array_equal(loaded.ul, original.ul)
        assert loaded.users_seen == original.users_seen
        assert loaded.report == original.report
        # The on-disk payload excludes obs_export; everything else
        # round-trips through pickle bit-exactly.
        loaded.obs_export = None
        restamped = pickle.loads(reference)
        restamped.obs_export = None
        assert pickle.dumps(
            loaded, protocol=pickle.HIGHEST_PROTOCOL
        ) == pickle.dumps(restamped, protocol=pickle.HIGHEST_PROTOCOL)

    def test_obs_export_stays_resident_on_the_handle(self, tmp_path):
        store = SpillStore(tmp_path, RUN_KEY)
        original = _result()
        handle = store.spill(original)
        assert handle.obs_export == original.obs_export
        # ...and the spilled original keeps its export too (spill must
        # not mutate the result it was given).
        assert original.obs_export is not None
        assert handle.load().obs_export == original.obs_export

    def test_load_raises_on_damage(self, tmp_path):
        store = SpillStore(tmp_path, RUN_KEY)
        handle = store.spill(_result())
        handle.path.unlink()
        with pytest.raises(RuntimeError, match="missing or damaged"):
            handle.load()

    def test_load_raises_on_foreign_run_key(self, tmp_path):
        store = SpillStore(tmp_path, RUN_KEY)
        handle = store.spill(_result())
        stale = SpilledShardResult(
            shard_index=handle.shard_index,
            path=handle.path,
            run_key="other-run",
            nbytes=handle.nbytes,
            sessions_generated=0,
            flows_generated=0,
            records_ingested=0,
            records_dropped=0,
        )
        with pytest.raises(RuntimeError):
            stale.load()
