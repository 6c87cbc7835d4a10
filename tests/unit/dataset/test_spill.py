"""Unit tests of the shard-partial store (`repro.dataset.merge`)."""

import pickle

import numpy as np
import pytest

from repro._rng import as_generator
from repro._time import TimeAxis
from repro.dataset.builder import _run_key
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
from repro.geo.country import CountryConfig
from repro.network.handover import HandoverStats
from repro.network.probes import ProbeStats
from repro.traffic.generator import WorkloadConfig

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

    @pytest.mark.parametrize(
        "damage",
        [
            # a string opcode whose bytes are no longer UTF-8
            lambda raw: raw.replace(SPILL_SCHEMA.encode(), b"\xff" * 13),
            # a global reference to a module that does not exist
            lambda raw: b"\x80\x04cno_such_module\nthing\n.",
        ],
        ids=["bad-utf8", "unknown-module"],
    )
    def test_damage_outside_unpickling_errors_is_none(self, tmp_path, damage):
        path = tmp_path / "x.spill"
        write_envelope(path, "payload", SPILL_SCHEMA, RUN_KEY, 0)
        path.write_bytes(damage(path.read_bytes()))
        assert read_envelope(path, SPILL_SCHEMA, RUN_KEY, 0) is None

    def test_truncation_is_none(self, tmp_path):
        path = tmp_path / "x.spill"
        write_envelope(path, list(range(100)), SPILL_SCHEMA, RUN_KEY, 0)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert read_envelope(path, SPILL_SCHEMA, RUN_KEY, 0) is None

    def test_no_tmp_file_left_behind(self, tmp_path):
        write_envelope(tmp_path / "x.spill", 1, SPILL_SCHEMA, RUN_KEY, 0)
        assert [p.name for p in tmp_path.iterdir()] == ["x.spill"]


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
        reference = pickle.dumps(original, protocol=pickle.HIGHEST_PROTOCOL)
        assert store.write(original) == store.path_for(1)
        handle = store.handle(original)
        assert isinstance(handle, SpilledShardResult)
        assert handle.shard_index == 1
        assert handle.path == store.path_for(1)
        assert handle.run_key == RUN_KEY
        assert handle.sessions_generated == original.sessions_generated
        assert handle.flows_generated == original.flows_generated
        assert handle.records_ingested == original.records_ingested
        assert handle.records_dropped == original.records_dropped
        assert handle.nbytes == partial_nbytes(original)
        # The file holds the whole partial, obs export included, and
        # both read paths return it bit-exactly.
        for loaded in (handle.load(), store.load(1)):
            assert np.array_equal(loaded.dl, original.dl)
            assert loaded.users_seen == original.users_seen
            assert loaded.report == original.report
            assert pickle.dumps(
                loaded, protocol=pickle.HIGHEST_PROTOCOL
            ) == reference

    def test_obs_export_stays_resident_on_the_handle(self, tmp_path):
        store = SpillStore(tmp_path, RUN_KEY)
        original = _result()
        store.write(original)
        handle = store.handle(original)
        assert handle.obs_export == original.obs_export
        # ...and writing must not mutate the result it was given.
        assert original.obs_export is not None
        assert handle.load().obs_export == original.obs_export

    def test_load_raises_on_damage(self, tmp_path):
        store = SpillStore(tmp_path, RUN_KEY)
        store.write(_result())
        handle = store.handle(_result())
        handle.path.unlink()
        with pytest.raises(RuntimeError, match="missing or damaged"):
            handle.load()

    def test_load_raises_on_foreign_run_key(self, tmp_path):
        store = SpillStore(tmp_path, RUN_KEY)
        store.write(_result())
        handle = store.handle(_result())
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


class TestRunKey:
    _INPUTS = dict(
        n_subscribers=100,
        n_services=60,
        country_config=CountryConfig(n_communes=36),
        axis=TimeAxis(1),
        total_weekly_bytes=None,
        workload_config=None,
        unclassifiable_rate=0.12,
        control_loss_rate=0.0,
        audit_localization=False,
    )

    def test_binds_build_configuration(self):
        key = _run_key(7, 4, **self._INPUTS)
        assert key.startswith("session/seed=7/shards=4/inputs=")
        # Keyword order does not matter, only the values.
        assert key == _run_key(7, 4, **dict(reversed(self._INPUTS.items())))

    def test_distinct_configurations_distinct_keys(self):
        changed = dict(
            n_subscribers=101,
            n_services=61,
            country_config=CountryConfig(n_communes=36, n_cities=41),
            axis=TimeAxis(2),
            total_weekly_bytes=1e12,
            workload_config=WorkloadConfig(sessions_per_service=7.0),
            unclassifiable_rate=0.5,
            control_loss_rate=0.3,
            audit_localization=True,
        )
        keys = {
            _run_key(7, 4, **self._INPUTS),
            _run_key(8, 4, **self._INPUTS),
            _run_key(7, 5, **self._INPUTS),
        }
        for name, value in changed.items():
            keys.add(_run_key(7, 4, **dict(self._INPUTS, **{name: value})))
        assert len(keys) == 3 + len(changed)
