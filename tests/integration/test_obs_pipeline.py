"""Observability across the full measurement chain.

Two properties are asserted end to end:

1. event counters are a function of ``(seed, n_shards)`` only — the
   exported counter dict (and its rendered JSON bytes) is identical
   across worker counts and across repeated same-seed runs;
2. the disabled path is truly passive — a build without an active
   session records nothing and leaves the runtime untouched.
"""

import pytest

from repro import obs
from repro.dataset.builder import build_session_level_dataset
from repro.experiments.base import ExperimentResult
from repro.geo.country import CountryConfig
from repro.obs import events as obs_events
from repro.obs.metrics import SPECS, Determinism

SEED = 7
N_SHARDS = 2
_COUNTRY = CountryConfig(n_communes=36)


@pytest.fixture(autouse=True)
def _clean_runtime():
    obs.disable()
    yield
    obs.disable()


def _observed_build(n_workers: int, seed: int = SEED, log_events: bool = False):
    with obs.observed(log_events=log_events) as session:
        artifacts = build_session_level_dataset(
            n_subscribers=60,
            country_config=_COUNTRY,
            seed=seed,
            n_workers=n_workers,
            n_shards=N_SHARDS,
        )
    return session, artifacts


class TestSpansCoverThePipeline:
    def test_expected_stages_present(self):
        session, _ = _observed_build(n_workers=1)
        for stage in (
            "shards",
            "generate",
            "gtp.signalling",
            "gtp.user_plane",
            "aggregate",
            "dpi.classify",
            "merge",
            "finalize",
        ):
            node = obs.find(session.root, stage)
            assert node is not None, stage
            assert node.count >= 1, stage

    def test_shard_subtrees_grafted_under_shards(self):
        session, _ = _observed_build(n_workers=1)
        shards = obs.find(session.root, "shards")
        for index in range(N_SHARDS):
            assert f"shard[{index}]" in shards.children

    def test_signalling_span_accounts_for_every_subscriber(self):
        # Chunked generation batches attach signalling into one span per
        # chunk; the span's summed ``subscribers`` attribute must still
        # cover the whole shard population.
        session, _ = _observed_build(n_workers=1)
        shards = obs.find(session.root, "shards")
        total = 0
        for index in range(N_SHARDS):
            node = obs.find(shards.children[f"shard[{index}]"], "gtp.signalling")
            assert node is not None
            assert node.attrs["subscribers"] > 0
            total += node.attrs["subscribers"]
        assert total == 60


class TestCounterInvariants:
    def test_cross_stage_identities(self):
        session, artifacts = _observed_build(n_workers=1)
        counters = session.registry.export_counters()
        # Every generated flow crosses the user plane once and lands in
        # the aggregator exactly once.
        assert (
            counters["aggregation.rows"]
            == counters["generator.flows"]
            == counters["gtp.user_flow_records"]
        )
        # One PDP context (hence one TEID) per session.
        assert counters["gtp.teids_allocated"] == counters["generator.sessions"]
        # Every flow's feature code is either resolved now (a miss) or
        # was resolved before (a hit); every flow is classified or not.
        assert (
            counters["dpi.cache_hits"] + counters["dpi.cache_misses"]
            == counters["dpi.flows_classified"]
            + counters["dpi.flows_unclassified"]
        )
        assert counters["shard.fan_out"] == N_SHARDS
        assert counters["shard.results_merged"] == N_SHARDS
        assert counters["builder.session_datasets"] == 1
        # The default build streams: chunks were flushed, one merge pass
        # folded each shard partial, and nothing spilled to disk.
        assert counters["stream.chunks"] >= N_SHARDS
        assert counters["stream.merge_passes"] == N_SHARDS
        assert "stream.spills" not in counters
        # Counters agree with the build that was requested, and the
        # derived gauges are coherent with each other.
        assert counters["generator.subscribers"] == 60
        assert artifacts.dataset is not None
        total = session.registry.get("aggregation.total_bytes")
        unclassified = session.registry.get("aggregation.unclassified_bytes")
        assert total > 0.0
        assert 0.0 <= unclassified <= total


def _strip_timing_gauges(dump):
    """Drop timing-class gauges (RSS readings) — never compared."""
    dump["gauges"] = {
        name: value
        for name, value in dump["gauges"].items()
        if SPECS[name].determinism is not Determinism.TIMING
    }


class TestWorkerIndependence:
    def test_counters_byte_identical_across_worker_counts(self):
        session_serial, _ = _observed_build(n_workers=1)
        session_parallel, _ = _observed_build(n_workers=2)
        dump_serial = session_serial.export(meta={})
        dump_parallel = session_parallel.export(meta={})
        # Byte-identical once the non-deterministic sections are held
        # fixed — spans and timing-class gauges carry clock readings;
        # everything else must match exactly, and the render is sorted
        # and stable.
        for dump in (dump_serial, dump_parallel):
            assert "build.peak_rss_bytes" in dump["gauges"]
            _strip_timing_gauges(dump)
            dump["spans"] = {}
            dump["meta"] = {}
        assert dump_serial["counters"] == dump_parallel["counters"]
        assert dump_serial["gauges"] == dump_parallel["gauges"]
        assert obs.render_json(dump_serial) == obs.render_json(dump_parallel)

    def test_event_log_byte_identical_across_worker_counts(self):
        # The structured event log carries no timestamps and splices
        # shard streams in index order, so at fixed (seed, n_shards)
        # the rendered JSONL is the same bytes regardless of how many
        # workers produced it.
        serial, _ = _observed_build(n_workers=1, log_events=True)
        parallel, _ = _observed_build(n_workers=2, log_events=True)
        serial_jsonl = obs_events.render_jsonl(serial.export_events())
        parallel_jsonl = obs_events.render_jsonl(parallel.export_events())
        assert serial_jsonl == parallel_jsonl
        # The log is substantive, well-formed, and closes with the
        # final counter snapshot.
        events = obs_events.parse_jsonl(serial_jsonl)
        assert len(events) > 100
        assert events[-1][:2] == ("snapshot", "final")

    def test_counters_identical_across_repeated_runs(self):
        first, _ = _observed_build(n_workers=1)
        second, _ = _observed_build(n_workers=1)
        assert (
            first.registry.export_counters()
            == second.registry.export_counters()
        )

    def test_different_seeds_differ(self):
        base, _ = _observed_build(n_workers=1)
        other, _ = _observed_build(n_workers=1, seed=SEED + 1)
        assert (
            base.registry.export_counters()
            != other.registry.export_counters()
        )


class TestDisabledPath:
    def test_unobserved_build_records_nothing(self):
        build_session_level_dataset(
            n_subscribers=60,
            country_config=_COUNTRY,
            seed=SEED,
            n_shards=N_SHARDS,
        )
        assert obs.current() is None
        # A session opened afterwards starts from zero.
        with obs.observed() as session:
            pass
        assert len(session.registry) == 0
        assert session.api_events == 0


class TestExperimentCounters:
    def test_checks_counted(self):
        with obs.observed() as session:
            result = ExperimentResult(experiment_id="figX", title="t")
            result.add_check("a", 1.0, "== 1", True)
            result.add_check("b", 0.0, "== 1", False)
            result.add_check("c", 1.0, "== 1", True)
        assert session.registry.get("experiments.checks_total") == 3
        assert session.registry.get("experiments.checks_failed") == 1
