"""Unit tests of the typed metrics registry and the declared contract."""

import pytest

from repro.obs.metrics import (
    SPECS,
    Determinism,
    MetricKind,
    MetricsRegistry,
    spec_names,
    validate_export,
)


class TestSpecs:
    def test_keys_match_spec_names(self):
        for name, spec in SPECS.items():
            assert name == spec.name

    def test_every_spec_is_complete(self):
        for spec in SPECS.values():
            assert spec.unit, spec.name
            assert spec.stage, spec.name
            assert spec.description, spec.name

    def test_counters_are_events_or_timing_class(self):
        # Counters feed the deterministic event log (events class)
        # except the serving-overload set, which counts outcomes of
        # measured service times and is therefore timing class — the
        # runtime keeps timing counters out of the event log entirely
        # (see repro.obs.runtime.ObsSession.add).
        for spec in SPECS.values():
            if spec.kind is MetricKind.COUNTER:
                assert spec.determinism in (
                    Determinism.EVENTS,
                    Determinism.TIMING,
                ), spec.name
                if spec.determinism is Determinism.TIMING:
                    assert spec.stage == "serve", spec.name

    def test_gauges_are_derived_or_timing_class(self):
        # Gauges carry either deterministic derived floats or sanctioned
        # clock readings (never events, which are counter territory).
        for spec in SPECS.values():
            if spec.kind is MetricKind.GAUGE:
                assert spec.determinism in (
                    Determinism.DERIVED,
                    Determinism.TIMING,
                ), spec.name

    def test_timing_gauges_are_memory_or_clock_readings(self):
        timing = [
            spec.name
            for spec in SPECS.values()
            if spec.determinism is Determinism.TIMING
        ]
        assert timing == [
            "build.peak_rss_bytes",
            "serve.latency_p50_s",
            "serve.latency_p95_s",
            "serve.latency_p99_s",
            "serve.throughput_rps",
            "serve.saturation_rps",
            "serve.latency.seconds",
            "serve.latency.service_seconds",
            "serve.deadline_exceeded",
            "serve.shed.requests",
            "serve.shed.rate_limited",
            "serve.shed.queue_full",
            "serve.shed.stale_answers",
            "serve.shed.rate",
            "serve.health.state",
            "serve.health.transitions",
            "serve.cache.corrupt_detected",
            "serve.overload.goodput_rps",
            "serve.overload.admitted_p99_s",
        ]
        # Timing metrics carry memory or clock-derived readings, or
        # counts/fractions of outcomes derived from them.
        for name in timing:
            assert SPECS[name].unit in (
                "bytes",
                "seconds",
                "requests/s",
                "requests",
                "fraction",
                "state",
                "transitions",
                "entries",
            ), name

    def test_histograms_are_timing_class(self):
        for spec in SPECS.values():
            if spec.kind is MetricKind.HISTOGRAM:
                assert spec.determinism is Determinism.TIMING, spec.name

    def test_names_are_stage_dotted(self):
        for name in SPECS:
            prefix, _, suffix = name.partition(".")
            assert prefix and suffix, name

    def test_spec_names_sorted(self):
        names = spec_names()
        assert names == sorted(names)
        assert set(names) == set(SPECS)


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.add("generator.sessions")
        registry.add("generator.sessions", 41)
        assert registry.get("generator.sessions") == 42

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("aggregation.total_bytes", 10.0)
        registry.set_gauge("aggregation.total_bytes", 3.5)
        assert registry.get("aggregation.total_bytes") == pytest.approx(3.5)

    def test_undeclared_counter_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError, match="not a declared counter"):
            registry.add("generator.bogus")

    def test_gauge_name_rejected_as_counter(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.add("aggregation.total_bytes")

    def test_counter_name_rejected_as_gauge(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.set_gauge("generator.sessions", 1.0)

    def test_untouched_registry_exports_empty(self):
        registry = MetricsRegistry()
        assert registry.export_counters() == {}
        assert registry.export_gauges() == {}
        assert len(registry) == 0
        assert registry.get("generator.sessions") is None

    def test_export_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.add("gtp.control_messages", 2)
        registry.add("aggregation.rows", 5)
        registry.add("dpi.flows_classified", 1)
        assert list(registry.export_counters()) == sorted(
            ["gtp.control_messages", "aggregation.rows", "dpi.flows_classified"]
        )

    def test_merge_counters_sums(self):
        a = MetricsRegistry()
        a.add("generator.flows", 3)
        a.merge_counters({"generator.flows": 4, "generator.sessions": 2})
        assert a.get("generator.flows") == 7
        assert a.get("generator.sessions") == 2

    def test_merge_rejects_undeclared(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.merge_counters({"nope.nope": 1})


class TestValidateExport:
    def test_clean_export(self):
        ok, problems = validate_export(
            {"generator.sessions": 1}, {"aggregation.total_bytes": 2.0}
        )
        assert ok and not problems

    def test_undeclared_names_reported(self):
        ok, problems = validate_export({"bogus.metric": 1}, {"other.bogus": 2.0})
        assert not ok
        assert len(problems) == 2

    def test_kind_mismatch_reported(self):
        ok, problems = validate_export(
            {"aggregation.total_bytes": 1}, {"generator.sessions": 2.0}
        )
        assert not ok
        assert any("declared gauge" in p for p in problems)
        assert any("declared counter" in p for p in problems)
