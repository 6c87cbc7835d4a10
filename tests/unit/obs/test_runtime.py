"""Unit tests of the process-local observability runtime."""

import pytest

from repro import obs
from repro.obs import runtime


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Every test starts and ends with observation disabled."""
    runtime.disable()
    yield
    runtime.disable()


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()
        assert obs.current() is None

    def test_disabled_calls_are_noops(self):
        obs.add("generator.sessions", 5)
        obs.set_gauge("aggregation.total_bytes", 1.0)
        with obs.span("generate"):
            obs.add("generator.flows")
        assert obs.current() is None

    def test_disabled_span_is_shared_singleton(self):
        assert obs.span("a") is obs.span("b")

    def test_disabled_add_skips_contract_check(self):
        # The no-op path must not even look up the name.
        obs.add("never.declared.anywhere")


class TestSessionLifecycle:
    def test_enable_disable(self):
        session = runtime.enable()
        assert obs.is_enabled()
        assert obs.current() is session
        assert runtime.disable() is session
        assert not obs.is_enabled()

    def test_double_enable_raises(self):
        runtime.enable()
        with pytest.raises(RuntimeError, match="already enabled"):
            runtime.enable()

    def test_observed_scopes_a_session(self):
        with obs.observed() as session:
            assert obs.current() is session
            obs.add("generator.sessions")
        assert obs.current() is None
        assert session.registry.get("generator.sessions") == 1

    def test_fresh_session_is_empty(self):
        with obs.observed() as session:
            assert len(session.registry) == 0


class TestRecording:
    def test_add_and_gauge_reach_registry(self):
        with obs.observed() as session:
            obs.add("generator.flows", 3)
            obs.add("generator.flows")
            obs.set_gauge("aggregation.total_bytes", 9.5)
        assert session.registry.get("generator.flows") == 4
        assert session.registry.get("aggregation.total_bytes") == pytest.approx(
            9.5
        )

    def test_nested_spans_build_a_tree(self):
        with obs.observed() as session:
            with obs.span("generate"):
                with obs.span("gtp.signalling"):
                    pass
                with obs.span("gtp.signalling"):
                    pass
        generate = session.root.children["generate"]
        assert generate.count == 1
        assert generate.children["gtp.signalling"].count == 2
        assert generate.children["gtp.signalling"].elapsed_s >= 0.0

    def test_span_stack_unwinds(self):
        with obs.observed() as session:
            with obs.span("a"):
                assert len(session.stack) == 2
            assert session.stack == [session.root]


class TestExport:
    def test_export_shape(self):
        with obs.observed() as session:
            obs.add("generator.sessions", 2)
            dump = session.export(meta={"seed": 7})
        assert dump["schema"] == runtime.SCHEMA
        assert dump["counters"] == {"generator.sessions": 2}
        assert dump["gauges"] == {}
        assert dump["meta"] == {"seed": 7}
        assert dump["spans"]["name"] == runtime.ROOT_SPAN
        assert dump["spans"]["count"] == 1


class TestShardCapture:
    def test_capture_disabled_leaves_no_export(self):
        with obs.shard_capture("shard[0]") as capture:
            obs.add("generator.sessions")
        assert capture.export is None
        assert obs.current() is None

    def test_capture_isolates_the_outer_session(self):
        with obs.observed() as outer:
            obs.add("generator.sessions")
            with obs.shard_capture("shard[0]") as capture:
                inner = obs.current()
                assert inner is not outer
                obs.add("generator.flows", 7)
            assert obs.current() is outer
        assert capture.export["counters"] == {"generator.flows": 7}
        assert capture.export["spans"]["name"] == "shard[0]"
        assert outer.registry.get("generator.flows") is None

    def test_absorb_shard_merges_counters_and_grafts_spans(self):
        with obs.observed() as outer:
            with obs.shard_capture("shard[0]") as capture:
                obs.add("generator.flows", 2)
                with obs.span("generate"):
                    pass
            with obs.span("shards"):
                obs.absorb_shard(capture.export)
                obs.absorb_shard(capture.export)
        assert outer.registry.get("generator.flows") == 4
        shards = outer.root.children["shards"]
        shard0 = shards.children["shard[0]"]
        assert shard0.children["generate"].count == 2

    def test_absorb_none_is_a_noop(self):
        with obs.observed() as outer:
            obs.absorb_shard(None)
        assert len(outer.registry) == 0
