"""Unit tests for the DPI classification engine."""

import numpy as np
import pytest

from repro import obs
from repro.dpi.classifier import DpiEngine, Technique
from repro.dpi.fingerprints import FingerprintDatabase
from repro.network.gtp import FlowDescriptor
from repro.services.catalog import HEAD_SERVICE_NAMES


@pytest.fixture(scope="module")
def db(catalog):
    return FingerprintDatabase(catalog, seed=8)


@pytest.fixture()
def engine(db):
    return DpiEngine(db)


class TestClassification:
    def test_emitted_flows_classified_back(self, engine, db):
        for name in HEAD_SERVICE_NAMES:
            for _ in range(10):
                flow = db.emit_flow(name, obfuscated=False)
                assert engine.classify(flow) == name, name

    def test_obfuscated_unclassified(self, engine, db):
        flow = db.emit_flow("Facebook", obfuscated=True)
        assert engine.classify(flow) is None

    def test_longest_suffix_wins(self, engine):
        # video.xx.fbcdn.net must classify as Facebook Video, not Facebook.
        flow = FlowDescriptor(1, "edge-001.video.xx.fbcdn.net", None, 443, "tcp")
        assert engine.classify(flow) == "Facebook Video"
        flow = FlowDescriptor(2, "scontent.fbcdn.net", None, 443, "tcp")
        assert engine.classify(flow) == "Facebook"

    def test_host_technique(self, engine):
        flow = FlowDescriptor(1, None, "www.youtube.com", 80, "tcp")
        assert engine.classify(flow) == "YouTube"

    def test_payload_technique(self, engine):
        flow = FlowDescriptor(1, None, None, 50000, "udp", payload_hint="wa-noise")
        assert engine.classify(flow) == "WhatsApp"

    def test_port_technique(self, engine):
        flow = FlowDescriptor(1, None, None, 5222, "tcp")
        assert engine.classify(flow) == "WhatsApp"

    def test_prefix_style_host(self, engine):
        flow = FlowDescriptor(1, None, "imap.provider07.example", 993, "tcp")
        assert engine.classify(flow) == "Mail"

    def test_unknown_flow(self, engine):
        flow = FlowDescriptor(1, "unknown.example.org", None, 4444, "tcp")
        assert engine.classify(flow) is None


class TestReporting:
    def test_byte_coverage(self, engine, db):
        engine.classify(db.emit_flow("YouTube", obfuscated=False), 900.0)
        engine.classify(db.emit_flow("YouTube", obfuscated=True), 100.0)
        assert engine.report.byte_coverage == pytest.approx(0.9)
        assert engine.report.flow_coverage == pytest.approx(0.5)

    def test_technique_attribution(self, engine):
        engine.classify(FlowDescriptor(1, "twitter.com", None, 443, "tcp"), 1.0)
        engine.classify(FlowDescriptor(2, None, None, 5222, "tcp"), 1.0)
        assert engine.report.by_technique[Technique.SNI] == 1
        assert engine.report.by_technique[Technique.PORT] == 1

    def test_reset_report(self, engine):
        engine.classify(FlowDescriptor(1, "twitter.com", None, 443, "tcp"), 1.0)
        old = engine.reset_report()
        assert old.flows_total == 1
        assert engine.report.flows_total == 0

    def test_empty_report_coverage(self, engine):
        assert engine.report.byte_coverage == 0.0
        assert engine.report.flow_coverage == 0.0


class TestIndexedEquivalence:
    """The dict-index fast path must agree flow-for-flow with the
    retained linear scan, and the batched entry point must keep the
    same per-flow accounting."""

    @pytest.fixture(scope="class")
    def corpus(self, db):
        flows = []
        for name in HEAD_SERVICE_NAMES:
            for i in range(25):
                flows.append(db.emit_flow(name, obfuscated=(i % 5 == 0)))
        # Hand-picked edges: longest-match, prefix convention, unknowns.
        flows += [
            FlowDescriptor(1, "edge-001.video.xx.fbcdn.net", None, 443, "tcp"),
            FlowDescriptor(2, "scontent.fbcdn.net", None, 443, "tcp"),
            FlowDescriptor(3, None, "imap.provider07.example", 993, "tcp"),
            FlowDescriptor(4, None, "mail.provider07.example", 80, "tcp"),
            FlowDescriptor(5, "unknown.example.org", None, 4444, "tcp"),
            FlowDescriptor(6, None, None, 5222, "tcp"),
            FlowDescriptor(7, None, None, 50000, "udp", payload_hint="wa-noise"),
        ]
        return flows

    def test_index_matches_linear_scan(self, db, corpus):
        fast = DpiEngine(db, indexed=True)
        slow = DpiEngine(db, indexed=False)
        for flow in corpus:
            volume = 100 + flow.flow_id
            assert fast.classify(flow, volume) == slow.classify(flow, volume)
        assert fast.report.flows_total == slow.report.flows_total
        assert fast.report.flows_classified == slow.report.flows_classified
        assert fast.report.bytes_classified == slow.report.bytes_classified
        assert fast.report.by_technique == slow.report.by_technique

    def test_batch_matches_per_flow(self, db, corpus):
        codes, overflow = db.codebook.encode(
            (f.sni, f.host, f.payload_hint, f.server_port, f.protocol)
            for f in corpus
        )
        # The hand-picked foreign names take the overflow path.
        assert len(overflow) == 3
        volumes = np.arange(1, len(corpus) + 1, dtype=np.int64)

        for indexed in (True, False):
            batched = DpiEngine(db, indexed=indexed)
            positions = batched.classify_batch(codes, volumes, overflow)

            scalar = DpiEngine(db, indexed=indexed)
            expected = [
                scalar.classify(flow, vol)
                for flow, vol in zip(corpus, volumes.tolist())
            ]

            assert names_of(batched, positions) == expected
            assert report_bits(batched.report) == report_bits(scalar.report)

    def test_report_merge_adds_counts(self, db, corpus):
        a = DpiEngine(db)
        b = DpiEngine(db)
        half = len(corpus) // 2
        for flow in corpus[:half]:
            a.classify(flow, 10)
        for flow in corpus[half:]:
            b.classify(flow, 10)
        whole = DpiEngine(db)
        for flow in corpus:
            whole.classify(flow, 10)
        a.report.merge(b.report)
        assert a.report.flows_total == whole.report.flows_total
        assert a.report.flows_classified == whole.report.flows_classified
        assert a.report.by_technique == whole.report.by_technique


def names_of(engine, positions):
    """Per-flow service names of :meth:`DpiEngine.classify_batch` output."""
    return [
        engine.service_names[p] if p >= 0 else None for p in positions.tolist()
    ]


def report_bits(report):
    """A report's fields; the byte totals are exact ints."""
    assert type(report.bytes_total) is int
    assert type(report.bytes_classified) is int
    return (
        report.flows_total,
        report.flows_classified,
        report.bytes_total,
        report.bytes_classified,
        dict(report.by_technique),
    )


class TestCodeResolution:
    """Each distinct code is matched once; later batches reuse it."""

    def _emitted(self, db, n=400):
        _, codes = zip(
            *(db.emit_flow_features(name, n // 20) for name in HEAD_SERVICE_NAMES)
        )
        return np.concatenate(codes)

    def test_hits_plus_misses_count_every_flow(self, catalog):
        db = FingerprintDatabase(catalog, seed=3)
        engine = DpiEngine(db)
        codes = self._emitted(db)
        volumes = np.ones(len(codes))
        with obs.observed() as session:
            engine.classify_batch(codes, volumes)
            first = session.registry.export_counters()
            engine.classify_batch(codes, volumes)
            second = session.registry.export_counters()
        distinct = len(np.unique(codes))
        assert first["dpi.cache_misses"] == distinct
        assert first["dpi.cache_hits"] == len(codes) - distinct
        # Everything was resolved by the first batch.
        assert second["dpi.cache_misses"] == distinct
        assert second["dpi.cache_hits"] == 2 * len(codes) - distinct

    def test_overflow_codes_are_batch_local(self, catalog):
        db = FingerprintDatabase(catalog, seed=3)
        engine = DpiEngine(db)
        volumes = np.ones(1)
        code = np.array([-1], dtype=np.int64)
        twitter = (("twitter.com", None, None, 443, "tcp"),)
        mail = ((None, None, None, 993, "tcp"),)
        first = engine.classify_batch(code, volumes, twitter)
        second = engine.classify_batch(code, volumes, mail)
        assert names_of(engine, first) == ["Twitter"]
        assert names_of(engine, second) == ["Mail"]
