"""Unit tests for the DPI classification engine."""

import numpy as np
import pytest

from repro.dpi.classifier import DpiEngine, Technique
from repro.dpi.fingerprints import FingerprintDatabase
from repro.network.gtp import FlowDescriptor
from repro.services.catalog import HEAD_SERVICE_NAMES, build_catalog


class LinearCascade:
    """The reference classifier: the match cascade over raw features,
    with a longest-first linear scan of every suffix pattern."""

    def __init__(self, db):
        fingerprints = db.all_fingerprints()
        self.sni = _longest_first(
            (s, fp.service_name) for fp in fingerprints for s in fp.sni_suffixes
        )
        self.host = _longest_first(
            (s, fp.service_name) for fp in fingerprints for s in fp.host_suffixes
        )
        self.hints, self.ports = {}, {}
        for fp in fingerprints:
            self.hints.update(dict.fromkeys(fp.payload_hints, fp.service_name))
            self.ports.update(dict.fromkeys(fp.port_signatures, fp.service_name))

    def match(self, sni, host, payload_hint, server_port, protocol):
        """``(service, technique)`` of a feature tuple, or None."""
        if sni:
            service = _suffix_lookup(self.sni, sni)
            if service:
                return service, Technique.SNI
        if host:
            service = _suffix_lookup(self.host, host)
            if service:
                return service, Technique.HOST
        if payload_hint in self.hints:
            return self.hints[payload_hint], Technique.PAYLOAD
        if (server_port, protocol) in self.ports:
            return self.ports[(server_port, protocol)], Technique.PORT
        return None


def _longest_first(pairs):
    # Stable: among equally long patterns the catalog order wins.
    return sorted(pairs, key=lambda item: len(item[0]), reverse=True)


def _suffix_lookup(index, name):
    """Longest-suffix match of a DNS name against an index.

    Prefix-style patterns (ending with ``.``, e.g. ``"imap."``) match
    name *prefixes* instead, covering protocol-conventional hostnames.
    """
    for suffix, service in index:
        if suffix.endswith("."):
            if name.startswith(suffix):
                return service
        elif name == suffix or name.endswith("." + suffix):
            return service
    return None


def technique_counts(outcomes):
    return {t: sum(o is not None and o[1] is t for o in outcomes) for t in Technique}


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
    """The compiled field tables must agree flow-for-flow with the
    reference linear cascade, and the batched entry point must keep the
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
        # Technique priority: every field carries a match, and the
        # higher-priority fields drop out one by one.
        youtube = "edge-002.youtube.com"
        flows += [
            FlowDescriptor(flow_id, sni, host, 5222, "tcp", "wa-noise")
            for flow_id, sni, host in (
                (8, "edge-001.twitter.com", youtube),
                (9, "mmsc.provider01.example", youtube),  # no SNI pattern
                (10, None, youtube),
                (11, None, None),
            )
        ]
        return flows

    def test_index_matches_linear_scan(self, db, corpus):
        engine = DpiEngine(db)
        outcomes = [LinearCascade(db).match(*flow.features) for flow in corpus]
        names = [engine.classify(flow, 100 + flow.flow_id) for flow in corpus]
        assert names == [o and o[0] for o in outcomes]
        assert engine.report.flows_total == len(corpus)
        assert engine.report.bytes_classified == sum(
            100 + flow.flow_id for flow, o in zip(corpus, outcomes) if o
        )
        assert engine.report.by_technique == technique_counts(outcomes)

    @pytest.mark.parametrize("field", ["sni", "host", "hint", "port"])
    def test_tables_match_linear_scan_on_every_field_value(self, field):
        # The session catalog's 60 services keep the linear scan over
        # every endpoint value affordable.
        db = FingerprintDatabase(build_catalog(n_services=60), seed=0)
        codebook = db.codebook
        if field in ("sni", "host"):
            # Prefix-style suffixes render labels below 100 only.
            values = np.concatenate(
                [[0]]
                + [
                    codebook.suffix_field(s)
                    + np.arange(100 if s.endswith(".") else codebook.LABELS)
                    for s in codebook.suffixes
                ]
            )
        elif field == "hint":
            values = np.arange(codebook.hint_fields)
        else:
            values = np.arange(codebook.PORT_FIELDS)
        # Every other field at "no match": no name, no hint, port 0/tcp.
        fields = dict(sni=0, host=0, hint=0, port=0)
        fields[field] = values
        codes = codebook.pack(**fields)
        reference = LinearCascade(db)
        assert reference.match(None, None, None, 0, "tcp") is None
        outcomes = [reference.match(*f) for f in codebook.decode(codes)]

        engine = DpiEngine(db)
        positions = engine.classify_batch(codes, np.ones(len(codes), dtype=np.int64))

        assert names_of(engine, positions) == [o and o[0] for o in outcomes]
        # One field varies, so each classified value has one technique:
        # equal counts mean equal techniques value by value.
        assert engine.report.by_technique == technique_counts(outcomes)
        assert sum(o is not None for o in outcomes) > 0

    def test_batch_matches_per_flow(self, db, corpus):
        codes, overflow = db.codebook.encode(flow.features for flow in corpus)
        # The hand-picked foreign names take the overflow path.
        assert len(overflow) == 3
        volumes = np.arange(1, len(corpus) + 1, dtype=np.int64)

        batched = DpiEngine(db)
        positions = batched.classify_batch(codes, volumes, overflow)

        scalar = DpiEngine(db)
        expected = [
            scalar.classify(flow, vol) for flow, vol in zip(corpus, volumes.tolist())
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
    """Codes resolve through the codebook's fields; negative codes
    through their own batch's overflow table."""

    def test_codes_outside_the_codebook_rejected(self, engine):
        codebook = engine.codebook
        volumes = np.ones(1, dtype=np.int64)
        past_the_space = codebook.pack(codebook.endpoints, 0, 0, 0)
        # Prefix-style suffixes render provider labels below 100 only.
        label_100 = codebook.suffix_field("imap.") + 100
        for code in (
            past_the_space,
            codebook.pack(label_100, 0, 0, 0),
            codebook.pack(0, label_100, 0, 0),
        ):
            with pytest.raises(ValueError):
                engine.classify_batch(np.array([code], dtype=np.int64), volumes)
        assert engine.report.flows_total == 0

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
