"""Property tests: flow feature codes are lossless, and classifying codes
in batches is classifying the decoded flows one by one.

A :class:`~repro.network.gtp.FeatureCodebook` must give back exactly the
features it encoded — through a code for names the fingerprints can
emit, through a batch's overflow table for anything else — and
:meth:`~repro.dpi.classifier.DpiEngine.classify_batch` must return the
same per-flow names and the same report bits as per-flow
:meth:`~repro.dpi.classifier.DpiEngine.classify`, however the flows are
cut into batches.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import as_generator
from repro.dpi.classifier import DpiEngine
from repro.dpi.fingerprints import FingerprintDatabase
from repro.network.gtp import FlowDescriptor
from repro.services.catalog import HEAD_SERVICE_NAMES, build_catalog

SETTINGS = settings(max_examples=60, deadline=None)

_CATALOG = build_catalog(n_services=60)
_DB = FingerprintDatabase(_CATALOG, seed=0)
_SERVICES = [s.name for s in _CATALOG]


def features_of(flow: FlowDescriptor):
    return (flow.sni, flow.host, flow.payload_hint, flow.server_port, flow.protocol)


def names():
    """Domain-like names: rendered endpoints, near misses and noise."""
    suffix = st.sampled_from(_DB.codebook.suffixes + ("example.org", ""))
    return st.one_of(
        st.none(),
        st.builds(lambda label, s: f"edge-{label:03d}.{s}", st.integers(0, 1500), suffix),
        st.builds(
            lambda s, label: f"{s}provider{label:02d}.example", suffix, st.integers(0, 120)
        ),
        st.builds(lambda s, label: f"edge-{label}.{s}", suffix, st.integers(0, 50)),
        st.text(alphabet="abcdeg-.0123456789", max_size=24),
    )


def features():
    return st.tuples(
        names(),
        names(),
        st.one_of(
            st.none(),
            st.sampled_from(_DB.codebook.hints),
            st.text(alphabet="quicyt-", max_size=8),
        ),
        st.integers(1, 65535),
        st.sampled_from(("tcp", "udp")),
    )


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), service=st.sampled_from(_SERVICES))
def test_emitted_descriptors_round_trip(seed, service):
    db = FingerprintDatabase(_CATALOG, seed=seed)
    codebook = _DB.codebook  # a separate database decodes the same codes
    scalar = [features_of(db.emit_flow(service)) for _ in range(5)]
    codes, overflow = codebook.encode(scalar)
    assert overflow == () and (codes >= 0).all()
    assert codebook.decode(codes) == scalar
    _, codes = db.emit_flow_features(service, 64)
    decoded = codebook.decode(codes)
    for sni, host, hint, port, protocol in decoded:
        FlowDescriptor(0, sni, host, port, protocol, hint)  # a valid flow
    recoded, overflow = codebook.encode(decoded)
    assert overflow == () and recoded.tolist() == codes.tolist()


@SETTINGS
@given(rows=st.lists(features(), max_size=30))
def test_arbitrary_features_round_trip(rows):
    codes, overflow = _DB.codebook.encode(rows)
    assert _DB.codebook.decode(codes, overflow) == rows
    # Overflow rows are exactly the distinct features without a code.
    assert set(overflow) == {
        row for row, code in zip(rows, codes.tolist()) if code < 0
    }
    assert len(overflow) == len(set(overflow))
    for row, code in zip(rows, codes.tolist()):
        assert (_DB.codebook.encode([row])[1] == ()) == (code >= 0)


def _corpus():
    flows = []
    for name in HEAD_SERVICE_NAMES:
        _, codes = _DB.emit_flow_features(name, 40)
        for sni, host, hint, port, protocol in _DB.codebook.decode(codes):
            flows.append(FlowDescriptor(len(flows), sni, host, port, protocol, hint))
    flows += [
        FlowDescriptor(len(flows), "scontent.fbcdn.net", None, 443, "tcp"),
        FlowDescriptor(len(flows) + 1, None, "mail.provider07.example", 80, "tcp"),
        FlowDescriptor(len(flows) + 2, "unknown.example.org", None, 4444, "tcp"),
        FlowDescriptor(len(flows) + 3, None, None, 50000, "udp", "wa-noise"),
    ]
    return flows


_FLOWS = _corpus()


@pytest.fixture(scope="module")
def expected():
    engine = DpiEngine(_DB)
    volumes = _volumes()
    names = [engine.classify(f, v) for f, v in zip(_FLOWS, volumes.tolist())]
    return names, engine.report


def _volumes():
    return as_generator(4).lognormal(10.0, 2.0, len(_FLOWS))


@settings(max_examples=40, deadline=None)
@given(cuts=st.lists(st.integers(0, len(_FLOWS)), max_size=12))
def test_any_chunking_matches_per_flow(expected, cuts):
    expected_names, expected_report = expected
    flows = list(_FLOWS)
    volumes = _volumes()
    bounds = sorted({0, len(flows), *cuts})
    engine = DpiEngine(_DB)
    names = []
    for start, stop in zip(bounds, bounds[1:]):
        codes, overflow = engine.codebook.encode(
            features_of(f) for f in flows[start:stop]
        )
        positions = engine.classify_batch(codes, volumes[start:stop], overflow)
        names += [
            engine.service_names[p] if p >= 0 else None for p in positions.tolist()
        ]
    assert names == expected_names
    report = engine.report
    assert report.flows_total == expected_report.flows_total
    assert report.flows_classified == expected_report.flows_classified
    assert report.bytes_total.hex() == expected_report.bytes_total.hex()
    assert report.bytes_classified.hex() == expected_report.bytes_classified.hex()
    assert report.by_technique == expected_report.by_technique
