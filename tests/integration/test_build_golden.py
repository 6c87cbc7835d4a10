"""Golden digests of small session-level builds.

Each case builds a small synthetic week at a fixed seed and compares
two fingerprints against values pinned in this file:

- a sha256 over every array of the saved npz, fed
  ``name|dtype|shape|`` and then the array bytes, in sorted name order
  (the same recipe as ``npz_digest`` in ``perfbench/workloads.py``, so
  zip timestamps never enter the digest);
- the DPI :class:`~repro.dpi.classifier.ClassificationReport`, with the
  byte totals compared bit for bit through ``float.hex``.

The configurations cover the streamed chain, two forked workers with
every shard partial spilled, the audited build (the localization
auditor only observes, so it must not move a bit), and one-shard builds
under a retry policy or with their partial spilled (supervision and
memory settings never change content).  A change to generation, GTP,
the probe, DPI or aggregation that alters a single output bit fails
here; a change that only makes the chain faster must leave every value
untouched.
"""

import hashlib

import numpy as np
import pytest

from repro.dataset.builder import build_session_level_dataset
from repro.geo.country import CountryConfig
from repro.resilience.retry import RetryPolicy

N_SUBSCRIBERS = 200
COUNTRY = CountryConfig(n_communes=64)

CONFIGS = {
    "stream": dict(n_shards=1, chunk_size=8192),
    "sharded_spilled": dict(n_shards=2, n_workers=2, spill=True),
    "audited": dict(n_shards=1, audit_localization=True),
    "retry": dict(n_shards=1, retry_policy=RetryPolicy()),
    "spilled": dict(n_shards=1, spill=True),
}

_STREAM_1 = {
    "digest": "33fa05ab4bab55cde85e013923d1139bfb80eed2d30322a8729abf8ab4532528",
    "report": {
        "flows_total": 17770,
        "flows_classified": 15710,
        "bytes_total": "0x1.5a2ef49441235p+36",
        "bytes_classified": "0x1.34abd0de99c2bp+36",
        "by_technique": {"sni": 12979, "host": 2731, "payload": 0, "port": 0},
    },
}
_STREAM_2 = {
    "digest": "94cb8a61cb80cf05d91829930e751a2b717b049b39c2cb4f01dd4a01c13a5d31",
    "report": {
        "flows_total": 18251,
        "flows_classified": 16151,
        "bytes_total": "0x1.05bac25bbb224p+36",
        "bytes_classified": "0x1.d0beaedf0a59cp+35",
        "by_technique": {"sni": 13219, "host": 2932, "payload": 0, "port": 0},
    },
}

GOLDEN = {
    (1, "stream"): _STREAM_1,
    # The audited, retried and spilled one-shard builds are
    # byte-identical to the plain streamed chain.
    (1, "sharded_spilled"): {
        "digest": "fd96d7493e3e9608f7c7449759f0b095688fe1f7dcde7b733cbfd46d508b6f0d",
        "report": {
            "flows_total": 17947,
            "flows_classified": 15786,
            "bytes_total": "0x1.59c151f76669bp+36",
            "bytes_classified": "0x1.2bdcc4bc84060p+36",
            "by_technique": {"sni": 13025, "host": 2761, "payload": 0, "port": 0},
        },
    },
    (1, "audited"): _STREAM_1,
    (1, "retry"): _STREAM_1,
    (1, "spilled"): _STREAM_1,
    (2, "stream"): _STREAM_2,
    (2, "sharded_spilled"): {
        "digest": "013d58f318986847d7fd0aa741a87271c9eaf381050446fd7ddb198c2d26d9e1",
        "report": {
            "flows_total": 18092,
            "flows_classified": 15899,
            "bytes_total": "0x1.06cf2fc8a86ecp+36",
            "bytes_classified": "0x1.cff99d1f4ebbap+35",
            "by_technique": {"sni": 12990, "host": 2909, "payload": 0, "port": 0},
        },
    },
    (2, "audited"): _STREAM_2,
    (2, "retry"): _STREAM_2,
    (2, "spilled"): _STREAM_2,
}


def npz_digest(path) -> str:
    """sha256 over every array of an npz, zip metadata excluded."""
    digest = hashlib.sha256()
    with np.load(path, allow_pickle=False) as data:
        for key in sorted(data.files):
            array = data[key]
            digest.update(f"{key}|{array.dtype.str}|{array.shape}|".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def report_fields(report) -> dict:
    """A classification report as exact, JSON-comparable values."""
    return {
        "flows_total": report.flows_total,
        "flows_classified": report.flows_classified,
        "bytes_total": report.bytes_total.hex(),
        "bytes_classified": report.bytes_classified.hex(),
        "by_technique": {t.value: n for t, n in report.by_technique.items()},
    }


def build_fingerprint(tmp_path, seed: int, config: str) -> dict:
    """Build one golden case; return its npz digest and report fields."""
    kwargs = dict(CONFIGS[config])
    if kwargs.pop("spill", False):
        kwargs.update(spill_dir=tmp_path / "spill", spill_budget_bytes=0)
    artifacts = build_session_level_dataset(
        n_subscribers=N_SUBSCRIBERS, country_config=COUNTRY, seed=seed, **kwargs
    )
    path = artifacts.dataset.save(tmp_path / "golden.npz")
    return {
        "digest": npz_digest(path),
        "report": report_fields(artifacts.dpi_report),
    }


@pytest.mark.parametrize(
    "seed,config",
    sorted(GOLDEN),
    ids=[f"seed{seed}-{config}" for seed, config in sorted(GOLDEN)],
)
def test_build_matches_golden(tmp_path, seed, config):
    assert build_fingerprint(tmp_path, seed, config) == GOLDEN[(seed, config)]


#: Seeds whose synthetic country has a white zone that sessions reach at
#: this size; before white zones were served from the nearest covered
#: commune, these builds raised ``LookupError`` (``ShardExecutionError``
#: when sharded).
WHITE_ZONE_SEEDS = (18, 29)
WHITE_ZONE_COUNTRY = CountryConfig(n_communes=144)


@pytest.mark.parametrize("seed", WHITE_ZONE_SEEDS)
@pytest.mark.parametrize("sharded", [False, True], ids=["stream", "sharded"])
def test_white_zone_seed_builds(tmp_path, seed, sharded):
    kwargs = dict(n_shards=2, n_workers=2) if sharded else dict(n_shards=1)
    artifacts = build_session_level_dataset(
        n_subscribers=600,
        country_config=WHITE_ZONE_COUNTRY,
        seed=seed,
        chunk_size=8192,
        **kwargs,
    )
    assert not artifacts.country.coverage.has_3g.all()
    assert artifacts.dataset.integrity_problems() == []
    assert artifacts.extras["generator"].flows_generated > 0
