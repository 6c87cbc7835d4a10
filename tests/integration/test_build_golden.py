"""Golden digests of small session-level builds.

Each case builds a small synthetic week at a fixed seed and compares
two fingerprints against values pinned in this file:

- a sha256 over every array of the saved npz, fed
  ``name|dtype|shape|`` and then the array bytes, in sorted name order
  (the same recipe as ``npz_digest`` in ``perfbench/workloads.py``, so
  zip timestamps never enter the digest);
- the DPI :class:`~repro.dpi.classifier.ClassificationReport`, whose
  byte totals are exact integers.

Every case also checks that the build keeps one byte ledger: the
dataset's ``classified_fraction`` is the report's ``byte_coverage``,
equal to the last bit.

The configurations cover the streamed chain, two forked workers with
every shard partial spilled, the audited build (the localization
auditor only observes, so it must not move a bit), and one-shard builds
under a retry policy or with their partial spilled.  A build is a
function of its seed alone (every draw is keyed by the subscriber,
session or flow it is for), so all of a seed's configurations share
one pinned fingerprint.  A change to generation, GTP,
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

#: One fingerprint per seed: a build is a function of its seed alone,
#: so every configuration of a seed shares it.
GOLDEN = {
    1: {
        "digest": "4575ba58098de874ef6f3cec5f35571ae5369ae403237892dff9351c7ca7daab",
        "report": {
            "flows_total": 17600,
            "flows_classified": 15411,
            "bytes_total": 92681066138,
            "bytes_classified": 80888272160,
            "by_technique": {"sni": 12781, "host": 2630, "payload": 0, "port": 0},
        },
    },
    2: {
        "digest": "ec6a94253d9e84c17d92cdf4edc084bdd822f40ac8655907a5436fca68d24b7c",
        "report": {
            "flows_total": 18221,
            "flows_classified": 15937,
            "bytes_total": 70748881945,
            "bytes_classified": 61704745219,
            "by_technique": {"sni": 13032, "host": 2905, "payload": 0, "port": 0},
        },
    },
}

CASES = sorted((seed, config) for seed in GOLDEN for config in CONFIGS)


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
    assert type(report.bytes_total) is int
    assert type(report.bytes_classified) is int
    return {
        "flows_total": report.flows_total,
        "flows_classified": report.flows_classified,
        "bytes_total": report.bytes_total,
        "bytes_classified": report.bytes_classified,
        "by_technique": {t.value: n for t, n in report.by_technique.items()},
    }


def build_fingerprint(tmp_path, seed: int, config: str) -> dict:
    """Build one golden case; return its npz digest and report fields.

    Also asserts the one-ledger invariant on the in-memory build.
    """
    kwargs = dict(CONFIGS[config])
    if kwargs.pop("spill", False):
        kwargs.update(spill_dir=tmp_path / "spill", spill_budget_bytes=0)
    artifacts = build_session_level_dataset(
        n_subscribers=N_SUBSCRIBERS, country_config=COUNTRY, seed=seed, **kwargs
    )
    report = artifacts.dpi_report
    assert artifacts.dataset.classified_fraction == report.byte_coverage
    path = artifacts.dataset.save(tmp_path / "golden.npz")
    return {
        "digest": npz_digest(path),
        "report": report_fields(report),
    }


@pytest.mark.parametrize(
    "seed,config",
    CASES,
    ids=[f"seed{seed}-{config}" for seed, config in CASES],
)
def test_build_matches_golden(tmp_path, seed, config):
    assert build_fingerprint(tmp_path, seed, config) == GOLDEN[seed]


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
