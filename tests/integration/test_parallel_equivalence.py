"""Sharded builds must be a function of (seed, n_shards) only.

The determinism contract behind ``build_session_level_dataset``'s
``n_workers`` parameter: for a fixed seed and shard count, running the
shards serially or across worker processes yields bit-identical
datasets and DPI reports.  Worker count is an execution detail, never
a statistical one.
"""

import numpy as np
import pytest

from repro._rng import as_generator
from repro.dataset.builder import build_session_level_dataset
from repro.geo.country import CountryConfig

N_SUBSCRIBERS = 250
SEED = 4242


def _build(n_workers, n_shards):
    return build_session_level_dataset(
        n_subscribers=N_SUBSCRIBERS,
        country_config=CountryConfig(n_communes=64),
        n_services=40,
        n_workers=n_workers,
        n_shards=n_shards,
        seed=SEED,
    )


@pytest.fixture(scope="module")
def serial_shards():
    return _build(n_workers=1, n_shards=2)


@pytest.fixture(scope="module")
def parallel_shards():
    return _build(n_workers=2, n_shards=2)


class TestWorkerInvariance:
    def test_tensors_bit_identical(self, serial_shards, parallel_shards):
        a, b = serial_shards.dataset, parallel_shards.dataset
        assert np.array_equal(a.dl, b.dl)
        assert np.array_equal(a.ul, b.ul)
        assert np.array_equal(a.users, b.users)

    def test_dpi_reports_identical(self, serial_shards, parallel_shards):
        a, b = serial_shards.dpi_report, parallel_shards.dpi_report
        assert a.flows_total == b.flows_total
        assert a.flows_classified == b.flows_classified
        assert a.bytes_total == b.bytes_total
        assert a.bytes_classified == b.bytes_classified
        assert a.by_technique == b.by_technique

    def test_merged_stats_identical(self, serial_shards, parallel_shards):
        a, b = serial_shards.extras, parallel_shards.extras
        assert (
            a["generator"].sessions_generated == b["generator"].sessions_generated
        )
        assert a["generator"].flows_generated == b["generator"].flows_generated
        assert a["probe"].stats.records == b["probe"].stats.records
        assert (
            a["aggregator"].records_ingested == b["aggregator"].records_ingested
        )

    def test_shards_cover_population(self, serial_shards):
        results = serial_shards.extras["shards"]
        assert len(results) == 2
        assert (
            sum(r.sessions_generated for r in results)
            == serial_shards.extras["generator"].sessions_generated
        )


class TestShardedVsMonolithic:
    """One shard through the shard machinery equals workload-wise what
    independent shards produce in aggregate: the totals are conserved."""

    def test_sharding_conserves_volume(self, serial_shards):
        mono = _build(n_workers=1, n_shards=1)
        sharded = serial_shards
        # Different shard counts legitimately re-seed the chain, so only
        # statistical closeness is required, not bit-identity.
        assert sharded.dataset.dl.sum() == pytest.approx(
            mono.dataset.dl.sum(), rel=0.35
        )
        assert sharded.extras["generator"].sessions_generated == pytest.approx(
            mono.extras["generator"].sessions_generated, rel=0.25
        )


class TestNoForkFallback:
    """Platforms without the fork start method fall back to in-process
    supervision — and produce the exact bytes the pooled path does."""

    def test_fallback_is_bit_identical(self, parallel_shards, monkeypatch):
        import multiprocessing

        def _no_fork(method=None):
            raise ValueError("cannot find context for 'fork'")

        monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
        fallback = _build(n_workers=2, n_shards=2)
        a, b = fallback.dataset, parallel_shards.dataset
        assert np.array_equal(a.dl, b.dl)
        assert np.array_equal(a.ul, b.ul)
        assert np.array_equal(a.users, b.users)
        assert a.meta == b.meta


class TestBuilderValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            _build(n_workers=0, n_shards=1)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            _build(n_workers=1, n_shards=0)

    def test_checkpoint_requires_integer_seed(self, tmp_path):
        with pytest.raises(ValueError):
            build_session_level_dataset(
                n_subscribers=10,
                country_config=CountryConfig(n_communes=16),
                n_shards=2,
                seed=as_generator(1),
                checkpoint_dir=tmp_path / "ckpt",
            )

    def test_audit_requires_single_shard(self):
        with pytest.raises(ValueError):
            build_session_level_dataset(
                n_subscribers=10,
                country_config=CountryConfig(n_communes=16),
                audit_localization=True,
                n_shards=2,
                seed=1,
            )

    def test_rejects_unset_chunk_size(self):
        """Every build streams: there is no materializing chunk size."""
        with pytest.raises(ValueError):
            build_session_level_dataset(
                n_subscribers=10,
                country_config=CountryConfig(n_communes=16),
                chunk_size=None,
                seed=1,
            )
