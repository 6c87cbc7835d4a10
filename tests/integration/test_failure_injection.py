"""Failure injection across the measurement chain.

The pipeline must degrade gracefully, not silently corrupt the dataset,
when parts of the capture are imperfect.
"""

import numpy as np
import pytest

from repro.dataset.builder import build_session_level_dataset
from repro.geo.country import CountryConfig


@pytest.fixture(scope="module")
def lossy_and_clean():
    kwargs = dict(
        n_subscribers=300,
        country_config=CountryConfig(n_communes=64),
        seed=55,
    )
    clean = build_session_level_dataset(**kwargs)
    lossy = build_session_level_dataset(control_loss_rate=0.3, **kwargs)
    return clean, lossy


class TestControlPlaneLoss:
    def test_lossy_capture_sees_less_traffic(self, lossy_and_clean):
        clean, lossy = lossy_and_clean
        assert lossy.dataset.total_volume() < clean.dataset.total_volume()

    def test_orphans_accounted(self, lossy_and_clean):
        _, lossy = lossy_and_clean
        probe = lossy.extras["probe"]
        assert probe.stats.orphan_packets > 0
        assert (
            probe.stats.records + probe.stats.orphan_packets
            == probe.stats.user_packets
        )

    def test_service_mix_unbiased_by_loss(self, lossy_and_clean):
        """GTP-C loss is service-agnostic: the captured mix must not tilt."""
        clean, lossy = lossy_and_clean
        a = clean.dataset.dl.sum(axis=(0, 2))
        b = lossy.dataset.dl.sum(axis=(0, 2))
        a = a / a.sum()
        b = b / b.sum()
        assert float(np.abs(a - b).max()) < 0.08

    def test_dataset_still_valid(self, lossy_and_clean):
        _, lossy = lossy_and_clean
        dataset = lossy.dataset
        assert np.isfinite(dataset.dl).all()
        assert dataset.classified_fraction > 0.8


class TestDegenerateWorkloads:
    def test_zero_hour_run(self):
        artifacts = build_session_level_dataset(
            n_subscribers=50,
            country_config=CountryConfig(n_communes=36),
            seed=1,
            workload_config=__import__(
                "repro.traffic.generator", fromlist=["WorkloadConfig"]
            ).WorkloadConfig(sessions_per_service=0.01),
        )
        # Nearly empty is fine; invalid is not.
        dataset = artifacts.dataset
        assert np.isfinite(dataset.dl).all()

    def test_truncated_week(self):
        from repro.dpi.classifier import DpiEngine
        from repro.dpi.fingerprints import FingerprintDatabase
        from repro.dataset.aggregation import CommuneAggregator
        from repro.network.probes import CoreProbe
        from repro.geo.country import build_country
        from repro.services.catalog import build_catalog
        from repro.services.profiles import build_profile_library
        from repro.traffic.generator import SessionLevelGenerator
        from repro.traffic.intensity import build_intensity_model
        from repro.traffic.subscribers import synthesize_population
        from repro.network.topology import build_topology

        country = build_country(CountryConfig(n_communes=36), seed=2)
        catalog = build_catalog(n_services=40)
        profiles = build_profile_library()
        model = build_intensity_model(country, catalog, profiles, seed=3)
        topology = build_topology(country, seed=4)
        population = synthesize_population(country, model, 100, seed=5)
        fingerprints = FingerprintDatabase(catalog, seed=6)
        generator = SessionLevelGenerator(
            model, population, topology, fingerprints, seed=7
        )
        engine = DpiEngine(FingerprintDatabase(catalog, seed=0))
        aggregator = CommuneAggregator(country, catalog, engine)
        probe = CoreProbe().attach_to(generator.session_manager)
        probe.stream_to(aggregator.ingest_columnar, chunk_rows=8192)
        generator.run_week(time_limit_hours=48.0)  # only the weekend
        probe.flush_stream()
        dataset = aggregator.finalize()
        weekend = dataset.all_national_series("dl")[:, :48].sum()
        week_rest = dataset.all_national_series("dl")[:, 48:].sum()
        assert weekend > 0
        assert week_rest == 0
