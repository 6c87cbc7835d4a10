"""Unit tests for ULI localization auditing."""

import pytest

from repro.network.localization import LocalizationAuditor
from repro.network.topology import build_topology


@pytest.fixture()
def auditor(country):
    topology = build_topology(country, seed=17)
    return LocalizationAuditor(topology, seed=3), topology


class TestRecord:
    def test_same_commune_small_error(self, auditor, country):
        audit, topology = auditor
        station = topology.base_stations[0]
        (error,) = audit.record([station.commune_id], [station.bs_id])
        assert audit.commune_accuracy() == 1.0
        # Within a ~16 km2 commune the error stays within a few km.
        assert error < 2 * country.grid.cell_km

    def test_stale_uli_large_error(self, auditor, country):
        audit, topology = auditor
        station = topology.base_stations[0]
        far_commune = country.n_communes - 1
        (error,) = audit.record([far_commune], [station.bs_id])
        assert audit.commune_accuracy() == 0.0
        assert error > country.grid.cell_km

    def test_summary_statistics(self, auditor, country):
        audit, topology = auditor
        station = topology.base_stations[0]
        for _ in range(5):
            audit.record([station.commune_id] * 10, [station.bs_id] * 10)
        summary = audit.summary()
        assert summary["samples"] == audit.n_samples == 50
        assert summary["commune_accuracy"] == 1.0
        assert 0 < summary["median_error_km"] <= summary["p90_error_km"]

    def test_empty_summary_rejected(self, auditor):
        audit, _ = auditor
        with pytest.raises(ValueError):
            audit.median_error_km()


class TestPipelineIntegration:
    def test_audited_session_run(self):
        from repro.dataset.builder import build_session_level_dataset
        from repro.geo.country import CountryConfig

        artifacts = build_session_level_dataset(
            n_subscribers=150,
            country_config=CountryConfig(n_communes=64),
            audit_localization=True,
            seed=8,
        )
        audit = artifacts.extras["auditor"].summary()
        assert audit["samples"] > 100
        # Commune-level tessellation absorbs the error (paper §2): the
        # median stays at the few-km scale and most flows land in the
        # right commune.
        assert audit["median_error_km"] < 6.0
        assert audit["commune_accuracy"] > 0.9
