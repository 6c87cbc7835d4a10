"""Unit tests for the session-level workload generator."""

import numpy as np
import pytest

from repro.dpi.fingerprints import FingerprintDatabase
from repro.network.localization import LocalizationAuditor
from repro.network.probes import CoreProbe
from repro.network.topology import build_topology
from repro.traffic.generator import SessionLevelGenerator, WorkloadConfig
from repro.traffic.subscribers import synthesize_population


@pytest.fixture()
def setup(country, catalog, intensity_model):
    topology = build_topology(country, seed=41)
    population = synthesize_population(country, intensity_model, 40, seed=42)
    fingerprints = FingerprintDatabase(catalog, seed=43)
    generator = SessionLevelGenerator(
        intensity_model, population, topology, fingerprints, seed=44
    )
    probe = CoreProbe().attach_to(generator.session_manager)
    return generator, probe, population, topology


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(sessions_per_service=0)
        with pytest.raises(ValueError):
            WorkloadConfig(flows_per_session=0.5)


class TestGeneration:
    def test_counters_and_capture(self, setup):
        generator, probe, _, _ = setup
        generator.run_week()
        assert generator.sessions_generated > 0
        assert generator.flows_generated >= generator.sessions_generated
        records = probe.drain()
        assert len(records) == generator.flows_generated

    def test_time_limit_truncates(self, setup):
        generator, probe, _, _ = setup
        generator.run_week(time_limit_hours=24.0)
        records = probe.drain()
        assert records, "a day of traffic should produce records"
        starts = [r.timestamp_s / 3600.0 for r in records]
        # Sessions start inside the limit (flows may trail slightly).
        assert min(starts) >= 0
        assert max(starts) < 26.0

    def test_streamed_bytes_are_int64(self, setup):
        # Probes count whole bytes, so every batch reaching the
        # aggregator carries int64 byte columns.
        generator, probe, _, _ = setup
        batches = []
        probe.stream_to(batches.append, chunk_rows=512)
        generator.run_week()
        probe.flush_stream()
        assert len(batches) > 1
        for batch in batches:
            assert batch.dl_bytes.dtype == np.int64
            assert batch.ul_bytes.dtype == np.int64

    def test_volumes_positive_and_weekly_scale(
        self, setup, intensity_model
    ):
        generator, probe, population, _ = setup
        generator.run_week()
        records = probe.drain()
        total = sum(r.total_bytes for r in records)
        assert total > 0
        # The panel's expected weekly volume: panel share of the base.
        country_total = intensity_model.total_weekly_bytes
        subs_total = intensity_model.country.subscribers_per_commune().sum()
        expected = country_total * len(population) / subs_total
        assert total == pytest.approx(expected, rel=0.8)

    def test_records_at_subscriber_locations(self, setup):
        generator, probe, population, _ = setup
        generator.run_week()
        records = probe.drain()
        communes = {r.commune_id for r in records}
        visited = set()
        for subscriber in population:
            visited.update(
                generator.mobility.itinerary_for(subscriber).visited_communes()
            )
        assert communes <= visited

    def test_auditor_hook(self, setup, catalog, intensity_model):
        _, _, population, topology = setup
        # Every long session may span a move, so ULI updates fire.
        config = WorkloadConfig(long_session_minutes=0.0)

        def audited(chunk_size):
            generator = SessionLevelGenerator(
                intensity_model,
                population,
                topology,
                FingerprintDatabase(catalog, seed=43),
                config=config,
                seed=44,
            )
            generator.auditor = LocalizationAuditor(topology, seed=9)
            generator.run_week(chunk_size=chunk_size)
            assert generator.auditor.n_samples == generator.flows_generated
            return generator

        per_subscriber = audited(None)
        stats = per_subscriber._handover.stats
        assert stats.moves > 0 and stats.updates > 0
        # Attach and handover draws come from separate streams, each in
        # subscriber order: the serving cells, hence the errors, do not
        # depend on the chunk size (the whole week in one chunk too).
        for chunk_size in (64, 1 << 20):
            chunked = audited(chunk_size)
            assert vars(chunked._handover.stats) == vars(stats)
            assert np.array_equal(
                chunked.auditor.errors_km(), per_subscriber.auditor.errors_km()
            )

    def test_spanning_last_flow_follows_the_handover(
        self, setup, catalog, intensity_model, monkeypatch
    ):
        _, _, population, topology = setup
        generator = SessionLevelGenerator(
            intensity_model,
            population,
            topology,
            FingerprintDatabase(catalog, seed=43),
            config=WorkloadConfig(long_session_minutes=0.0),
            seed=44,
        )
        probe = CoreProbe().attach_to(generator.session_manager)
        moves = []
        move = generator._handover.move

        def spy(sessions, new_communes, wants_4g, timestamps_s):
            moves.append((sessions, new_communes, wants_4g, timestamps_s))
            return move(sessions, new_communes, wants_4g, timestamps_s)

        monkeypatch.setattr(generator._handover, "move", spy)
        generator.run_week(chunk_size=256)
        # A spanning session's last flow is stamped at the move.
        commune_at = {
            (r.imsi_hash, r.timestamp_s): r.commune_id for r in probe.drain()
        }
        refreshed = stale = 0
        for sessions, new_communes, wants_4g, timestamps_s in moves:
            due = (
                topology.routing_area_of(new_communes) != sessions.routing_area_ids
            ) | (
                topology.available_technology_codes(new_communes, wants_4g)
                != sessions.tech_codes
            )
            for i in range(len(sessions)):
                got = commune_at[
                    (int(sessions.imsi_hashes[i]), float(timestamps_s[i]))
                ]
                if due[i]:
                    assert got == topology.serving_communes[new_communes[i]]
                    refreshed += 1
                else:
                    assert got == sessions.cell_commune_ids[i]
                    assert got != new_communes[i]
                    stale += 1
        assert refreshed > 0 and stale > 0

    def test_deterministic(self, country, catalog, intensity_model):
        def run():
            topology = build_topology(country, seed=41)
            population = synthesize_population(
                country, intensity_model, 20, seed=42
            )
            fingerprints = FingerprintDatabase(catalog, seed=43)
            generator = SessionLevelGenerator(
                intensity_model, population, topology, fingerprints, seed=44
            )
            probe = CoreProbe().attach_to(generator.session_manager)
            generator.run_week(time_limit_hours=48.0)
            return [
                (r.timestamp_s, r.commune_id, r.dl_bytes)
                for r in probe.drain()
            ]

        assert run() == run()
