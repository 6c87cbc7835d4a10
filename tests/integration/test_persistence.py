"""Persistence across the pipeline: traces and datasets survive disk."""

import numpy as np

from repro.dataset.aggregation import CommuneAggregator
from repro.dataset.store import MobileTrafficDataset
from repro.dpi.classifier import DpiEngine
from repro.dpi.fingerprints import FingerprintDatabase
from repro.network.probes import CoreProbe, ProbeRecordBatch
from repro.traffic.generator import SessionLevelGenerator
from repro.traffic.subscribers import SubscriberPopulation
from repro.traffic.trace import TraceReader, TraceWriter


class TestTraceThroughAggregation:
    def test_aggregate_from_disk_matches_in_memory(
        self, session_artifacts, tmp_path
    ):
        """Writing probe records to disk and re-aggregating them yields
        the same dataset as the in-memory pipeline."""
        country = session_artifacts.country
        catalog = session_artifacts.catalog

        # Re-run one subscriber's week through a fresh probe capture.
        subscriber = session_artifacts.extras["population"].subscribers[0]
        generator = SessionLevelGenerator(
            session_artifacts.model,
            SubscriberPopulation([subscriber], country),
            session_artifacts.extras["topology"],
            FingerprintDatabase(catalog, seed=5),
            seed=6,
        )
        probe = CoreProbe().attach_to(generator.session_manager)
        generator.run_week()
        records = probe.drain()
        if not records:
            return  # subscriber adopted nothing; nothing to verify

        path = tmp_path / "trace.csv.gz"
        with TraceWriter(path) as writer:
            writer.write_all(records)

        def aggregate(stream):
            engine = DpiEngine(FingerprintDatabase(catalog, seed=0))
            agg = CommuneAggregator(country, catalog, engine)
            agg.ingest_columnar(ProbeRecordBatch.from_records(list(stream)))
            return agg.finalize()

        from_memory = aggregate(records)
        from_disk = aggregate(TraceReader(path))
        assert np.allclose(from_memory.dl, from_disk.dl, rtol=1e-5)
        assert np.allclose(from_memory.users, from_disk.users)


class TestDatasetRoundtrip:
    def test_session_dataset_roundtrip(self, session_artifacts, tmp_path):
        dataset = session_artifacts.dataset
        path = tmp_path / "session.npz"
        dataset.save(path)
        loaded = MobileTrafficDataset.load(path)
        assert np.allclose(loaded.dl, dataset.dl)
        assert loaded.all_service_names == dataset.all_service_names
        # Analyses run identically on the loaded dataset.
        a = dataset.per_subscriber_volumes("Facebook", "dl")
        b = loaded.per_subscriber_volumes("Facebook", "dl")
        assert np.allclose(a, b)
