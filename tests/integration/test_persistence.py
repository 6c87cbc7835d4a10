"""Persistence across the pipeline: datasets survive disk."""

import numpy as np

from repro.dataset.store import MobileTrafficDataset


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
