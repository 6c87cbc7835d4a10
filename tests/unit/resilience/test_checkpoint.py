"""Unit tests of the shard-partial store as resume sees it.

`SpillStore.write` is the atomic per-shard checkpoint and
`SpillStore.load` is the resume read: a bad file there is equivalent to
no file, never an error, so its shard reruns.
"""

import pickle
from types import SimpleNamespace

import pytest

from repro.dataset.merge import SPILL_SCHEMA, SpillStore


def _partial(shard_index, data="payload"):
    return SimpleNamespace(shard_index=shard_index, data=data)


@pytest.fixture()
def checkpoint(tmp_path):
    return SpillStore(tmp_path / "partials", run_key="test/run")


class TestStoreLoad:
    def test_round_trip(self, checkpoint):
        payload = _partial(3, [1.5, 2.5])
        path = checkpoint.write(payload)
        assert path.exists()
        assert checkpoint.load(3) == payload

    def test_missing_returns_none(self, checkpoint):
        assert checkpoint.load(0) is None

    def test_no_temp_file_left_behind(self, checkpoint):
        checkpoint.write(_partial(0, "x"))
        leftovers = list(checkpoint.directory.glob("*.tmp"))
        assert leftovers == []

    def test_rejects_negative_index(self, checkpoint):
        with pytest.raises(ValueError):
            checkpoint.path_for(-1)

    def test_rejects_empty_run_key(self, tmp_path):
        with pytest.raises(ValueError):
            SpillStore(tmp_path, run_key="")


class TestDamageTolerance:
    """A bad partial file is equivalent to no file, never an error."""

    def test_truncated_file(self, checkpoint):
        path = checkpoint.write(_partial(1))
        path.write_bytes(path.read_bytes()[: 10])
        assert checkpoint.load(1) is None

    def test_garbage_file(self, checkpoint):
        checkpoint.path_for(2).write_bytes(b"not a pickle at all")
        assert checkpoint.load(2) is None

    def test_wrong_run_key(self, checkpoint):
        checkpoint.write(_partial(0))
        other = SpillStore(checkpoint.directory, run_key="other/run")
        assert other.load(0) is None

    def test_wrong_shard_index(self, checkpoint):
        source = checkpoint.write(_partial(0))
        source.rename(checkpoint.path_for(5))
        assert checkpoint.load(5) is None

    def test_digest_mismatch(self, checkpoint):
        path = checkpoint.write(_partial(0))
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope["payload"] = pickle.dumps(_partial(0, "tampered"))
        with open(path, "wb") as handle:
            pickle.dump(envelope, handle)
        assert checkpoint.load(0) is None

    def test_schema_mismatch(self, checkpoint):
        # A leftover file of an older schema counts as no file.
        path = checkpoint.write(_partial(0))
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        assert envelope["schema"] == SPILL_SCHEMA
        envelope["schema"] = "repro-spill/2"
        with open(path, "wb") as handle:
            pickle.dump(envelope, handle)
        assert checkpoint.load(0) is None
