"""Atomic on-disk checkpointing of completed shard partials.

A sharded session-level build can take minutes at production scale; a
crash near the end should not force a from-scratch rerun.  Completed
:class:`~repro.dataset.parallel.ShardResult` partials spill to a
checkpoint directory as they arrive, and a resumed build loads them
instead of re-running the shard — preserving the seed-only determinism
contract because a shard's partial is bit-identical whether it was
just computed or round-tripped through the checkpoint.

Format (``repro-ckpt/2``): one file per shard,
``shard-<index>.ckpt``, containing a pickled envelope::

    {"schema": "repro-ckpt/2", "run_key": <str>,
     "shard_index": <int>, "sha256": <hex>, "payload": <bytes>}

``payload`` is the pickled ``ShardResult``; ``sha256`` is its digest,
verified on load.  ``run_key`` binds the file to one build
configuration (seed, shard count, panel size, …) so a resume can never
silently merge partials from a different run.  Writes are crash-safe:
serialize to a temp file in the same directory, flush + ``fsync``,
then ``os.replace`` — a reader sees either the old file or the new
one, never a torn write.

A file that is missing, unreadable, damaged, or keyed to a different
run is *not* an error: :meth:`ShardCheckpoint.load` returns ``None``
and the shard simply runs again (the supervisor counts the discard).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.dataset.merge import read_envelope, write_envelope

#: Schema tag of the checkpoint envelope, bumped on layout change.
SCHEMA = "repro-ckpt/2"

_SUFFIX = ".ckpt"


class ShardCheckpoint:
    """One build's checkpoint directory, keyed to one run configuration."""

    def __init__(self, directory: Union[str, Path], run_key: str):
        if not run_key:
            raise ValueError("run_key must be a non-empty string")
        self.directory = Path(directory)
        self.run_key = run_key
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, shard_index: int) -> Path:
        if shard_index < 0:
            raise ValueError(
                f"shard_index must be >= 0, got {shard_index}"
            )
        return self.directory / f"shard-{shard_index:05d}{_SUFFIX}"

    def store(self, shard_index: int, result) -> Path:
        """Atomically persist one shard partial; returns the final path."""
        return write_envelope(
            self.path_for(shard_index), result, SCHEMA, self.run_key, shard_index
        )

    def load(self, shard_index: int):
        """The checkpointed partial, or ``None`` if absent or unusable.

        Never raises on a bad file — a damaged checkpoint is equivalent
        to no checkpoint (the shard re-runs), which is the graceful
        path; the supervisor counts discards so they stay visible.
        """
        return read_envelope(
            self.path_for(shard_index), SCHEMA, self.run_key, shard_index
        )

    def present_indices(self) -> List[int]:
        """Shard indices with a checkpoint file on disk, sorted."""
        indices = []
        for path in sorted(self.directory.glob(f"shard-*{_SUFFIX}")):
            stem = path.name[len("shard-") : -len(_SUFFIX)]
            if stem.isdigit():
                indices.append(int(stem))
        return indices


def run_key_for(
    seed: int, n_shards: int, n_subscribers: int, n_services: int
) -> str:
    """The checkpoint run key of one session-level build configuration.

    Everything that changes shard content must be in the key; execution
    details (``n_workers``, retry policy) must not be.
    """
    return (
        f"session/seed={int(seed)}/shards={int(n_shards)}"
        f"/subscribers={int(n_subscribers)}/services={int(n_services)}"
    )


__all__ = ["SCHEMA", "ShardCheckpoint", "run_key_for"]
