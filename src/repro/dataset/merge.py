"""The spill substrate behind bounded-memory sharded builds.

When the resident set of accepted shard partials exceeds a budget, the
supervisor spills them to disk through a :class:`SpillStore` and keeps
only a compact :class:`SpilledShardResult` handle; the merge then loads
one partial at a time, in shard-index order, so peak RSS is one partial
— not all of them.  The on-disk format is the same atomic pickled
envelope the resilience checkpoints use (write to temp, flush + fsync,
``os.replace``), generalized here as :func:`write_envelope` /
:func:`read_envelope` so both layers share one crash-safe codec.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

# ----------------------------------------------------------------------
# crash-safe pickled envelopes (shared by spills and checkpoints)
# ----------------------------------------------------------------------

#: Schema tag of spilled shard partials, bumped on layout change.
SPILL_SCHEMA = "repro-spill/1"


def write_envelope(
    path: Union[str, Path],
    obj: Any,
    schema: str,
    run_key: str,
    shard_index: int,
) -> Path:
    """Atomically persist ``obj`` in a self-verifying envelope.

    The envelope carries the schema tag, the run key binding the file
    to one build configuration, the shard index, and a sha256 of the
    pickled payload.  The write is crash-safe: serialize to a temp file
    in the target directory, flush + ``fsync``, then ``os.replace`` — a
    reader sees the old file or the new one, never a torn write.
    """
    path = Path(path)
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "schema": schema,
        "run_key": run_key,
        "shard_index": int(shard_index),
        "sha256": hashlib.sha256(payload).hexdigest(),
        "payload": payload,
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def read_envelope(
    path: Union[str, Path], schema: str, run_key: str, shard_index: int
) -> Optional[Any]:
    """The envelope's payload object, or ``None`` if absent or unusable.

    Never raises on a bad file: wrong schema, foreign run key, index
    mismatch, digest mismatch, truncation and unreadable pickles all
    return ``None`` — callers decide whether that is a graceful rerun
    (checkpoints) or a hard error (spills, where the resident copy is
    gone).
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        if not isinstance(envelope, dict):
            return None
        if envelope.get("schema") != schema:
            return None
        if envelope.get("run_key") != run_key:
            return None
        if envelope.get("shard_index") != int(shard_index):
            return None
        payload = envelope.get("payload")
        if not isinstance(payload, bytes):
            return None
        if hashlib.sha256(payload).hexdigest() != envelope.get("sha256"):
            return None
        return pickle.loads(payload)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return None


# ----------------------------------------------------------------------
# shard-partial spilling
# ----------------------------------------------------------------------

def partial_nbytes(result) -> int:
    """Approximate resident size of one shard partial, in bytes.

    Counts the aggregation tensors exactly and the per-commune
    subscriber-hash sets at a flat per-entry estimate; the point is a
    stable, deterministic accounting for the spill budget, not a heap
    profile.
    """
    n = (
        result.dl.nbytes
        + result.ul.nbytes
        + result.national_dl.nbytes
        + result.national_ul.nbytes
    )
    n += sum(64 * len(seen) for seen in result.users_seen)
    return int(n)


@dataclass
class SpilledShardResult:
    """Compact handle for a shard partial that lives on disk.

    Carries the scalars the builder and the execution report need
    without loading anything (``sessions_generated``,
    ``records_dropped``, …) plus the shard's observability export — only
    the aggregate tensors and subscriber sets are out of core.
    ``load()`` brings the full ``ShardResult`` back, and *raises* on a
    missing or damaged file: unlike a checkpoint, a spill's resident
    copy was dropped, so there is nothing to gracefully fall back to.
    """

    shard_index: int
    path: Path
    run_key: str
    nbytes: int
    sessions_generated: int
    flows_generated: int
    records_ingested: int
    records_dropped: int
    obs_export: Optional[dict] = field(default=None, repr=False)

    def load(self):
        """The full shard partial, read back and verified from disk."""
        result = read_envelope(
            self.path, SPILL_SCHEMA, self.run_key, self.shard_index
        )
        if result is None:
            raise RuntimeError(
                f"spilled shard partial {self.path} is missing or damaged "
                f"(run_key={self.run_key!r}, shard={self.shard_index})"
            )
        result.obs_export = self.obs_export
        return result


class SpillStore:
    """One build's spill directory plus its resident-memory budget.

    ``budget_bytes`` is the total size of shard partials the supervisor
    may keep resident before further accepted partials spill; ``0``
    spills every partial.  The store is keyed to one run configuration
    exactly like the checkpoint directory, so partials from a different
    build can never be merged by accident.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        run_key: str,
        budget_bytes: int = 0,
    ):
        if not run_key:
            raise ValueError("run_key must be a non-empty string")
        if budget_bytes < 0:
            raise ValueError(f"budget_bytes must be >= 0, got {budget_bytes}")
        self.directory = Path(directory)
        self.run_key = run_key
        self.budget_bytes = int(budget_bytes)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, shard_index: int) -> Path:
        if shard_index < 0:
            raise ValueError(f"shard_index must be >= 0, got {shard_index}")
        return self.directory / f"partial-{shard_index:05d}.spill"

    def spill(self, result) -> SpilledShardResult:
        """Write one shard partial to disk; returns its compact handle.

        The observability export stays resident on the handle (it is
        small and the builder absorbs it before merging); everything
        else round-trips through the envelope bit-identically, which is
        what keeps spilled and unspilled builds byte-identical.
        """
        export = result.obs_export
        result.obs_export = None
        try:
            path = write_envelope(
                self.path_for(result.shard_index),
                result,
                SPILL_SCHEMA,
                self.run_key,
                result.shard_index,
            )
        finally:
            result.obs_export = export
        return SpilledShardResult(
            shard_index=result.shard_index,
            path=path,
            run_key=self.run_key,
            nbytes=partial_nbytes(result),
            sessions_generated=result.sessions_generated,
            flows_generated=result.flows_generated,
            records_ingested=result.records_ingested,
            records_dropped=result.records_dropped,
            obs_export=export,
        )


__all__ = [
    "SPILL_SCHEMA",
    "SpillStore",
    "SpilledShardResult",
    "partial_nbytes",
    "read_envelope",
    "write_envelope",
]
