"""The on-disk store for shard partials.

With a store directory set, the supervisor writes every accepted shard
partial to disk exactly once, through a :class:`SpillStore`.  The file
serves two needs at once:

- **resume** — a build that crashed, or was killed, loads the valid
  files already in the directory instead of rerunning their shards;
- **bounded merge** — partials beyond a resident budget are dropped
  from memory, and only a compact :class:`SpilledShardResult` handle
  pointing at the file stays; the merge then loads one partial at a
  time, in shard-index order, so peak RSS is one partial, not all of
  them.

Each file is a crash-safe, self-verifying envelope
(:func:`write_envelope` / :func:`read_envelope`): write to a temp file,
flush + fsync, ``os.replace``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

# ----------------------------------------------------------------------
# crash-safe pickled envelopes
# ----------------------------------------------------------------------

#: Schema tag of stored shard partials, bumped on layout change.
SPILL_SCHEMA = "repro-spill/3"


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
    mismatch, digest mismatch, truncation and any byte damage that
    stops the envelope from unpickling (whatever the unpickler raises)
    return ``None`` — callers decide whether that is a graceful rerun
    (:meth:`SpillStore.load` on resume) or a hard error
    (:meth:`SpilledShardResult.load`, where the resident copy is gone).
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
    except Exception:  # damaged bytes can raise almost any error type
        return None


# ----------------------------------------------------------------------
# the shard-partial store
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
    """Compact handle for a shard partial that lives only on disk.

    Carries the scalars the builder and the execution report need
    without loading anything (``sessions_generated``,
    ``records_dropped``, …) plus the shard's observability export — only
    the aggregate tensors and subscriber sets are out of core.
    ``load()`` brings the full ``ShardResult`` back, and *raises* on a
    missing or damaged file: this build wrote the file and dropped the
    resident copy, so there is nothing to fall back to.
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
        return result


class SpillStore:
    """One build's partial directory plus its resident-memory budget.

    Every accepted partial is written once (:meth:`write`), whole —
    its observability export included, so a resumed partial gets it
    back.  ``budget_bytes`` only decides which partials stay loaded: a
    partial over budget is replaced by a :meth:`handle` on the file
    already written; ``0`` keeps none loaded.  Files are keyed to one
    run configuration, so partials of a different build are never
    merged by accident.
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

    def write(self, result) -> Path:
        """Atomically persist one shard partial; returns its path."""
        return write_envelope(
            self.path_for(result.shard_index),
            result,
            SPILL_SCHEMA,
            self.run_key,
            result.shard_index,
        )

    def load(self, shard_index: int):
        """The stored partial, or ``None`` if absent or unusable.

        Never raises on a bad file: on resume a damaged, foreign or
        old-schema file is equivalent to no file, and the shard reruns.
        """
        return read_envelope(
            self.path_for(shard_index), SPILL_SCHEMA, self.run_key, shard_index
        )

    def handle(self, result) -> SpilledShardResult:
        """The compact handle of a partial this store already holds."""
        return SpilledShardResult(
            shard_index=result.shard_index,
            path=self.path_for(result.shard_index),
            run_key=self.run_key,
            nbytes=partial_nbytes(result),
            sessions_generated=result.sessions_generated,
            flows_generated=result.flows_generated,
            records_ingested=result.records_ingested,
            records_dropped=result.records_dropped,
            obs_export=result.obs_export,
        )


__all__ = [
    "SPILL_SCHEMA",
    "SpillStore",
    "SpilledShardResult",
    "partial_nbytes",
    "read_envelope",
    "write_envelope",
]
