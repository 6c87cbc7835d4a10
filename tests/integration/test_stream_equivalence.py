"""Byte-identity of streamed builds across the execution matrix.

The streaming contract (see ``docs/architecture.md``, "Memory model and
streaming"): for fixed ``(seed, n_shards)`` the saved ``dataset.npz``
is the same bytes for any chunk size, any worker count, and with or
without spilling shard partials to disk.  This test pins the matrix
chunk {64, 4096} x spill {on, off} x workers {1, 4} against the
default chunk size.

Archive members are compared decompressed (``zipfile`` per-member
reads): ``np.savez_compressed`` stamps zip entries with the current
time, so whole-file equality would be flaky even for identical arrays.
"""

import zipfile

import pytest

from repro.dataset.builder import build_session_level_dataset
from repro.geo.country import CountryConfig

SEED = 11
N_SHARDS = 4
N_SUBSCRIBERS = 60
_COUNTRY = CountryConfig(n_communes=36)

# (label, chunk_size, spill, n_workers) — spill=True forces every
# partial to disk (budget 0).
MATRIX = [
    ("chunk64-nospill-w1", 64, False, 1),
    ("chunk64-nospill-w4", 64, False, 4),
    ("chunk64-spill-w1", 64, True, 1),
    ("chunk64-spill-w4", 64, True, 4),
    ("chunk4096-nospill-w1", 4096, False, 1),
    ("chunk4096-nospill-w4", 4096, False, 4),
    ("chunk4096-spill-w1", 4096, True, 1),
    ("chunk4096-spill-w4", 4096, True, 4),
]


def _members(path):
    """Decompressed archive payload, member name -> bytes."""
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def _build(tmp_path, label, chunk_size, spill, n_workers):
    """One build; ``chunk_size=None`` keeps the builder's default."""
    kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
    if spill:
        kwargs["spill_dir"] = tmp_path / f"spill-{label}"
        kwargs["spill_budget_bytes"] = 0
    artifacts = build_session_level_dataset(
        n_subscribers=N_SUBSCRIBERS,
        country_config=_COUNTRY,
        seed=SEED,
        n_shards=N_SHARDS,
        n_workers=n_workers,
        **kwargs,
    )
    return artifacts.dataset.save(tmp_path / f"{label}.npz")


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The plain build: default chunk size, no spill, one worker."""
    tmp_path = tmp_path_factory.mktemp("reference")
    return _members(
        _build(tmp_path, "reference", None, False, 1)
    )


@pytest.mark.parametrize(
    "label,chunk_size,spill,n_workers",
    MATRIX,
    ids=[case[0] for case in MATRIX],
)
def test_streamed_build_is_byte_identical(
    tmp_path, reference, label, chunk_size, spill, n_workers
):
    members = _members(_build(tmp_path, label, chunk_size, spill, n_workers))
    assert members.keys() == reference.keys()
    for name in reference:
        assert members[name] == reference[name], name
