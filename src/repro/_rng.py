"""Deterministic random-number handling.

**Streams.**  Every stochastic component accepts either a seed or a
:class:`numpy.random.Generator`.  :func:`as_generator` normalizes the
two, and :func:`spawn` derives independent child generators so that
subsystems (geography, population, workload, ...) draw from
decorrelated streams even when built from a single top-level seed.

**Keyed draws.**  The session chain draws from no stream: each uniform
is a pure function of ``(root key, label, key, counter)`` (a
:class:`KeyedStream`), hashed by SplitMix64's output function over
uint64 arrays in the manner of counter-based generators (Salmon et al.,
SC'11).  Keys name what a draw is for (:func:`identity_keys`,
:func:`child_keys`), so a value never depends on which shard, block or
batch drew it.  Variates are inverse CDFs of keyed uniforms.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache
from typing import Dict, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a fresh OS-seeded generator; an ``int`` yields a
    deterministic generator; an existing generator is passed through.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, label: str) -> np.random.Generator:
    """Derive an independent child generator keyed by ``label``.

    The label is folded into the seed material so the child stream is
    stable under reordering of other ``spawn`` calls: spawning
    ``("geo", "traffic")`` or ``("traffic", "geo")`` yields the same pair
    of streams for the same parent state only if called in the same order,
    so callers should spawn all children up front in a fixed order.
    """
    label_digest = np.frombuffer(label.encode("utf-8"), dtype=np.uint8)
    entropy = rng.integers(0, 2**63 - 1)
    seed_seq = np.random.SeedSequence([int(entropy), *label_digest.tolist()])
    return np.random.default_rng(seed_seq)


#: SplitMix64's increment: the 64-bit golden ratio.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function over a fresh uint64 array, in place."""
    z ^= z >> np.uint64(30)
    z *= _MUL1
    z ^= z >> np.uint64(27)
    z *= _MUL2
    z ^= z >> np.uint64(31)
    return z


def root_key(seed: SeedLike) -> int:
    """The 64-bit root key of keyed draws for ``seed``.

    An int seed is its own root key; a generator gives one 64-bit draw
    (``None``: a fresh OS-seeded one).
    """
    if isinstance(seed, (int, np.integer)):
        return int(seed) & _MASK
    return int(as_generator(seed).integers(0, 2**64, dtype=np.uint64))


def identity_keys(ids) -> np.ndarray:
    """Keys of integer identities (e.g. subscribers' imsi hashes)."""
    return _mix(np.array(ids, dtype=np.int64).astype(np.uint64))


def child_keys(parents: np.ndarray, ordinals) -> np.ndarray:
    """Keys of the ``ordinals``-th children of keyed ``parents``.

    A subscriber's ``i``-th session, or a session's ``j``-th flow:
    ``child_keys(parent, i)`` is SplitMix64's ``i + 1``-th output from
    ``parent``.
    """
    steps = np.asarray(ordinals, dtype=np.int64).astype(np.uint64) + np.uint64(1)
    return _mix(np.asarray(parents, dtype=np.uint64) + steps * _GAMMA)


@lru_cache(maxsize=4096)
def _stream_offset(root: int, label: str, counter: int) -> np.uint64:
    digest = hashlib.blake2b(
        f"{label}#{counter}".encode("utf-8"),
        digest_size=8,
        key=root.to_bytes(8, "little"),
    ).digest()
    return np.uint64(int.from_bytes(digest, "little"))


class KeyedStream:
    """The keyed uniforms of one labelled stream under a root key."""

    __slots__ = ("root", "label")

    def __init__(self, root: int, label: str):
        self.root = int(root) & _MASK
        self.label = label

    def uniform(self, keys: np.ndarray, counter: int = 0) -> np.ndarray:
        """One uniform in the open interval (0, 1) per key.

        The top 52 bits of the hash, centred in their bucket:
        ``((h >> 12) + 0.5) * 2**-52`` is exact in float64, so the
        largest value is ``1 - 2**-53`` and the smallest ``2**-53``.
        """
        offset = _stream_offset(self.root, self.label, int(counter))
        h = _mix(np.asarray(keys, dtype=np.uint64) + offset)
        h >>= np.uint64(12)
        return (h.astype(np.float64) + 0.5) * 2.0**-52


@lru_cache(maxsize=64)
def _poisson_cdf(mean: float) -> np.ndarray:
    """CDF of Poisson(``mean``) up to where its tail is negligible.

    Built with scalar ``math`` calls, in log space so large means do
    not underflow, and scaled so its last entry is exactly 1.
    """
    terms = int(mean + 16.0 * math.sqrt(mean) + 32.0)
    log_mean = math.log(mean)
    cdf, acc = [], 0.0
    for k in range(terms):
        acc += math.exp(k * log_mean - mean - math.lgamma(k + 1.0))
        cdf.append(acc)
    table = np.asarray(cdf) / acc
    table.flags.writeable = False
    return table


def poisson_variates(u: np.ndarray, mean: float) -> np.ndarray:
    """Poisson(``mean``) variates of uniforms, by inverse-CDF table."""
    if mean <= 0:
        raise ValueError(f"mean must be > 0, got {mean}")
    cdf = _poisson_cdf(float(mean))
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def geometric_variates(u: np.ndarray, p: float) -> np.ndarray:
    """Geometric(``p``) variates on {1, 2, ...} of uniforms."""
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if p >= 1:
        return np.ones(np.shape(u), dtype=np.int64)
    return 1 + np.floor(np.log(u) / math.log1p(-p)).astype(np.int64)


def exponential_variates(u: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Exponential variates of mean ``scale`` of uniforms."""
    return -scale * np.log(u)


def normal_variates(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normal variates of two uniforms each (Box-Muller)."""
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def integer_variates(u: np.ndarray, n) -> np.ndarray:
    """Uniform integers in ``[0, n)`` of uniforms (``n`` may be an array)."""
    n = np.asarray(n, dtype=np.int64)
    return np.minimum((u * n).astype(np.int64), n - 1)


def spawn_many(
    seed: SeedLike, labels: Sequence[str]
) -> Dict[str, np.random.Generator]:
    """Spawn one child generator per label, in the given fixed order."""
    parent = as_generator(seed)
    return {label: spawn(parent, label) for label in labels}


def seed_material_word(material: Sequence[int]) -> int:
    """First 32-bit word of ``SeedSequence(material)`` — a stable hash.

    Used where a pure deterministic function of integer inputs is
    needed without any generator state (e.g. the resilience layer's
    backoff jitter): same material, same word, on every platform.
    """
    seq = np.random.SeedSequence([int(m) for m in material])
    return int(seq.generate_state(1)[0])


def optional_choice(
    rng: np.random.Generator, probability: float
) -> bool:
    """Bernoulli draw with validation, used by several generators."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")
    return bool(rng.random() < probability)


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Return normalized Zipf weights ``rank**-exponent`` for ranks 1..n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()


__all__ = [
    "SeedLike",
    "KeyedStream",
    "as_generator",
    "child_keys",
    "exponential_variates",
    "geometric_variates",
    "identity_keys",
    "integer_variates",
    "normal_variates",
    "poisson_variates",
    "root_key",
    "spawn",
    "spawn_many",
    "optional_choice",
    "seed_material_word",
    "zipf_weights",
]
