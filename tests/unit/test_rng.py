"""Unit tests for deterministic RNG handling."""

import numpy as np
import pytest

from repro import _rng
from repro._rng import (
    KeyedStream,
    as_generator,
    child_keys,
    exponential_variates,
    geometric_variates,
    identity_keys,
    integer_variates,
    normal_variates,
    optional_choice,
    poisson_variates,
    root_key,
    spawn,
    spawn_many,
    zipf_weights,
)


class TestAsGenerator:
    def test_int_seed_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSpawn:
    def test_children_differ_by_label(self):
        parent_a = as_generator(7)
        parent_b = as_generator(7)
        child_x = spawn(parent_a, "x")
        child_y = spawn(parent_b, "y")
        assert not np.array_equal(child_x.random(8), child_y.random(8))

    def test_same_label_same_order_matches(self):
        a = spawn(as_generator(7), "geo")
        b = spawn(as_generator(7), "geo")
        assert np.array_equal(a.random(8), b.random(8))

    def test_spawn_many(self):
        children = spawn_many(3, ("a", "b", "c"))
        assert set(children) == {"a", "b", "c"}
        streams = {k: v.random(4).tobytes() for k, v in children.items()}
        assert len(set(streams.values())) == 3


class TestOptionalChoice:
    def test_extremes(self, rng):
        assert not optional_choice(rng, 0.0)
        assert optional_choice(rng, 1.0)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            optional_choice(rng, 1.5)


class TestZipfWeights:
    def test_normalized_and_decreasing(self):
        w = zipf_weights(10, 1.5)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)

    def test_ratio_follows_law(self):
        w = zipf_weights(4, 2.0)
        assert w[0] / w[1] == pytest.approx(4.0)

    def test_zero_exponent_uniform(self):
        w = zipf_weights(5, 0.0)
        assert np.allclose(w, 0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(5, -1.0)


N_DRAWS = 200_000


def _uniforms(label="test", counter=0, root=7, n=N_DRAWS):
    return KeyedStream(root, label).uniform(identity_keys(np.arange(n)), counter)


class TestKeyedStream:
    def test_same_key_same_uniform(self):
        keys = identity_keys([3, 1, 2])
        a = KeyedStream(7, "shard").uniform(keys, 1)
        # A key's draw does not depend on which other keys share the call.
        b = KeyedStream(7, "shard").uniform(keys[::-1], 1)[::-1]
        c = np.concatenate(
            [KeyedStream(7, "shard").uniform(keys[i : i + 1], 1) for i in range(3)]
        )
        assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_uniforms_strictly_inside_the_unit_interval(self, monkeypatch):
        u = _uniforms()
        assert u.dtype == np.float64
        assert (u > 0).all() and (u < 1).all()
        # The extreme hashes map inside too: with the mixer switched
        # off, keys can be picked to hash to 0 and to 2**64 - 1.
        monkeypatch.setattr(_rng, "_mix", lambda z: z)
        offset = int(_rng._stream_offset(7, "edge", 0))
        keys = np.array([-offset % 2**64, (-offset - 1) % 2**64], dtype=np.uint64)
        low, high = KeyedStream(7, "edge").uniform(keys).tolist()
        assert low == 2.0**-53 and high == 1 - 2.0**-53

    def test_ks_against_uniform(self):
        u = np.sort(_uniforms())
        n = len(u)
        grid = np.arange(1, n + 1) / n
        statistic = max((grid - u).max(), (u - (grid - 1.0 / n)).max())
        # Kolmogorov critical value at the 1 % level.
        assert statistic < 1.63 / np.sqrt(n)

    def test_labels_and_keys_uncorrelated(self):
        base = _uniforms()
        others = [
            _uniforms(label="other"),
            _uniforms(root=8),
            KeyedStream(7, "test").uniform(identity_keys(np.arange(N_DRAWS) + 1)),
            KeyedStream(7, "test").uniform(child_keys(identity_keys(np.arange(N_DRAWS)), 0)),
        ]
        bound = 4.0 / np.sqrt(N_DRAWS)
        for other in others:
            assert abs(np.corrcoef(base, other)[0, 1]) < bound

    def test_counters_give_distinct_draws(self):
        draws = [_uniforms(counter=c, n=1000) for c in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])
                assert abs(np.corrcoef(draws[i], draws[j])[0, 1]) < 0.15

    def test_child_keys_distinct(self):
        parents = identity_keys(np.arange(100))
        children = child_keys(np.repeat(parents, 50), np.tile(np.arange(50), 100))
        assert len(np.unique(children)) == 5000
        assert not np.isin(children, parents).any()

    def test_root_key(self):
        assert root_key(5) == 5
        assert root_key(-1) == 2**64 - 1
        assert root_key(as_generator(3)) == root_key(as_generator(3))


class TestVariates:
    def test_poisson(self):
        x = poisson_variates(_uniforms(), 6.0)
        assert x.min() >= 0
        assert x.mean() == pytest.approx(6.0, rel=0.01)
        assert x.var() == pytest.approx(6.0, rel=0.02)

    def test_geometric(self):
        x = geometric_variates(_uniforms(), 0.5)
        assert x.min() >= 1
        assert x.mean() == pytest.approx(2.0, rel=0.01)
        assert x.var() == pytest.approx(2.0, rel=0.02)
        assert (geometric_variates(_uniforms(n=10), 1.0) == 1).all()

    def test_exponential(self):
        x = exponential_variates(_uniforms(), 15.0) + 1.0
        assert x.min() > 1.0
        assert x.mean() == pytest.approx(16.0, rel=0.01)
        assert x.var() == pytest.approx(225.0, rel=0.03)

    def test_lognormal(self):
        z = normal_variates(_uniforms(counter=0), _uniforms(counter=1))
        x = np.exp(0.8 * z)
        mean = np.exp(0.8**2 / 2)
        var = (np.exp(0.8**2) - 1) * np.exp(0.8**2)
        assert z.mean() == pytest.approx(0.0, abs=0.01)
        assert z.var() == pytest.approx(1.0, rel=0.01)
        assert x.mean() == pytest.approx(mean, rel=0.01)
        assert x.var() == pytest.approx(var, rel=0.05)

    def test_integers(self):
        x = integer_variates(_uniforms(), 7)
        assert x.min() == 0 and x.max() == 6
        assert np.bincount(x) / len(x) == pytest.approx(np.full(7, 1 / 7), abs=0.005)
        assert integer_variates(np.array([1 - 2.0**-53]), 3).tolist() == [2]

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_variates(_uniforms(n=3), 0.0)
        with pytest.raises(ValueError):
            geometric_variates(_uniforms(n=3), 0.0)
