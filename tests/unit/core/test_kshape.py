"""Unit tests for the k-Shape implementation."""

import numpy as np
import pytest

from repro._rng import as_generator
from repro.core.kshape import (
    _align,
    _extract_shape,
    _fft_size,
    _ncc,
    kshape,
    kshape_best,
    sbd,
    sbd_matrix,
    z_normalize,
)


def two_families(n=120, per_family=5, seed=0):
    """Sinusoids vs square waves: obviously clusterable shapes."""
    rng = as_generator(seed)
    t = np.linspace(0, 4 * np.pi, n)
    sines = [np.sin(t) + rng.normal(0, 0.05, n) for _ in range(per_family)]
    squares = [np.sign(np.sin(2 * t)) + rng.normal(0, 0.05, n) for _ in range(per_family)]
    return np.vstack(sines + squares)


# Scalar reference for the batched k-Shape steps: one FFT pair per
# member alignment and one batched transform per centroid distance.


def _reference_ncc(x, y):
    """NCC_c of one pair at every shift -(n-1)..n-1."""
    n = len(x)
    norm = np.linalg.norm(x) * np.linalg.norm(y)
    if norm == 0:
        return np.zeros(2 * n - 1)
    size = 1 << (2 * n - 1).bit_length()
    cc = np.fft.irfft(np.fft.rfft(x, size) * np.conj(np.fft.rfft(y, size)), size)
    return np.concatenate((cc[-(n - 1):], cc[:n])) / norm


def _reference_align(centroid, member):
    """``member`` shifted to its best alignment with ``centroid``."""
    shift = int(np.argmax(_reference_ncc(centroid, member))) - (len(member) - 1)
    aligned = np.zeros_like(member)
    if shift >= 0:
        aligned[shift:] = member[: len(member) - shift]
    else:
        aligned[:shift] = member[-shift:]
    return aligned


def _reference_distances(data, centroid):
    """SBD from ``centroid`` to every row of ``data``."""
    m, n = data.shape
    size = 1 << (2 * n - 1).bit_length()
    cc = np.fft.irfft(
        np.fft.rfft(centroid, size)[None, :] * np.conj(np.fft.rfft(data, size, axis=1)),
        size,
        axis=1,
    )
    best = np.concatenate((cc[:, -(n - 1):], cc[:, :n]), axis=1).max(axis=1)
    norms = np.linalg.norm(data, axis=1) * np.linalg.norm(centroid)
    out = np.ones(m)
    positive = norms > 0
    out[positive] = 1.0 - best[positive] / norms[positive]
    return out


def reference_kshape(series, k, max_iterations=100, seed=None):
    """k-Shape with per-member alignment and per-centroid distances."""
    rng = as_generator(seed)
    data = z_normalize(series)
    m, n = data.shape
    labels = rng.integers(0, k, size=m)
    labels[rng.permutation(m)[:k]] = np.arange(k)
    centroids = np.zeros((k, n))
    for iteration in range(1, max_iterations + 1):
        for c in range(k):
            members = data[labels == c]
            if np.any(centroids[c]):
                members = np.array(
                    [_reference_align(centroids[c], x) for x in members]
                ).reshape(members.shape)
            centroids[c] = _extract_shape(z_normalize(members), centroids[c])
        distances = np.stack(
            [_reference_distances(data, centroids[c]) for c in range(k)], axis=1
        )
        new_labels = np.argmin(distances, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                fit = distances[np.arange(m), new_labels]
                spare = np.bincount(new_labels, minlength=k)[new_labels] > 1
                worst = int(np.argmax(np.where(spare, fit, -np.inf)))
                new_labels[worst] = c
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        if converged:
            break
    inertia = sum(float(distances[labels == c, c].sum()) for c in range(k))
    return labels, centroids, iteration, inertia


def _phase_shifted_sines(m=10, n=64, seed=4):
    rng = as_generator(seed)
    t = np.linspace(0, 4 * np.pi, n)
    freqs = rng.choice([1.0, 2.0], size=m)
    phases = rng.uniform(0, 2 * np.pi, size=m)
    return np.sin(freqs[:, None] * t + phases[:, None]) + rng.normal(0, 0.1, (m, n))


def _with_constant_row():
    data = two_families(n=60, per_family=3, seed=5)
    data[2] = 5.0  # z-normalizes to zeros: a zero-norm row
    return data


REFERENCE_CASES = [
    ("two-families", two_families, 2),
    ("two-families", two_families, 3),
    ("noise k=m", lambda: as_generator(6).normal(size=(7, 40)), 7),
    ("noise", lambda: as_generator(6).normal(size=(7, 40)), 3),
    ("phase-shifted", _phase_shifted_sines, 4),
    ("constant row", _with_constant_row, 3),
]


class TestZNormalize:
    def test_zero_mean_unit_std(self):
        out = z_normalize(np.array([1.0, 2.0, 3.0, 4.0]))
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std() == pytest.approx(1.0)

    def test_constant_maps_to_zero(self):
        assert np.all(z_normalize(np.full(10, 7.0)) == 0)

    def test_batched(self):
        out = z_normalize(np.arange(20.0).reshape(2, 10))
        assert out.shape == (2, 10)
        assert np.allclose(out.mean(axis=1), 0.0)


class TestSbd:
    def test_identical_series_zero_distance(self):
        x = z_normalize(np.sin(np.linspace(0, 10, 64)))
        dist, aligned = sbd(x, x)
        assert dist == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(aligned, x)

    def test_shift_invariance(self):
        x = z_normalize(np.sin(np.linspace(0, 10, 128)))
        shifted = np.roll(x, 9)
        dist, _ = sbd(x, shifted)
        assert dist < 0.05

    def test_distance_bounds(self, rng):
        for _ in range(10):
            a = z_normalize(rng.normal(size=50))
            b = z_normalize(rng.normal(size=50))
            dist, _ = sbd(a, b)
            assert 0.0 <= dist <= 2.0

    def test_distance_symmetric(self, rng):
        a = z_normalize(rng.normal(size=40))
        b = z_normalize(rng.normal(size=40))
        assert sbd(a, b)[0] == pytest.approx(sbd(b, a)[0], abs=1e-9)

    def test_alignment_improves_match(self):
        x = z_normalize(np.sin(np.linspace(0, 10, 128)))
        shifted = np.roll(x, 15)
        _, aligned = sbd(x, shifted)
        # Alignment restores most of the correlation on the overlap.
        assert np.corrcoef(x, aligned)[0, 1] > 0.8

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sbd(np.zeros(5), np.zeros(6))

    def test_batch_matches_pairwise(self, rng):
        data = z_normalize(rng.normal(size=(6, 80)))
        data[4] = 0.0  # a zero-norm row sits at distance 1 from everything
        centroids = z_normalize(rng.normal(size=(3, 80)))
        size = _fft_size(80)
        ncc = _ncc(
            np.fft.rfft(centroids, size, axis=1)[:, None],
            np.conj(np.fft.rfft(data, size, axis=1)),
            np.linalg.norm(centroids, axis=1)[:, None] * np.linalg.norm(data, axis=1),
            80,
        )
        assert ncc.shape == (3, 6, 159)
        for c in range(3):
            aligned = _align(ncc[c], data)
            for i in range(6):
                single, single_aligned = sbd(centroids[c], data[i])
                assert 1.0 - ncc[c, i].max() == pytest.approx(single, abs=1e-9)
                assert np.array_equal(aligned[i], single_aligned)
            assert 1.0 - ncc[c, 4].max() == 1.0


class TestSbdMatrix:
    def test_properties(self):
        data = two_families()
        matrix = sbd_matrix(data)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)
        assert np.all(matrix >= -1e-12)

    def test_within_family_closer(self):
        data = two_families()
        matrix = sbd_matrix(data)
        within = matrix[0, 1]
        across = matrix[0, 5]
        assert within < across


class TestKShape:
    def test_separates_two_families(self):
        data = two_families()
        result = kshape(data, 2, seed=3)
        labels = result.labels
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_k_one(self):
        data = two_families()
        result = kshape(data, 1, seed=0)
        assert set(result.labels) == {0}

    def test_no_empty_clusters(self):
        data = two_families(per_family=4)
        for seed in range(3):
            result = kshape(data, 5, seed=seed)
            assert set(result.labels) == set(range(5))

    @pytest.mark.parametrize("seed", range(40))
    def test_no_empty_cluster_when_several_empty_at_once(self, seed):
        # Two tight families split six ways: several clusters can empty
        # in one assignment step, and a worst-fit series may be the only
        # member of its own cluster.
        rng = as_generator(seed)
        base = rng.normal(size=(2, 56))
        data = base[rng.integers(0, 2, 15)] + 0.05 * rng.normal(size=(15, 56))
        result = kshape(data, 6, seed=seed)
        assert np.all(result.cluster_sizes() > 0)

    def test_inertia_decreases_with_k(self):
        data = two_families()
        inertia1 = kshape(data, 1, seed=0).inertia
        inertia2 = kshape(data, 2, seed=0).inertia
        assert inertia2 <= inertia1 + 1e-9

    def test_centroids_z_normalized(self):
        result = kshape(two_families(), 2, seed=1)
        for centroid in result.centroids:
            assert centroid.mean() == pytest.approx(0.0, abs=1e-8)

    def test_cluster_sizes(self):
        result = kshape(two_families(), 2, seed=1)
        assert result.cluster_sizes().sum() == 10

    def test_validation(self):
        data = two_families()
        with pytest.raises(ValueError):
            kshape(data, 0)
        with pytest.raises(ValueError):
            kshape(data, 11)
        with pytest.raises(ValueError):
            kshape(np.zeros(10), 2)
        with pytest.raises(ValueError):
            kshape(data, 2, max_iterations=0)


class TestKShapeMatchesReference:
    @pytest.mark.parametrize("name,make,k", REFERENCE_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_reference(self, name, make, k, seed):
        data = make()
        labels, centroids, iterations, inertia = reference_kshape(data, k, seed=seed)
        result = kshape(data, k, seed=seed)
        assert np.array_equal(result.labels, labels)
        assert result.iterations == iterations
        assert np.allclose(result.centroids, centroids, rtol=0, atol=1e-9)
        assert result.inertia == pytest.approx(inertia, rel=1e-12, abs=1e-300)


class TestKShapeBest:
    def test_no_worse_than_single_run(self):
        data = two_families()
        single = kshape(data, 2, seed=3)
        best = kshape_best(data, 2, n_restarts=4, seed=3)
        assert best.inertia <= single.inertia + 1e-9

    def test_still_separates(self):
        data = two_families()
        best = kshape_best(data, 2, n_restarts=3, seed=1)
        assert best.labels[0] != best.labels[5]

    def test_validation(self):
        with pytest.raises(ValueError):
            kshape_best(two_families(), 2, n_restarts=0)
