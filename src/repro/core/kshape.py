"""k-Shape time-series clustering, implemented from scratch.

The paper clusters the 20 nationwide service time series with k-Shape
(Paparrizos & Gravano, SIGMOD 2015), "the current state-of-the-art
unsupervised technique for time series clustering".  This module is a
faithful reimplementation:

- the **shape-based distance** (SBD) between two z-normalized series is
  ``1 - max_w NCC_c(x, y, w)``, the normalized cross-correlation
  maximized over all alignments, computed in O(n log n) via FFT from
  spectra: :func:`kshape` transforms its rows once per call, and one
  batched inverse transform gives the distances to all k centroids (or
  every series' alignment to its centroid); :func:`sbd` is one pair;
- **shape extraction** finds each cluster's centroid as the series
  maximizing the summed squared cross-correlation to the members — the
  dominant eigenvector of ``Q S Q`` where ``S`` is the scatter of the
  aligned members and ``Q`` the centering matrix (Rayleigh quotient
  maximization);
- the usual two-phase iteration (assignment / refinement) with empty
  clusters reseeded from the worst-fit series of clusters that can
  spare one, so no cluster ends empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro._rng import SeedLike, as_generator


def z_normalize(series: np.ndarray) -> np.ndarray:
    """Z-normalize along the last axis (constant series map to zeros)."""
    series = np.asarray(series, dtype=float)
    mean = series.mean(axis=-1, keepdims=True)
    std = series.std(axis=-1, keepdims=True)
    out = np.zeros_like(series)
    np.divide(series - mean, std, out=out, where=std > 0)
    return out


def _fft_size(n: int) -> int:
    """Transform length that holds a linear cross-correlation of length n."""
    return 1 << (2 * n - 1).bit_length()


def _ncc(
    x_fft: np.ndarray, y_fft_conj: np.ndarray, norms: np.ndarray, n: int
) -> np.ndarray:
    """NCC_c at every shift ``w`` in ``[-(n-1), n-1]`` (last axis), in [-1, 1].

    Takes x's ``rfft`` and y's conjugate ``rfft`` at ``_fft_size(n)``,
    broadcast over leading axes, and ``||x|| * ||y||`` per pair; a pair
    with a zero norm correlates as zeros.
    """
    size = _fft_size(n)
    cc = np.fft.irfft(x_fft * y_fft_conj, size, axis=-1)
    # Shifts -(n-1)..-1 live at the tail of the circular correlation.
    cc = np.concatenate((cc[..., size - (n - 1):], cc[..., :n]), axis=-1)
    norms = np.asarray(norms)[..., None]
    out = np.zeros_like(cc)
    np.divide(cc, norms, out=out, where=norms > 0)
    return out


def _reference_norms(rows: np.ndarray) -> np.ndarray:
    """Norms of the reference rows of ``_ncc`` (centroids, or the rows
    distances are measured from), each a 1-D ``np.linalg.norm``.

    That is a BLAS dot, which can differ in the last place from the
    axis-1 norm the compared rows take; the fidelity baseline pins SBD
    distances to the last bit.
    """
    return np.array([np.linalg.norm(row) for row in rows])


def _align(ncc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Shift row ``i`` by ``argmax(ncc[i]) - (n - 1)`` places, zero-padded."""
    n = rows.shape[1]
    shifts = np.argmax(ncc, axis=-1) - (n - 1)
    padded = np.pad(rows, ((0, 0), (n, n)))
    index = (n - shifts)[:, None] + np.arange(n)
    return np.take_along_axis(padded, index, axis=1)


def sbd(x: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
    """Shape-based distance between two series.

    Returns ``(distance, y_aligned)`` where ``distance = 1 - max NCC_c``
    (in [0, 2]) and ``y_aligned`` is ``y`` shifted to the maximizing
    alignment (zero-padded), as k-Shape's refinement step requires.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"series shapes differ: {x.shape} vs {y.shape}")
    n = len(x)
    spectra = np.fft.rfft(np.stack((x, y)), _fft_size(n))
    norms = np.linalg.norm(x) * np.linalg.norm(y)
    ncc = _ncc(spectra[0], np.conj(spectra[1]), norms, n)
    return 1.0 - float(ncc.max()), _align(ncc[None], y[None])[0]


def sbd_matrix(series: np.ndarray) -> np.ndarray:
    """Pairwise SBD distance matrix for an ``(m, n)`` series stack."""
    series = z_normalize(series)
    n = series.shape[1]
    spectra = np.fft.rfft(series, _fft_size(n), axis=1)
    norms = _reference_norms(series)[:, None] * np.linalg.norm(series, axis=1)
    ncc = _ncc(spectra[:, None], np.conj(spectra), norms, n)
    upper = np.triu(1.0 - ncc.max(axis=-1), 1)
    return upper + upper.T


def _extract_shape(
    aligned: np.ndarray, centroid: np.ndarray
) -> np.ndarray:
    """Refine one cluster's centroid from its members, each already
    shifted to its best alignment with ``centroid`` and z-normalized."""
    if aligned.shape[0] == 0:
        return centroid
    n = aligned.shape[1]

    # The new shape maximizes the Rayleigh quotient of M = Q Sᵀ S Q
    # (Q = centering matrix): its dominant eigenvector.  Power iteration
    # with the matvec factored through the (m, n) member matrix costs
    # O(m·n) per step instead of the O(n³) of a full eigendecomposition,
    # and warm-starts from the current centroid.
    def matvec(v: np.ndarray) -> np.ndarray:
        centred = v - v.mean()
        projected = aligned.T @ (aligned @ centred)
        return projected - projected.mean()

    shape = centroid.copy() if np.any(centroid) else aligned[0].copy()
    shape = shape - shape.mean()
    norm = np.linalg.norm(shape)
    if norm == 0:
        shape = np.ones(n) / np.sqrt(n)
    else:
        shape /= norm
    for _ in range(100):
        nxt = matvec(shape)
        norm = np.linalg.norm(nxt)
        if norm == 0:
            break
        nxt /= norm
        if np.abs(nxt @ shape) > 1.0 - 1e-10:
            shape = nxt
            break
        shape = nxt

    # The eigenvector's sign is arbitrary; pick the orientation closer to
    # the cluster members.
    dist_pos = float(np.linalg.norm(aligned[0] - shape))
    dist_neg = float(np.linalg.norm(aligned[0] + shape))
    if dist_neg < dist_pos:
        shape = -shape
    return z_normalize(shape)


@dataclass
class KShapeResult:
    """Outcome of one k-Shape run."""

    labels: np.ndarray  # (m,) cluster index per series
    centroids: np.ndarray  # (k, n) z-normalized shapes
    iterations: int
    inertia: float  # sum of SBD distances to assigned centroids

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


def kshape(
    series: np.ndarray,
    k: int,
    max_iterations: int = 100,
    seed: SeedLike = None,
) -> KShapeResult:
    """Cluster ``(m, n)`` time series into ``k`` shape groups."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 2:
        raise ValueError(f"expected an (m, n) array, got shape {series.shape}")
    m, n = series.shape
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    rng = as_generator(seed)
    data = z_normalize(series)
    # The rows never change: their spectra and norms serve every step.
    size = _fft_size(n)
    data_fft_conj = np.conj(np.fft.rfft(data, size, axis=1))
    data_norms = np.linalg.norm(data, axis=1)

    labels = rng.integers(0, k, size=m)
    # Guarantee that every cluster starts non-empty.
    labels[rng.permutation(m)[:k]] = np.arange(k)
    centroids = np.zeros((k, n))
    centroid_fft = np.zeros((k, data_fft_conj.shape[1]), dtype=complex)
    centroid_norms = np.zeros(k)

    for iteration in range(1, max_iterations + 1):
        # Refinement: align every series to its cluster's current shape
        # (members of a cluster without one yet stay unshifted), then
        # re-extract each cluster's shape.
        norms = centroid_norms[labels] * data_norms
        ncc = _ncc(centroid_fft[labels], data_fft_conj, norms, n)
        shaped = np.any(centroids, axis=1)[labels, None]
        aligned = z_normalize(np.where(shaped, _align(ncc, data), data))
        for c in range(k):
            centroids[c] = _extract_shape(aligned[labels == c], centroids[c])

        # Assignment: nearest centroid under SBD.
        centroid_fft = np.fft.rfft(centroids, size, axis=1)
        centroid_norms = _reference_norms(centroids)
        norms = centroid_norms[:, None] * data_norms
        ncc = _ncc(centroid_fft[:, None], data_fft_conj, norms, n)
        distances = 1.0 - ncc.max(axis=-1).T
        new_labels = np.argmin(distances, axis=1)

        # Reseed each empty cluster with the worst-fit series of a
        # cluster that has members to spare.  A reseeded series is then
        # its new cluster's only member, so this step never picks it twice.
        for c in range(k):
            if not np.any(new_labels == c):
                fit = distances[np.arange(m), new_labels]
                spare = np.bincount(new_labels, minlength=k)[new_labels] > 1
                worst = int(np.argmax(np.where(spare, fit, -np.inf)))
                new_labels[worst] = c

        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels

    inertia = sum(float(distances[labels == c, c].sum()) for c in range(k))
    return KShapeResult(
        labels=labels,
        centroids=centroids.copy(),
        iterations=iteration,
        inertia=float(inertia),
    )


def kshape_best(
    series: np.ndarray,
    k: int,
    n_restarts: int = 3,
    max_iterations: int = 100,
    seed: SeedLike = None,
) -> KShapeResult:
    """Run k-Shape with restarts, keeping the lowest-inertia outcome.

    k-Shape is sensitive to initialization (as the original paper
    notes); restarts are the standard remedy and what the reproduction's
    Fig. 5 sweep uses.
    """
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
    rng = as_generator(seed)
    best: Optional[KShapeResult] = None
    for _ in range(n_restarts):
        candidate = kshape(
            series, k, max_iterations=max_iterations, seed=rng
        )
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    return best


__all__ = [
    "z_normalize",
    "sbd",
    "sbd_matrix",
    "KShapeResult",
    "kshape",
    "kshape_best",
]
