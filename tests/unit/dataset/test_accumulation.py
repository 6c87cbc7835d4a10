"""Numeric facts behind the aggregator's exact integer accumulation.

Flow byte counts are int64, so every total the aggregator and the DPI
report keep is an exact integer sum, whatever order or chunking the
flows arrive in.  Two facts about what happens around those sums are
pinned here:

1. an int64 total is cast to float32 (tensors) or float64 (national
   vectors) exactly once, at finalize; at 10⁶-subscriber magnitudes
   that single cast is deterministic and keeps the relative error at
   one rounding, where a running float32 sum would lose whole flows;
2. neither the byte totals nor the flat bin-index arithmetic the
   aggregator scatters through can silently overflow int64 (or, for
   the indices, even int32) at nationwide scale.
"""

import numpy as np
import pytest

from repro._rng import as_generator


def _weekly_volumes(n: int, seed: int = 99) -> np.ndarray:
    """Whole-byte flow volumes with a realistic heavy tail (int64)."""
    rng = as_generator(seed)
    return np.rint(rng.lognormal(mean=13.0, sigma=2.0, size=n)).astype(np.int64)


class TestFloat32DowncastStability:
    """The finalize-time ``int64 -> float32`` cast at full scale."""

    def test_downcast_is_deterministic_at_national_magnitudes(self):
        # A busy commune/service/bin cell at 10^6 subscribers holds
        # ~10^12..10^14 bytes; the cast of an exact int64 total is
        # itself a pure function of that total, so chunking and merge
        # order cannot leak through it.
        totals = _weekly_volumes(50_000).reshape(50, 1000).sum(axis=1) * 10_000
        assert int(totals.max()) > 10**12
        a = totals.astype(np.float32)
        b = totals.copy().astype(np.float32)
        assert a.tobytes() == b.tobytes()

    def test_accumulate_in_int64_then_downcast_once(self):
        # Summing in float32 loses whole flows at scale (2^24 ulp steps
        # around 10^13); the pipeline's exact-int64-accumulate /
        # downcast-once discipline keeps the relative error at the
        # single-rounding level.  This is the property that makes the
        # downcast *placement* (finalize, not per chunk) load-bearing.
        values = _weekly_volumes(200_000)
        exact = int(values.sum())
        running32 = np.float32(0.0)
        for chunk in np.array_split(values, 64):
            running32 += np.float32(chunk.sum())
        once = np.float32(exact)
        assert abs(float(once) - exact) / exact < 1e-7
        # The repeatedly-downcast running sum is measurably worse than
        # a single rounding (and chunking-dependent).
        assert abs(float(running32) - exact) >= abs(float(once) - exact)

    def test_float32_tensor_cells_survive_week_scale(self):
        # One cell accumulating a week of a head service in a dense
        # commune stays far below float32 overflow (~3.4e38).
        cell = np.float32(1e14)
        assert np.isfinite(cell * np.float32(1e3))

    def test_int64_byte_totals_have_headroom(self):
        # A nationwide week (~10^6 subscribers x ~10^9 bytes each) is
        # ~10^15 bytes: far inside int64, and below 2^53, so the float64
        # national vectors and report ratios take the totals exactly.
        nationwide = np.int64(10**6) * np.int64(10**9)
        assert nationwide < np.iinfo(np.int64).max // 1000
        assert int(nationwide) < 2**53
        assert int(np.float64(nationwide)) == int(nationwide)


class TestBinIndexOverflow:
    """Flat scatter indices at nationwide scale fit comfortably."""

    N_COMMUNES = 1_600
    N_HEAD = 15
    N_BINS = 7 * 24 * 4  # a week at 15-minute resolution

    def test_flat_index_fits_int64_and_int32(self):
        shape = (self.N_COMMUNES, self.N_HEAD, self.N_BINS)
        flat_max = np.int64(shape[0]) * shape[1] * shape[2] - 1
        assert flat_max == np.prod(np.asarray(shape, dtype=np.int64)) - 1
        assert flat_max < np.iinfo(np.int64).max
        assert flat_max < np.iinfo(np.int32).max  # ~16M cells << 2^31

    def test_ravel_multi_index_rejects_out_of_range(self):
        shape = (self.N_COMMUNES, self.N_HEAD, self.N_BINS)
        with pytest.raises(ValueError):
            np.ravel_multi_index(
                (np.asarray([self.N_COMMUNES]), np.asarray([0]), np.asarray([0])),
                shape,
            )

    def test_int64_products_do_not_wrap_at_extreme_scale(self):
        # Even an absurd upper bound (10^6 communes x 520 services x
        # one-minute bins) stays in int64; the guard documents the
        # headroom rather than a live risk.
        cells = np.int64(1_000_000) * np.int64(520) * np.int64(7 * 24 * 60)
        assert cells > 0
        assert cells < np.iinfo(np.int64).max
