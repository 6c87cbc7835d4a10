"""Property-based tests for the smoothed z-score detector."""

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import as_generator
from repro.core.peaks import smoothed_zscore, smoothed_zscore_rows


def reference_zscore(series, lag, threshold, influence):
    """The detector's recurrence, one sample at a time on one series."""
    n = len(series)
    signals = np.zeros(n, dtype=int)
    filtered = series.copy()
    moving_mean = np.zeros(n)
    moving_std = np.zeros(n)
    moving_mean[lag - 1] = filtered[:lag].mean()
    moving_std[lag - 1] = filtered[:lag].std()
    for i in range(lag, n):
        deviation = series[i] - moving_mean[i - 1]
        if abs(deviation) > threshold * moving_std[i - 1] and moving_std[i - 1] > 0:
            signals[i] = 1 if deviation > 0 else -1
            filtered[i] = influence * series[i] + (1.0 - influence) * filtered[i - 1]
        else:
            filtered[i] = series[i]
        window = filtered[i - lag + 1 : i + 1]
        moving_mean[i] = window.mean()
        moving_std[i] = window.std()
    return signals, filtered, moving_mean, moving_std


@st.composite
def detector_stack(draw):
    """A stack of noisy spiky rows, some constant, with detector settings."""
    seed = draw(st.integers(0, 2**31 - 1))
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(3, 120))
    rng = as_generator(seed)
    stack = 10 + rng.normal(0, 1, (rows, n))
    stack[:, rng.integers(0, n, 3)] += rng.uniform(0, 15, (rows, 3))
    constant = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    stack[np.asarray(constant)] = 7.0  # std 0: never flagged
    lag = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    threshold = draw(st.floats(0.5, 6.0))
    influence = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return stack, lag, threshold, influence


class TestBatchedDetector:
    @given(detector_stack())
    @settings(max_examples=80, deadline=None)
    def test_rows_match_the_one_series_detector_bitwise(self, case):
        stack, lag, threshold, influence = case
        rows = smoothed_zscore_rows(stack, lag, threshold=threshold, influence=influence)
        assert len(rows) == stack.shape[0]
        for series, batched in zip(stack, rows):
            single = smoothed_zscore(
                series, lag, threshold=threshold, influence=influence
            )
            expected = reference_zscore(series, lag, threshold, influence)
            for detection in (batched, single):
                got = (
                    detection.signals,
                    detection.filtered,
                    detection.moving_mean,
                    detection.moving_std,
                )
                for a, b in zip(got, expected):
                    assert a.dtype == b.dtype
                    assert np.array_equal(a, b)
                assert (detection.lag, detection.threshold, detection.influence) == (
                    lag,
                    threshold,
                    influence,
                )


class TestDetectorProperties:
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(5, 40),
        st.floats(2.0, 6.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=40)
    def test_signals_well_formed(self, seed, lag, threshold, influence):
        rng = as_generator(seed)
        signal = 10 + rng.normal(0, 1, 200)
        result = smoothed_zscore(
            signal, lag=lag, threshold=threshold, influence=influence
        )
        assert set(np.unique(result.signals)) <= {-1, 0, 1}
        assert np.all(result.signals[:lag] == 0)
        assert np.all(result.moving_std >= 0)

    @given(st.integers(0, 2**31 - 1), st.floats(5.0, 20.0))
    @settings(max_examples=40)
    def test_large_spike_always_detected(self, seed, height):
        rng = as_generator(seed)
        signal = 10 + rng.normal(0, 0.3, 200)
        signal[120:123] += height
        result = smoothed_zscore(signal, lag=30, threshold=3.0, influence=0.4)
        fronts = result.rising_fronts()
        assert any(118 <= f <= 123 for f in fronts)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_intervals_partition_positive_signals(self, seed):
        rng = as_generator(seed)
        signal = 10 + rng.normal(0, 1, 300)
        signal[50:55] += 15
        signal[200:204] += 12
        result = smoothed_zscore(signal, lag=20, threshold=3.0, influence=0.4)
        covered = np.zeros(len(signal), dtype=bool)
        for start, end in result.peak_intervals():
            assert np.all(result.signals[start:end] == 1)
            covered[start:end] = True
        assert np.array_equal(covered, result.signals == 1)

    @given(st.integers(0, 2**31 - 1), st.floats(1.5, 8.0))
    @settings(max_examples=30)
    def test_higher_threshold_fewer_flags(self, seed, threshold):
        rng = as_generator(seed)
        signal = 10 + rng.normal(0, 1, 300)
        low = smoothed_zscore(signal, lag=20, threshold=threshold, influence=0.4)
        high = smoothed_zscore(
            signal, lag=20, threshold=threshold + 2.0, influence=0.4
        )
        assert np.count_nonzero(high.signals) <= np.count_nonzero(low.signals)
