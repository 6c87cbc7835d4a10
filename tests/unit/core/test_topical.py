"""Unit tests for topical-time analysis."""

import numpy as np
import pytest

from repro._rng import as_generator
from repro._time import TimeAxis
from repro.core.topical import (
    classify_front,
    derive_topical_moments,
    peak_intensities,
    peak_signature,
    peak_signatures,
    signature_matrix,
    topical_windows,
)
from repro.services.profiles import TopicalTime


@pytest.fixture(scope="module")
def axis():
    return TimeAxis(4)


def curve_with_peaks(axis, peak_specs, seed=0, base=100.0):
    """Flat noisy curve with Gaussian bumps at (day, hour, height)."""
    rng = as_generator(seed)
    hours = axis.hours()
    signal = base * (1.0 + rng.normal(0, 0.01, axis.n_bins))
    for day, hour, height in peak_specs:
        centre = day * 24 + hour
        signal += base * height * np.exp(-0.5 * ((hours - centre) / 0.5) ** 2)
    return signal


class TestWindows:
    def test_windows_cover_topical_hours(self, axis):
        windows = topical_windows(axis)
        for topical, mask in windows.items():
            b = axis.bin_of(topical.days[0], topical.hour)
            assert mask[b], topical

    def test_windows_respect_day_type(self, axis):
        windows = topical_windows(axis)
        saturday_noon = axis.bin_of(0, 13)
        assert windows[TopicalTime.WEEKEND_MIDDAY][saturday_noon]
        assert not windows[TopicalTime.MIDDAY][saturday_noon]


class TestClassifyFront:
    def test_exact_hits(self, axis):
        assert classify_front(axis.bin_of(2, 8), axis) is TopicalTime.MORNING_COMMUTE
        assert classify_front(axis.bin_of(0, 21), axis) is TopicalTime.WEEKEND_EVENING

    def test_nearby_hit(self, axis):
        assert classify_front(axis.bin_of(3, 12.0), axis) is TopicalTime.MIDDAY

    def test_miss(self, axis):
        assert classify_front(axis.bin_of(3, 4.0), axis) is None

    def test_nearest_wins(self, axis):
        # 9:10 lies in both MC and MB windows; MB (10:00) is closer than
        # MC (8:00).
        assert classify_front(axis.bin_of(4, 9.2), axis) is TopicalTime.MORNING_BREAK


class TestSignature:
    def test_detects_designed_peaks(self, axis):
        specs = [(day, 13.0, 0.6) for day in range(2, 7)]
        specs += [(day, 21.0, 0.5) for day in range(2, 7)]
        signal = curve_with_peaks(axis, specs)
        signature = peak_signature(signal, axis, "synthetic")
        assert TopicalTime.MIDDAY in signature.topical_times
        assert TopicalTime.EVENING in signature.topical_times
        assert TopicalTime.WEEKEND_MIDDAY not in signature.topical_times

    def test_flat_curve_no_peaks(self, axis):
        # A long smoothing window stabilizes the std estimate; with the
        # paper's 2 h lag the 8-sample std fluctuates enough that pure
        # noise occasionally crosses any threshold.
        signal = curve_with_peaks(axis, [])
        signature = peak_signature(
            signal, axis, "flat", lag_hours=8.0, threshold=4.5
        )
        assert signature.topical_times == ()

    def test_off_topical_peak_unattributed(self, axis):
        specs = [(day, 4.0, 0.8) for day in range(2, 7)]
        signal = curve_with_peaks(axis, specs)
        signature = peak_signature(
            signal, axis, "owl", lag_hours=8.0, threshold=4.5
        )
        assert TopicalTime.MIDDAY not in signature.topical_times
        assert len(signature.unattributed_fronts) >= 3

    def test_names_must_match_rows(self, axis):
        stack = np.stack([curve_with_peaks(axis, [], seed=s) for s in (0, 1)])
        with pytest.raises(ValueError):
            peak_signatures(stack, axis, ["only-one"])

    def test_signature_matrix(self, axis):
        signal = curve_with_peaks(axis, [(d, 13.0, 0.6) for d in range(2, 7)])
        sig = peak_signature(signal, axis, "a")
        matrix, names, topicals = signature_matrix([sig, sig])
        assert matrix.shape == (2, 7)
        assert names == ["a", "a"]
        assert matrix[0, topicals.index(TopicalTime.MIDDAY)]


class TestIntensities:
    def test_intensity_tracks_height(self, axis):
        low = curve_with_peaks(axis, [(d, 13.0, 0.4) for d in range(2, 7)])
        high = curve_with_peaks(axis, [(d, 13.0, 1.0) for d in range(2, 7)])
        sig_low = peak_signature(low, axis, "low")
        sig_high = peak_signature(high, axis, "high")
        i_low = peak_intensities(low, sig_low, axis)[TopicalTime.MIDDAY]
        i_high = peak_intensities(high, sig_high, axis)[TopicalTime.MIDDAY]
        assert i_high > i_low
        assert i_low == pytest.approx(0.4, abs=0.15)

    def test_only_attributed_topicals(self, axis):
        signal = curve_with_peaks(axis, [(d, 13.0, 0.6) for d in range(2, 7)])
        signature = peak_signature(signal, axis, "x")
        intensities = peak_intensities(signal, signature, axis)
        assert set(intensities) <= set(signature.topical_times)


class TestDerivedMoments:
    def test_recovers_designed_moments(self, axis):
        sigs = []
        for seed in range(8):
            signal = curve_with_peaks(
                axis,
                [(d, 13.0, 0.7) for d in range(2, 7)]
                + [(d, 21.0, 0.6) for d in (0, 1)],
                seed=seed,
            )
            sigs.append(
                peak_signature(signal, axis, f"s{seed}", threshold=4.0)
            )
        moments = derive_topical_moments(sigs, axis, min_support_fraction=0.75)
        assert any(
            not m.weekend and abs(m.hour - 13.0) <= 1.0 for m in moments
        )
        assert any(m.weekend and abs(m.hour - 21.0) <= 1.0 for m in moments)

    def test_min_support_filters(self, axis):
        quiet = [
            peak_signature(
                curve_with_peaks(axis, [], seed=s),
                axis,
                f"q{s}",
                lag_hours=8.0,
                threshold=4.5,
            )
            for s in range(4)
        ]
        loud = peak_signature(
            curve_with_peaks(axis, [(3, 13.0, 0.9)]),
            axis,
            "loud",
            lag_hours=8.0,
            threshold=4.5,
        )
        moments = derive_topical_moments(
            quiet + [loud], axis, min_support_fraction=0.5
        )
        assert moments == []

    def test_empty_input_rejected(self, axis):
        with pytest.raises(ValueError):
            derive_topical_moments([], axis)
