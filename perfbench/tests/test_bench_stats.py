import numpy as np
import pytest

from stats import median, percentile, quartiles, spread

SAMPLES = [
    [3.0],
    [2.0, 1.0],
    [5.0, 1.0, 4.0, 2.0, 3.0],
    list(np.random.default_rng(7).lognormal(size=37)),
    list(np.random.default_rng(8).exponential(size=1000)),
]


@pytest.mark.parametrize("values", SAMPLES)
def test_median_matches_numpy(values):
    assert median(values) == pytest.approx(np.median(values))


@pytest.mark.parametrize("values", SAMPLES[2:])
def test_quartiles_match_numpy_weibull(values):
    q1, q2, q3 = quartiles(values)
    expected = np.percentile(values, [25, 50, 75], method="weibull")
    assert (q1, q2, q3) == pytest.approx(tuple(expected))


@pytest.mark.parametrize("values", SAMPLES)
@pytest.mark.parametrize("p", [1, 25, 50, 90, 99, 100])
def test_percentile_is_numpy_nearest_rank(values, p):
    assert percentile(values, p) == np.percentile(values, p, method="inverted_cdf")
    assert percentile(values, p) in values


def test_percentile_rank_is_exact_at_integer_boundaries():
    values = [float(v) for v in range(1, 1001)]
    # 99.9 % of 1000 is rank 999 exactly; float rounding must not make it 1000.
    assert percentile(values, 99.9) == 999.0
    assert percentile(values, 0.1) == 1.0
    assert percentile(values, 50) == 500.0


def test_two_samples_follow_statistics_quantiles():
    # Below three samples the exclusive method extrapolates past the data.
    assert quartiles([1.0, 2.0]) == (0.75, 1.5, 2.25)


def test_single_sample_and_spread():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert spread([4.0]) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_empty_and_out_of_range_rejected():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        quartiles([])
    with pytest.raises(ValueError):
        percentile([1.0], 0)
