"""Unit tests for the shared experiment context."""

import numpy as np
import pytest

from repro.core.topical import peak_signature
from repro.experiments.context import (
    build_default_context,
    build_default_dataset,
)


@pytest.fixture(scope="module")
def ctx():
    return build_default_context(seed=3, n_communes=144)


class TestContext:
    def test_dataset_scale(self, ctx):
        assert ctx.dataset.n_communes == 144
        assert ctx.dataset.n_head == 20

    def test_fine_series_shape(self, ctx):
        series = ctx.national_series_fine("dl")
        assert series.shape == (20, 672)
        assert np.all(series > 0)

    def test_fine_series_cached(self, ctx):
        assert ctx.national_series_fine("dl") is ctx.national_series_fine("dl")

    def test_directions_independent(self, ctx):
        dl = ctx.national_series_fine("dl")
        ul = ctx.national_series_fine("ul")
        assert dl.shape == ul.shape
        assert not np.allclose(dl, ul)

    def test_peak_signatures_cached(self, ctx):
        assert ctx.peak_signatures("dl") is ctx.peak_signatures("dl")
        assert ctx.peak_signatures("ul") is not ctx.peak_signatures("dl")

    @pytest.mark.parametrize("direction", ["dl", "ul"])
    def test_peak_signatures_match_one_series(self, ctx, direction):
        series = ctx.national_series_fine(direction)
        signatures = ctx.peak_signatures(direction)
        assert len(signatures) == len(ctx.head_names)
        for j, name in enumerate(ctx.head_names):
            got = signatures[j]
            want = peak_signature(series[j], ctx.fine_axis, name)
            assert got.service_name == want.service_name == name
            assert got.topical_times == want.topical_times
            assert got.attributed_intervals == want.attributed_intervals
            assert got.moment_bins == want.moment_bins
            assert np.array_equal(got.fronts, want.fronts)
            assert np.array_equal(got.unattributed_fronts, want.unattributed_fronts)
            for field in ("signals", "filtered", "moving_mean", "moving_std"):
                assert np.array_equal(
                    getattr(got.detection, field), getattr(want.detection, field)
                )

    def test_head_names(self, ctx):
        assert ctx.head_names[0] == "YouTube"

    def test_default_dataset_convenience(self):
        dataset = build_default_dataset(seed=3, n_communes=100)
        assert dataset.n_communes == 100

    def test_seed_determinism(self):
        a = build_default_context(seed=5, n_communes=100)
        b = build_default_context(seed=5, n_communes=100)
        assert np.allclose(a.dataset.dl, b.dataset.dl)
        assert np.allclose(
            a.national_series_fine("dl"), b.national_series_fine("dl")
        )

    def test_fine_series_pinned(self, ctx):
        """Regression pin for the spawn-labelled fine-axis streams.

        The fine series used to be seeded with ad-hoc
        ``default_rng(seed + N)`` generators; they now come from
        ``spawn(as_generator(seed), "context.fine-*")`` labels.  These
        values document that reseed — if they move, the RNG contract of
        the experiment context changed and the change must be deliberate.
        """
        dl = ctx.national_series_fine("dl")
        ul = ctx.national_series_fine("ul")
        assert float(dl.sum()) == pytest.approx(24108480130338.06, rel=1e-12)
        assert float(ul.sum()) == pytest.approx(1296241029283.3188, rel=1e-12)
        assert float(dl[0, 0]) == pytest.approx(5283248456.322766, rel=1e-12)
        assert float(dl[7, 100]) == pytest.approx(412319696.57903486, rel=1e-12)
        assert float(ul[3, 500]) == pytest.approx(33876408.424645826, rel=1e-12)
