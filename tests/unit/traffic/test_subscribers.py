"""Unit tests for subscriber synthesis."""

import numpy as np
import pytest

from repro._rng import as_generator, spawn
from repro.traffic.subscribers import (
    _CLASS_MIX,
    Subscriber,
    SubscriberClass,
    synthesize_population,
)


def scalar_population(country, model, n, seed):
    """The per-subscriber reference: every stream drawn one value at a
    time, the work commune by ``Generator.choice``."""
    rng = as_generator(seed)
    streams = [
        spawn(rng, f"population.{name}")
        for name in ("homes", "classes", "devices", "adoption", "work", "scale")
    ]
    homes_rng, class_rng, device_rng, adoption_rng, work_rng, scale_rng = streams
    residents = country.population.residents
    homes = homes_rng.choice(country.n_communes, size=n, p=residents / residents.sum())
    xy = country.grid.coordinates_km
    out = []
    for i, home in enumerate(homes.tolist()):
        r, acc = class_rng.random(), 0.0
        subscriber_class = _CLASS_MIX[country.class_of(home)][-1][0]
        for candidate, share in _CLASS_MIX[country.class_of(home)]:
            acc += share
            if r < acc:
                subscriber_class = candidate
                break
        adopted = tuple(
            j
            for j in range(model.adoption.shape[1])
            if adoption_rng.random() < model.adoption[home, j]
        )
        work = None
        if subscriber_class in (SubscriberClass.COMMUTER, SubscriberClass.STUDENT):
            d = np.linalg.norm(xy - xy[home], axis=1)
            candidates = np.nonzero((d <= 30.0) & (d > 0))[0]
            work = home
            if candidates.size:
                weights = residents[candidates] / residents[candidates].sum()
                work = int(work_rng.choice(candidates, p=weights))
        out.append(
            Subscriber(
                imsi_hash=int(1_000_000_007 * (i + 1) % (2**61 - 1)),
                home_commune=home,
                subscriber_class=subscriber_class,
                has_4g_device=bool(device_rng.random() < 0.62),
                activity_scale=float(scale_rng.lognormal(mean=-0.125, sigma=0.5)),
                adopted_services=adopted,
                work_commune=work,
            )
        )
    return out


@pytest.fixture(scope="module")
def population(country, intensity_model):
    return synthesize_population(country, intensity_model, 800, seed=21)


class TestSynthesis:
    def test_size(self, population):
        assert len(population) == 800

    def test_homes_follow_residents(self, population, country):
        counts = population.home_counts()
        assert counts.sum() == 800
        # The biggest commune should host more subscribers than the median.
        residents = country.population.residents
        biggest = int(np.argmax(residents))
        assert counts[biggest] >= np.median(counts[counts > 0])

    def test_all_classes_present(self, population):
        counts = population.counts_by_class()
        assert counts[SubscriberClass.RESIDENT] > 0
        assert counts[SubscriberClass.COMMUTER] > 0
        assert counts[SubscriberClass.STUDENT] > 0

    def test_residents_majority(self, population):
        counts = population.counts_by_class()
        assert counts[SubscriberClass.RESIDENT] > 0.4 * len(population)

    def test_commuters_have_work_communes(self, population):
        for sub in population:
            if sub.subscriber_class in (
                SubscriberClass.COMMUTER,
                SubscriberClass.STUDENT,
            ):
                assert sub.work_commune is not None
            if sub.subscriber_class is SubscriberClass.RESIDENT:
                assert sub.work_commune is None

    def test_adoption_consistent_with_model(self, population, intensity_model):
        # Popular services (Google Services, adoption 0.8) should be
        # adopted far more often than Netflix (0.03).
        gs = intensity_model.head_names.index("Google Services")
        nf = intensity_model.head_names.index("Netflix")
        gs_count = sum(gs in s.adopted_services for s in population)
        nf_count = sum(nf in s.adopted_services for s in population)
        assert gs_count > 5 * max(nf_count, 1)

    def test_activity_scales_positive(self, population):
        scales = [s.activity_scale for s in population]
        assert min(scales) > 0
        assert np.median(scales) == pytest.approx(1.0, abs=0.35)

    def test_imsi_hashes_unique(self, population):
        hashes = {s.imsi_hash for s in population}
        assert len(hashes) == len(population)

    @pytest.mark.parametrize("seed", [5, 21])
    def test_matches_the_scalar_reference(self, country, intensity_model, seed):
        # Whole-stream draws yield the same doubles in the same order.
        population = synthesize_population(country, intensity_model, 300, seed=seed)
        assert population.subscribers == scalar_population(
            country, intensity_model, 300, seed
        )

    def test_determinism(self, country, intensity_model):
        a = synthesize_population(country, intensity_model, 50, seed=5)
        b = synthesize_population(country, intensity_model, 50, seed=5)
        assert [s.home_commune for s in a] == [s.home_commune for s in b]

    def test_validation(self, country, intensity_model):
        with pytest.raises(ValueError):
            synthesize_population(country, intensity_model, 0)
