"""Unit tests for weekly itineraries."""

import numpy as np
import pytest

from repro._time import hour_of_week
from repro._rng import as_generator
from repro.traffic.mobility import Itinerary, MobilityModel, locations_at
from repro.traffic.subscribers import (
    Subscriber,
    SubscriberClass,
    synthesize_population,
)


@pytest.fixture(scope="module")
def model(country):
    return MobilityModel(country, seed=31)


def make_subscriber(cls, home=0, work=None, imsi=999):
    return Subscriber(
        imsi_hash=imsi,
        home_commune=home,
        subscriber_class=cls,
        has_4g_device=True,
        activity_scale=1.0,
        adopted_services=(0,),
        work_commune=work,
    )


class TestItinerary:
    def test_validation(self):
        with pytest.raises(ValueError):
            Itinerary((1.0,), (0,))  # must start at 0
        with pytest.raises(ValueError):
            Itinerary((0.0, 5.0), (0,))  # length mismatch
        with pytest.raises(ValueError):
            Itinerary((0.0, 5.0, 3.0), (0, 1, 2))  # unsorted

    def test_location_lookup(self):
        itinerary = Itinerary((0.0, 10.0, 20.0), (1, 2, 3))
        assert itinerary.location_at(0.0) == 1
        assert itinerary.location_at(10.0) == 2
        assert itinerary.location_at(19.9) == 2
        assert itinerary.location_at(167.9) == 3

    def test_location_bounds(self):
        itinerary = Itinerary((0.0,), (1,))
        with pytest.raises(ValueError):
            itinerary.location_at(168.0)

    def test_block_lookup_matches_scalar_lookup(self, country, intensity_model):
        population = synthesize_population(country, intensity_model, 200, seed=4)
        itineraries = MobilityModel(country, seed=5).itineraries_for(
            population.subscribers
        )
        rng = as_generator(6)
        owners = rng.integers(len(itineraries), size=5000)
        # Breakpoints themselves are queried too: ties go to the new leg.
        hours = rng.uniform(0.0, 168.0, size=5000)
        hours[::7] = [
            rng.choice(itineraries[o].breakpoints) for o in owners[::7].tolist()
        ]
        expected = [
            itineraries[o].location_at(h) for o, h in zip(owners.tolist(), hours.tolist())
        ]
        assert locations_at(itineraries, owners, hours).tolist() == expected
        assert any(len(it.breakpoints) > 1 for it in itineraries)

    def test_visited_communes(self):
        itinerary = Itinerary((0.0, 1.0, 2.0), (5, 6, 5))
        assert itinerary.visited_communes() == (5, 6)


class TestClasses:
    def test_resident_stays_home(self, model):
        sub = make_subscriber(SubscriberClass.RESIDENT, home=3)
        itinerary = model.itinerary_for(sub)
        assert itinerary.visited_communes() == (3,)

    def test_commuter_at_work_monday_morning(self, model):
        sub = make_subscriber(SubscriberClass.COMMUTER, home=3, work=9, imsi=1000)
        itinerary = model.itinerary_for(sub)
        assert itinerary.location_at(hour_of_week(2, 12)) == 9
        assert itinerary.location_at(hour_of_week(2, 3)) == 3

    def test_commuter_home_on_weekend(self, model):
        sub = make_subscriber(SubscriberClass.COMMUTER, home=3, work=9, imsi=1001)
        itinerary = model.itinerary_for(sub)
        assert itinerary.location_at(hour_of_week(0, 12)) == 3

    def test_student_schedule(self, model):
        sub = make_subscriber(SubscriberClass.STUDENT, home=4, work=10, imsi=1002)
        itinerary = model.itinerary_for(sub)
        assert itinerary.location_at(hour_of_week(3, 10)) == 10
        assert itinerary.location_at(hour_of_week(3, 20)) == 4

    def test_tgv_traveller_visits_corridor(self, model, country):
        sub = make_subscriber(SubscriberClass.TGV_TRAVELLER, home=0, imsi=1003)
        itinerary = model.itinerary_for(sub)
        visited = set(itinerary.visited_communes())
        corridor = set(country.rail.communes_within(8.0).tolist())
        assert len(visited & corridor) > 2

    def test_cache(self, model):
        sub = make_subscriber(SubscriberClass.RESIDENT, imsi=1004)
        assert model.itinerary_for(sub) is model.itinerary_for(sub)


class TestPresence:
    def test_presence_matrix_conserves_population(
        self, country, intensity_model
    ):
        population = synthesize_population(country, intensity_model, 60, seed=6)
        model = MobilityModel(country, seed=7)
        presence = model.presence_matrix(population.subscribers)
        assert presence.shape == (country.n_communes, 168)
        assert np.all(presence.sum(axis=0) == 60)
