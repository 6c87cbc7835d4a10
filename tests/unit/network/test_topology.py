"""Unit tests for network deployment."""

import numpy as np
import pytest

from repro._rng import as_generator, spawn
from repro.geo.country import CountryConfig, build_country
from repro.geo.coverage import Technology
from repro.network.elements import CoreNodeRole
from repro.network.gtp import TECH_BY_CODE
from repro.network.topology import build_topology


@pytest.fixture(scope="module")
def topology(country):
    return build_topology(country, seed=17)


class TestDeployment:
    def test_every_covered_commune_has_3g_cell(self, topology, country):
        covered = set()
        for bs in topology.base_stations:
            if bs.technology is Technology.G3:
                covered.add(bs.commune_id)
        expected = set(np.nonzero(country.coverage.has_3g)[0].tolist())
        assert covered == expected

    def test_4g_cells_only_where_covered(self, topology, country):
        for bs in topology.base_stations:
            if bs.technology is Technology.G4:
                assert country.coverage.has_4g[bs.commune_id]

    def test_cell_count_scales_with_population(self, topology, country):
        biggest = int(np.argmax(country.population.residents))
        smallest = int(np.argmin(country.population.residents))
        big_cells = len(topology.stations_in_commune(biggest))
        small_cells = len(topology.stations_in_commune(smallest))
        assert big_cells > small_cells

    def test_routing_areas_cover_all_communes(self, topology, country):
        covered = set()
        for area in topology.routing_areas.values():
            covered.update(area.commune_ids)
        assert covered == set(range(country.n_communes))

    def test_single_ggsn_and_pgw(self, topology):
        assert topology.ggsn().role is CoreNodeRole.GGSN
        assert topology.pgw().role is CoreNodeRole.PGW

    def test_validation(self, country):
        with pytest.raises(ValueError):
            build_topology(country, cells_per_10k_residents=0)


class TestServing:
    def test_serving_station_matches_commune(self, topology, rng):
        bs = topology.serving_station(5, Technology.G3, rng)
        assert bs.commune_id == 5

    def test_4g_fallback_to_3g(self, topology, country, rng):
        only_3g = np.nonzero(
            country.coverage.has_3g & ~country.coverage.has_4g
        )[0]
        if only_3g.size == 0:
            pytest.skip("synthetic country fully 4G-covered")
        bs = topology.serving_station(int(only_3g[0]), Technology.G4, rng)
        assert bs.technology is Technology.G3

    def test_available_technology(self, topology, country):
        idx_4g = int(np.nonzero(country.coverage.has_4g)[0][0])
        assert topology.available_technology(idx_4g, wants_4g=True) is Technology.G4
        assert topology.available_technology(idx_4g, wants_4g=False) is Technology.G3

    def test_routing_area_of(self, topology):
        area_id = topology.routing_area_of(0)
        assert 0 in topology.routing_areas[area_id].commune_ids


class TestWhiteZones:
    """A commune without cells is served from the nearest covered one."""

    @pytest.fixture(scope="class")
    def white_topology(self):
        # The country a seed-18 build draws: commune 142 has no cell.
        rng = as_generator(18)
        country = build_country(
            CountryConfig(n_communes=144), seed=spawn(rng, "builder.country")
        )
        assert not country.coverage.has_3g[142]
        return build_topology(country, seed=17)

    def test_white_zone_maps_to_nearest_covered_commune(self, white_topology):
        country = white_topology.country
        served = int(white_topology.serving_communes[142])
        assert served != 142 and country.coverage.has_3g[served]
        xy = country.grid.coordinates_km
        covered = np.flatnonzero(country.coverage.has_3g)
        distances = np.hypot(*(xy[covered] - xy[142]).T)
        assert np.hypot(*(xy[served] - xy[142])) == distances.min()
        # Covered communes serve themselves.
        assert np.array_equal(
            white_topology.serving_communes[covered], covered
        )

    def test_scalar_and_vector_lookups_serve_white_zone(self, white_topology):
        served = int(white_topology.serving_communes[142])
        bs = white_topology.serving_station(142, Technology.G4, as_generator(5))
        assert bs.commune_id == served
        tech = white_topology.available_technology(142, wants_4g=True)
        codes = white_topology.available_technology_codes(
            np.array([142]), np.array([True])
        )
        assert TECH_BY_CODE[int(codes[0])] is tech
        _, _, _, cell_communes = white_topology.serving_station_codes(
            np.array([142, 142]), codes.repeat(2), as_generator(5)
        )
        assert cell_communes.tolist() == [served, served]

    def test_white_zone_lookup_is_the_served_communes_lookup(
        self, white_topology
    ):
        # Same station and same draws: the RNG stream stays aligned.
        served = int(white_topology.serving_communes[142])
        a, b = as_generator(9), as_generator(9)
        assert white_topology.serving_station(
            142, Technology.G3, a
        ) == white_topology.serving_station(served, Technology.G3, b)
        assert a.integers(1 << 30) == b.integers(1 << 30)
