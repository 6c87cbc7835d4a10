"""Deployment of the mobile network over a synthetic country.

Base stations are deployed per commune in proportion to population (every
commune with coverage gets at least one 3G cell; 4G cells appear where
the coverage map says so).  A user in a white zone (a commune with no
cell) camps on the cells of the nearest covered commune.  Communes are
grouped into routing/tracking areas by spatial blocks, each served by an
SGSN (3G) and an MME (4G); a single co-located GGSN/P-GW site terminates
all tunnels — which is the property that makes the paper's single probe
deployment possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.geo.country import Country
from repro.geo.coverage import Technology
from repro.network.elements import BaseStation, CoreNode, CoreNodeRole, RoutingArea


@dataclass
class NetworkTopology:
    """The deployed network: base stations, areas, and core nodes."""

    country: Country
    base_stations: List[BaseStation]
    routing_areas: Dict[int, RoutingArea]
    core_nodes: List[CoreNode]
    _bs_by_commune_tech: Dict[tuple, List[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._bs_by_commune_tech:
            for bs in self.base_stations:
                key = (bs.commune_id, bs.technology)
                self._bs_by_commune_tech.setdefault(key, []).append(bs.bs_id)

    @property
    def n_base_stations(self) -> int:
        return len(self.base_stations)

    def ggsn(self) -> CoreNode:
        """The (single) GGSN."""
        return self._single(CoreNodeRole.GGSN)

    def pgw(self) -> CoreNode:
        """The (single) P-GW, co-located with the GGSN."""
        return self._single(CoreNodeRole.PGW)

    def _single(self, role: CoreNodeRole) -> CoreNode:
        nodes = [n for n in self.core_nodes if n.role is role]
        if len(nodes) != 1:
            raise LookupError(f"expected exactly one {role.value}, got {len(nodes)}")
        return nodes[0]

    def serving_station(
        self,
        commune_id: int,
        technology: Technology,
        rng: np.random.Generator,
    ) -> BaseStation:
        """Pick the base station serving a user camped in a commune.

        Falls back to 3G when the commune has no cell of the requested
        technology.  A white zone is served from the nearest covered
        commune (see :attr:`serving_communes`); ``LookupError`` is left
        only for a topology without a single cell.
        """
        commune_id = int(self.serving_communes[commune_id])
        for tech in (technology, Technology.G3):
            ids = self._bs_by_commune_tech.get((commune_id, tech))
            if ids:
                return self.base_stations[ids[int(rng.integers(len(ids)))]]
        raise LookupError(f"commune {commune_id} is a white zone (no coverage)")

    def available_technology(self, commune_id: int, wants_4g: bool) -> Technology:
        """Best technology a user can get in a commune (3G fallback)."""
        commune_id = int(self.serving_communes[commune_id])
        if wants_4g and (commune_id, Technology.G4) in self._bs_by_commune_tech:
            return Technology.G4
        return Technology.G3

    @property
    def serving_communes(self) -> np.ndarray:
        """The commune whose cells serve each commune.

        A covered commune serves itself.  A white zone (no cell of any
        technology) is served by the nearest covered commune by centre
        distance, ties to the lowest id, as a handset at a coverage edge
        camps on a neighbour's cell.  Built lazily once; the mapping
        draws nothing, so the RNG streams of every lookup are unchanged.
        """
        mapping = getattr(self, "_serving_cache", None)
        if mapping is None:
            n_communes = self.country.n_communes
            covered = np.zeros(n_communes, dtype=bool)
            for commune_id, _ in self._bs_by_commune_tech:
                covered[commune_id] = True
            mapping = np.arange(n_communes, dtype=np.int64)
            white = np.flatnonzero(~covered)
            if len(white) and covered.any():
                xy = self.country.grid.coordinates_km
                candidates = np.flatnonzero(covered)
                for commune_id in white.tolist():
                    squared = ((xy[candidates] - xy[commune_id]) ** 2).sum(axis=1)
                    mapping[commune_id] = candidates[np.argmin(squared)]
            self._serving_cache = mapping
        return mapping

    # ------------------------------------------------------------------
    # vectorized lookups (the bulk session fast path)
    # ------------------------------------------------------------------
    @property
    def _vector_tables(self) -> dict:
        """CSR-style per-(technology, commune) station tables.

        Built lazily once; ``serving_station_codes`` then picks serving
        cells for whole batches of sessions with array arithmetic
        instead of per-session dict probes.
        """
        tables = getattr(self, "_vt_cache", None)
        if tables is None:
            from repro.network.gtp import TECH_CODES

            n_communes = self.country.n_communes
            counts = np.zeros((2, n_communes), dtype=np.int64)
            starts = np.zeros((2, n_communes), dtype=np.int64)
            flat: list = []
            for tech, code in TECH_CODES.items():
                for commune_id in range(n_communes):
                    ids = self._bs_by_commune_tech.get((commune_id, tech))
                    starts[code, commune_id] = len(flat)
                    if ids:
                        counts[code, commune_id] = len(ids)
                        flat.extend(ids)
            tables = {
                "counts": counts,
                "starts": starts,
                "flat": np.asarray(flat, dtype=np.int64),
                "bs_ra": np.asarray(
                    [bs.routing_area_id for bs in self.base_stations],
                    dtype=np.int64,
                ),
                "bs_commune": np.asarray(
                    [bs.commune_id for bs in self.base_stations], dtype=np.int64
                ),
            }
            self._vt_cache = tables
        return tables

    def available_technology_codes(
        self, commune_ids: np.ndarray, wants_4g
    ) -> np.ndarray:
        """Vectorized :meth:`available_technology` (TECH_3G/TECH_4G codes).

        ``wants_4g`` is a scalar bool or a per-session bool array (how
        the chunked emission path mixes subscribers with different
        handsets in one batch).
        """
        from repro.network.gtp import TECH_3G, TECH_4G

        commune_ids = self.serving_communes[commune_ids]
        if not np.any(wants_4g):
            return np.full(len(commune_ids), TECH_3G, dtype=np.uint8)
        has_4g = self._vector_tables["counts"][TECH_4G, commune_ids] > 0
        eligible = np.logical_and(wants_4g, has_4g)
        return np.where(eligible, TECH_4G, TECH_3G).astype(np.uint8)

    def serving_station_codes(
        self,
        commune_ids: np.ndarray,
        tech_codes: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple:
        """Pick serving cells for a batch of sessions.

        Returns ``(bs_ids, tech_codes, routing_area_ids, cell_communes)``
        with the same 3G fallback and white-zone behaviour as
        :meth:`serving_station`.
        """
        from repro.network.gtp import TECH_3G

        commune_ids = self.serving_communes[commune_ids]
        tables = self._vector_tables
        counts = tables["counts"][tech_codes, commune_ids]
        missing = counts == 0
        if missing.any():
            tech_codes = np.where(missing, TECH_3G, tech_codes).astype(np.uint8)
            counts = tables["counts"][tech_codes, commune_ids]
            if (counts == 0).any():
                bad = int(commune_ids[counts == 0][0])
                raise LookupError(
                    f"commune {bad} is a white zone (no coverage)"
                )
        offsets = (rng.random(len(commune_ids)) * counts).astype(np.int64)
        bs_ids = tables["flat"][
            tables["starts"][tech_codes, commune_ids] + offsets
        ]
        return (
            bs_ids,
            tech_codes,
            tables["bs_ra"][bs_ids],
            tables["bs_commune"][bs_ids],
        )

    def routing_area_of(self, commune_id: int) -> int:
        """Routing/tracking area id of a commune."""
        return self._ra_of_commune[commune_id]

    @property
    def _ra_of_commune(self) -> np.ndarray:
        if not hasattr(self, "_ra_cache"):
            cache = np.full(self.country.n_communes, -1, dtype=int)
            for area in self.routing_areas.values():
                cache[np.asarray(area.commune_ids, dtype=int)] = area.area_id
            object.__setattr__(self, "_ra_cache", cache)
        return self._ra_cache

    def stations_in_commune(self, commune_id: int) -> List[BaseStation]:
        """All base stations deployed in a commune."""
        out = []
        for tech in (Technology.G3, Technology.G4):
            for bs_id in self._bs_by_commune_tech.get((commune_id, tech), []):
                out.append(self.base_stations[bs_id])
        return out


def build_topology(
    country: Country,
    cells_per_10k_residents: float = 1.2,
    ra_block_communes: int = 64,
    n_sgsn: int = 4,
    n_mme: int = 2,
    seed: SeedLike = None,
) -> NetworkTopology:
    """Deploy the RAN and core over ``country``.

    Parameters
    ----------
    cells_per_10k_residents:
        Cell density driver: a commune with R residents gets
        ``ceil(R / 10_000 * cells_per_10k_residents)`` 3G cells (at least
        one whenever 3G covers it), and the same number of 4G cells where
        4G is deployed.
    ra_block_communes:
        Approximate number of communes per routing/tracking area; areas
        are square blocks of the commune grid, matching how operators
        dimension RAs around contiguous regions.
    """
    if cells_per_10k_residents <= 0:
        raise ValueError(
            f"cells_per_10k_residents must be > 0, got {cells_per_10k_residents}"
        )
    rng = as_generator(seed)
    grid = country.grid
    coverage = country.coverage
    residents = country.population.residents

    # Routing areas: square blocks of the commune grid.
    block = max(1, int(math.sqrt(ra_block_communes)))
    blocks_per_side = math.ceil(grid.cells_per_side / block)
    routing_areas: Dict[int, RoutingArea] = {}
    for commune_id in range(len(grid)):
        row, col = divmod(commune_id, grid.cells_per_side)
        area_id = (row // block) * blocks_per_side + (col // block)
        area = routing_areas.get(area_id)
        if area is None:
            area = RoutingArea(
                area_id=area_id,
                serving_sgsn=area_id % max(1, n_sgsn),
                serving_mme=area_id % max(1, n_mme),
            )
            routing_areas[area_id] = area
        area.commune_ids.append(commune_id)

    base_stations: List[BaseStation] = []
    for commune_id in range(len(grid)):
        commune = grid[commune_id]
        area_id = None
        row, col = divmod(commune_id, grid.cells_per_side)
        area_id = (row // block) * blocks_per_side + (col // block)
        n_cells = max(1, math.ceil(residents[commune_id] / 10_000 * cells_per_10k_residents))
        offsets = rng.uniform(-0.3, 0.3, size=(n_cells, 2)) * grid.cell_km
        if coverage.has_3g[commune_id]:
            for c in range(n_cells):
                base_stations.append(
                    BaseStation(
                        bs_id=len(base_stations),
                        commune_id=commune_id,
                        technology=Technology.G3,
                        x_km=commune.x_km + float(offsets[c, 0]),
                        y_km=commune.y_km + float(offsets[c, 1]),
                        routing_area_id=area_id,
                    )
                )
        if coverage.has_4g[commune_id]:
            for c in range(n_cells):
                base_stations.append(
                    BaseStation(
                        bs_id=len(base_stations),
                        commune_id=commune_id,
                        technology=Technology.G4,
                        x_km=commune.x_km - float(offsets[c, 0]),
                        y_km=commune.y_km - float(offsets[c, 1]),
                        routing_area_id=area_id,
                    )
                )

    core_nodes: List[CoreNode] = []
    node_id = 0
    for role, count in (
        (CoreNodeRole.RNC, max(1, n_sgsn * 2)),
        (CoreNodeRole.SGSN, n_sgsn),
        (CoreNodeRole.GGSN, 1),
        (CoreNodeRole.MME, n_mme),
        (CoreNodeRole.SGW, max(1, n_mme)),
        (CoreNodeRole.PGW, 1),
    ):
        for _ in range(count):
            core_nodes.append(CoreNode(node_id=node_id, role=role))
            node_id += 1

    return NetworkTopology(
        country=country,
        base_stations=base_stations,
        routing_areas=routing_areas,
        core_nodes=core_nodes,
    )


__all__ = ["NetworkTopology", "build_topology"]
