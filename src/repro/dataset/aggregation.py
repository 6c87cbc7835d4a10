"""Streaming aggregation of probe records into the commune-level dataset.

This stage is the paper's anonymization boundary (§2): probe records
still carry (hashed) subscriber identifiers; the aggregator classifies
each record with the DPI engine, buckets it by (commune, service, time
bin, direction), and keeps only aggregate counters — "mobile service
demands are merged over several thousands of subscribers".

The aggregator also estimates the "average number of users in each
commune" the paper normalizes by, counting distinct subscribers observed
per commune over the week.

Flow bytes are integers, so the int64 tensors are exact in any ingest or
merge order and are cast to the dataset's float dtypes once, at
finalize.  Byte totals are read from the DPI report, the one ledger.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

import numpy as np

from repro import obs
from repro._time import TimeAxis, WEEK_HOURS
from repro.dataset.store import MobileTrafficDataset
from repro.dpi.classifier import ClassificationReport, DpiEngine
from repro.geo.country import Country
from repro.network.probes import ProbeRecordBatch
from repro.services.catalog import ServiceCatalog


class CommuneAggregator:
    """Accumulates classified probe batches into dataset tensors.

    ``partial`` starts the aggregator from a shard partial's state (see
    :meth:`merge` for what it must carry) instead of zeros.  The
    partial's tensors and user sets are adopted, not copied: later
    merges fold into them, so a parent reducing shards never holds a
    tensor pair beyond the partials'.  Adopting is bit-identical to
    merging the partial into a zeroed aggregator.
    """

    def __init__(
        self,
        country: Country,
        catalog: ServiceCatalog,
        engine: DpiEngine,
        axis: TimeAxis = TimeAxis(1),
        partial: Optional[Any] = None,
    ):
        self._country = country
        self._catalog = catalog
        self._engine = engine
        self._axis = axis

        head = catalog.head_services
        head_index: Dict[str, int] = {s.name: i for i, s in enumerate(head)}
        # Engine service positions -> catalog service id / head index,
        # with a trailing -1 that an unclassified flow's -1 selects.
        self._service_id_of = np.asarray(
            [catalog.by_name(nm).service_id for nm in engine.service_names] + [-1],
            dtype=np.int64,
        )
        self._head_id_of = np.asarray(
            [head_index.get(nm, -1) for nm in engine.service_names] + [-1],
            dtype=np.int64,
        )
        n_communes = country.n_communes
        if partial is None:
            self.dl = np.zeros(
                (n_communes, len(head), axis.n_bins), dtype=np.int64
            )
            self.ul = np.zeros_like(self.dl)
            self.national_dl = np.zeros(len(catalog), dtype=np.int64)
            self.national_ul = np.zeros(len(catalog), dtype=np.int64)
            self._users_seen: List[Set[int]] = [set() for _ in range(n_communes)]
            self.records_ingested = 0
        else:
            self.dl, self.ul = partial.dl, partial.ul
            self.national_dl = partial.national_dl
            self.national_ul = partial.national_ul
            self._users_seen = partial.users_seen
            self.records_ingested = partial.records_ingested
            engine.report.merge(partial.report)

    def ingest_columnar(self, batch: ProbeRecordBatch) -> int:
        """Classify and accumulate one columnar probe batch.

        The batch's feature codes must be against the engine's codebook
        (``ValueError`` otherwise); they are never re-encoded.
        """
        batch.require_codebook(self._engine.codebook)
        n = len(batch)
        if n == 0:
            return 0
        with obs.span("aggregate"):
            return self._ingest_columnar(batch)

    def _ingest_columnar(self, batch: ProbeRecordBatch) -> int:
        n = len(batch)
        self.records_ingested += n
        obs.add("aggregation.rows", n)
        obs.add("aggregation.batches")
        dl, ul = batch.dl_bytes, batch.ul_bytes
        volumes = dl + ul
        commune_ids = batch.commune_ids

        # Distinct-user accounting: group subscriber hashes by commune
        # (stable argsort + segment boundaries) and bulk-update each
        # commune's set once.
        order = np.argsort(commune_ids, kind="stable")
        sorted_communes = commune_ids[order]
        sorted_imsi = batch.imsi_hashes[order]
        boundaries = np.flatnonzero(np.diff(sorted_communes)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        for s, e in zip(starts.tolist(), ends.tolist()):
            self._users_seen[int(sorted_communes[s])].update(
                sorted_imsi[s:e].tolist()
            )

        with obs.span("dpi.classify"):
            positions = self._engine.classify_batch(batch.feature_codes, volumes)

        service_ids = self._service_id_of[positions]
        classified = service_ids >= 0
        np.add.at(self.national_dl, service_ids[classified], dl[classified])
        np.add.at(self.national_ul, service_ids[classified], ul[classified])

        head_ids = self._head_id_of[positions]
        hours = batch.timestamps_s / 3600.0
        mask = (head_ids >= 0) & (hours >= 0) & (hours < WEEK_HOURS)
        if mask.any():
            t = (hours[mask] * self._axis.bins_per_hour).astype(np.int64)
            np.add.at(self.dl, (commune_ids[mask], head_ids[mask], t), dl[mask])
            np.add.at(self.ul, (commune_ids[mask], head_ids[mask], t), ul[mask])
        return n

    @property
    def report(self) -> ClassificationReport:
        """The byte ledger: the engine's report over everything ingested."""
        return self._engine.report

    @property
    def total_bytes(self) -> int:
        """Bytes ingested, read from :attr:`report`."""
        return self.report.bytes_total

    @property
    def unclassified_bytes(self) -> int:
        """Bytes no service was attributed, read from :attr:`report`."""
        return self.report.bytes_total - self.report.bytes_classified

    @property
    def users_seen(self) -> List[Set[int]]:
        """Per-commune sets of distinct subscriber hashes observed."""
        return self._users_seen

    def merge(self, other) -> "CommuneAggregator":
        """Fold another aggregator's (or shard partial's) state into this one.

        ``other`` needs the int64 aggregation tensors (``dl``, ``ul``,
        ``national_dl``, ``national_ul``), its classification ``report``,
        ``records_ingested`` and ``users_seen`` — either a full
        :class:`CommuneAggregator` or a plain shard-result carrier.
        Every sum is an integer one, so merge order never changes a bit.
        """
        self.dl += other.dl
        self.ul += other.ul
        self.national_dl += other.national_dl
        self.national_ul += other.national_ul
        self.report.merge(other.report)
        self.records_ingested += other.records_ingested
        for commune_id, users in enumerate(other.users_seen):
            if users:
                self._users_seen[commune_id].update(users)
        return self

    @property
    def classified_fraction(self) -> float:
        """Fraction of ingested volume attributed to a service."""
        return self.report.byte_coverage

    def finalize(self) -> MobileTrafficDataset:
        """Drop subscriber identifiers and emit the anonymized dataset."""
        obs.set_gauge("aggregation.total_bytes", float(self.total_bytes))
        obs.set_gauge("aggregation.unclassified_bytes", float(self.unclassified_bytes))
        country = self._country
        users = np.array([len(seen) for seen in self._users_seen], dtype=float)
        return MobileTrafficDataset(
            axis=self._axis,
            head_names=[s.name for s in self._catalog.head_services],
            all_service_names=[s.name for s in self._catalog],
            dl=self.dl.astype(np.float32),
            ul=self.ul.astype(np.float32),
            national_dl=self.national_dl.astype(np.float64),
            national_ul=self.national_ul.astype(np.float64),
            users=users,
            commune_classes=country.urbanization.classes.copy(),
            density=country.population.density_km2.copy(),
            coordinates=country.grid.coordinates_km.copy(),
            has_3g=country.coverage.has_3g.copy(),
            has_4g=country.coverage.has_4g.copy(),
            classified_fraction=self.classified_fraction,
            meta={"records_ingested": float(self.records_ingested)},
        )


__all__ = ["CommuneAggregator"]
