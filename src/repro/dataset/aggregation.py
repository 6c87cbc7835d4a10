"""Streaming aggregation of probe records into the commune-level dataset.

This stage is the paper's anonymization boundary (§2): probe records
still carry (hashed) subscriber identifiers; the aggregator classifies
each record with the DPI engine, buckets it by (commune, service, time
bin, direction), and keeps only aggregate counters — "mobile service
demands are merged over several thousands of subscribers".

The aggregator also estimates the "average number of users in each
commune" the paper normalizes by, counting distinct subscribers observed
per commune over the week.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro import obs
from repro._time import TimeAxis, WEEK_HOURS
from repro.dataset.accumulate import BlockSumAccumulator
from repro.dataset.store import MobileTrafficDataset
from repro.dpi.classifier import DpiEngine
from repro.geo.country import Country
from repro.network.probes import ProbeRecord, ProbeRecordBatch
from repro.services.catalog import ServiceCatalog


class CommuneAggregator:
    """Accumulates classified probe records into dataset tensors."""

    def __init__(
        self,
        country: Country,
        catalog: ServiceCatalog,
        engine: DpiEngine,
        axis: TimeAxis = TimeAxis(1),
    ):
        self._country = country
        self._catalog = catalog
        self._engine = engine
        self._axis = axis

        head = catalog.head_services
        self._head_index: Dict[str, int] = {s.name: i for i, s in enumerate(head)}
        self._service_index: Dict[str, int] = {
            s.name: s.service_id for s in catalog
        }
        # Engine service positions -> catalog service id / head index,
        # with a trailing -1 that an unclassified flow's -1 selects.
        self._service_id_of = np.asarray(
            [self._service_index[nm] for nm in engine.service_names] + [-1],
            dtype=np.int64,
        )
        self._head_id_of = np.asarray(
            [self._head_index.get(nm, -1) for nm in engine.service_names] + [-1],
            dtype=np.int64,
        )
        n_communes = country.n_communes
        self.dl = np.zeros((n_communes, len(head), axis.n_bins), dtype=np.float64)
        self.ul = np.zeros_like(self.dl)
        self.national_dl = np.zeros(len(catalog))
        self.national_ul = np.zeros(len(catalog))
        # Byte totals accumulate through fixed-block summers so the
        # result is bit-identical however the record stream is chunked
        # (streaming vs in-memory builds); merged-in shard totals fold
        # sequentially into the offsets.
        self._total_acc = BlockSumAccumulator()
        self._unclassified_acc = BlockSumAccumulator()
        self._merged_total_bytes = 0.0
        self._merged_unclassified_bytes = 0.0
        self._users_seen: List[Set[int]] = [set() for _ in range(n_communes)]
        self.records_ingested = 0

    def ingest(self, record: ProbeRecord) -> Optional[str]:
        """Classify and accumulate one record; returns the service name."""
        self.records_ingested += 1
        obs.add("aggregation.rows")
        volume = record.total_bytes
        self._total_acc.add(volume)
        self._users_seen[record.commune_id].add(record.imsi_hash)

        service_name = self._engine.classify(record.flow, volume_bytes=volume)
        if service_name is None:
            self._unclassified_acc.add(volume)
            return None

        service_id = self._service_index[service_name]
        self.national_dl[service_id] += record.dl_bytes
        self.national_ul[service_id] += record.ul_bytes

        head_idx = self._head_index.get(service_name)
        if head_idx is not None:
            hour = record.timestamp_s / 3600.0
            if 0 <= hour < WEEK_HOURS:
                t = int(hour * self._axis.bins_per_hour)
                self.dl[record.commune_id, head_idx, t] += record.dl_bytes
                self.ul[record.commune_id, head_idx, t] += record.ul_bytes
        return service_name

    def ingest_all(
        self, records: Iterable[ProbeRecord], chunk_size: int = 8192
    ) -> int:
        """Ingest a record stream in vectorized chunks.

        Delegates to :meth:`ingest_batch` ``chunk_size`` records at a
        time, so arbitrarily long streams aggregate at batch speed with
        bounded working memory.  Returns the number processed.
        """
        count = 0
        iterator = iter(records)
        while True:
            chunk = list(itertools.islice(iterator, chunk_size))
            if not chunk:
                break
            count += self.ingest_batch(chunk)
        return count

    def ingest_batch(self, records: Sequence[ProbeRecord]) -> int:
        """Vectorized ingest of a batch of scalar records.

        Encodes the records against the engine's codebook, classifies
        once per distinct feature code and scatters the byte counters
        with array arithmetic; the resulting tensors and accounting
        match per-record :meth:`ingest` calls up to float summation
        order.
        """
        if not records:
            return 0
        return self.ingest_columnar(
            ProbeRecordBatch.from_records(list(records), self._engine.codebook)
        )

    def ingest_columnar(self, batch: ProbeRecordBatch) -> int:
        """Ingest one columnar probe batch (the fast path)."""
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
        self._total_acc.update(volumes)
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

        batch = batch.recoded(self._engine.codebook)
        with obs.span("dpi.classify"):
            # Builds never fill an overflow table (only hand-built records
            # do), so they keep the two-argument classify_batch(keys,
            # volumes) call that perfbench's wrappers expect.
            if batch.overflow:
                positions = self._engine.classify_batch(
                    batch.feature_codes, volumes, batch.overflow
                )
            else:
                positions = self._engine.classify_batch(batch.feature_codes, volumes)

        service_ids = self._service_id_of[positions]
        classified = service_ids >= 0
        self._unclassified_acc.update(volumes[~classified])
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
    def total_bytes(self) -> float:
        """Bytes ingested: merged shard totals plus locally streamed sum."""
        return self._merged_total_bytes + self._total_acc.value

    @property
    def unclassified_bytes(self) -> float:
        """Unattributed bytes, accumulated the same chunk-invariant way."""
        return self._merged_unclassified_bytes + self._unclassified_acc.value

    @property
    def users_seen(self) -> List[Set[int]]:
        """Per-commune sets of distinct subscriber hashes observed."""
        return self._users_seen

    def merge(self, other) -> "CommuneAggregator":
        """Fold another aggregator's (or shard partial's) state into this one.

        ``other`` needs the aggregation tensors (``dl``, ``ul``,
        ``national_dl``, ``national_ul``), the byte/record counters and
        ``users_seen`` — either a full :class:`CommuneAggregator` or a
        plain shard-result carrier.  Merging is order-sensitive in
        floating point, so callers reduce shards in a fixed order.
        """
        self.dl += other.dl
        self.ul += other.ul
        self.national_dl += other.national_dl
        self.national_ul += other.national_ul
        self._merged_unclassified_bytes += other.unclassified_bytes
        self._merged_total_bytes += other.total_bytes
        self.records_ingested += other.records_ingested
        for commune_id, users in enumerate(other.users_seen):
            if users:
                self._users_seen[commune_id].update(users)
        return self

    @property
    def classified_fraction(self) -> float:
        """Fraction of ingested volume attributed to a service."""
        if self.total_bytes == 0:
            return 0.0
        return 1.0 - self.unclassified_bytes / self.total_bytes

    def finalize(self) -> MobileTrafficDataset:
        """Drop subscriber identifiers and emit the anonymized dataset."""
        obs.set_gauge("aggregation.total_bytes", self.total_bytes)
        obs.set_gauge("aggregation.unclassified_bytes", self.unclassified_bytes)
        country = self._country
        users = np.array([len(seen) for seen in self._users_seen], dtype=float)
        return MobileTrafficDataset(
            axis=self._axis,
            head_names=[s.name for s in self._catalog.head_services],
            all_service_names=[s.name for s in self._catalog],
            dl=self.dl.astype(np.float32),
            ul=self.ul.astype(np.float32),
            national_dl=self.national_dl.copy(),
            national_ul=self.national_ul.copy(),
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
