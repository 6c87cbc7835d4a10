"""Unit tests for commune-level aggregation."""

import numpy as np
import pytest

from repro._rng import as_generator
from repro._time import TimeAxis
from repro.dataset.aggregation import CommuneAggregator
from repro.dpi.classifier import DpiEngine
from repro.dpi.fingerprints import FingerprintDatabase
from repro.network.gtp import EMPTY_CODEBOOK, TECH_3G
from repro.network.probes import ProbeRecordBatch

#: Each batch column's dtype, in declaration order.
DTYPES = {
    "timestamps_s": np.float64,
    "imsi_hashes": np.int64,
    "commune_ids": np.int64,
    "tech_codes": np.uint8,
    "dl_bytes": np.int64,
    "ul_bytes": np.int64,
    "flow_ids": np.int64,
    "feature_codes": np.int64,
}


@pytest.fixture()
def aggregator(country, catalog):
    db = FingerprintDatabase(catalog, seed=0)
    return CommuneAggregator(country, catalog, DpiEngine(db), axis=TimeAxis(1)), db


def make_record(db, service, commune, hour, imsi=1, dl=100, ul=10, obfuscated=False):
    """One flow of ``service`` as a row of batch column values."""
    (flow_id,), (code,) = db.emit_flow_features(service, 1, obfuscated)
    return (hour * 3600.0, imsi, commune, TECH_3G, dl, ul, flow_id, code)


def make_batch(codebook, *records):
    """Pack record rows into one columnar batch under ``codebook``."""
    columns = zip(*records)
    return ProbeRecordBatch(
        **{
            name: np.asarray(values, dtype=DTYPES[name])
            for name, values in zip(DTYPES, columns)
        },
        codebook=codebook,
    )


def ingest(agg, db, *records):
    """Feed record rows through the columnar entry point as one batch."""
    return agg.ingest_columnar(make_batch(db.codebook, *records))


class TestIngest:
    def test_classified_record_bucketed(self, aggregator):
        agg, db = aggregator
        assert ingest(agg, db, make_record(db, "YouTube", commune=3, hour=61.0)) == 1
        assert agg.dl[3, 0, 61] == 100.0
        assert agg.ul[3, 0, 61] == 10.0
        # Classified as YouTube (service 0) and nothing else.
        assert agg.national_dl[0] == agg.national_dl.sum() == 100.0

    def test_obfuscated_record_unclassified(self, aggregator):
        agg, db = aggregator
        ingest(
            agg, db, make_record(db, "YouTube", commune=3, hour=1.0, obfuscated=True)
        )
        assert agg.national_dl.sum() == 0
        assert agg.unclassified_bytes == 110.0
        assert agg.dl.sum() == 0

    def test_users_counted_distinct(self, aggregator):
        agg, db = aggregator
        ingest(
            agg,
            db,
            make_record(db, "YouTube", 3, 1.0, imsi=1),
            make_record(db, "Twitter", 3, 2.0, imsi=1),
            make_record(db, "Twitter", 3, 3.0, imsi=2),
        )
        dataset = agg.finalize()
        assert dataset.users[3] == 2

    def test_classified_fraction(self, aggregator):
        agg, db = aggregator
        ingest(
            agg,
            db,
            make_record(db, "YouTube", 0, 1.0, dl=880, ul=0),
            make_record(db, "YouTube", 0, 1.0, dl=120, ul=0, obfuscated=True),
        )
        assert agg.classified_fraction == pytest.approx(0.88)

    def test_out_of_week_records_kept_national_only(self, aggregator):
        agg, db = aggregator
        record = make_record(db, "YouTube", 0, 200.0)  # beyond hour 168
        ingest(agg, db, record)
        assert agg.dl.sum() == 0
        assert agg.national_dl[0] == 100.0

    def test_finalize_dataset_shape(self, aggregator, country):
        agg, db = aggregator
        ingest(agg, db, make_record(db, "Facebook", 1, 10.0))
        dataset = agg.finalize()
        assert dataset.n_communes == country.n_communes
        assert dataset.commune_volumes("Facebook", "dl")[1] == 100.0

    def test_tail_service_not_in_tensor(self, aggregator, catalog):
        agg, db = aggregator
        tail_name = catalog.tail_services[0].name
        ingest(agg, db, make_record(db, tail_name, 2, 5.0))
        assert agg.dl.sum() == 0  # head tensor untouched
        assert agg.national_dl[catalog.by_name(tail_name).service_id] == 100.0

    def test_foreign_codebook_refused(self, aggregator):
        # Codes are never re-encoded: a batch under another codebook is
        # refused before anything is counted.
        agg, db = aggregator
        batch = make_batch(EMPTY_CODEBOOK, make_record(db, "YouTube", 0, 1.0))
        with pytest.raises(ValueError, match="codebook"):
            agg.ingest_columnar(batch)
        assert agg.records_ingested == 0
        assert agg.report.flows_total == 0


def random_batch(db, catalog, n_communes, seed, per_service=200):
    """Flows of every head service with heavy-tailed whole-byte volumes.

    Each seed draws its own subscriber hashes, so batches of different
    seeds are disjoint subscriber sets, as shard partials are.
    """
    rng = as_generator(seed)
    ids, codes = zip(
        *(db.emit_flow_features(s.name, per_service) for s in catalog.head_services)
    )
    n = per_service * len(catalog.head_services)
    return ProbeRecordBatch(
        timestamps_s=rng.uniform(0.0, 7 * 24 * 3600.0, n),
        imsi_hashes=rng.integers(0, 1000, n) + 1000 * seed,
        commune_ids=rng.integers(0, n_communes, n),
        tech_codes=np.zeros(n, dtype=np.uint8),
        dl_bytes=np.rint(rng.lognormal(13.0, 2.0, n)).astype(np.int64),
        ul_bytes=np.rint(rng.lognormal(10.0, 2.0, n)).astype(np.int64),
        flow_ids=np.concatenate(ids),
        feature_codes=np.concatenate(codes),
        codebook=db.codebook,
    )


class TestMerge:
    def test_merge_order_never_changes_a_bit(self, country, catalog):
        db = FingerprintDatabase(catalog, seed=0)
        batches = [random_batch(db, catalog, country.n_communes, s) for s in range(3)]

        def fresh():
            return CommuneAggregator(country, catalog, DpiEngine(db))

        def merged(order):
            parts = []
            for batch in batches:
                parts.append(fresh())
                parts[-1].ingest_columnar(batch)
            target = parts[order[0]]
            for i in order[1:]:
                target.merge(parts[i])
            return target

        one_pass = fresh()
        for batch in batches:
            one_pass.ingest_columnar(batch)
        forward, backward = merged((0, 1, 2)), merged((2, 1, 0))
        for agg in (backward, one_pass):
            for name in ("dl", "ul", "national_dl", "national_ul"):
                assert getattr(agg, name).tobytes() == getattr(forward, name).tobytes()
            assert agg.report == forward.report
            assert agg.users_seen == forward.users_seen
        assert forward.dl.dtype == np.int64
        assert forward.report.flows_total == sum(len(b) for b in batches)
        assert forward.total_bytes == sum(
            int(b.dl_bytes.sum() + b.ul_bytes.sum()) for b in batches
        )
        assert forward.classified_fraction == forward.report.byte_coverage
