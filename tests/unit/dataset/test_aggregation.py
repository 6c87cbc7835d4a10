"""Unit tests for commune-level aggregation."""

import numpy as np
import pytest

from repro._time import TimeAxis
from repro.dataset.aggregation import CommuneAggregator
from repro.dpi.classifier import DpiEngine
from repro.dpi.fingerprints import FingerprintDatabase
from repro.geo.coverage import Technology
from repro.network.probes import ProbeRecord, ProbeRecordBatch


@pytest.fixture()
def aggregator(country, catalog):
    db = FingerprintDatabase(catalog, seed=0)
    return CommuneAggregator(country, catalog, DpiEngine(db), axis=TimeAxis(1)), db


def make_record(db, service, commune, hour, imsi=1, dl=100.0, ul=10.0, obfuscated=False):
    return ProbeRecord(
        timestamp_s=hour * 3600.0,
        imsi_hash=imsi,
        commune_id=commune,
        technology=Technology.G3,
        flow=db.emit_flow(service, obfuscated=obfuscated),
        dl_bytes=dl,
        ul_bytes=ul,
    )


def ingest(agg, *records):
    """Feed scalar records through the columnar entry point."""
    return agg.ingest_columnar(ProbeRecordBatch.from_records(list(records)))


class TestIngest:
    def test_classified_record_bucketed(self, aggregator):
        agg, db = aggregator
        assert ingest(agg, make_record(db, "YouTube", commune=3, hour=61.0)) == 1
        assert agg.dl[3, 0, 61] == 100.0
        assert agg.ul[3, 0, 61] == 10.0
        # Classified as YouTube (service 0) and nothing else.
        assert agg.national_dl[0] == agg.national_dl.sum() == 100.0

    def test_obfuscated_record_unclassified(self, aggregator):
        agg, db = aggregator
        ingest(agg, make_record(db, "YouTube", commune=3, hour=1.0, obfuscated=True))
        assert agg.national_dl.sum() == 0
        assert agg.unclassified_bytes == 110.0
        assert agg.dl.sum() == 0

    def test_users_counted_distinct(self, aggregator):
        agg, db = aggregator
        ingest(
            agg,
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
            make_record(db, "YouTube", 0, 1.0, dl=880.0, ul=0.0),
            make_record(db, "YouTube", 0, 1.0, dl=120.0, ul=0.0, obfuscated=True),
        )
        assert agg.classified_fraction == pytest.approx(0.88)

    def test_out_of_week_records_kept_national_only(self, aggregator):
        agg, db = aggregator
        record = make_record(db, "YouTube", 0, 200.0)  # beyond hour 168
        ingest(agg, record)
        assert agg.dl.sum() == 0
        assert agg.national_dl[0] == 100.0

    def test_finalize_dataset_shape(self, aggregator, country):
        agg, db = aggregator
        ingest(agg, make_record(db, "Facebook", 1, 10.0))
        dataset = agg.finalize()
        assert dataset.n_communes == country.n_communes
        assert dataset.commune_volumes("Facebook", "dl")[1] == 100.0

    def test_tail_service_not_in_tensor(self, aggregator, catalog):
        agg, db = aggregator
        tail_name = catalog.tail_services[0].name
        ingest(agg, make_record(db, tail_name, 2, 5.0))
        assert agg.dl.sum() == 0  # head tensor untouched
        assert agg.national_dl[catalog.by_name(tail_name).service_id] == 100.0
