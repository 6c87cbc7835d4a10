"""Unit tests for trace persistence."""

import pytest

from repro.geo.coverage import Technology
from repro.network.gtp import FlowDescriptor
from repro.network.probes import ProbeRecord
from repro.traffic.trace import TraceReader, TraceWriter


def make_record(i=0):
    return ProbeRecord(
        timestamp_s=1.5 + i,
        imsi_hash=1000 + i,
        commune_id=i % 7,
        technology=Technology.G4 if i % 2 else Technology.G3,
        flow=FlowDescriptor(
            flow_id=i,
            sni="edge.youtube.com" if i % 2 else None,
            host=None if i % 2 else "mmsc.provider.example",
            server_port=443,
            protocol="tcp",
            payload_hint="quic-yt" if i % 3 == 0 else None,
        ),
        dl_bytes=123 + i,
        ul_bytes=5,
    )


class TestRoundtrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "trace.csv.gz"
        records = [make_record(i) for i in range(25)]
        with TraceWriter(path) as writer:
            assert writer.write_all(records) == 25
            assert writer.rows_written == 25
        loaded = list(TraceReader(path))
        assert len(loaded) == 25
        for original, restored in zip(records, loaded):
            assert restored.imsi_hash == original.imsi_hash
            assert restored.commune_id == original.commune_id
            assert restored.technology is original.technology
            assert restored.flow.sni == original.flow.sni
            assert restored.flow.payload_hint == original.flow.payload_hint
            assert restored.dl_bytes == original.dl_bytes
            assert restored.ul_bytes == original.ul_bytes
            assert type(restored.dl_bytes) is int

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceReader(tmp_path / "nope.csv.gz")

    def test_bad_header_rejected(self, tmp_path):
        import gzip

        path = tmp_path / "bad.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            list(TraceReader(path))

    def test_streaming_iteration(self, tmp_path):
        path = tmp_path / "trace.csv.gz"
        with TraceWriter(path) as writer:
            writer.write(make_record())
        # Two independent iterations both see the record.
        reader = TraceReader(path)
        assert len(list(reader)) == 1
        assert len(list(reader)) == 1
