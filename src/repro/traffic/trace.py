"""Streaming trace persistence for session-level probe records.

Nationwide session-level traces do not fit in memory; the writer streams
:class:`~repro.network.probes.ProbeRecord` rows to a gzipped CSV and the
reader yields them back lazily, so the aggregation pipeline can run in
constant memory over arbitrarily large traces.
"""

from __future__ import annotations

import csv
import gzip
from pathlib import Path
from typing import Iterable, Iterator, Union

from repro.geo.coverage import Technology
from repro.network.gtp import FlowDescriptor
from repro.network.probes import ProbeRecord

_FIELDS = (
    "timestamp_s",
    "imsi_hash",
    "commune_id",
    "technology",
    "flow_id",
    "sni",
    "host",
    "server_port",
    "protocol",
    "payload_hint",
    "dl_bytes",
    "ul_bytes",
)


class TraceWriter:
    """Streams probe records to a gzipped CSV file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = gzip.open(self.path, "wt", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(_FIELDS)
        self.rows_written = 0

    def write(self, record: ProbeRecord) -> None:
        """Append one record."""
        flow = record.flow
        self._writer.writerow(
            (
                f"{record.timestamp_s:.3f}",
                record.imsi_hash,
                record.commune_id,
                int(record.technology),
                flow.flow_id,
                flow.sni or "",
                flow.host or "",
                flow.server_port,
                flow.protocol,
                flow.payload_hint or "",
                record.dl_bytes,
                record.ul_bytes,
            )
        )
        self.rows_written += 1

    def write_all(self, records: Iterable[ProbeRecord]) -> int:
        """Append many records; returns the number written."""
        count = 0
        for record in records:
            self.write(record)
            count += 1
        return count

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceReader:
    """Lazily iterates probe records back from a gzipped CSV trace."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        if not self.path.exists():
            raise FileNotFoundError(f"trace file {self.path} does not exist")

    def __iter__(self) -> Iterator[ProbeRecord]:
        with gzip.open(self.path, "rt", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if tuple(header or ()) != _FIELDS:
                raise ValueError(
                    f"{self.path} is not a repro trace (bad header: {header})"
                )
            for row in reader:
                yield _row_to_record(row)


def _row_to_record(row) -> ProbeRecord:
    (
        timestamp_s,
        imsi_hash,
        commune_id,
        technology,
        flow_id,
        sni,
        host,
        server_port,
        protocol,
        payload_hint,
        dl_bytes,
        ul_bytes,
    ) = row
    flow = FlowDescriptor(
        flow_id=int(flow_id),
        sni=sni or None,
        host=host or None,
        server_port=int(server_port),
        protocol=protocol,
        payload_hint=payload_hint or None,
    )
    return ProbeRecord(
        timestamp_s=float(timestamp_s),
        imsi_hash=int(imsi_hash),
        commune_id=int(commune_id),
        technology=Technology(int(technology)),
        flow=flow,
        dl_bytes=int(dl_bytes),
        ul_bytes=int(ul_bytes),
    )


__all__ = ["TraceWriter", "TraceReader"]
