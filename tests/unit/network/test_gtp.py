"""Unit tests for GTP message structures."""

import numpy as np
import pytest

from repro.network.gtp import (
    TECH_3G,
    TECH_4G,
    FeatureCodebook,
    FlowDescriptor,
    GtpcCreateBulk,
    GtpcUpdateBulk,
    TeidAllocator,
)


class TestFlowDescriptor:
    def test_valid(self):
        flow = FlowDescriptor(1, "a.example", None, 443, "tcp")
        assert flow.sni == "a.example"

    def test_port_validation(self):
        with pytest.raises(ValueError):
            FlowDescriptor(1, None, None, 0, "tcp")
        with pytest.raises(ValueError):
            FlowDescriptor(1, None, None, 70000, "tcp")

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            FlowDescriptor(1, None, None, 80, "sctp")


class TestControlBatches:
    def test_take_keeps_type_and_rows(self):
        columns = dict(
            timestamps_s=np.arange(3.0),
            imsi_hashes=np.array([1, 2, 3]),
            teids=np.array([10, 20, 30]),
            tech_codes=np.array([TECH_3G, TECH_4G, TECH_3G], dtype=np.uint8),
            routing_area_ids=np.array([0, 1, 2]),
            cell_ids=np.array([5, 6, 7]),
            cell_commune_ids=np.array([8, 9, 10]),
        )
        for kind in (GtpcCreateBulk, GtpcUpdateBulk):
            part = kind(**columns).take(np.array([False, True, True]))
            assert type(part) is kind
            assert len(part) == 2
            assert part.teids.tolist() == [20, 30]
            assert part.cell_commune_ids.tolist() == [9, 10]


class TestTeidAllocator:
    def test_unique(self):
        alloc = TeidAllocator()
        teids = {alloc.allocate() for _ in range(1000)}
        assert len(teids) == 1000

    def test_never_zero(self):
        alloc = TeidAllocator(start=2**32 - 2)
        teids = [alloc.allocate() for _ in range(4)]
        assert 0 not in teids

    def test_start_validation(self):
        with pytest.raises(ValueError):
            TeidAllocator(start=0)


class TestFeatureCodebook:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FeatureCodebook(suffixes=("a.com", "a.com"))
        with pytest.raises(ValueError):
            FeatureCodebook(hints=("h", "h"))

    def test_rejects_a_feature_space_beyond_int64(self):
        hints = tuple(f"h{i}" for i in range(8))
        FeatureCodebook(tuple(f"s{i}.example" for i in range(2700)), hints)
        with pytest.raises(ValueError, match="int64"):
            FeatureCodebook(tuple(f"s{i}.example" for i in range(2900)), hints)

    def test_equality_ignores_derived_tables(self):
        a = FeatureCodebook(("a.com", "imap."), ("h",))
        assert a == FeatureCodebook(("a.com", "imap."), ("h",))
        assert a != FeatureCodebook(("imap.", "a.com"), ("h",))
