"""Unit tests for GTP message structures."""

import pytest

from repro.geo.coverage import Technology
from repro.network.gtp import (
    FeatureCodebook,
    FlowDescriptor,
    GtpcMessage,
    GtpcMessageType,
    GtpuPacket,
    TeidAllocator,
    UserLocationInformation,
)


def make_uli(commune=3):
    return UserLocationInformation(
        technology=Technology.G3,
        routing_area_id=1,
        cell_id=10,
        cell_commune_id=commune,
    )


class TestMessageTypes:
    def test_3g_detection(self):
        assert GtpcMessageType.CREATE_PDP_CONTEXT_REQUEST.is_3g
        assert not GtpcMessageType.CREATE_SESSION_REQUEST.is_3g

    def test_tunnel_lifecycle_flags(self):
        assert GtpcMessageType.CREATE_SESSION_REQUEST.creates_tunnel
        assert GtpcMessageType.DELETE_SESSION_REQUEST.deletes_tunnel
        assert not GtpcMessageType.MODIFY_BEARER_REQUEST.creates_tunnel

    def test_location_updates(self):
        assert GtpcMessageType.UPDATE_PDP_CONTEXT_REQUEST.updates_location
        assert GtpcMessageType.MODIFY_BEARER_REQUEST.updates_location
        assert not GtpcMessageType.DELETE_SESSION_REQUEST.updates_location


class TestGtpcMessage:
    def test_uli_required_for_location_updates(self):
        with pytest.raises(ValueError):
            GtpcMessage(
                message_type=GtpcMessageType.CREATE_SESSION_REQUEST,
                timestamp_s=0.0,
                imsi_hash=1,
                teid=2,
                uli=None,
            )

    def test_interface_by_generation(self):
        msg3g = GtpcMessage(
            GtpcMessageType.CREATE_PDP_CONTEXT_REQUEST, 0.0, 1, 2, make_uli()
        )
        assert msg3g.interface == "Gn"
        msg4g = GtpcMessage(
            GtpcMessageType.CREATE_SESSION_REQUEST, 0.0, 1, 2, make_uli()
        )
        assert msg4g.interface == "S5/S8"

    def test_delete_needs_no_uli(self):
        msg = GtpcMessage(
            GtpcMessageType.DELETE_SESSION_REQUEST, 0.0, 1, 2
        )
        assert msg.uli is None


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


class TestGtpuPacket:
    def test_totals(self):
        flow = FlowDescriptor(1, None, None, 80, "tcp")
        pkt = GtpuPacket(0.0, 5, flow, dl_bytes=100.0, ul_bytes=20.0)
        assert pkt.total_bytes == 120.0

    def test_negative_rejected(self):
        flow = FlowDescriptor(1, None, None, 80, "tcp")
        with pytest.raises(ValueError):
            GtpuPacket(0.0, 5, flow, dl_bytes=-1.0, ul_bytes=0.0)


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
