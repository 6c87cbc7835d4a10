"""GPRS Tunneling Protocol structures.

The probes of the paper tap two planes at the Gn (3G) and S5/S8 (4G)
interfaces:

- **GTP-C** (control): PDP-context and EPS-bearer signalling, from which
  the User Location Information (ULI) is extracted to geo-reference each
  IP session;
- **GTP-U** (user): the tunneled IP traffic itself, from which per-flow
  byte counts and DPI fingerprint material are extracted.

This module models the message structures the probes parse.  Only the
fields the measurement pipeline needs are carried — the point is to
reproduce the probe's *information flow*, not the wire format.

The columnar structures carry a flow's DPI features as one int64 code
per flow against a :class:`FeatureCodebook`, not as five Python
columns of strings: the generator builds codes with array arithmetic,
and the classifier decodes each *distinct* code once.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.geo.coverage import Technology

#: Compact integer codes for :class:`~repro.geo.coverage.Technology`,
#: used by the columnar (bulk) message structures below.
TECH_3G, TECH_4G = 0, 1
TECH_BY_CODE = (Technology.G3, Technology.G4)
TECH_CODES = {Technology.G3: TECH_3G, Technology.G4: TECH_4G}


class GtpcMessageType(enum.Enum):
    """Control-plane messages relevant to the probes.

    The 3G names follow GTPv1-C (TS 29.060), the 4G names GTPv2-C
    (TS 29.274); both planes transit the probed interfaces.
    """

    # 3G / GTPv1-C
    CREATE_PDP_CONTEXT_REQUEST = "CreatePDPContextRequest"
    CREATE_PDP_CONTEXT_RESPONSE = "CreatePDPContextResponse"
    UPDATE_PDP_CONTEXT_REQUEST = "UpdatePDPContextRequest"
    DELETE_PDP_CONTEXT_REQUEST = "DeletePDPContextRequest"
    # 4G / GTPv2-C
    CREATE_SESSION_REQUEST = "CreateSessionRequest"
    CREATE_SESSION_RESPONSE = "CreateSessionResponse"
    MODIFY_BEARER_REQUEST = "ModifyBearerRequest"
    DELETE_SESSION_REQUEST = "DeleteSessionRequest"

    @property
    def is_3g(self) -> bool:
        return "PDP" in self.value

    @property
    def creates_tunnel(self) -> bool:
        return self in (
            GtpcMessageType.CREATE_PDP_CONTEXT_REQUEST,
            GtpcMessageType.CREATE_SESSION_REQUEST,
        )

    @property
    def updates_location(self) -> bool:
        return self in (
            GtpcMessageType.CREATE_PDP_CONTEXT_REQUEST,
            GtpcMessageType.UPDATE_PDP_CONTEXT_REQUEST,
            GtpcMessageType.CREATE_SESSION_REQUEST,
            GtpcMessageType.MODIFY_BEARER_REQUEST,
        )

    @property
    def deletes_tunnel(self) -> bool:
        return self in (
            GtpcMessageType.DELETE_PDP_CONTEXT_REQUEST,
            GtpcMessageType.DELETE_SESSION_REQUEST,
        )


@dataclass(frozen=True)
class UserLocationInformation:
    """The ULI information element (SAI/CGI on 3G, ECGI/TAI on 4G).

    ``cell_commune_id`` is the commune of the reporting cell — the
    simulator's stand-in for the cell identifier that the real pipeline
    resolves to a commune through the operator's cell database.
    """

    technology: Technology
    routing_area_id: int
    cell_id: int
    cell_commune_id: int

    def __str__(self) -> str:
        area = "TAI" if self.technology is Technology.G4 else "SAI"
        return f"ULI[{area}={self.routing_area_id} cell={self.cell_id}]"


@dataclass(frozen=True)
class GtpcMessage:
    """A control-plane message observed on Gn or S5/S8."""

    message_type: GtpcMessageType
    timestamp_s: float
    imsi_hash: int
    teid: int
    uli: Optional[UserLocationInformation] = None

    def __post_init__(self) -> None:
        if self.message_type.updates_location and self.uli is None:
            raise ValueError(
                f"{self.message_type.value} must carry a ULI information element"
            )

    @property
    def interface(self) -> str:
        """The probed interface this message transits."""
        return "Gn" if self.message_type.is_3g else "S5/S8"


@dataclass(frozen=True)
class FlowDescriptor:
    """DPI-relevant attributes of one IP flow.

    These are the features the operator's proprietary classifier uses:
    the TLS SNI (when present), the HTTP host (for clear-text flows),
    the server port, the transport protocol, and an opaque payload hint
    standing in for stateful protocol fingerprints.  They ride inside the
    GTP-U payload, which is where the probes extract them from.
    """

    flow_id: int
    sni: Optional[str]
    host: Optional[str]
    server_port: int
    protocol: str  # "tcp" / "udp"
    payload_hint: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 < self.server_port < 65536:
            raise ValueError(f"invalid server port {self.server_port}")
        if self.protocol not in ("tcp", "udp"):
            raise ValueError(f"protocol must be tcp or udp, got {self.protocol!r}")


#: A flow's DPI features in match order:
#: ``(sni, host, payload_hint, server_port, protocol)``.
Features = Tuple[Optional[str], Optional[str], Optional[str], int, str]

_PROTOCOL_FIELDS = {"tcp": 0, "udp": 1}
_PROTOCOLS = ("tcp", "udp")

#: Endpoint name parts: ``edge-NNN.`` heads under plain suffixes and
#: ``providerNN.example`` tails under prefix-style ones.
_EDGE_HEADS = tuple(f"edge-{i:03d}." for i in range(1000))
_PROVIDER_TAILS = tuple(f"provider{i:02d}.example" for i in range(100))
_EDGE_LABEL = {head: i for i, head in enumerate(_EDGE_HEADS)}
_PROVIDER_LABEL = {tail: i for i, tail in enumerate(_PROVIDER_TAILS)}


def endpoint_name(suffix: str, label: int) -> str:
    """The DNS name of edge node ``label`` under a fingerprint suffix.

    Plain suffixes get an ``edge-NNN.`` label (``label < 1000``);
    prefix-style suffixes ending with ``.`` (``"imap."``) get a
    ``providerNN.example`` domain (``label < 100``).
    """
    if suffix.endswith("."):
        return suffix + _PROVIDER_TAILS[label]
    return _EDGE_HEADS[label] + suffix


@dataclass(frozen=True)
class FeatureCodebook:
    """Dictionary encoding of flow features as int64 codes.

    A code packs five fields in mixed radix, most significant first:
    the SNI endpoint, the HTTP host endpoint, the payload hint, the
    server port and the protocol.  An endpoint field is 0 for no name,
    else ``1 + suffix_index * LABELS + label`` for the name
    :func:`endpoint_name` renders; a hint field is 0 for no hint, else
    ``1 + hint_index``; the port field is ``port * 2 + (protocol ==
    "udp")``.  Names outside this space (foreign domains, unknown
    hints) have no code: :meth:`encode` keeps such features in a
    batch-local overflow table and gives them negative codes,
    ``-(1 + row)``.

    The codebook holds strings only, no service ids: any two codebooks
    built from the same suffix and hint lists decode every code to the
    same features.  The whole space must fit an int64: with the
    catalog's 8 payload hints that allows about 2,800 suffixes (the
    60-service session catalog has 104).
    """

    suffixes: Tuple[str, ...] = ()
    hints: Tuple[str, ...] = ()
    #: Values of an endpoint field (0 stands for no name).
    endpoints: int = field(init=False, compare=False)
    #: Values of the hint field (0 stands for no hint).
    hint_fields: int = field(init=False, compare=False)
    _suffix_index: Dict[str, int] = field(
        init=False, repr=False, compare=False
    )
    _hint_index: Dict[str, int] = field(init=False, repr=False, compare=False)
    _prefixes: Tuple[Tuple[str, int], ...] = field(
        init=False, repr=False, compare=False
    )
    _is_prefix: np.ndarray = field(init=False, repr=False, compare=False)

    #: Labels per suffix in an endpoint field.
    LABELS = len(_EDGE_HEADS)
    #: Size of the port field: every 16-bit port, times two protocols.
    PORT_FIELDS = 1 << 17

    def __post_init__(self) -> None:
        suffix_index = {suffix: i for i, suffix in enumerate(self.suffixes)}
        hint_index = {hint: i for i, hint in enumerate(self.hints)}
        if len(suffix_index) != len(self.suffixes):
            raise ValueError("codebook suffixes must be distinct")
        if len(hint_index) != len(self.hints):
            raise ValueError("codebook hints must be distinct")
        endpoints = 1 + len(self.suffixes) * self.LABELS
        hint_fields = 1 + len(self.hints)
        if endpoints**2 * hint_fields * self.PORT_FIELDS > 2**63:
            raise ValueError("feature space does not fit an int64 code")
        # One entry per suffix, plus a False that field 0 (index -1) reads.
        is_prefix = np.asarray(
            [s.endswith(".") for s in self.suffixes] + [False], dtype=bool
        )
        for name, value in (
            ("_is_prefix", is_prefix),
            ("endpoints", endpoints),
            ("hint_fields", hint_fields),
            ("_suffix_index", suffix_index),
            ("_hint_index", hint_index),
            (
                "_prefixes",
                tuple((s, i) for s, i in suffix_index.items() if s.endswith(".")),
            ),
        ):
            object.__setattr__(self, name, value)

    def suffix_field(self, suffix: str) -> int:
        """Endpoint field of label 0 under ``suffix``; add the label."""
        return 1 + self._suffix_index[suffix] * self.LABELS

    def hint_field(self, hint: str) -> int:
        return 1 + self._hint_index[hint]

    @staticmethod
    def port_field(port: int, protocol: str) -> int:
        return port * 2 + _PROTOCOL_FIELDS[protocol]

    def pack(self, sni, host, hint, port):
        """Codes from field values (ints or int64 arrays alike)."""
        return ((sni * self.endpoints + host) * self.hint_fields + hint) * (
            self.PORT_FIELDS
        ) + port

    def encode(
        self, rows: Iterable[Features]
    ) -> Tuple[np.ndarray, Tuple[Features, ...]]:
        """Codes for feature tuples, plus the overflow table they use."""
        codes: List[int] = []
        overflow: Dict[Features, int] = {}
        for features in rows:
            code = self._code(features)
            if code is None:
                code = -1 - overflow.setdefault(features, len(overflow))
            codes.append(code)
        return np.asarray(codes, dtype=np.int64), tuple(overflow)

    def decode(
        self, codes: np.ndarray, overflow: Sequence[Features] = ()
    ) -> List[Features]:
        """The feature tuples of an int64 code array, in order.

        Negative codes index ``overflow``.  The fields are split with
        array arithmetic; only the names are rendered one by one.
        """
        codes = np.asarray(codes, dtype=np.int64)
        fields = np.maximum(codes, 0)
        rest, ports = np.divmod(fields, self.PORT_FIELDS)
        rest, hints = np.divmod(rest, self.hint_fields)
        snis, hosts = np.divmod(rest, self.endpoints)
        if (snis >= self.endpoints).any():
            raise ValueError("code outside the codebook")
        hint_names = (None,) + self.hints
        return [
            overflow[-1 - code] if code < 0 else (sni, host, hint_names[hint], port, proto)
            for code, sni, host, hint, port, proto in zip(
                codes.tolist(),
                self._names(snis),
                self._names(hosts),
                hints.tolist(),
                (ports >> 1).tolist(),
                [_PROTOCOLS[p] for p in (ports & 1).tolist()],
            )
        ]

    def _code(self, features: Features) -> Optional[int]:
        """The code of one feature tuple, or None outside the codebook."""
        sni, host, hint, port, protocol = features
        if hint is None:
            hint_field = 0
        elif hint in self._hint_index:
            hint_field = 1 + self._hint_index[hint]
        else:
            return None
        sni_field = self._endpoint_field(sni)
        host_field = self._endpoint_field(host)
        proto = _PROTOCOL_FIELDS.get(protocol)
        if (
            sni_field is None
            or host_field is None
            or proto is None
            or not 0 <= port < 1 << 16
        ):
            return None
        return self.pack(sni_field, host_field, hint_field, int(port) * 2 + proto)

    def _names(self, fields: np.ndarray) -> List[Optional[str]]:
        """Rendered endpoint names of endpoint fields (None for 0)."""
        index, label = np.divmod(fields - 1, self.LABELS)
        is_prefix = self._is_prefix[index]
        if (is_prefix & (label >= len(_PROVIDER_TAILS))).any():
            raise ValueError("provider label outside the codebook")
        suffixes, heads, tails = self.suffixes, _EDGE_HEADS, _PROVIDER_TAILS
        return [
            None if f == 0 else suffixes[i] + tails[k] if p else heads[k] + suffixes[i]
            for f, i, k, p in zip(
                fields.tolist(), index.tolist(), label.tolist(), is_prefix.tolist()
            )
        ]

    def _endpoint_field(self, name: Optional[str]) -> Optional[int]:
        """Field of a rendered endpoint name; None if it has no code."""
        if name is None:
            return 0
        label = _EDGE_LABEL.get(name[:9])
        if label is not None:
            index = self._suffix_index.get(name[9:])
            if index is not None and not name.endswith("."):
                return 1 + index * self.LABELS + label
        for prefix, index in self._prefixes:
            if name.startswith(prefix):
                label = _PROVIDER_LABEL.get(name[len(prefix):])
                if label is not None:
                    return 1 + index * self.LABELS + label
        return None


#: The codebook with no names: it encodes port/protocol-only features
#: and sends everything else to a batch's overflow table.
EMPTY_CODEBOOK = FeatureCodebook()


@dataclass(frozen=True)
class GtpuPacket:
    """An accounting record of user-plane traffic within one tunnel.

    Rather than simulating individual IP packets, the simulator batches
    the traffic a flow exchanges within one reporting interval into one
    ``GtpuPacket`` carrying byte counters — the same granularity at which
    the real probes export flow records.
    """

    timestamp_s: float
    teid: int
    flow: FlowDescriptor
    dl_bytes: float
    ul_bytes: float

    def __post_init__(self) -> None:
        if self.dl_bytes < 0 or self.ul_bytes < 0:
            raise ValueError("byte counters must be non-negative")

    @property
    def total_bytes(self) -> float:
        return self.dl_bytes + self.ul_bytes


@dataclass
class GtpcCreateBulk:
    """A columnar batch of session-establishment signalling.

    One entry per session; each entry stands for the request/response
    *pair* the scalar :class:`GtpcMessage` path emits, so a probe
    observing a batch of ``n`` sessions accounts ``2 n`` control
    messages.  Carrying the ULI fields as parallel arrays lets the
    probes maintain their tunnel tables without materializing one
    message object per session — the bulk fast path of the measurement
    chain.
    """

    timestamps_s: np.ndarray
    imsi_hashes: np.ndarray
    teids: np.ndarray
    tech_codes: np.ndarray  # TECH_3G / TECH_4G per session
    routing_area_ids: np.ndarray
    cell_ids: np.ndarray
    cell_commune_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.teids)


@dataclass
class GtpcDeleteBulk:
    """A columnar batch of session-teardown signalling (one per session)."""

    timestamps_s: np.ndarray
    imsi_hashes: np.ndarray
    teids: np.ndarray
    tech_codes: np.ndarray

    def __len__(self) -> int:
        return len(self.teids)


@dataclass
class GtpuBulk:
    """A columnar batch of user-plane flow accounting records.

    Flows are grouped by session: ``session_teids[i]`` carried
    ``flows_per_session[i]`` consecutive flows of the flat per-flow
    arrays.  DPI features ride as one int64 code per flow against
    ``codebook``.
    """

    session_teids: np.ndarray
    flows_per_session: np.ndarray
    timestamps_s: np.ndarray
    dl_bytes: np.ndarray
    ul_bytes: np.ndarray
    flow_ids: np.ndarray
    feature_codes: np.ndarray
    codebook: FeatureCodebook

    def __len__(self) -> int:
        return len(self.timestamps_s)


class TeidAllocator:
    """Allocates unique Tunnel Endpoint IDs.

    Real GGSNs/P-GWs allocate 32-bit TEIDs per tunnel endpoint; the
    simulator only needs uniqueness, so a simple counter (wrapping within
    32 bits) suffices.
    """

    _MAX = 2**32

    def __init__(self, start: int = 1):
        if not 0 < start < self._MAX:
            raise ValueError(f"start must be in (0, 2^32), got {start}")
        self._counter = itertools.count(start)

    def allocate(self) -> int:
        """Return the next TEID."""
        teid = next(self._counter) % self._MAX
        if teid == 0:  # TEID 0 is reserved for signalling
            teid = next(self._counter) % self._MAX
        obs.add("gtp.teids_allocated")
        return teid

    def allocate_many(self, n: int) -> np.ndarray:
        """Return the next ``n`` TEIDs as an array."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        teids = np.fromiter(
            itertools.islice(self._counter, n), dtype=np.int64, count=n
        )
        teids %= self._MAX
        reserved = teids == 0
        if reserved.any():  # once per 2^32 sessions
            teids[reserved] = [self.allocate() for _ in range(int(reserved.sum()))]
        obs.add("gtp.teids_allocated", n)
        return teids


__all__ = [
    "GtpcMessageType",
    "UserLocationInformation",
    "GtpcMessage",
    "FlowDescriptor",
    "Features",
    "FeatureCodebook",
    "EMPTY_CODEBOOK",
    "endpoint_name",
    "GtpuPacket",
    "GtpcCreateBulk",
    "GtpcDeleteBulk",
    "GtpuBulk",
    "TeidAllocator",
    "TECH_3G",
    "TECH_4G",
    "TECH_BY_CODE",
    "TECH_CODES",
]
