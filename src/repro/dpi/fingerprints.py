"""Fingerprint database: what each service's flows look like on the wire.

Each :class:`ServiceFingerprint` lists the observable features of one
service's flows.  The database is used from both sides:

- the **traffic generator** asks it to *emit* a plausible
  :class:`~repro.network.gtp.FlowDescriptor` for a service (choosing one
  of its SNI/host endpoints, ports and payload hints at random), with a
  tunable share of obfuscated flows carrying no usable features — these
  become the paper's ~12 % unclassified volume;
- the **classifier** matches descriptors back against the same features.

The emitter (:meth:`FingerprintDatabase.feature_codes`) does not render
strings at all: it returns one int64 feature code per flow against the
database's :attr:`~FingerprintDatabase.codebook`, a
:class:`~repro.network.gtp.FeatureCodebook` over every suffix and hint
of the catalog's fingerprints.  Each code field is a keyed draw of the
flow's key, so a flow's features depend on that flow alone.  The
codebook is a pure function of the catalog, so the classifier's own
database decodes the emitter's codes to the same strings;
:meth:`~FingerprintDatabase.emit_flow` renders one flow that way.

Head-service fingerprints use the services' real-world domains; the
anonymous tail services get generated CDN-style domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._rng import KeyedStream, SeedLike, integer_variates, root_key
from repro.network.gtp import FeatureCodebook, FlowDescriptor
from repro.services.catalog import ServiceCatalog


@dataclass(frozen=True)
class ServiceFingerprint:
    """On-the-wire features of one service."""

    service_name: str
    sni_suffixes: Tuple[str, ...] = ()
    host_suffixes: Tuple[str, ...] = ()
    #: (port, protocol) pairs specific enough to identify the service.
    port_signatures: Tuple[Tuple[int, str], ...] = ()
    #: Opaque stateful-protocol hints (e.g. "quic-yt", "mms-wsp").
    payload_hints: Tuple[str, ...] = ()
    #: Share of this service's flows that are TLS (carry an SNI).
    tls_share: float = 0.9

    def __post_init__(self) -> None:
        if not (
            self.sni_suffixes
            or self.host_suffixes
            or self.port_signatures
            or self.payload_hints
        ):
            raise ValueError(
                f"fingerprint for {self.service_name!r} has no features"
            )
        if not 0 <= self.tls_share <= 1:
            raise ValueError(f"tls_share must be in [0, 1], got {self.tls_share}")


# Real-world endpoints of the 20 head services (2016-era).
_HEAD_FINGERPRINTS: Dict[str, ServiceFingerprint] = {
    fp.service_name: fp
    for fp in (
        ServiceFingerprint(
            "YouTube",
            sni_suffixes=("googlevideo.com", "youtube.com", "ytimg.com"),
            host_suffixes=("youtube.com", "googlevideo.com"),
            payload_hints=("quic-yt",),
            tls_share=0.95,
        ),
        ServiceFingerprint(
            "iTunes",
            sni_suffixes=("itunes.apple.com", "mzstatic.com", "itunes-apple.com.akadns.net"),
            host_suffixes=("itunes.apple.com", "mzstatic.com"),
        ),
        ServiceFingerprint(
            "Facebook Video",
            sni_suffixes=("video.xx.fbcdn.net", "video.fbcdn.net"),
            host_suffixes=("video.xx.fbcdn.net",),
            payload_hints=("fb-video-dash",),
        ),
        ServiceFingerprint(
            "Instagram video",
            sni_suffixes=("video.cdninstagram.com", "instagramvideo.com"),
            host_suffixes=("video.cdninstagram.com",),
            payload_hints=("ig-video-dash",),
        ),
        ServiceFingerprint(
            "Netflix",
            sni_suffixes=("netflix.com", "nflxvideo.net", "nflximg.net"),
            host_suffixes=("nflxvideo.net",),
            tls_share=0.98,
        ),
        ServiceFingerprint(
            "Audio",
            sni_suffixes=("spotify.com", "scdn.co", "deezer.com", "audio-fa.scdn.co"),
            host_suffixes=("scdn.co", "deezer.com"),
            payload_hints=("ogg-stream",),
        ),
        ServiceFingerprint(
            "Facebook",
            sni_suffixes=("facebook.com", "fbcdn.net", "fbsbx.com"),
            host_suffixes=("facebook.com", "fbcdn.net"),
            tls_share=0.97,
        ),
        ServiceFingerprint(
            "Twitter",
            sni_suffixes=("twitter.com", "twimg.com", "t.co"),
            host_suffixes=("twitter.com", "twimg.com"),
        ),
        ServiceFingerprint(
            "Google Services",
            sni_suffixes=("googleapis.com", "gstatic.com", "google.com", "ggpht.com"),
            host_suffixes=("googleapis.com", "gstatic.com", "google.com"),
            payload_hints=("quic-g",),
        ),
        ServiceFingerprint(
            "Instagram",
            sni_suffixes=("instagram.com", "cdninstagram.com", "instagram.c10r.facebook.com"),
            host_suffixes=("instagram.com", "cdninstagram.com"),
        ),
        ServiceFingerprint(
            "News",
            sni_suffixes=("lemonde.fr", "lefigaro.fr", "bfmtv.com", "leparisien.fr", "20minutes.fr"),
            host_suffixes=("lemonde.fr", "lefigaro.fr", "bfmtv.com", "leparisien.fr"),
            tls_share=0.5,
        ),
        ServiceFingerprint(
            "Adult",
            sni_suffixes=("pornhub.com", "xvideos.com", "xhamster.com", "phncdn.com"),
            host_suffixes=("pornhub.com", "xvideos.com", "phncdn.com"),
            tls_share=0.6,
        ),
        ServiceFingerprint(
            "Apple store",
            sni_suffixes=("apps.apple.com", "appstore.com", "apple.com.edgekey.net"),
            host_suffixes=("apps.apple.com",),
        ),
        ServiceFingerprint(
            "Google Play",
            sni_suffixes=("play.googleapis.com", "play.google.com", "android.clients.google.com"),
            host_suffixes=("play.google.com",),
        ),
        ServiceFingerprint(
            "iCloud",
            sni_suffixes=("icloud.com", "icloud-content.com", "apple-cloudkit.com"),
            host_suffixes=("icloud.com", "icloud-content.com"),
            tls_share=0.99,
        ),
        ServiceFingerprint(
            "SnapChat",
            sni_suffixes=("snapchat.com", "sc-cdn.net", "snap-dev.net", "feelinsonice.appspot.com"),
            host_suffixes=("snapchat.com", "sc-cdn.net"),
        ),
        ServiceFingerprint(
            "WhatsApp",
            sni_suffixes=("whatsapp.net", "whatsapp.com"),
            host_suffixes=("whatsapp.net",),
            port_signatures=((5222, "tcp"),),
            payload_hints=("wa-noise",),
        ),
        ServiceFingerprint(
            "Mail",
            sni_suffixes=("mail.google.com", "outlook.com", "mail.yahoo.com", "orange.fr"),
            host_suffixes=("imap.", "smtp."),
            port_signatures=((993, "tcp"), (587, "tcp"), (465, "tcp")),
            tls_share=0.8,
        ),
        ServiceFingerprint(
            "MMS",
            sni_suffixes=(),
            host_suffixes=("mms.orange.fr", "mmsc."),
            port_signatures=((8080, "tcp"),),
            payload_hints=("mms-wsp",),
            tls_share=0.0,
        ),
        ServiceFingerprint(
            "Pokemon Go",
            sni_suffixes=("pgorelease.nianticlabs.com", "nianticlabs.com"),
            host_suffixes=("nianticlabs.com",),
            payload_hints=("pgo-rpc",),
        ),
    )
}

#: Ports used for generic web flows when no signature port applies.
_GENERIC_PORTS = ((443, "tcp"), (80, "tcp"), (443, "udp"))


class FingerprintDatabase:
    """All known fingerprints, plus the synthetic-flow emitter."""

    def __init__(
        self,
        catalog: ServiceCatalog,
        unclassifiable_rate: float = 0.12,
        seed: SeedLike = None,
    ):
        """``unclassifiable_rate`` is the share of *volume* emitted with
        obfuscated features; it becomes the pipeline's unclassified rest
        (the paper classifies 88 %)."""
        if not 0 <= unclassifiable_rate < 1:
            raise ValueError(
                f"unclassifiable_rate must be in [0, 1), got {unclassifiable_rate}"
            )
        self._catalog = catalog
        self.unclassifiable_rate = float(unclassifiable_rate)
        self._draws = KeyedStream(root_key(seed), "dpi.features")
        self._flow_counter = 0
        self._fingerprints: Dict[str, ServiceFingerprint] = {}
        for service in catalog:
            if service.name in _HEAD_FINGERPRINTS:
                self._fingerprints[service.name] = _HEAD_FINGERPRINTS[service.name]
            else:
                self._fingerprints[service.name] = _tail_fingerprint(service.name)
        fingerprints = self.all_fingerprints()
        #: Codes of every feature this database emits (see module doc).
        self.codebook = FeatureCodebook(
            suffixes=tuple(
                dict.fromkeys(
                    suffix
                    for fp in fingerprints
                    for suffix in fp.sni_suffixes + fp.host_suffixes
                )
            ),
            hints=tuple(
                dict.fromkeys(h for fp in fingerprints for h in fp.payload_hints)
            ),
        )
        self._service_index = {fp.service_name: i for i, fp in enumerate(fingerprints)}
        self._tables = _FeatureTables(fingerprints, self.codebook)

    def fingerprint_of(self, service_name: str) -> ServiceFingerprint:
        """Fingerprint of a service (KeyError for unknown services)."""
        try:
            return self._fingerprints[service_name]
        except KeyError:
            raise KeyError(f"no fingerprint for service {service_name!r}") from None

    def all_fingerprints(self) -> List[ServiceFingerprint]:
        """Every fingerprint, in catalog order."""
        return [self._fingerprints[s.name] for s in self._catalog]

    def emit_flow(
        self, service_name: str, obfuscated: Optional[bool] = None
    ) -> FlowDescriptor:
        """Produce a plausible flow descriptor for a service.

        ``obfuscated=None`` draws obfuscation at the database's
        ``unclassifiable_rate``; an obfuscated flow carries no matchable
        features (an ESNI/VPN-like flow the DPI cannot attribute).  This
        is one flow of :meth:`emit_flow_features`, rendered.
        """
        (flow_id,), codes = self.emit_flow_features(service_name, 1, obfuscated)
        ((sni, host, hint, port, protocol),) = self.codebook.decode(codes)
        return FlowDescriptor(
            flow_id=int(flow_id),
            sni=sni,
            host=host,
            server_port=port,
            protocol=protocol,
            payload_hint=hint,
        )

    def service_index(self, service_name: str) -> int:
        """Position of a service in catalog order (KeyError if unknown)."""
        return self._service_index[service_name]

    def emit_flow_features(
        self, service_name: str, n: int, obfuscated: Optional[bool] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Features for ``n`` flows of one service at once.

        Returns ``(flow_ids, feature_codes)``, two int64 arrays: the
        database's next ``n`` flow ids, and :meth:`feature_codes` keyed
        by them.
        """
        start = self._flow_counter + 1
        self._flow_counter += n
        flow_ids = np.arange(start, start + n, dtype=np.int64)
        services = np.full(n, self.service_index(service_name))
        return flow_ids, self.feature_codes(services, flow_ids, obfuscated)

    def feature_codes(
        self,
        services: np.ndarray,
        flow_keys: np.ndarray,
        obfuscated: Optional[bool] = None,
    ) -> np.ndarray:
        """One feature code per flow ``i`` of service ``services[i]``.

        ``services`` are positions in catalog order (:meth:`service_index`).

        The codes decode through :attr:`codebook` to features drawn from
        each fingerprint's distributions (obfuscation rate, TLS share,
        signature ports, payload-hint probability); ``obfuscated``
        forces every flow clear (False) or obfuscated (True).  Every
        field is a keyed draw of ``flow_keys[i]``, one counter per
        field, drawn only for the flows the field applies to.
        """
        draws, t = self._draws, self._tables
        services = np.asarray(services, dtype=np.int64)
        keys = np.asarray(flow_keys).astype(np.uint64)
        n = len(keys)
        # Codebook fields per flow; 0 means "no name" / "no hint", and a
        # port field of 0 is port 0 over tcp, i.e. "no port chosen yet".
        snis = np.zeros(n, dtype=np.int64)
        hosts = np.zeros(n, dtype=np.int64)
        hints = np.zeros(n, dtype=np.int64)
        ports = np.zeros(n, dtype=np.int64)

        rate = self.unclassifiable_rate if obfuscated is None else float(obfuscated)
        obfuscated = draws.uniform(keys, 0) < rate
        rows = np.flatnonzero(obfuscated)
        ports[rows] = 2 * (40000 + integer_variates(draws.uniform(keys[rows], 1), 20000))
        ports[rows] += draws.uniform(keys[rows], 2) < 0.5  # udp
        clear = np.flatnonzero(~obfuscated)
        use_tls = draws.uniform(keys[clear], 3) < t.tls_share[services[clear]]
        rows = clear[use_tls]
        ports[rows] = t.https
        snis[rows] = self._endpoint_fields(t.sni, services[rows], keys[rows])
        plain = clear[~use_tls]
        rows = plain[t.host.counts[services[plain]] > 0]
        ports[rows] = t.http
        hosts[rows] = self._endpoint_fields(t.host, services[rows], keys[rows])
        # Signature ports apply to clear-text flows (for SNI-less
        # services, every non-obfuscated flow); generic ports where no
        # port was chosen.
        rows = plain[t.signatures.counts[services[plain]] > 0]
        ports[rows] = t.signatures.pick(services[rows], draws.uniform(keys[rows], 4))
        rows = clear[ports[clear] == 0]
        ports[rows] = t.generic[
            integer_variates(draws.uniform(keys[rows], 4), len(t.generic))
        ]
        rows = clear[t.hints.counts[services[clear]] > 0]
        rows = rows[draws.uniform(keys[rows], 5) < 0.7]
        hints[rows] = t.hints.pick(services[rows], draws.uniform(keys[rows], 6))
        return self.codebook.pack(snis, hosts, hints, ports)

    def _endpoint_fields(
        self, table: "_Choices", services: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Endpoint fields: a suffix, then a label (1000 edge nodes, or
        100 providers for prefix-style suffixes)."""
        suffix = integer_variates(
            self._draws.uniform(keys, 7), table.counts[services]
        )
        labels = np.where(table.prefix[services, suffix], 100, 1000)
        label = integer_variates(self._draws.uniform(keys, 8), labels)
        return table.values[services, suffix] + label


class _Choices:
    """A ragged per-service list of field values, padded to a table."""

    def __init__(self, rows: Sequence[Sequence[int]], prefix=None):
        width = max(1, max(len(r) for r in rows))
        self.counts = np.asarray([len(r) for r in rows], dtype=np.int64)
        self.values = np.zeros((len(rows), width), dtype=np.int64)
        self.prefix = np.zeros((len(rows), width), dtype=bool)
        for i, row in enumerate(rows):
            self.values[i, : len(row)] = row
            if prefix is not None:
                self.prefix[i, : len(row)] = prefix[i]

    def pick(self, services: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One of each service's values, uniformly by ``u``."""
        return self.values[services, integer_variates(u, self.counts[services])]


class _FeatureTables:
    """Per-service emission parameters as arrays, in catalog order."""

    def __init__(self, fingerprints: Sequence[ServiceFingerprint], codebook):
        def endpoints(attr: str) -> _Choices:
            suffixes = [getattr(fp, attr) for fp in fingerprints]
            return _Choices(
                [[codebook.suffix_field(x) for x in row] for row in suffixes],
                prefix=[[x.endswith(".") for x in row] for row in suffixes],
            )

        self.tls_share = np.asarray(
            [fp.tls_share if fp.sni_suffixes else 0.0 for fp in fingerprints]
        )
        self.sni = endpoints("sni_suffixes")
        self.host = endpoints("host_suffixes")
        self.signatures = _Choices(
            [[codebook.port_field(*s) for s in fp.port_signatures] for fp in fingerprints]
        )
        self.hints = _Choices(
            [[codebook.hint_field(h) for h in fp.payload_hints] for fp in fingerprints]
        )
        self.generic = np.asarray([codebook.port_field(*p) for p in _GENERIC_PORTS])
        self.https = codebook.port_field(443, "tcp")
        self.http = codebook.port_field(80, "tcp")


def _tail_fingerprint(service_name: str) -> ServiceFingerprint:
    """Generated CDN-style fingerprint for an anonymous tail service."""
    domain = f"{service_name.replace(' ', '-').lower()}.cdn.example"
    return ServiceFingerprint(
        service_name=service_name,
        sni_suffixes=(domain,),
        host_suffixes=(domain,),
        tls_share=0.85,
    )


__all__ = ["ServiceFingerprint", "FingerprintDatabase"]
