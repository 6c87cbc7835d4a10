"""Fingerprint database: what each service's flows look like on the wire.

Each :class:`ServiceFingerprint` lists the observable features of one
service's flows.  The database is used from both sides:

- the **traffic generator** asks it to *emit* a plausible
  :class:`~repro.network.gtp.FlowDescriptor` for a service (choosing one
  of its SNI/host endpoints, ports and payload hints at random), with a
  tunable share of obfuscated flows carrying no usable features — these
  become the paper's ~12 % unclassified volume;
- the **classifier** matches descriptors back against the same features.

The bulk emitter (:meth:`FingerprintDatabase.emit_flow_features`) does
not render strings at all: it returns one int64 feature code per flow
against the database's :attr:`~FingerprintDatabase.codebook`, a
:class:`~repro.network.gtp.FeatureCodebook` over every suffix and hint
of the catalog's fingerprints.  The codebook is a pure function of the
catalog, so the classifier's own database decodes the emitter's codes
to the very strings the scalar emitter would have rendered.

Head-service fingerprints use the services' real-world domains; the
anonymous tail services get generated CDN-style domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.network.gtp import FeatureCodebook, FlowDescriptor, endpoint_name
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
        self._rng = as_generator(seed)
        self._flow_counter = 0
        self._feature_buffers: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
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

    def fingerprint_of(self, service_name: str) -> ServiceFingerprint:
        """Fingerprint of a service (KeyError for unknown services)."""
        try:
            return self._fingerprints[service_name]
        except KeyError:
            raise KeyError(f"no fingerprint for service {service_name!r}") from None

    def all_fingerprints(self) -> List[ServiceFingerprint]:
        """Every fingerprint, in catalog order."""
        return [self._fingerprints[s.name] for s in self._catalog]

    def _next_flow_id(self) -> int:
        self._flow_counter += 1
        return self._flow_counter

    def emit_flow(
        self, service_name: str, obfuscated: Optional[bool] = None
    ) -> FlowDescriptor:
        """Produce a plausible flow descriptor for a service.

        ``obfuscated=None`` draws obfuscation at the database's
        ``unclassifiable_rate``; an obfuscated flow carries no matchable
        features (an ESNI/VPN-like flow the DPI cannot attribute).
        """
        rng = self._rng
        if obfuscated is None:
            obfuscated = bool(rng.random() < self.unclassifiable_rate)
        if obfuscated:
            return FlowDescriptor(
                flow_id=self._next_flow_id(),
                sni=None,
                host=None,
                server_port=int(rng.integers(40000, 60000)),
                protocol="udp" if rng.random() < 0.5 else "tcp",
                payload_hint=None,
            )

        fp = self.fingerprint_of(service_name)
        use_tls = rng.random() < fp.tls_share and fp.sni_suffixes
        sni = host = None
        if use_tls:
            sni = _endpoint(rng, fp.sni_suffixes)
            port, protocol = 443, "tcp"
        elif fp.host_suffixes:
            host = _endpoint(rng, fp.host_suffixes)
            port, protocol = 80, "tcp"
        else:
            port, protocol = 0, "tcp"
        if fp.port_signatures and (not use_tls or not fp.sni_suffixes):
            port, protocol = fp.port_signatures[
                int(rng.integers(len(fp.port_signatures)))
            ]
        if port == 0:
            port, protocol = _GENERIC_PORTS[int(rng.integers(len(_GENERIC_PORTS)))]
        hint = None
        if fp.payload_hints and rng.random() < 0.7:
            hint = fp.payload_hints[int(rng.integers(len(fp.payload_hints)))]
        return FlowDescriptor(
            flow_id=self._next_flow_id(),
            sni=sni,
            host=host,
            server_port=int(port),
            protocol=protocol,
            payload_hint=hint,
        )


    #: Minimum batch drawn into a service's feature buffer; requests are
    #: served from the buffer so many small emits amortize to one big draw.
    FEATURE_CHUNK = 512

    def emit_flow_features(
        self, service_name: str, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Columnar :meth:`emit_flow`: features for ``n`` flows at once.

        Returns ``(flow_ids, feature_codes)``, two int64 arrays; the
        codes decode through :attr:`codebook` to features drawn from the
        same per-feature distributions as the scalar emitter
        (obfuscation rate, TLS share, signature ports, payload-hint
        probability), using batched RNG draws.  Draws are buffered per
        service in chunks of at least ``FEATURE_CHUNK``, so typical
        small per-subscriber requests cost a slice, not an RNG
        round-trip.  The draw *order* differs from ``n`` scalar calls,
        so the two emitters produce statistically equivalent but not
        bit-identical corpora.
        """
        buffered = self._feature_buffers.get(service_name)
        have = 0 if buffered is None else len(buffered[0])
        if have < n:
            fresh = self._draw_flow_features(
                service_name, max(n - have, self.FEATURE_CHUNK)
            )
            buffered = fresh if buffered is None else tuple(
                np.concatenate(pair) for pair in zip(buffered, fresh)
            )
        flow_ids, codes = buffered
        self._feature_buffers[service_name] = (flow_ids[n:], codes[n:])
        return flow_ids[:n], codes[:n]

    def _draw_flow_features(
        self, service_name: str, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        rng = self._rng
        codebook = self.codebook
        fp = self.fingerprint_of(service_name)
        start = self._flow_counter + 1
        self._flow_counter += n
        flow_ids = np.arange(start, start + n, dtype=np.int64)
        # Codebook fields per flow; 0 means "no name" / "no hint", and a
        # port field of 0 is port 0 over tcp, i.e. "no port chosen yet".
        snis = np.zeros(n, dtype=np.int64)
        hosts = np.zeros(n, dtype=np.int64)
        hints = np.zeros(n, dtype=np.int64)
        ports = np.zeros(n, dtype=np.int64)

        obfuscated = rng.random(n) < self.unclassifiable_rate
        obf_rows = np.flatnonzero(obfuscated)
        if len(obf_rows):
            ports[obf_rows] = rng.integers(40000, 60000, size=len(obf_rows)) * 2
            ports[obf_rows] += rng.random(len(obf_rows)) < 0.5  # udp
        clear_rows = np.flatnonzero(~obfuscated)
        m = len(clear_rows)
        if fp.sni_suffixes and m:
            use_tls = rng.random(m) < fp.tls_share
        else:
            use_tls = np.zeros(m, dtype=bool)
        tls_rows = clear_rows[use_tls]
        if len(tls_rows):
            ports[tls_rows] = codebook.port_field(443, "tcp")
            snis[tls_rows] = self._endpoint_fields(fp.sni_suffixes, len(tls_rows))
        plain_rows = clear_rows[~use_tls]
        if len(plain_rows):
            if fp.host_suffixes:
                ports[plain_rows] = codebook.port_field(80, "tcp")
                hosts[plain_rows] = self._endpoint_fields(
                    fp.host_suffixes, len(plain_rows)
                )
            # Signature ports apply exactly where the scalar emitter
            # applies them: clear-text flows (and, for SNI-less
            # services, every non-obfuscated flow).
            if fp.port_signatures:
                signatures = [codebook.port_field(*s) for s in fp.port_signatures]
                ports[plain_rows] = np.asarray(signatures)[
                    rng.integers(len(signatures), size=len(plain_rows))
                ]
        generic_rows = clear_rows[ports[clear_rows] == 0]
        if len(generic_rows):
            generic = [codebook.port_field(*pair) for pair in _GENERIC_PORTS]
            ports[generic_rows] = np.asarray(generic)[
                rng.integers(len(generic), size=len(generic_rows))
            ]
        if fp.payload_hints and m:
            hinted = clear_rows[rng.random(m) < 0.7]
            if len(hinted):
                fields = [codebook.hint_field(h) for h in fp.payload_hints]
                hints[hinted] = np.asarray(fields)[
                    rng.integers(len(fields), size=len(hinted))
                ]
        return flow_ids, codebook.pack(snis, hosts, hints, ports)

    def _endpoint_fields(self, suffixes: Sequence[str], n: int) -> np.ndarray:
        """``n`` codebook endpoint fields drawn like :func:`_endpoint`.

        Three batched draws, in this order: the suffix, the edge label
        and the provider; prefix-style suffixes keep the provider, the
        others the label.
        """
        rng = self._rng
        base = np.asarray([self.codebook.suffix_field(s) for s in suffixes])
        prefix = np.asarray([s.endswith(".") for s in suffixes])
        suffix_idx = rng.integers(len(suffixes), size=n)
        labels = rng.integers(1000, size=n)
        providers = rng.integers(100, size=n)
        return base[suffix_idx] + np.where(prefix[suffix_idx], providers, labels)


def _endpoint(rng: np.random.Generator, suffixes: Sequence[str]) -> str:
    """Pick a suffix and prepend a plausible edge-node label."""
    suffix = suffixes[int(rng.integers(len(suffixes)))]
    # Prefix-style suffixes ("imap.", "mmsc.") get a provider domain.
    labels = 100 if suffix.endswith(".") else 1000
    return endpoint_name(suffix, int(rng.integers(labels)))


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
