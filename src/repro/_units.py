"""Byte-volume units and human-readable formatting.

The paper reports per-subscriber volumes spanning from a few bytes to
hundreds of megabytes per week (Fig. 8/9 colour scales); these helpers keep
unit handling consistent across generators, analyses and reports.
"""

from __future__ import annotations

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

#: Binary kilobyte (kibibyte): the unit :func:`resource.getrusage`
#: reports ``ru_maxrss`` in on Linux.  Dataset volumes stay decimal
#: (the paper's colour scales); KIB exists for OS-interface readings.
KIB = 1_024

#: Sub-second timestamp scale of Chrome trace-event exports
#: (``repro.obs.trace``): the format stores microseconds.
MICROS_PER_SECOND = 1_000_000

#: Arrival-offset scale of scheduled-workload CSVs (``repro.serve``):
#: the Logos format stores offsets in milliseconds.
MILLIS_PER_SECOND = 1_000

_SCALE = (
    (TB, "TB"),
    (GB, "GB"),
    (MB, "MB"),
    (KB, "KB"),
)


def format_bytes(volume: float) -> str:
    """Format a byte volume the way the paper's colour bars do (10B, 1.5KB...)."""
    if volume < 0:
        raise ValueError(f"volume must be >= 0, got {volume}")
    for factor, suffix in _SCALE:
        if volume >= factor:
            value = volume / factor
            if value >= 100:
                return f"{value:.0f}{suffix}"
            if value >= 10:
                return f"{value:.1f}{suffix}"
            return f"{value:.2f}{suffix}"
    return f"{volume:.0f}B"


def parse_bytes(text: str) -> float:
    """Parse strings like ``"1.5KB"`` or ``"110MB"`` back into bytes."""
    text = text.strip()
    for factor, suffix in _SCALE:
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * factor
    if text.endswith("B"):
        return float(text[:-1])
    return float(text)


__all__ = [
    "KB",
    "KIB",
    "MB",
    "GB",
    "TB",
    "MICROS_PER_SECOND",
    "MILLIS_PER_SECOND",
    "format_bytes",
    "parse_bytes",
]
