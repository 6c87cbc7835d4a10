"""DPI self-validation: confusion analysis of the classification cascade.

The operator's classifier must not confuse services that share
infrastructure (Facebook vs Facebook Video on fbcdn.net, Instagram vs
Instagram video, Google Services vs Google Play): a systematic
cross-attribution would silently corrupt every per-service figure.
:func:`confusion_matrix` emits flows for every service through the
fingerprint database and classifies them back, producing the standard
validation artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.dpi.classifier import DpiEngine
from repro.dpi.fingerprints import FingerprintDatabase


@dataclass(frozen=True)
class ConfusionReport:
    """Outcome of a DPI self-validation round."""

    service_names: List[str]
    #: (n, n+1) counts: row = emitted service, column = classified
    #: service, last column = unclassified.
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.service_names)
        if self.matrix.shape != (n, n + 1):
            raise ValueError(
                f"matrix shape {self.matrix.shape}, expected ({n}, {n + 1})"
            )

    @property
    def accuracy(self) -> float:
        """Fraction of classified flows attributed to the right service."""
        classified = self.matrix[:, :-1]
        total = classified.sum()
        return float(np.trace(classified) / total) if total else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of flows classified at all."""
        total = self.matrix.sum()
        return float(self.matrix[:, :-1].sum() / total) if total else 0.0

    def misclassified_pairs(self) -> Dict[tuple, int]:
        """(emitted, classified) pairs with nonzero off-diagonal counts."""
        out = {}
        n = len(self.service_names)
        for i in range(n):
            for j in range(n):
                if i != j and self.matrix[i, j] > 0:
                    out[(self.service_names[i], self.service_names[j])] = int(
                        self.matrix[i, j]
                    )
        return out


def confusion_matrix(
    database: FingerprintDatabase,
    flows_per_service: int = 200,
    service_names: Optional[List[str]] = None,
    engine: Optional[DpiEngine] = None,
    include_obfuscated: bool = False,
) -> ConfusionReport:
    """Emit flows per service and classify them back.

    With ``include_obfuscated=False`` (the default) only clear flows are
    emitted, so any unclassified count indicates a fingerprint gap
    rather than intentional obfuscation.
    """
    if flows_per_service < 1:
        raise ValueError(
            f"flows_per_service must be >= 1, got {flows_per_service}"
        )
    engine = engine or DpiEngine(database)
    names = service_names or [
        fp.service_name for fp in database.all_fingerprints()
    ]
    index = {name: i for i, name in enumerate(names)}
    # Matrix column of each engine position; position -1 reads the last
    # entry, the unclassified column.
    columns = np.asarray(
        [index.get(name, len(names)) for name in engine.service_names]
        + [len(names)]
    )
    obfuscated = None if include_obfuscated else False
    volumes = np.zeros(flows_per_service, dtype=np.int64)
    matrix = np.zeros((len(names), len(names) + 1), dtype=np.int64)
    for i, name in enumerate(names):
        _, codes = database.emit_flow_features(name, flows_per_service, obfuscated)
        codes, overflow = engine.codebook.encode(database.codebook.decode(codes))
        positions = engine.classify_batch(codes, volumes, overflow)
        matrix[i] = np.bincount(columns[positions], minlength=len(names) + 1)
    return ConfusionReport(service_names=names, matrix=matrix)


__all__ = ["ConfusionReport", "confusion_matrix"]
