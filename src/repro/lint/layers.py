"""The declared import-layer DAG (the RPL201 contract).

Every module under ``src/repro`` belongs to exactly one *layer*; a
module may import only from its own layer and from the layers its layer
declares as dependencies.  The spec below is the single source of
truth: :mod:`repro.lint.program` enforces it over the whole tree
(RPL201), and the layer table in ``docs/static-analysis.md`` is
generated from it — after changing a layer, run
``tools/check_docs.py``.

Layers are matched by **longest dotted prefix**, so a package can span
several layers: ``repro.dataset.store`` is ``datastore`` while
``repro.dataset.builder`` is ``dataset``, and
``repro.resilience.supervisor`` sits *above* ``repro.dataset.parallel``
even though the rest of ``repro.resilience`` sits below it — that is
exactly the cycle the lazy imports in ``repro/resilience/__init__.py``
break at runtime, made explicit here.

CLI modules (any module whose last component is ``cli`` or
``__main__``) form a pseudo-layer on top: they may import anything, but
nothing may import *them* except the ``__init__``/``__main__`` of their
own package (re-exporting ``main`` is fine; depending on a CLI is not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

#: Name of the pseudo-layer for ``*.cli`` / ``*.__main__`` modules.
CLI_LAYER = "cli"


@dataclass(frozen=True)
class LayerSpec:
    """One layer: its name, module prefixes, and allowed dependencies."""

    name: str
    prefixes: Tuple[str, ...]
    deps: Tuple[str, ...]


#: The layer DAG, bottom-up.  ``deps`` may only name layers declared
#: earlier in this tuple — validated by :func:`validate_layers`.
LAYERS: Tuple[LayerSpec, ...] = (
    LayerSpec("foundation", ("repro",), ()),
    LayerSpec("lint", ("repro.lint",), ("foundation",)),
    LayerSpec("obs", ("repro.obs",), ("foundation",)),
    LayerSpec("geo", ("repro.geo",), ("foundation",)),
    LayerSpec("services", ("repro.services",), ("foundation", "geo")),
    LayerSpec("network", ("repro.network",), ("foundation", "geo", "obs")),
    LayerSpec(
        "dpi",
        ("repro.dpi",),
        ("foundation", "services", "network", "obs"),
    ),
    LayerSpec(
        "datastore",
        (
            "repro.dataset.store",
            "repro.dataset.merge",
            "repro.dataset.filters",
        ),
        ("foundation", "geo"),
    ),
    LayerSpec(
        "resilience",
        ("repro.resilience",),
        ("foundation", "obs", "datastore"),
    ),
    LayerSpec(
        "traffic",
        ("repro.traffic",),
        (
            "foundation",
            "geo",
            "services",
            "network",
            "dpi",
            "obs",
            "datastore",
        ),
    ),
    LayerSpec(
        "shard-exec",
        ("repro.dataset.aggregation", "repro.dataset.parallel"),
        (
            "foundation",
            "geo",
            "services",
            "network",
            "dpi",
            "obs",
            "datastore",
            "resilience",
            "traffic",
        ),
    ),
    LayerSpec(
        "supervisor",
        ("repro.resilience.supervisor",),
        ("foundation", "obs", "datastore", "resilience", "shard-exec"),
    ),
    LayerSpec(
        "dataset",
        ("repro.dataset",),
        (
            "foundation",
            "geo",
            "services",
            "network",
            "dpi",
            "obs",
            "datastore",
            "resilience",
            "traffic",
            "shard-exec",
            "supervisor",
        ),
    ),
    LayerSpec(
        "analysis",
        ("repro.core", "repro.apps", "repro.report"),
        ("foundation", "geo", "services", "datastore"),
    ),
    LayerSpec(
        "fidelity-contract",
        ("repro.fidelity.contract", "repro.fidelity.extract"),
        ("foundation",),
    ),
    LayerSpec(
        "experiments",
        ("repro.experiments",),
        (
            "foundation",
            "obs",
            "geo",
            "services",
            "datastore",
            "traffic",
            "dataset",
            "analysis",
            "fidelity-contract",
        ),
    ),
    LayerSpec(
        "fidelity",
        ("repro.fidelity",),
        ("foundation", "obs", "experiments", "fidelity-contract"),
    ),
    LayerSpec(
        "serve",
        ("repro.serve",),
        ("foundation", "obs", "geo", "datastore", "resilience", "analysis"),
    ),
)


def is_cli_module(module: str) -> bool:
    """Whether ``module`` belongs to the CLI pseudo-layer."""
    return module.rsplit(".", 1)[-1] in ("cli", "__main__")


def layer_of(module: str) -> Optional[str]:
    """The layer of ``module`` by longest-prefix match (None if outside).

    CLI modules always map to :data:`CLI_LAYER` regardless of prefix.
    """
    if is_cli_module(module):
        return CLI_LAYER
    best: Optional[LayerSpec] = None
    best_len = -1
    for spec in LAYERS:
        for prefix in spec.prefixes:
            if module == prefix or module.startswith(prefix + "."):
                depth = prefix.count(".")
                if depth > best_len:
                    best, best_len = spec, depth
    return best.name if best is not None else None


def layer_deps() -> Dict[str, Tuple[str, ...]]:
    """Map layer name -> allowed dependency layers."""
    return {spec.name: spec.deps for spec in LAYERS}


def validate_layers(layers: Sequence[LayerSpec] = LAYERS) -> None:
    """Raise ``ValueError`` unless the spec is a well-formed DAG.

    Layers are declared bottom-up, so acyclicity reduces to: every
    ``deps`` entry names a layer declared strictly earlier.
    """
    seen: Dict[str, int] = {}
    for i, spec in enumerate(layers):
        if spec.name in seen:
            raise ValueError(f"duplicate layer {spec.name!r}")
        if spec.name == CLI_LAYER:
            raise ValueError(f"layer name {CLI_LAYER!r} is reserved")
        for dep in spec.deps:
            if dep not in seen:
                raise ValueError(
                    f"layer {spec.name!r} depends on {dep!r}, which is not "
                    "declared earlier (cycle or typo)"
                )
        seen[spec.name] = i


__all__ = [
    "CLI_LAYER",
    "LAYERS",
    "LayerSpec",
    "is_cli_module",
    "layer_of",
    "layer_deps",
    "validate_layers",
]
