#!/usr/bin/env python3
"""Documentation checks: links, generated tables and class attributes.

Three checks, all stdlib-only (the ``docs`` CI job runs them with no
installs):

1. **Links** — every intra-repo markdown link (``[text](relative/path)``)
   in every tracked ``*.md`` file must resolve to an existing file or
   directory, and any ``#fragment`` on a markdown target (including
   pure-anchor ``#...`` self-links) must match a heading in that file
   under GitHub's slug rules.  External (``http``/``https``/``mailto``)
   targets are skipped; fenced code blocks are stripped first so
   example snippets cannot trip the check.
2. **Generated blocks** — every contract table in the docs sits between
   a ``<!-- generated: NAME -->`` line and a ``<!-- end generated -->``
   line and is rendered from the code that declares it: the metric
   tables from :data:`repro.obs.metrics.SPECS`, the findings table from
   :data:`repro.fidelity.contract.FINDINGS`, the lint rule catalog and
   layer DAG from :mod:`repro.lint`, and the event-kind list from
   :data:`repro.obs.events.KINDS`.  The check re-renders each block and
   rewrites a stale one in place.  It also reports an unknown block
   name, an opening marker with no end marker, and any declared metric,
   finding, rule, layer or event kind that no block renders.
3. **Class attributes** — every backticked ``Class.attr`` reference
   (optionally module-qualified, e.g. ``repro.x.Class.attr(...)``) in
   ``docs/*.md``, ``README.md`` or ``DESIGN.md`` whose ``Class`` is a
   class defined under ``src/repro`` must name something that class
   defines: a method, property, class attribute, dataclass field or an
   attribute assigned on ``self``, its own or a base class's.  Classes
   are read with :mod:`ast`, so nothing is imported; a class with a
   base from outside ``repro`` that the standard library does not
   provide is not checked.

To change a contract, declare it in code and run this script: it
rewrites the tables, and a second run passes.

Exit status 0 when clean; 1 when a block was rewritten or a problem was
found, with one line per problem.

Usage::

    PYTHONPATH=src python tools/check_docs.py [repo_root]
"""

from __future__ import annotations

import ast
import builtins
import enum
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.fidelity.contract import FINDINGS
from repro.fidelity.scorecard import _format_band
from repro.lint.layers import LAYERS
from repro.lint.reporters import _rule_catalog
from repro.obs.events import KINDS
from repro.obs.metrics import SPECS, MetricSpec

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories never scanned for markdown.
SKIP_DIRS = {".git", ".pytest_cache", "__pycache__", ".claude"}

_FENCE = re.compile(r"^(```|~~~)")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")
_ANY_HEADING = re.compile(r"^#{1,6}\s+(.*)$")

_OPEN = re.compile(r"^<!-- generated: (.+) -->$")
_CLOSE = "<!-- end generated -->"

#: A rendered block: its markdown lines and the declared items it shows.
Block = Tuple[List[str], Set[str]]


def _slugify(heading: str) -> str:
    """GitHub's heading-to-anchor rule: drop punctuation, dash spaces."""
    cleaned = re.sub(r"[^\w\- ]", "", heading.strip().lower())
    return cleaned.replace(" ", "-")


def _anchors(path: Path) -> set:
    """Every heading anchor a markdown file exposes."""
    slugs = set()
    for line in _strip_fences(path.read_text(encoding="utf-8")).splitlines():
        match = _ANY_HEADING.match(line)
        if match:
            slugs.add(_slugify(match.group(1)))
    return slugs


def _markdown_files(root: Path) -> List[Path]:
    files = []
    for path in sorted(root.rglob("*.md")):
        if not SKIP_DIRS.intersection(part for part in path.parts):
            files.append(path)
    return files


def _strip_fences(text: str) -> str:
    """Blank out fenced code blocks, keeping line numbers stable."""
    lines, fenced = [], False
    for line in text.splitlines():
        if _FENCE.match(line.strip()):
            fenced = not fenced
            lines.append("")
            continue
        lines.append("" if fenced else line)
    return "\n".join(lines)


def check_links(root: Path) -> List[str]:
    problems = []
    anchor_cache: Dict[Path, set] = {}
    for path in _markdown_files(root):
        text = _strip_fences(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(text.splitlines(), start=1):
            for match in _LINK.finditer(line):
                rel = path.relative_to(root)
                raw = match.group(1)
                if raw.startswith(_EXTERNAL):
                    continue
                target, _, fragment = raw.partition("#")
                resolved = (
                    (path.parent / target).resolve() if target else path
                )
                if not resolved.exists():
                    problems.append(f"{rel}:{lineno}: broken link -> {raw}")
                    continue
                if not fragment or resolved.suffix != ".md":
                    continue
                if resolved not in anchor_cache:
                    anchor_cache[resolved] = _anchors(resolved)
                if fragment not in anchor_cache[resolved]:
                    problems.append(
                        f"{rel}:{lineno}: broken anchor -> {raw} "
                        f"(no heading slugs to #{fragment})"
                    )
    return problems


_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_CLASS_ATTR = re.compile(r"^(?:[a-z_]\w*\.)*([A-Z]\w*)\.([A-Za-z_]\w*)(?!\w)")

#: Bases whose own attributes are known without importing ``repro``.
_STDLIB_BASES = {"object": object, **vars(enum), **vars(builtins)}


def _own_attributes(node: ast.ClassDef) -> Set[str]:
    """Names a class body defines, plus attributes it assigns on ``self``."""
    names: Set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign)
            else [stmt.target] if isinstance(stmt, ast.AnnAssign)
            else []
        )
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            names.add(sub.attr)
    return names


def _base_name(base: ast.expr) -> str:
    if isinstance(base, ast.Subscript):
        base = base.value
    if isinstance(base, ast.Attribute):
        return base.attr
    return base.id if isinstance(base, ast.Name) else ""


def class_attributes(src: Path) -> Dict[str, Optional[Set[str]]]:
    """Every class defined under ``src``, by name, with what it defines.

    Inherited names are included; a class is ``None`` when a base is
    neither a class under ``src`` nor a standard-library class, so its
    attributes cannot be known.  Same-named classes are merged.
    """
    defs: Dict[str, List[Tuple[Set[str], List[str]]]] = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defs.setdefault(node.name, []).append(
                    (_own_attributes(node), [_base_name(b) for b in node.bases])
                )

    def resolve(name: str, seen: Set[str]) -> Optional[Set[str]]:
        attrs: Set[str] = set()
        for own, bases in defs[name]:
            attrs |= own
            for base in bases:
                if base in defs and base not in seen:
                    inherited = resolve(base, seen | {base})
                elif isinstance(_STDLIB_BASES.get(base), type):
                    inherited = set().union(*map(vars, _STDLIB_BASES[base].__mro__))
                else:
                    inherited = None
                if inherited is None:
                    return None
                attrs |= inherited
        return attrs

    return {name: resolve(name, {name}) for name in defs}


def check_class_attrs(root: Path) -> List[str]:
    """Backticked ``Class.attr`` references must resolve on ``Class``."""
    classes = class_attributes(root / "src" / "repro")
    paths = sorted((root / "docs").glob("*.md")) + [
        root / name for name in ("README.md", "DESIGN.md")
    ]
    problems = []
    for path in paths:
        if not path.exists():
            continue
        text = _strip_fences(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(text.splitlines(), start=1):
            for span in _CODE_SPAN.finditer(line):
                match = _CLASS_ATTR.match(span.group(1))
                if not match:
                    continue
                cls, attr = match.groups()
                attrs = classes.get(cls)
                if attrs is not None and attr not in attrs:
                    problems.append(
                        f"{path.relative_to(root)}:{lineno}: stale reference "
                        f"`{cls}.{attr}` ({cls} defines no {attr!r})"
                    )
    return problems


def _table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    return lines + ["| " + " | ".join(row) + " |" for row in rows]


def _metric_table(specs: List[MetricSpec]) -> Block:
    rows = [(f"`{s.name}`", s.unit, s.stage, s.description) for s in specs]
    table = _table(("Metric", "Unit", "Stage", "Meaning"), rows)
    return table, {f"metric {s.name!r}" for s in specs}


def render_blocks() -> Dict[str, Block]:
    """Every generated block, by name, rendered from the declarations.

    Metric tables come one per ``(kind, determinism)`` pair in
    :data:`SPECS` (so a new pair is a new block the docs must place)
    plus the ``resilience.*`` and ``serve.*`` slices.
    """
    groups: Dict[str, List[MetricSpec]] = {}
    for spec in SPECS.values():
        pair = f"metrics {spec.kind.value} {spec.determinism.value}"
        groups.setdefault(pair, []).append(spec)
    for prefix in ("resilience.", "serve."):
        groups[f"metrics {prefix}*"] = [
            spec for spec in SPECS.values() if spec.name.startswith(prefix)
        ]
    blocks = {name: _metric_table(specs) for name, specs in groups.items()}

    blocks["findings"] = (
        _table(
            ("Finding", "Unit", "Paper target", "Accept", "Warn", "Source",
             "Meaning"),
            (
                (f"`{s.name}`", s.unit, f"{s.target:g}",
                 _format_band(s.accept.to_list()),
                 _format_band(s.warn.to_list()), s.source, s.description)
                for s in FINDINGS.values()
            ),
        ),
        {f"finding {name!r}" for name in FINDINGS},
    )
    rules = _rule_catalog()
    blocks["lint rules"] = (
        _table(
            ("code", "name", "checks that"),
            ((f"`{r['id']}`", r["name"], r["shortDescription"]["text"])
             for r in rules),
        ),
        {f"rule {r['id']}" for r in rules},
    )
    blocks["lint layers"] = (
        _table(
            ("layer", "prefixes", "may import"),
            (
                (f"`{spec.name}`",
                 ", ".join(f"`{prefix}`" for prefix in spec.prefixes),
                 ", ".join(spec.deps) or "—")
                for spec in LAYERS
            ),
        ),
        {f"layer {spec.name!r}" for spec in LAYERS},
    )
    blocks["event kinds"] = (
        [f"- `{kind}`" for kind in KINDS],
        {f"event kind {kind!r}" for kind in KINDS},
    )
    return blocks


def _declared() -> Set[str]:
    """Every declared item some generated block must render."""
    return (
        {f"metric {name!r}" for name in SPECS}
        | {f"finding {name!r}" for name in FINDINGS}
        | {f"rule {rule['id']}" for rule in _rule_catalog()}
        | {f"layer {spec.name!r}" for spec in LAYERS}
        | {f"event kind {kind!r}" for kind in KINDS}
    )


def check_generated(root: Path) -> List[str]:
    """Re-render every generated block, rewriting stale ones in place."""
    blocks = render_blocks()
    problems: List[str] = []
    rendered: Set[str] = set()
    for path in _markdown_files(root):
        rel = path.relative_to(root)
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        out: List[str] = []
        i = 0
        while i < len(lines):
            line = lines[i]
            out.append(line)
            i += 1
            if line == _CLOSE:
                problems.append(f"{rel}:{i}: end marker with no open block")
                continue
            match = _OPEN.match(line)
            if not match:
                continue
            name = match.group(1)
            end = i
            while end < len(lines) and not (
                lines[end] == _CLOSE or _OPEN.match(lines[end])
            ):
                end += 1
            if end == len(lines) or lines[end] != _CLOSE:
                problems.append(
                    f"{rel}:{i}: generated block {name!r} has no "
                    f"'{_CLOSE}' line"
                )
                continue
            body = lines[i:end]
            if name not in blocks:
                problems.append(f"{rel}:{i}: unknown generated block {name!r}")
            else:
                table, items = blocks[name]
                rendered |= items
                fresh = ["", *table, ""]
                if body != fresh:
                    problems.append(
                        f"{rel}:{i}: generated block {name!r} was stale; "
                        "rewritten from the code"
                    )
                    body = fresh
            out += body + [_CLOSE]
            i = end + 1
        new_text = "\n".join(out)
        if new_text != text:
            path.write_text(new_text, encoding="utf-8")
    for item in sorted(_declared() - rendered):
        problems.append(f"declared {item} is rendered by no generated block")
    return problems


def main(argv: List[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else REPO_ROOT
    problems = check_links(root) + check_generated(root) + check_class_attrs(root)
    for problem in problems:
        print(problem)
    n_files = len(_markdown_files(root))
    if problems:
        print(f"check_docs: {len(problems)} problem(s) in {n_files} files")
        return 1
    print(
        f"check_docs: OK ({n_files} markdown files, links + generated "
        "+ class attributes)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
