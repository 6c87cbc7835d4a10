"""Tests for ``tools/check_docs.py``: generated contract tables and links.

Each test runs the script on a scratch copy of the repository: markdown
files are copied (the script may rewrite them), everything else is
symlinked so link targets resolve.  A stale generated block must make
the script exit 1 *and* be rewritten back to the exact bytes the
declarations render; a clean copy must exit 0 and stay untouched.

The event-kind contract on the code side (an emitted kind that is not
declared, a declared kind nothing emits) is RPL203/RPL204's job, pinned
in ``tests/unit/lint/test_program.py``.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.metrics import Determinism, MetricKind, MetricSpec

REPO = Path(__file__).resolve().parents[2]
SCRIPT = REPO / "tools" / "check_docs.py"
CLOSE = "<!-- end generated -->"


def _load_script():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_script()

#: Directories that hold markdown the script scans (and may rewrite).
MD_DIRS = {
    parent
    for path in check_docs._markdown_files(REPO)
    for parent in path.relative_to(REPO).parents
}


def _mirror(src: Path, dst: Path, rel: Path = Path(".")) -> None:
    dst.mkdir(exist_ok=True)
    for entry in sorted(src.iterdir()):
        if entry.name in check_docs.SKIP_DIRS:
            continue
        child = rel / entry.name
        if entry.is_dir() and child in MD_DIRS:
            _mirror(entry, dst / entry.name, child)
        elif entry.suffix == ".md":
            shutil.copyfile(entry, dst / entry.name)
        else:
            (dst / entry.name).symlink_to(entry)


@pytest.fixture
def root(tmp_path):
    _mirror(REPO, tmp_path)
    return tmp_path


def _snapshot(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in check_docs._markdown_files(root)
    }


def _run(root, capsys):
    code = check_docs.main(["check_docs.py", str(root)])
    return code, capsys.readouterr().out


def _find_block(root, name):
    """(path, lines, index of the opening marker, index of the end marker)."""
    opener = f"<!-- generated: {name} -->"
    for path in check_docs._markdown_files(root):
        lines = path.read_text(encoding="utf-8").split("\n")
        if opener in lines:
            start = lines.index(opener)
            return path, lines, start, lines.index(CLOSE, start)
    raise AssertionError(f"no generated block {name!r}")


BLOCKS = [
    "metrics counter events",
    "metrics gauge derived",
    "metrics gauge timing",
    "metrics counter timing",
    "metrics histogram timing",
    "metrics resilience.*",
    "metrics serve.*",
    "findings",
    "lint rules",
    "lint layers",
    "event kinds",
]

#: Cells to corrupt per block, by column: unit/stage/meaning for the
#: metric tables, target and both bands for findings, name and summary
#: for rules, prefixes and deps for layers; the kind itself for events.
CELLS = {
    "metrics counter events": [1, 3],
    "metrics gauge derived": [2],
    "metrics gauge timing": [1],
    "metrics counter timing": [3],
    "metrics histogram timing": [1],
    "metrics resilience.*": [2],
    "metrics serve.*": [1, 3],
    "findings": [2, 3, 4],
    "lint rules": [1, 2],
    "lint layers": [1, 2],
    "event kinds": [0],
}

MUTATIONS = [(block, "delete-row") for block in BLOCKS]
MUTATIONS += [(block, "undeclared-row") for block in BLOCKS]
MUTATIONS += [
    (block, f"cell-{column}") for block in BLOCKS for column in CELLS[block]
]


def _mutate(rows, mutation):
    if mutation == "delete-row":
        return rows[:-1]
    first = rows[0]
    if mutation == "undeclared-row":
        name = first.split("`")[1]
        return [first.replace(f"`{name}`", "`undeclared_entry`", 1)] + rows
    column = int(mutation.split("-")[1])
    if first.startswith("- "):
        return ["- `renamed_kind`"] + rows[1:]
    cells = first.strip("|").split(" | ")
    cells[column] = "changed"
    return ["|" + " | ".join(cells) + "|"] + rows[1:]


def test_every_block_is_placed_once():
    placed = []
    for path in check_docs._markdown_files(REPO):
        for line in path.read_text(encoding="utf-8").split("\n"):
            match = check_docs._OPEN.match(line)
            if match:
                placed.append(match.group(1))
    assert sorted(placed) == sorted(BLOCKS)
    assert sorted(check_docs.render_blocks()) == sorted(BLOCKS)


@pytest.mark.parametrize(
    "block,mutation", MUTATIONS, ids=[f"{b}/{m}" for b, m in MUTATIONS]
)
def test_stale_block_is_reported_and_rewritten(root, capsys, block, mutation):
    before = _snapshot(root)
    path, lines, start, end = _find_block(root, block)
    body = lines[start + 1:end]
    first = next(i for i, line in enumerate(body) if line[:3] in ("| `", "- `"))
    last = max(i for i, line in enumerate(body) if line[:3] in ("| `", "- `"))
    rows = _mutate(body[first:last + 1], mutation)
    lines[start + 1:end] = body[:first] + rows + body[last + 1:]
    path.write_text("\n".join(lines), encoding="utf-8")

    code, out = _run(root, capsys)

    assert code == 1
    assert f"generated block {block!r} was stale" in out
    assert _snapshot(root) == before


def test_unplaced_metric_pair_is_reported(root, capsys, monkeypatch):
    specs = dict(check_docs.SPECS)
    specs["orphan.latency"] = MetricSpec(
        "orphan.latency", MetricKind.HISTOGRAM, "seconds", "orphan",
        Determinism.EVENTS, "a metric whose (kind, determinism) pair has "
        "no block",
    )
    monkeypatch.setattr(check_docs, "SPECS", specs)
    before = _snapshot(root)

    code, out = _run(root, capsys)

    assert code == 1
    assert (
        "declared metric 'orphan.latency' is rendered by no generated block"
        in out
    )
    assert _snapshot(root) == before


@pytest.mark.parametrize(
    "old,new,message",
    [
        (
            "<!-- generated: findings -->",
            "<!-- generated: findingz -->",
            "unknown generated block 'findingz'",
        ),
        (
            "<!-- end generated -->\n\n## Overhead",
            "\n## Overhead",
            "generated block 'findings' has no",
        ),
        (
            "## Overhead",
            "<!-- end generated -->\n## Overhead",
            "end marker with no open block",
        ),
    ],
    ids=["unknown-name", "missing-end", "stray-end"],
)
def test_marker_problems_are_reported(root, capsys, old, new, message):
    path = root / "docs" / "observability.md"
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")

    code, out = _run(root, capsys)

    assert code == 1
    assert message in out


@pytest.mark.parametrize(
    "link,message",
    [
        ("[gone](no-such-file.md)", "broken link -> no-such-file.md"),
        (
            "[gone](observability.md#no-such-heading)",
            "broken anchor -> observability.md#no-such-heading",
        ),
    ],
    ids=["file", "anchor"],
)
def test_broken_links_are_reported(root, capsys, link, message):
    path = root / "docs" / "serving.md"
    path.write_text(
        path.read_text(encoding="utf-8") + f"\nSee {link}.\n",
        encoding="utf-8",
    )

    code, out = _run(root, capsys)

    assert code == 1
    assert "docs/serving.md:" in out
    assert message in out


@pytest.mark.parametrize(
    "ref,stale",
    [
        ("`ProbeRecordBatch.from_records`", "`ProbeRecordBatch.from_records`"),
        ("`repro.network.probes.CoreProbe.drain()`", "`CoreProbe.drain`"),
        ("`GtpcUpdateBulk.no_such_column`", "`GtpcUpdateBulk.no_such_column`"),
    ],
    ids=["method", "qualified-call", "inherited"],
)
def test_stale_class_attribute_is_reported(root, capsys, ref, stale):
    path = root / "docs" / "architecture.md"
    path.write_text(
        path.read_text(encoding="utf-8") + f"\nSee {ref}.\n", encoding="utf-8"
    )

    code, out = _run(root, capsys)

    assert code == 1
    assert "docs/architecture.md:" in out
    assert f"stale reference {stale}" in out


def test_resolving_class_attributes_pass(root, capsys):
    """Fields, ``self`` attributes, inherited fields, enum members and
    stdlib-inherited attributes resolve; non-``repro`` classes and fenced
    code are not checked."""
    path = root / "DESIGN.md"
    refs = [
        "`ProbeRecordBatch.codebook`",
        "`CoreProbe.stats`",
        "`GtpcUpdateBulk.teids`",
        "`Technology.G3`",
        "`Technology.value`",
        "`CorruptDatasetError.args`",
        "`Path.no_such_attribute`",
    ]
    path.write_text(
        path.read_text(encoding="utf-8")
        + "\n"
        + " ".join(refs)
        + "\n\n```\n`CoreProbe.drain`\n```\n",
        encoding="utf-8",
    )

    code, out = _run(root, capsys)

    assert code == 0, out


def test_class_with_foreign_base_is_not_checked(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text(
        "import numpy as np\n"
        "class Known:\n"
        "    x: int = 0\n"
        "    def __init__(self):\n"
        "        self.y = 1\n"
        "class Child(Known):\n"
        "    def z(self):\n"
        "        pass\n"
        "class Array(np.ndarray):\n"
        "    pass\n",
        encoding="utf-8",
    )

    classes = check_docs.class_attributes(src)

    assert {"x", "y", "z", "__init__"} <= classes["Child"]
    assert classes["Array"] is None


def test_clean_copy_passes_untouched(root, capsys):
    before = _snapshot(root)

    code, out = _run(root, capsys)

    assert code == 0, out
    assert "check_docs: OK" in out
    assert _snapshot(root) == before


def test_renders_without_numpy():
    """The ``docs`` CI job installs nothing: no numpy behind the script."""
    probe = (
        "import importlib.util, sys\n"
        "import repro.obs.metrics, repro.obs.events\n"
        "import repro.fidelity.contract, repro.fidelity.scorecard\n"
        "import repro.lint.rules, repro.lint.program, repro.lint.layers\n"
        "import repro.lint.reporters\n"
        f"spec = importlib.util.spec_from_file_location('cd', {str(SCRIPT)!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
