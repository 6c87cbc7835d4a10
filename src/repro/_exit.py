"""The shared CLI exit-code contract.

Every ``repro-*`` entry point uses the same four codes::

    0  ok            — clean run, nothing to report
    1  findings      — the tool worked and found something: lint
                       findings, a metrics/scorecard regression, or a
                       degraded (quarantined) build
    2  usage         — bad arguments or unreadable/invalid input
    3  internal      — unexpected failure inside the tool itself (or,
                       for builds, retry exhaustion under ``fail``)

:data:`CLI_EXIT_MATRIX` pins which codes each CLI module may emit.  It
is deliberately a **pure literal**: :mod:`repro.lint.program` parses it
straight out of this file's AST (rule RPL205) and cross-checks it
against the ``return``/``sys.exit`` literals in each CLI module, and
``tests/unit/test_cli_exit_contract.py`` pins the behaviour at runtime.
Change a CLI's exit behaviour and this table, the docs, and the test
matrix all have to move together.
"""

from __future__ import annotations

from typing import Dict, Tuple

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

#: Human-readable meaning of each code (docs cross-check this).
EXIT_MEANINGS: Dict[int, str] = {
    0: "ok",
    1: "findings / regression / degraded",
    2: "usage or invalid input",
    3: "internal failure",
}

#: CLI module -> exit codes it may produce.  Keys are the ``*.cli``
#: modules behind the ``repro-*`` console scripts; values are sorted.
CLI_EXIT_MATRIX: Dict[str, Tuple[int, ...]] = {
    "repro.dataset.cli": (0, 1, 2, 3),
    "repro.experiments.cli": (0, 1, 2, 3),
    "repro.fidelity.cli": (0, 1, 2, 3),
    "repro.lint.cli": (0, 1, 2, 3),
    "repro.obs.cli": (0, 1, 2, 3),
    "repro.serve.cli": (0, 1, 2, 3),
}

__all__ = [
    "CLI_EXIT_MATRIX",
    "EXIT_FINDINGS",
    "EXIT_INTERNAL",
    "EXIT_MEANINGS",
    "EXIT_OK",
    "EXIT_USAGE",
]
