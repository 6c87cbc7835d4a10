"""The session build path must not load scipy.

``scipy.special`` alone adds about 15 MiB of resident memory and a
quarter second of import time, more than the build's peak-RSS budget
allows; keyed draws take their normal variates from Box-Muller instead
(see :mod:`repro._rng`).  A fresh interpreter builds a small dataset
and reports which modules it loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_SCRIPT = """
import json, sys
from repro.dataset.builder import build_session_level_dataset
from repro.geo.country import CountryConfig

artifacts = build_session_level_dataset(
    n_subscribers=200, country_config=CountryConfig(n_communes=64), seed=3
)
print(json.dumps({
    "flows": artifacts.extras["generator"].flows_generated,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_session_build_does_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["flows"] > 0
    assert report["scipy"] == []
