"""Each entry point loads exactly the ``repro`` modules it did when pinned.

Each case is one import statement, run in a fresh interpreter; its record
is the sorted names of the ``repro`` modules loaded afterwards.  A module
that starts importing something at the top level (a package ``__init__``
re-exporting eagerly, a command importing what only another command
runs) moves a list here before it shows in anyone's start-up time.  The
last case is the import block of the end-to-end benchmark's workloads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from tests.pinned import expected

SRC = str(Path(repro.__file__).parent.parent)
ROOT = Path(SRC).parent

#: name -> the statement a fresh interpreter runs (from the repo root)
CASES = {
    "repro": "import repro",
    "repro.core": "import repro.core",
    "repro.simulator.simulation": "import repro.simulator.simulation",
    "repro.telemetry.TelemetrySink": "from repro.telemetry import TelemetrySink",
    "repro.cli": "import repro.cli",
    "benchmarks.e2e.workloads": "import benchmarks.e2e.workloads",
}

_REPORT = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'repro' or m.startswith('repro.'))))"
)


def record(case):
    """The sorted ``repro`` modules loaded after the case's statement."""
    pythonpath = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", f"{CASES[case]}\n{_REPORT}"],
        check=True,
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath},
        text=True,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize("case", sorted(CASES))
def test_entry_point_loads_the_pinned_modules(case):
    assert record(case) == expected(__name__)[case]
