"""The CLI prints and writes exactly the bytes it did when they were pinned.

Each case is one ``python -m repro`` command, run in a child process; its
record is the SHA-256 of the file it writes to ``--output`` (the stdout of
``analyze`` and ``dashboard`` carries wall-clock timings), else of its
stdout.  The commands: two bare replays, an autoscaled observed run's JSON
analysis (its autoscaler and window ticks are timers on the event queue),
one resilient replay through ``simulate`` and through ``dashboard`` (a
sink, spans and the TSDB on the resilient request path) and the
controlled chaos sweep.  Pinned on CPython 3.11 with numpy 2.4.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import repro
from tests.pinned import expected

SRC = str(Path(repro.__file__).parent.parent)
BARE = "--workload 20000 --sla 200 --duration 0.5 --seed 0"
RESILIENT = "--workload 10000 --sla 200 --duration 0.5 --seed 0 --chaos --resilience"

#: name -> the arguments of ``python -m repro``; ``{tmp}`` is a scratch directory
CASES = {
    "social": f"simulate --app social-network {BARE}",
    "hotel": f"simulate --app hotel-reservation {BARE} --interference 1.5",
    "analyze": (
        "analyze --app hotel-reservation --workload 4000 --sla 250"
        " --duration 3.2 --interval 1 --window 1 --output {tmp}/a.json"
    ),
    "resilient_simulate": f"simulate --app social-network {RESILIENT}",
    "resilient_dashboard": (
        f"dashboard --app social-network {RESILIENT} --output {{tmp}}/d.html"
    ),
    "chaos_controlled": "chaos --controlled --seed 0",
}


def record(case):
    """SHA-256 of the ``--output`` file of the case's command, or its stdout."""
    pythonpath = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as tmp:
        args = CASES[case].format(tmp=tmp).split()
        pinned = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            check=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        ).stdout
        if "--output" in args:
            pinned = Path(args[args.index("--output") + 1]).read_bytes()
    return hashlib.sha256(pinned).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_the_pinned_bytes(case):
    assert record(case) == expected(__name__)[case]
