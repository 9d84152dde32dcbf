"""One harness for every value the test suite pins.

The pins of ``tests/test_X.py`` are ``tests/fixtures/X.json``: one JSON
object holding, for each name in the module's ``CASES``, what the
module's ``record(case)`` returned when the pin was taken.  Its tests
compare a fresh ``record(case)`` with ``expected(__name__)[case]``.

``PYTHONPATH=src python -m tests.pinned [X ...]`` rewrites the fixtures
of the named modules (every fixture when none is named) from whatever
``repro`` is importable — only after a deliberate change to what they
pin.  A case whose tracked record the module's ``matches(old, new)``
accepts (equality when it has none) keeps its tracked record, so the
command leaves the fixtures of an unchanged tree byte for byte.
"""

import hashlib
import importlib
import json
import operator
import sys
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).parent / "fixtures"


def sha_lines(lines) -> str:
    """SHA-256 over ``lines``, each encoded and followed by ``b"\\n"``."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def sha_buffers(buffers) -> str:
    """SHA-256 over ``{name: (minutes, values)}`` float64 sample buffers:
    per name in sorted order, ``name:count;`` and then the raw bytes."""
    digest = hashlib.sha256()
    for name in sorted(buffers):
        minutes, values = buffers[name]
        digest.update(f"{name}:{len(values)};".encode())
        digest.update(np.frombuffer(minutes, dtype=np.float64).tobytes())
        digest.update(np.frombuffer(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def fixture(module: str) -> Path:
    """The fixture of the test module of dotted name ``module``."""
    name = module.rpartition(".")[2].removeprefix("test_")
    return FIXTURES / f"{name}.json"


def expected(module: str) -> dict:
    """The pinned records of the test module ``module``, by case name."""
    return json.loads(fixture(module).read_text())


def dumps(records) -> str:
    """The one serialisation of a fixture: one key or value a line."""
    return json.dumps(records, indent=1) + "\n"


def write(module) -> Path:
    """Rewrite ``module``'s fixture from a fresh ``record`` of every case."""
    path = fixture(module.__name__)
    tracked = json.loads(path.read_text()) if path.exists() else {}
    matches = getattr(module, "matches", operator.eq)
    records = {}
    for case in sorted(module.CASES):
        new = json.loads(json.dumps(module.record(case)))
        old = tracked.get(case)
        records[case] = old if case in tracked and matches(old, new) else new
    path.write_text(dumps(records))
    return path


def main(names) -> None:
    for name in names or sorted(path.stem for path in FIXTURES.glob("*.json")):
        print(f"wrote {write(importlib.import_module(f'tests.test_{name}'))}")


if __name__ == "__main__":
    main(sys.argv[1:])
