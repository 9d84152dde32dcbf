"""Every fixture is what ``python -m tests.pinned`` would write for it.

Checks the files only (no record is computed): each is the one writer's
serialisation of its own content, and it pins exactly its module's
``CASES``, in sorted order.  A hand edit or a case added or dropped
without a rewrite fails here.
"""

import importlib
import json

import pytest

from tests.pinned import FIXTURES, dumps

NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))


@pytest.mark.parametrize("name", NAMES)
def test_fixture_is_the_writers_output_of_its_cases(name):
    text = (FIXTURES / f"{name}.json").read_text()
    assert text == dumps(json.loads(text))
    cases = importlib.import_module(f"tests.test_{name}").CASES
    assert list(json.loads(text)) == sorted(cases)
