"""Every setting an exported name offers is one that was pinned.

A setting is a value a caller may leave out: a parameter with a default,
or an ``init`` field of a dataclass with a default or a default factory.
Each case is one package; its record maps every name in the package's
export table (the walk of ``tests/test_exports.py``) to the settings it
offers, in signature or field order.  A setting added or removed moves
a list here, so the surface only changes on purpose.
"""

import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import repro
from tests.pinned import expected

ROOT = Path(repro.__file__).parent
CASES = sorted(
    ".".join(("repro", *path.parent.relative_to(ROOT).parts))
    for path in ROOT.rglob("__init__.py")
)


def settings(value) -> list:
    """The names a caller of ``value`` may leave out (none for a constant)."""
    if isinstance(value, type) and dataclasses.is_dataclass(value):
        return [
            field.name
            for field in dataclasses.fields(value)
            if field.init
            and (
                field.default is not dataclasses.MISSING
                or field.default_factory is not dataclasses.MISSING
            )
        ]
    if not callable(value) or isinstance(value, type) and issubclass(value, BaseException):
        return []
    return [
        param.name
        for param in inspect.signature(value).parameters.values()
        if param.default is not param.empty
    ]


def record(case):
    """Each exported name of the package ``case`` -> its settings."""
    package = importlib.import_module(case)
    return {name: settings(getattr(package, name)) for name in sorted(package.__getattr__.owners)}


@pytest.mark.parametrize("case", CASES)
def test_settable_surface_is_pinned(case):
    assert record(case) == expected(__name__)[case]
