"""Every name a package exports resolves to the module that defines it.

A package ``__init__`` exports through :func:`repro.lazy.lazy_exports`:
one table from each name to the submodule defining it, resolved on
first access.  A name listed under a submodule that does not define it
(even one that imports it) fails here, as does a star import that binds
anything but ``__all__``.
"""

import importlib
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
PACKAGES = sorted(
    ".".join(("repro", *path.parent.relative_to(ROOT).parts))
    for path in ROOT.rglob("__init__.py")
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_to_its_defining_module(name):
    package = importlib.import_module(name)
    owners = package.__getattr__.owners
    assert set(owners) <= set(package.__all__) <= set(dir(package))
    for export in package.__all__:
        value = getattr(package, export)
        if export not in owners:  # a plain global of the package itself
            assert vars(package)[export] is value
            continue
        assert getattr(importlib.import_module(owners[export]), export) is value
        assert getattr(value, "__module__", owners[export]) == owners[export]


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_exactly_all(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(importlib.import_module(name).__all__)


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'nope'"):
        package.nope
    assert not hasattr(package, "nope")
