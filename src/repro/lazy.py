"""Package exports that resolve on first access (PEP 562).

A package ``__init__`` lists each name it exports once, in a table from
the submodule that defines it to its names, and binds what
:func:`lazy_exports` returns::

    __getattr__, __dir__, __all__ = lazy_exports(globals(), {
        "model": ("Allocation", "ServiceSpec"),
    })

Importing the package imports none of its submodules; the first read of
``package.Allocation`` (``from package import Allocation`` included)
imports ``package.model`` and caches the value in the package, so later
reads are plain global lookups.  A name not in the table raises
``AttributeError``, which is also what lets ``from package import
submodule`` fall through to the normal submodule import.
"""

from importlib import import_module


def lazy_exports(namespace: dict, table: dict):
    """``(__getattr__, __dir__, __all__)`` for the package of ``namespace``."""
    package = namespace["__name__"]
    owners = {
        name: f"{package}.{module}" for module, names in table.items() for name in names
    }

    def __getattr__(name):
        if name not in owners:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(owners[name]), name)
        return value

    def __dir__():
        return sorted({*namespace, *owners})

    __getattr__.owners = owners  # name -> defining module, for the export tests
    return __getattr__, __dir__, list(owners)
