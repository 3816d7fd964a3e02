"""Every name a ``repro`` module lists in ``__all__`` resolves.

A deletion that leaves a dangling export fails here, not in a user's
``from repro import *``.  Where a package lists one of its submodules
(``repro.experiments`` lists its experiment modules without importing
them), the submodule is imported first, as ``from package import
submodule`` would.
"""

import importlib
import importlib.util
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


def test_walk_finds_the_subpackages():
    assert {"repro.core", "repro.pfs", "repro.experiments"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert len(set(exports)) == len(exports), f"{name}.__all__ repeats a name"
    missing = []
    for export in exports:
        if not hasattr(module, export) and hasattr(module, "__path__"):
            if importlib.util.find_spec(f"{name}.{export}") is not None:
                importlib.import_module(f"{name}.{export}")
        if not hasattr(module, export):
            missing.append(export)
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
