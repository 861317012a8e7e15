"""The package re-exports exactly the public names of its library modules."""

import doctest
import importlib

import pytest

import effcone

LIBRARY_MODULES = (
    "numerics", "lattice", "surface", "ehrhart", "threshold", "fracsum",
    "families", "verify",
)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_exports_are_reexported(name):
    module = importlib.import_module(f"effcone.{name}")
    for export in module.__all__:
        assert export in effcone.__all__, f"effcone.{name}.{export}"
        assert getattr(effcone, export) is getattr(module, export)


def test_package_exports_resolve_to_module_exports():
    module_exports = {
        export
        for name in LIBRARY_MODULES
        for export in importlib.import_module(f"effcone.{name}").__all__
    }
    assert set(effcone.__all__) - {"__version__"} == module_exports
    assert len(effcone.__all__) == len(set(effcone.__all__))


def test_library_doctests_pass():
    attempted = 0
    for name in LIBRARY_MODULES:
        result = doctest.testmod(importlib.import_module(f"effcone.{name}"))
        assert result.failed == 0, f"effcone.{name}"
        attempted += result.attempted
    assert attempted == 14
