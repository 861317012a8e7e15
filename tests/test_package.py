"""The package re-exports exactly the public names of its library modules,
whose doctests pass and whose source holds no ``assert`` statement, no
unused import and no integer check outside ``numerics``; importing the CLI
builds no argument parser, and the CLI prints the same bytes without json's
C accelerator."""

import argparse
import ast
import doctest
import importlib
import json.encoder
import sys
from pathlib import Path

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


# Doctest examples per library module, so that a module which loses or gains
# one is named by the failure.
DOCTEST_EXAMPLES = {
    "numerics": 1, "lattice": 0, "surface": 3, "ehrhart": 0, "threshold": 2,
    "fracsum": 6, "families": 0, "verify": 2,
}


def test_library_doctests_pass():
    attempted = {}
    for name in LIBRARY_MODULES:
        result = doctest.testmod(importlib.import_module(f"effcone.{name}"))
        assert result.failed == 0, f"effcone.{name}"
        attempted[name] = result.attempted
    assert attempted == DOCTEST_EXAMPLES


def test_library_has_no_assert_statement():
    # "python -O" strips asserts, so an invariant must raise a real exception.
    paths = sorted(Path(effcone.__file__).parent.rglob("*.py"))
    assert {path.stem for path in paths} >= {*LIBRARY_MODULES, "cli"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_numerics_checks_for_an_int():
    # Every integer argument goes through numerics.require_int, so no entry
    # point grows a copy of the check that disagrees with the rest.
    found = [
        path.name
        for path in sorted(Path(effcone.__file__).parent.rglob("*.py"))
        if "must be an int" in path.read_text(encoding="utf-8")
    ]
    assert found == ["numerics.py"]


# Bound but never read: bench/test_bench.py checks that its tracer rebinds and
# restores these two names.
BENCH_PINNED_IMPORTS = {"verify.h0", "ehrhart.frac_sum"}


def test_library_has_no_unused_import():
    unused = set()
    for path in sorted(Path(effcone.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                bound = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unused.update(f"{path.stem}.{name}" for name in bound
                              if name != "*" and name not in read)
    assert unused == BENCH_PINNED_IMPORTS


def test_importing_the_cli_builds_no_parser(monkeypatch):
    # Every call pays for its import: a parser built there would only move the
    # parsing cost of a call into its start-up.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    imported = importlib.import_module("effcone.cli")
    cli = fresh_cli(monkeypatch)
    assert cli is not imported
    assert built == []
    cli._build_parser()
    assert built[0] == "effcone"


def fresh_cli(monkeypatch):
    """``effcone.cli`` imported afresh; every effcone module is put back when
    the test ends."""
    for name in [name for name in sys.modules if name.split(".")[0] == "effcone"]:
        monkeypatch.delitem(sys.modules, name)
    return importlib.import_module("effcone.cli")


def test_the_cli_runs_without_the_c_encoder(monkeypatch, capsys):
    # Where the _json accelerator is missing, json.encoder.c_make_encoder is None.
    calls = (
        ["ehrhart", "--surface", "4,13,23", "--family", "B", "--n", "5"],
        ["reduce", "--entry", "2", "--k", "3", "--u0", "50"],
        ["verify", "--surface", "4,13,23", "--n-max", "20"],
    )
    cli = importlib.import_module("effcone.cli")
    expected = [(cli.main(argv), capsys.readouterr().out) for argv in calls]
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    bare = fresh_cli(monkeypatch)
    assert bare is not cli
    assert [(bare.main(argv), capsys.readouterr().out) for argv in calls] == expected
    assert [code for code, _ in expected] == [0, 0, 0]
