"""Checks on the repository's tooling that run none of it: the names the
benchmark imports from the package, and the committed mutant list."""

import ast
import importlib.util
from pathlib import Path

import hypersub

REPO = Path(__file__).resolve().parents[1]


def test_every_name_the_benchmark_imports_is_still_exported():
    # Read with ast, so no benchmark module is imported.
    names = set()
    for path in (REPO / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "hypersub":
                names.update(alias.name for alias in node.names)
    assert {"law_of_cosines_margin", "sample_triangle", "run", "cli"} <= names
    missing = [name for name in sorted(names)
               if not hasattr(hypersub, name) and importlib.util.find_spec(f"hypersub.{name}") is None]
    assert missing == []


def load_mutants(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    spec = importlib.util.spec_from_file_location("mutants", REPO / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def defined_tests():
    names = set()
    for path in (REPO / "tests").glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
                names.add(node.name)
            elif isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                names.add(node.name)
    return names


def test_each_mutant_applies_once_and_names_a_test_to_kill_it(monkeypatch):
    mutants = load_mutants(monkeypatch)
    tests = defined_tests()
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (REPO / m.file).read_text().count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        assert m.killer in tests and m.killer not in mutants.PINS, m.name
    # A pin that no longer exists would no longer be deselected.
    assert set(mutants.PINS) <= tests
