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


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", REPO / "scripts" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_runs(parent, checkout):
    def side(value):
        return {"metrics": {"t": {"value": value, "unit": "s"}}, "failed": 0, "attempted": 1}

    return [{"pair": i, "seed": i, "first": "parent", "parent": side(p), "checkout": side(c)}
            for i, (p, c) in enumerate(zip(parent, checkout), 1)]


def bound_verdict(pairs, better, parent, checkout):
    spec = {"end_to_end": [{"name": "t", "better": better, "bound": 0.25}]}
    lines = pairs.report(spec, synthetic_runs(parent, checkout))
    [line] = [line for line in lines if "against a bound of 25%" in line]
    return line.rsplit(": ", 1)[1]


def test_pairs_reports_a_verdict_against_each_bound():
    pairs = load_pairs()
    steady = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    wide = [6.0, 8.0, 10.0, 12.0, 14.0] * 2  # quartile spread 0.6 of the median
    assert bound_verdict(pairs, "lower", steady, [x * 1.3 for x in steady]) == "regression"
    assert bound_verdict(pairs, "higher", steady, [x * 0.7 for x in steady]) == "regression"
    assert bound_verdict(pairs, "lower", steady, [x * 1.2 for x in steady]) == "within bound"
    assert bound_verdict(pairs, "higher", steady, [x * 0.8 for x in steady]) == "within bound"
    assert bound_verdict(pairs, "lower", wide, wide) == "unresolved"
    # Every run of the checkout beats every run of the parent.
    assert bound_verdict(pairs, "lower", wide, [5.0] * 10) == "within bound"
    assert bound_verdict(pairs, "higher", wide, [15.0] * 10) == "within bound"


def test_pairs_warns_below_ten_pairs():
    pairs = load_pairs()
    spec = {"end_to_end": [{"name": "t", "better": "lower", "bound": 0.25}]}
    few = pairs.report(spec, synthetic_runs([1.0] * 9, [1.0] * 9))
    enough = pairs.report(spec, synthetic_runs([1.0] * 10, [1.0] * 10))
    assert few[0].startswith("warning: 9 pairs, below the 10")
    assert not any(line.startswith("warning") for line in enough)
