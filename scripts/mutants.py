#!/usr/bin/env python3
"""Show that the checks can fail: run tier-1 against each mutant of MUTANTS.

    python3 scripts/mutants.py

A mutant is one exact text replacement in one source file, plus the test
expected to kill it. For each mutant the script copies this checkout's
working tree (as scripts/pairs.py does) into a fresh temporary directory,
applies the replacement, and runs tier-1 there with the byte pins (PINS)
deselected. Those pins fail on any change of output, so a mutant they alone
catch shows nothing about what the checks mean. The mutant is killed when
that run fails and when its named test, run alone, fails too. The unmutated
copy is run first and must pass. The script prints every mutant with the
number of tier-1 tests it fails, and exits 1 if the unmutated copy fails or
a mutant survives. Each run costs one tier-1 run, so the list takes minutes.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from pairs import export_worktree


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    killer: str  # a test function or class that must fail on the mutant


MUTANTS = [
    Mutant("J-gate", "src/hypersub/verify.py",
           "np.sinh(d_zx) * np.sinh(0.5 * delta)", "np.sinh(d_zx) * np.sinh(0.25 * delta)",
           "TestKeyInequalityAgainstAnIndependentReference"),
    Mutant("J-scalar", "src/hypersub/verify.py",
           "shd = math.sinh(0.5 * kappa * delta)", "shd = math.sinh(0.25 * kappa * delta)",
           "test_the_reference_on_scaled_disks"),
    Mutant("E", "src/hypersub/verify.py",
           "delta = 0.5 * d * rng.uniform(0.3, 1.0, m)", "delta = 0.25 * d * rng.uniform(0.3, 1.0, m)",
           "TestKeySamplersReachTheEdgeOfTheHypothesis"),
    Mutant("I", "src/hypersub/verify.py",
           "delta = 0.9 * delta_max * rng.uniform(0.2, 1.0, m)",
           "delta = 0.5 * delta_max * rng.uniform(0.2, 1.0, m)",
           "TestKeySamplersReachTheEdgeOfTheHypothesis"),
    Mutant("F", "src/hypersub/verify.py",
           "partial(_law_of_cosines_margins, 2.0)", "partial(_law_of_cosines_margins, 3.0)",
           "test_the_suite_compares_at_kappa_two"),
    Mutant("per-step delta", "src/hypersub/verify.py",
           "delta = 0.5 * d_k", "delta = 0.25 * d_k",
           "test_per_step_recomputed_from_the_run"),
    Mutant("long step", "src/hypersub/geometry.py",
           "t = 2.0 * a / s", "t = 2.2 * a / s",
           "TestFiniteTerminationAtThePredictedStep"),
    Mutant("drift eps", "src/hypersub/geometry.py",
           "DRIFT_EPS = 1e-15", "DRIFT_EPS = 1e-14",
           "test_through_the_drift_clamp"),
    Mutant("harmonic flags", "src/hypersub/schedules.py",
           "lambda k: c / (k + 1), True, True, True)", "lambda k: c / (k + 1), True, True, False)",
           "TestDeclaredFlags"),
    Mutant("fork gate", "src/hypersub/solver.py",
           'if when and hasattr(os, "sched_getaffinity")', 'if hasattr(os, "sched_getaffinity")',
           "test_split_writes_the_serial_bytes"),
    Mutant("integer counts", "src/hypersub/solver.py",
           "value = index(getattr(self, key))", "value = getattr(self, key)",
           "test_integer_counts_are_stored_as_int"),
    Mutant("zero rays", "src/hypersub/verify.py",
           "if n_rays < 1:", "if n_rays < 0:",
           "test_zero_rays_is_rejected"),
    Mutant("column lengths", "src/hypersub/solver.py",
           "if len(column) != n:", "if False:",
           "test_load_trace_names_a_faulty_column_object"),
    Mutant("column joint", "src/hypersub/solver.py",
           "islice(enumerate(_RECORD_VALUES.items()), lo, hi)",
           "enumerate(islice(_RECORD_VALUES.items(), lo, hi))",
           "test_split_writes_the_serial_bytes"),
    Mutant("k order", "src/hypersub/solver.py",
           "all(map(lt, chain([-1], k), k))", "all(map(int.__le__, chain([-1], k), k))",
           "test_load_trace_needs_steps_from_0_that_increase"),
    Mutant("axis foot", "src/hypersub/geometry.py",
           "math.sqrt(((1.0 - x) ** 2 + y * y) * ((1.0 + x) ** 2 + y * y))",
           "math.sqrt((1.0 + abs2(p.z)) ** 2 - 4.0 * x * x)",
           "test_projection_near_the_circle_on_the_diameter"),
    Mutant("axis point", "src/hypersub/geometry.py",
           "if p.y == 0.0:", "if False:",
           "test_projection_of_axis_point_is_itself"),
    Mutant("n guard", "src/hypersub/verify.py",
           "except (MemoryError, ValueError) as exc:", "except MemoryError as exc:",
           "test_n_too_large_to_allocate_exits_2"),
]

# Tests that pin output bytes: they fail on every change, right or wrong.
PINS = [
    "test_json_is_byte_identical",
    "test_csv_is_byte_identical",
    "test_complexity_report_is_unchanged",
    "test_reports_are_timed_and_otherwise_unchanged",
]


def tier1(tree: Path, select: str) -> tuple[int, str]:
    """Exit code and last output line of tier-1 in ``tree``, with ``-k select``."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "-k", select]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else done.stderr.strip()


def failed(summary: str) -> int:
    match = re.search(r"(\d+) failed", summary)
    return int(match[1]) if match else 0


def copy(tmp: str, name: str) -> Path:
    tree = Path(tmp, re.sub(r"\W+", "-", name))
    export_worktree(tree)
    return tree


def main() -> int:
    unpinned = "not (" + " or ".join(PINS) + ")"
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        code, summary = tier1(copy(tmp, "unmutated"), unpinned)
        print(f"unmutated: {summary}", flush=True)
        if code != 0:
            return 1
        survivors = []
        for mutant in MUTANTS:
            tree = copy(tmp, mutant.name)
            path = tree / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: the old text does not occur exactly once in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new))
            code, summary = tier1(tree, unpinned)
            killer_code, _ = tier1(tree, mutant.killer)
            killed = code != 0 and killer_code == 1
            if not killed:
                survivors.append(mutant.name)
            alone = "fails" if killer_code == 1 else f"exits {killer_code}"
            print(f"{'killed' if killed else 'SURVIVED':<8}  {mutant.name:<15}  {failed(summary):>3} failed;"
                  f"  {mutant.killer} alone {alone}", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed"
          + (f"; surviving: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
