"""Tests of the benchmark's own checks and result format.

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from hypersub import run  # noqa: E402
from instance import BUDGET_RECORD_EVERY, TINY_STEPS, fermat_weber  # noqa: E402
from reference import solve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def fw_case():
    inst = fermat_weber(0)
    f_star, x_star = solve(inst)
    ref = workloads.Reference(f_star, x_star)
    trace = run(workloads.fw_config(inst, ref, TINY_STEPS, BUDGET_RECORD_EVERY))
    return inst, ref, trace


def test_reference_passes_the_run_check(fw_case):
    inst, ref, trace = fw_case
    assert workloads.check_run(trace, inst, ref, TINY_STEPS, BUDGET_RECORD_EVERY) == []


@pytest.mark.parametrize("shift", [1e-3, -0.1])
def test_wrong_reference_f_star_fails_the_run_check(fw_case, shift):
    inst, ref, trace = fw_case
    wrong = replace(ref, f_star=ref.f_star + shift)
    problems = workloads.check_run(trace, inst, wrong, TINY_STEPS, BUDGET_RECORD_EVERY)
    assert any("best_gap" in p for p in problems)


def test_wrong_budget_fails_the_run_check(fw_case):
    inst, ref, trace = fw_case
    problems = workloads.check_run(trace, inst, ref, TINY_STEPS + 1, BUDGET_RECORD_EVERY)
    assert any("expected max-iters" in p for p in problems)


def test_forced_nonzero_exit_fails_the_cli_check(tmp_path):
    # No bundled configs in the directory, so both solves exit with the
    # config-error code.
    out = workloads.cli_pass({"sublevel": 4}, 0, tmp_path, tmp_path)
    solves = [f for f in out.failures if f.startswith("cli.solve")]
    assert len(solves) == 2 and all("exit 2" in f for f in solves)
    assert out.attempted == 4


def test_report_violations_and_sizes_fail_the_verify_check():
    report = {"check": "c", "n": 10, "violations": 0, "hypothesis_mode": None}
    assert workloads.check_verify("gradcheck", 10, [report]) == []
    assert workloads.check_verify("gradcheck", 10, [{**report, "violations": 1}])
    assert workloads.check_verify("gradcheck", 11, [report])


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize(
    "workload,trace",
    [(w["name"], 0) for w in SPEC["workloads"]] + [("fw-budget", 1)],
)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    report = json.loads("\n".join(done.stdout.strip().splitlines()[:-1]))
    assert {"nproc", "python", "numpy", "cpu_model", "steal_ticks"} <= set(report["machine"])


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("fw-budget", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
