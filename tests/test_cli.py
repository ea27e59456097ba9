import hashlib
import importlib.util
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from hypersub.cli import main
from hypersub.solver import STOP_GRAD_TOL, Termination, load_trace, stop_threshold
from hypersub.verify import SUITES

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "scripts" / "configs"


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOOD = (
    "name = good\nmanifold = poincare\noracle = two-busemann\n"
    "schedule = harmonic:c=1\nx0 = 0.0+0.5i\nmax_iters = 10\n"
)


class TestSolve:
    def test_bundled_two_busemann(self, tmp_path):
        code = main(["solve", str(CONFIGS / "two_busemann.cfg"), "--out-dir", str(tmp_path)])
        assert code == 0
        for suffix in ("trace.json", "trace.csv", "summary.json"):
            assert (tmp_path / f"two_busemann.{suffix}").exists()
        summary = json.loads((tmp_path / "two_busemann.summary.json").read_text())
        # the iterate reaches the solution set to machine precision well
        # inside the budget, so the STOP rule fires before max_iters
        assert summary["termination"] == "subgradient-zero"
        assert summary["final_dist_to_s"] < 1e-3
        assert summary["sum_lambda"] > 0.0

    def test_bundled_ball_hinge_terminates_finitely(self, tmp_path):
        code = main(["solve", str(CONFIGS / "ball_hinge.cfg"), "--out-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "ball_hinge.summary.json").read_text())
        assert summary["termination"] == "subgradient-zero"
        assert summary["termination_step"] == 8
        assert summary["final_dist_to_s"] == 0.0

    def test_artifacts_respect_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            code = main(["solve", str(CONFIGS / "ball_hinge.cfg"), "--out-dir", str(tmp_path)])
        finally:
            os.umask(old)
        assert code == 0
        mode = stat.S_IMODE((tmp_path / "ball_hinge.summary.json").stat().st_mode)
        assert mode == 0o644

    def test_trace_reloads(self, tmp_path):
        main(["solve", str(CONFIGS / "ball_hinge.cfg"), "--out-dir", str(tmp_path)])
        trace = load_trace(tmp_path / "ball_hinge.trace.json")
        assert trace.termination.kind == "subgradient-zero"
        assert trace.config["oracle"].startswith("ball-hinge")

    def test_negative_schedule_scale_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "name = bad\nmanifold = poincare\noracle = two-busemann\n"
            "schedule = harmonic:c=-1\nx0 = 0.0+0.5i\nmax_iters = 10\n",
        )
        assert main(["solve", cfg]) == 2
        assert "schedule" in capsys.readouterr().err

    def test_unknown_key_is_named(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "name = bad\nmanifold = poincare\noracle = two-busemann\n"
            "schedule = harmonic:c=1\nx0 = 0.0+0.5i\nmax_iters = 10\nwrong_key = 3\n",
        )
        assert main(["solve", cfg]) == 2
        assert "wrong_key" in capsys.readouterr().err

    def test_missing_key_is_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "name = bad\nmanifold = poincare\n")
        assert main(["solve", cfg]) == 2
        err = capsys.readouterr().err
        assert "oracle" in err or "schedule" in err or "x0" in err

    def test_bad_max_iters_is_named(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "name = bad\nmanifold = poincare\noracle = two-busemann\n"
            "schedule = harmonic:c=1\nx0 = 0.0+0.5i\nmax_iters = 0\n",
        )
        assert main(["solve", cfg]) == 2
        assert "max_iters" in capsys.readouterr().err

    def test_x0_outside_disk_rejected(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "name = bad\nmanifold = poincare\noracle = two-busemann\n"
            "schedule = harmonic:c=1\nx0 = 2.0+0.0i\nmax_iters = 10\n",
        )
        assert main(["solve", cfg]) == 2
        assert "x0" in capsys.readouterr().err

    @pytest.mark.parametrize("x0", ["inf", "-inf+0.5i"])
    def test_infinite_x0_is_named_as_not_finite(self, tmp_path, capsys, x0):
        # Only a trailing i marks the imaginary part; 'inf' is not 'jnf'.
        cfg = write_cfg(tmp_path, GOOD.replace("0.0+0.5i", x0))
        code = main(["solve", cfg, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: x0 " in err and "must be finite" in err

    def test_underflowing_step_exits_3_with_its_trace(self, tmp_path, capsys):
        text = GOOD.replace("harmonic:c=1", "harmonic:c=5e-324")
        assert main(["solve", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 3
        assert "nonpositive step" in capsys.readouterr().err
        trace = load_trace(tmp_path / "good.trace.json")
        assert trace.termination.kind == "numerical-failure"
        assert trace.termination.step == 1
        summary = json.loads((tmp_path / "good.summary.json").read_text())
        assert summary["n_records"] == 1

    @pytest.mark.parametrize("oracle", ["ball-hinge:center=-1e308+0.0i,r=0.3", "distance:anchor=-1e308+0.0i"])
    def test_overflowing_distance_exits_3_with_its_trace(self, tmp_path, capsys, oracle):
        # d(x0, S) overflows to inf on the plane: the nearest point of S is
        # the center, and the infinite value ends the run at k = 0.
        text = GOOD.replace("poincare", "euclidean").replace("two-busemann", oracle)
        text = text.replace("0.0+0.5i", "1e308+0.0i")
        assert main(["solve", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 3
        assert "numerical failure: non-finite value or subgradient" in capsys.readouterr().err
        raw = json.loads((tmp_path / "good.trace.json").read_text())
        assert raw["termination"]["kind"] == "numerical-failure" and raw["termination"]["step"] == 0
        assert raw["x_star"] == "-1e+308+0.0i"

    def test_distance_whose_modulus_overflows_exits_3_with_its_trace(self, tmp_path, capsys):
        # Both components of x0 - anchor are finite, but |x0 - anchor| is
        # beyond the float range: d(x0, S) and f(x0) are inf, not an OverflowError.
        text = GOOD.replace("poincare", "euclidean").replace("two-busemann", "distance:anchor=0.0+0.0i")
        text = text.replace("0.0+0.5i", "1.5e308+1.5e308i")
        assert main(["solve", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 3
        assert "numerical failure: non-finite value or subgradient" in capsys.readouterr().err
        raw = json.loads((tmp_path / "good.trace.json").read_text())
        assert raw["termination"]["kind"] == "numerical-failure" and raw["termination"]["step"] == 0
        assert (raw["x_star"], raw["dist_x0_to_solution"], raw["records"]) == ("0.0+0.0i", math.inf, [])
        assert (tmp_path / "good.trace.csv").exists()

    @pytest.mark.parametrize(
        "old,new,message",
        [
            (
                "two-busemann",
                "ball-hinge:center=0.0+0.0i,r=abc",
                "oracle bad oracle parameter r='abc' in 'ball-hinge:center=0.0+0.0i,r=abc': "
                "could not convert string to float: 'abc'",
            ),
            (
                "two-busemann",
                "ball-hinge:center=0.0+0.0i,r=-1",
                "oracle 'ball-hinge:center=0.0+0.0i,r=-1' is rejected: hinge radius must be positive",
            ),
            ("max_iters = 10", "max_iters = abc", "max_iters invalid literal for int() with base 10: 'abc'"),
        ],
        ids=["unparsed-parameter", "builder-error", "unparsed-int"],
    )
    def test_config_error_quotes_its_text_once(self, tmp_path, capsys, old, new, message):
        text = GOOD.replace(old, new)
        assert main(["solve", write_cfg(tmp_path, text), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_underflowing_step_counts_its_one_step(self, tmp_path, capsys):
        # Step 0 is 5e-324 and step 1 underflows: one step was taken, although
        # only the iterate before it is recorded.
        text = GOOD.replace("harmonic:c=1", "harmonic:c=5e-324")
        assert main(["solve", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().out == "good: numerical-failure after 1 iterations\n"
        summary = json.loads((tmp_path / "good.summary.json").read_text())
        assert (summary["sum_lambda"], summary["sum_lambda_sq"]) == (5e-324, 0.0)

    def test_summary_explains_the_run(self, tmp_path):
        assert main(["solve", str(CONFIGS / "two_busemann.cfg"), "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "two_busemann.summary.json").read_text())
        trace = load_trace(tmp_path / "two_busemann.trace.json")
        assert summary["drift_count"] == 0
        assert summary["min_boundary_gap"] == min(1.0 - abs(r.point.z) for r in trace.records)
        assert summary["min_boundary_gap"] == 1.0 - 0.9  # the start is the iterate nearest the circle
        assert summary["wall_s"] > 0.0
        assert summary["steps_per_s"] == summary["termination_step"] / summary["wall_s"]
        assert list(summary)[-1] == "write_s" and summary["write_s"] > 0.0

    def test_summary_has_the_applied_stop_threshold(self, tmp_path):
        # The first subgradient norm is 1.99, whose binade [1, 2) gives the
        # threshold STOP_GRAD_TOL itself, as the trace echoes it.
        assert main(["solve", str(CONFIGS / "two_busemann.cfg"), "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "two_busemann.summary.json").read_text())
        trace = load_trace(tmp_path / "two_busemann.trace.json")
        assert summary["stop_threshold"] == trace.config["stop_grad_tol"] == STOP_GRAD_TOL

    def test_tiny_curvature_busemann_is_no_false_minimizer(self, tmp_path):
        # The Busemann subgradient on scaled:kappa=1e-12 has norm 1e-12, which
        # an absolute threshold of 1e-12 reported as a minimizer at k = 0.
        text = (
            "name = flatish\nmanifold = scaled:kappa=1e-12\noracle = busemann:eta=1.0+0.0i\n"
            "schedule = harmonic:c=1\nx0 = 0.0+0.9i\nmax_iters = 50\n"
        )
        assert main(["solve", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "flatish.summary.json").read_text())
        trace = load_trace(tmp_path / "flatish.trace.json")
        assert (summary["termination"], summary["termination_step"]) == ("max-iters", 50)
        assert summary["stop_threshold"] == stop_threshold(trace.records[0].grad_norm) < 1e-23

    def test_subnormal_first_subgradient_takes_its_steps(self, tmp_path, capsys):
        # At 0.5 + 5e-324i the first subgradient norm is subnormal: -1/|g|
        # overflowed, and the run ended numerical-failure at k = 0. Its STOP
        # threshold underflows to 0.0, so only a zero subgradient would stop it.
        text = (CONFIGS / "two_busemann.cfg").read_text().replace("x0 = 0.0+0.9i", "x0 = 0.5+5e-324i")
        assert main(["solve", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "two_busemann: max-iters after 10000 iterations\n"
        summary = json.loads((tmp_path / "two_busemann.summary.json").read_text())
        assert summary["stop_threshold"] == 0.0
        assert summary["final_dist_to_s"] == pytest.approx(1e-4, rel=1e-6)

    def test_summary_counts_drift_at_the_boundary(self, tmp_path):
        # The Busemann run of tests/test_golden.py that reaches the radial clamp.
        text = (
            "name = edge\nmanifold = scaled:kappa=0.5\noracle = busemann:eta=0.6+0.8i\n"
            "schedule = sqrt:c=1\nx0 = -0.3+0.1i\nmax_iters = 3000\n"
        )
        assert main(["solve", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "edge.summary.json").read_text())
        trace = load_trace(tmp_path / "edge.trace.json")
        assert summary["drift_count"] == sum(r.drift for r in trace.records) > 0
        assert 0.0 < summary["min_boundary_gap"] < 1e-12

    def test_missing_file(self, capsys):
        assert main(["solve", "no/such/file.cfg"]) == 2

    @pytest.mark.parametrize(
        "key,old,new",
        [
            ("stop_grad_tol", "max_iters = 10", "max_iters = 10\nstop_grad_tol = nan"),
            ("seed", "max_iters = 10", "max_iters = 10\nseed = 0"),
            ("oracle", "two-busemann", "distance:anchor=2.0+0.0i"),
            ("schedule", "harmonic:c=1", "harmonic:c=1,c=2"),
            ("manifold", "poincare", "scaled:kappa=2,z=1"),
        ],
    )
    def test_bad_value_is_named(self, tmp_path, capsys, key, old, new):
        text = GOOD.replace(old, new)
        code = main(["solve", write_cfg(tmp_path, text), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: {key} " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key,old,new",
        [
            ("manifold", "poincare", "scaled:kappa=inf"),
            ("stop_grad_tol", "max_iters = 10000", "max_iters = 10000\nstop_grad_tol = inf"),
        ],
    )
    def test_infinite_value_is_no_false_minimizer(self, tmp_path, capsys, key, old, new):
        # x0 lies 3 from the ball; either value made the hinge report it as a
        # minimizer after 0 iterations
        text = (CONFIGS / "ball_hinge.cfg").read_text().replace(old, new)
        code = main(["solve", write_cfg(tmp_path, text), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: {key} " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unit_tolerance_is_no_false_minimizer(self, tmp_path, capsys):
        # The hinge's subgradient has norm 1 at x0, so stop_grad_tol = 1.0
        # reported x0, 3 from the ball, as a minimizer after 0 iterations. The
        # threshold is the constant STOP_GRAD_TOL, so the key is rejected.
        text = (CONFIGS / "ball_hinge.cfg").read_text() + "stop_grad_tol = 1.0\n"
        code = main(["solve", write_cfg(tmp_path, text), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "config error: stop_grad_tol is not a config key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"name = x\xff\nmanifold = poincare\n")
        assert main(["solve", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"config error: {path} is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("oracle", ["two-busemann", "busemann:eta=1.0+0.0i"])
    def test_disk_only_oracle_on_the_plane_is_named(self, tmp_path, capsys, oracle):
        text = GOOD.replace("poincare", "euclidean").replace("two-busemann", oracle)
        assert main(["solve", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 2
        assert "config error: oracle " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../../escape", "", "sub/x"])
    def test_name_must_be_a_plain_file_name(self, tmp_path, capsys, name):
        out = tmp_path / "o" / "a" / "b"
        text = GOOD.replace("name = good", f"name = {name}")
        assert main(["solve", write_cfg(tmp_path, text), "--out-dir", str(out)]) == 2
        assert "config error: name " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_dir_under_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        assert main(["solve", str(CONFIGS / "ball_hinge.cfg"), "--out-dir", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    def test_config_out_dir_is_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        text = GOOD + f"out_dir = {tmp_path / 'file'}\n"
        assert main(["solve", write_cfg(tmp_path, text)]) == 2
        assert str(tmp_path / "file") in capsys.readouterr().err

    def test_euclidean_plane_config(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "name = flat\nmanifold = euclidean\noracle = distance:anchor=0.0+0.0i\n"
            "schedule = table:0.5\nx0 = 0.5+0.0i\nmax_iters = 10\n",
        )
        assert main(["solve", cfg, "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "flat.summary.json").read_text())
        assert summary["termination"] == "subgradient-zero"
        assert summary["termination_step"] == 1
        assert summary["min_boundary_gap"] is None

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import hypersub.cli as cli_mod

        real_run = cli_mod.run

        def failing_run(cfg):
            trace = real_run(cfg)
            object.__setattr__(
                trace, "termination", Termination("numerical-failure", 0, "injected")
            )
            return trace

        monkeypatch.setattr(cli_mod, "run", failing_run)
        cfg = write_cfg(
            tmp_path,
            "name = fail\nmanifold = poincare\noracle = two-busemann\n"
            "schedule = harmonic:c=1\nx0 = 0.0+0.5i\nmax_iters = 5\n",
        )
        assert main(["solve", cfg, "--out-dir", str(tmp_path)]) == 3
        assert (tmp_path / "fail.trace.json").exists()


class TestVerify:
    def test_runs_as_a_module(self, tmp_path):
        # python -m hypersub.cli runs the command, as the console script does.
        path = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        report = tmp_path / "r.json"
        cmd = [sys.executable, "-m", "hypersub.cli", "verify", "gradcheck", "--n", "10"]
        done = subprocess.run([*cmd, "--report", str(report)], env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(report.read_text())["suite"] == "gradcheck"
        done = subprocess.run([*cmd, "--seed", "-1"], env=env, capture_output=True, timeout=120)
        assert done.returncode == 2

    def test_gradcheck_passes(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = main(["verify", "gradcheck", "--n", "200", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["suite"] == "gradcheck"
        assert all(r["violations"] == 0 for r in payload["reports"])
        out = capsys.readouterr().out
        assert "worst_margin" in out

    def test_law_of_cosines_small(self, tmp_path):
        report = tmp_path / "r.json"
        code = main(
            ["verify", "law-of-cosines", "--n", "2000", "--seed", "7", "--report", str(report)]
        )
        assert code == 0

    def test_per_step_and_sublevel(self, tmp_path):
        assert main(["verify", "per-step", "--n", "500",
                     "--report", str(tmp_path / "a.json")]) == 0
        assert main(["verify", "sublevel", "--n", "8",
                     "--report", str(tmp_path / "b.json")]) == 0

    # sha256 of each report file written at seed 3 before wall_s and
    # samples_per_s were added; dropping the two keys must give these bytes.
    # The key-theorem digest is of that report with its net-checked entry,
    # since deleted, taken out.
    UNTIMED_DIGESTS = {
        ("law-of-cosines", 60): "7322cd15001dce64deaef710b9e1986c2ea11286bd5894f84714e75400f483a9",
        ("key-theorem", 40): "25a987d9a3e9533ef095c78743156d0c8d6f96992bd7f79c6d428ef09deec30a",
        ("per-step", 300): "635793a7c1698b8e9f88cd8301073cca3fa10f8cb0e0201b47e69e13caec12be",
        ("sublevel", 8): "7f0269e10f3e7584d873d282e32befee5dd0a44940c092d73690b91212bddc57",
        ("gradcheck", 50): "37cfe8caa0af810dc34509a776fc3854965f8a19be4001d5c1c20a9d99cadeb7",
    }

    @pytest.mark.parametrize("suite,n", list(UNTIMED_DIGESTS))
    def test_reports_are_timed_and_otherwise_unchanged(self, tmp_path, suite, n):
        path = tmp_path / "r.json"
        assert main(["verify", suite, "--n", str(n), "--seed", "3", "--report", str(path)]) == 0
        payload = json.loads(path.read_text())
        for r in payload["reports"]:
            assert list(r)[-2:] == ["wall_s", "samples_per_s"]
            wall_s, samples_per_s = r.pop("wall_s"), r.pop("samples_per_s")
            assert wall_s > 0.0
            assert samples_per_s == r["n"] / wall_s
        if suite == "per-step":  # the three checks share one harvest run
            assert len({r["n"] for r in payload["reports"]}) == 1
        text = json.dumps(payload, indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.UNTIMED_DIGESTS[suite, n]

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite,n", [("sublevel", "0"), ("per-step", "-5")])
    def test_nonpositive_n_is_rejected(self, tmp_path, capsys, suite, n):
        code = main(["verify", suite, "--n", n, "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "--n must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_key_theorem_needs_two_samples(self, tmp_path, capsys):
        code = main(["verify", "key-theorem", "--n", "1", "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "--n must be >= 2" in capsys.readouterr().err

    # Each report's exact-valued fields at --seed s, for s = 0 and 3, at the
    # --n of UNTIMED_DIGESTS: (check, n, rejected, violations, tolerance,
    # report seed - s, hypothesis_mode). The README's tolerance table is
    # checked against the (check, tolerance) pairs.
    EXACT_FIELDS = {
        "law-of-cosines": [
            ("law-of-cosines-equality-k1", 60, 0, 0, 1e-9, 0, None),
            ("law-of-cosines-lower-bound-k2", 60, 0, 0, 1e-12, 1, None),
        ],
        "key-theorem": [
            ("key-theorem-distance", 20, 0, 0, 1e-10, 0, "analytic"),
            ("key-theorem-two-busemann", 20, 0, 0, 1e-10, 1, "analytic"),
        ],
        "per-step": [
            ("per-step-cdelta", 291, 9, 0, 1e-10, 0, "analytic"),
            ("per-step-cdelta-divided", 291, 9, 0, 1e-10, 0, "analytic"),
            ("per-step-consistency", 291, 9, 0, 1e-10, 0, "analytic"),
        ],
        "sublevel": [
            ("sublevel[distance:anchor=0.0+0.0i,a=1.0]", 8, 0, 0, 1e-6, 0, "rays"),
            ("sublevel[ball-hinge:center=0.0+0.0i,r=0.3,a=1.0]", 8, 0, 0, 1e-6, 0, "rays"),
        ],
        "gradcheck": [
            ("busemann-unit-gradient-norm", 50, 0, 0, 1e-10, 0, None),
            ("busemann-finite-difference", 50, 0, 0, 1e-4, 1, None),
        ],
    }

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("suite,n", list(UNTIMED_DIGESTS))
    def test_exact_report_fields_are_pinned(self, tmp_path, suite, n, seed):
        path = tmp_path / "r.json"
        assert main(["verify", suite, "--n", str(n), "--seed", str(seed), "--report", str(path)]) == 0
        keys = ("check", "n", "rejected", "violations", "tolerance", "seed", "hypothesis_mode")
        got = [tuple(r[k] for k in keys) for r in json.loads(path.read_text())["reports"]]
        want = [(*row[:5], seed + row[5], row[6]) for row in self.EXACT_FIELDS[suite]]
        assert got == want

    @pytest.mark.parametrize("suite", [*SUITES, "all"])
    def test_tol_rejected_where_no_check_takes_it(self, tmp_path, capsys, suite):
        # Every tolerance is fixed at its check, so --tol is no flag of verify.
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--n", "8", "--tol", "1e-3", "--report", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_help_names_what_n_counts(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no line wrapping
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--tol" not in text
        for name, suite in SUITES.items():  # what --n counts, from the suite table
            assert f"{name}: {suite.counts}, default {suite.n}" in text

    def test_readme_table_matches_the_suites(self):
        readme = (REPO / "README.md").read_text()
        for name, suite in SUITES.items():
            assert f"| `{name}` | {suite.counts} | {suite.n} | {suite.min_n} |" in readme
        tolerance_row = re.compile(r"^\| `([a-z-]+)` \| `([^`]+)` \| ([0-9.e-]+) \|$")
        table = [(m[1], m[2], float(m[3])) for m in map(tolerance_row.match, readme.splitlines()) if m]
        assert table == [(suite, row[0], row[4]) for suite, rows in self.EXACT_FIELDS.items()
                         for row in rows]

    def test_report_under_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        report = tmp_path / "file" / "r.json"
        assert main(["verify", "gradcheck", "--n", "10", "--report", str(report)]) == 2
        assert str(tmp_path / "file") in capsys.readouterr().err

    def test_unwritable_report_fails_before_the_suite_runs(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        report = tmp_path / "file" / "r.json"
        assert main(["verify", "gradcheck", "--n", "10", "--report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert str(tmp_path / "file") in err

    def test_report_that_is_a_directory_fails_before_the_suite_runs(self, tmp_path, capsys):
        assert main(["verify", "gradcheck", "--n", "10", "--report", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--report cannot be written: {tmp_path} is a directory" in err

    @pytest.mark.parametrize("suite", [*SUITES, "all"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, suite):
        code = main(["verify", suite, "--n", "8", "--seed", "-1",
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_rejected_flags_leave_no_report_directory(self, tmp_path, capsys):
        report = tmp_path / "newdir" / "r.json"
        assert main(["verify", "gradcheck", "--seed", "-1", "--report", str(report)]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "newdir").exists()

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        import hypersub.cli as cli_mod
        from hypersub.verify import InequalityReport

        def fake_suite(name, n=None, seed=0):
            return [
                InequalityReport("forced", 1, 0, 1, -1.0, 1e-9, 0, None, {"edges": [], "counts": []})
            ]

        monkeypatch.setattr(cli_mod.verify_mod, "run_suite", fake_suite)
        code = main(["verify", "gradcheck", "--report", str(tmp_path / "r.json")])
        assert code == 4


class TestReproduce:
    def test_default_small_budget(self, tmp_path, capsys):
        code = main(["reproduce-example", "--steps", "200", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "disk_example.trace.json").exists()
        assert (tmp_path / "disk_example.trace.csv").exists()
        report = (tmp_path / "disk_example.report.txt").read_text()
        assert "all checks passed" in report

    def test_ten_steps(self, tmp_path):
        assert main(["reproduce-example", "--steps", "10", "--out-dir", str(tmp_path)]) == 0

    def test_start_at_origin_stops_immediately(self, tmp_path):
        code = main(
            ["reproduce-example", "--steps", "50", "--x0", "0.0+0.0i", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        trace = load_trace(tmp_path / "disk_example.trace.json")
        assert trace.termination.kind == "subgradient-zero"
        assert trace.termination.step == 0

    def test_off_axis_start_fails_assertions(self, tmp_path):
        code = main(
            ["reproduce-example", "--steps", "50", "--x0", "0.3+0.5i", "--out-dir", str(tmp_path)]
        )
        assert code == 5
        report = (tmp_path / "disk_example.report.txt").read_text()
        assert "FAILED" in report

    def test_bad_x0_is_config_error(self, capsys):
        assert main(["reproduce-example", "--x0", "2.0+0.0i"]) == 2
        assert "x0" in capsys.readouterr().err

    def test_unparsed_x0_is_quoted_once(self, tmp_path, capsys):
        assert main(["reproduce-example", "--x0", "zz", "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: --x0 cannot parse complex number 'zz'\n"

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_nonpositive_steps_is_config_error(self, tmp_path, capsys, steps):
        code = main(["reproduce-example", "--steps", steps, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "config error: --steps must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_dir_is_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = main(["reproduce-example", "--steps", "5", "--out-dir", str(tmp_path / "file")])
        assert code == 2
        assert str(tmp_path / "file") in capsys.readouterr().err


def load_example_script():
    spec = importlib.util.spec_from_file_location("run_disk_example", REPO / "scripts" / "run_disk_example.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExampleScript:
    def test_prints_the_table(self, tmp_path, capsys):
        assert load_example_script().run(["--steps", "300", "--out-dir", str(tmp_path)]) == 0
        assert "d(x_k, 0)" in capsys.readouterr().out

    def test_config_error_exits_2(self, tmp_path, capsys):
        assert load_example_script().run(["--steps", "0", "--out-dir", str(tmp_path)]) == 2
        assert "--steps" in capsys.readouterr().err
