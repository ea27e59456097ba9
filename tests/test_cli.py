import json
import os
import stat
from pathlib import Path

import pytest

from hypersub.cli import main
from hypersub.solver import Termination, load_trace

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "scripts" / "configs"


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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

    def test_missing_file(self, capsys):
        assert main(["solve", "no/such/file.cfg"]) == 2

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

    def test_negative_tol_is_rejected(self, tmp_path, capsys):
        code = main(["verify", "gradcheck", "--tol=-1e-9", "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "--tol" in capsys.readouterr().err

    def test_zero_tol_runs_at_zero(self, tmp_path):
        report = tmp_path / "r.json"
        code = main(["verify", "per-step", "--n", "300", "--tol", "0", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert [r["tolerance"] for r in payload["reports"][:2]] == [0.0, 0.0]

    def test_gradcheck_tol_sets_the_unit_norm_tolerance(self, tmp_path):
        report = tmp_path / "r.json"
        code = main(["verify", "gradcheck", "--n", "200", "--tol", "1e-3", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert [r["tolerance"] for r in payload["reports"]] == [1e-3, 1e-4]

    @pytest.mark.parametrize("suite", ["sublevel", "all"])
    def test_tol_rejected_where_no_check_takes_it(self, tmp_path, capsys, suite):
        code = main(["verify", suite, "--n", "8", "--tol", "1e-3",
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "--tol is not accepted by" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_help_names_the_check_tol_governs(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no line wrapping
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for phrase in ("kappa=2 lower bound keeps 1e-12", "finite difference keeps 1e-4",
                       "consistency check keeps 1e-10", "sublevel and all reject it"):
            assert phrase in text

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        import hypersub.cli as cli_mod
        from hypersub.verify import InequalityReport

        def fake_suite(name, n=None, seed=0, tol=None):
            return [
                InequalityReport("forced", 1, 1, -1.0, 1e-9, 0, None, {"edges": [], "counts": []})
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
