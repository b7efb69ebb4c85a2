"""Experiment harness: config handling, emitted files, exit codes."""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sylgmres.cli as cli
from sylgmres import kron_solve
from sylgmres.cli import (
    ExperimentConfig,
    HISTORY_HEADER,
    UsageError,
    build_problem,
    compare_variants,
    main,
    render_comparison,
    run_experiment,
)
from sylgmres.core import frob
from sylgmres.problems import write_matrix_market


def write_identity_problem(tmp_path, n=6, s=2):
    """Matrix Market files for the A = I, B = 0 smoke problem."""
    a_path = tmp_path / "a.mtx"
    b_path = tmp_path / "b.mtx"
    write_matrix_market(np.eye(n), a_path)
    b_path.write_text(f"%%MatrixMarket matrix coordinate real general\n{s} {s} 0\n")
    return str(a_path), str(b_path)


def read_history(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunExperiment:
    def test_identity_smoke_problem(self, tmp_path):
        a_path, b_path = write_identity_problem(tmp_path)
        cfg = ExperimentConfig(variant="glgmres", strategy="identity", m=4,
                               matrix_a=a_path, matrix_b=b_path, seed=3,
                               density=1.0, out=str(tmp_path / "out"))
        report, files = run_experiment(cfg)
        assert report.converged
        assert report.cycles == 1
        assert report.true_resnorm <= 1e-12
        rows = read_history(files["history"])
        assert rows[0] == HISTORY_HEADER
        assert len(rows) == 2

    def test_history_deterministic_modulo_wall_clock(self, tmp_path):
        cfg = ExperimentConfig(variant="wglgmres-d", strategy="mean", m=8, k=3,
                               fdm_n0=6, fdm_s0=2, seed=11,
                               out=str(tmp_path / "o1"))
        _, files1 = run_experiment(cfg)
        from dataclasses import replace
        _, files2 = run_experiment(replace(cfg, out=str(tmp_path / "o2")))
        rows1 = read_history(files1["history"])
        rows2 = read_history(files2["history"])
        wall_col = HISTORY_HEADER.index("wall_s")
        for r1, r2 in zip(rows1, rows2):
            assert r1[:wall_col] == r2[:wall_col]

    def test_fdm_deflated_run_matches_oracle(self, tmp_path):
        cfg = ExperimentConfig(variant="wglgmres-d", strategy="mean", m=10, k=5,
                               fdm_n0=20, fdm_s0=2, seed=7, out=str(tmp_path / "out"))
        report, _ = run_experiment(cfg)
        assert report.converged
        op, c = build_problem(cfg)
        expect = kron_solve(op, c)
        assert report.true_resnorm <= 10 * cfg.tol
        assert frob(report.x - expect) <= 1e-5 * frob(expect)

    def test_validation_errors(self):
        with pytest.raises(UsageError):
            ExperimentConfig(variant="gmres").validate()
        with pytest.raises(UsageError):
            ExperimentConfig(variant="glgmres", strategy="mean").validate()
        with pytest.raises(UsageError):
            ExperimentConfig(variant="wglgmres-d", k=0).validate()
        with pytest.raises(UsageError):
            ExperimentConfig(variant="wglgmres", k=2).validate()
        with pytest.raises(UsageError):
            ExperimentConfig(preset_a="nope").validate()

    @pytest.mark.parametrize("fields, message", [
        ({"strategy": "bogus"}, "unknown strategy 'bogus'; choose one of "),
        ({"preset_a": "nope"}, "unknown preset 'nope'; choose one of varcoef1, "),
        ({"preset_b": "nope"}, "unknown preset 'nope'; choose one of varcoef1, "),
    ])
    def test_validation_messages(self, fields, message):
        with pytest.raises(UsageError) as err:
            ExperimentConfig(**fields).validate()
        assert str(err.value).startswith(message)

    def test_preset_not_checked_for_a_matrix_file(self):
        ExperimentConfig(preset_a="nope", preset_b="nope",
                         matrix_a="a.mtx", matrix_b="b.mtx").validate()


class TestCompareVariants:
    def test_identical_configs_identical_rows(self, tmp_path):
        a_path, b_path = write_identity_problem(tmp_path)
        cfg = ExperimentConfig(variant="glgmres", strategy="identity", m=4,
                               matrix_a=a_path, matrix_b=b_path, density=1.0)
        rows, _ = compare_variants([cfg, cfg])
        r1 = {k: v for k, v in rows[0].items() if k != "cpu_s"}
        r2 = {k: v for k, v in rows[1].items() if k != "cpu_s"}
        assert r1 == r2

    def test_weighted_deflation_beats_plain_on_hard_problem(self):
        # restarted GMRES labours on the finer grid; recycling harmonic
        # directions with weighting brings the cycle count at or below it
        base = dict(m=10, fdm_n0=50, fdm_s0=2, seed=7)
        cfgs = [
            ExperimentConfig(variant="glgmres", strategy="identity", k=0, **base),
            ExperimentConfig(variant="wglgmres-d", strategy="mean", k=5, **base),
        ]
        rows, _ = compare_variants(cfgs)
        assert all(r["converged"] for r in rows)
        by_variant = {r["variant"]: r["iter"] for r in rows}
        assert by_variant["wglgmres-d"] <= by_variant["glgmres"]

    def test_problem_built_once(self, tmp_path, monkeypatch):
        base = ExperimentConfig(m=10, k=5, fdm_n0=10, fdm_s0=2, seed=7, out=str(tmp_path))
        cfgs = [replace(base, variant="glgmres", strategy="identity", k=0),
                replace(base, variant="wglgmres", strategy="mean", k=0),
                replace(base, variant="glgmres-d", strategy="identity"),
                replace(base, variant="wglgmres-d", strategy="mean")]
        built = []

        def counting_build(cfg):
            built.append(cfg)
            return build_problem(cfg)

        monkeypatch.setattr(cli, "build_problem", counting_build)
        rows, reports = compare_variants(cfgs)
        assert len(built) == 1
        # the same rows as one separately built problem per config
        for cfg, row, report in zip(cfgs, rows, reports):
            alone, _ = run_experiment(cfg)
            assert np.array_equal(report.x, alone.x)
            assert (row["iter"], row["res_norm"], row["converged"]) == (
                alone.cycles, alone.true_resnorm, alone.converged)

    def test_empty_set(self):
        with pytest.raises(UsageError, match="no variants"):
            compare_variants([])
        assert render_comparison([])  # header renders

    def test_mismatched_configs_rejected(self, tmp_path):
        c1 = ExperimentConfig(variant="glgmres", strategy="identity", m=4, seed=1)
        c2 = ExperimentConfig(variant="wglgmres", strategy="mean", m=4, seed=2)
        with pytest.raises(UsageError):
            compare_variants([c1, c2])


class TestMainEntry:
    def test_run_identity_exit_zero(self, tmp_path, capsys):
        a_path, b_path = write_identity_problem(tmp_path)
        code = main(["run", "--variant", "glgmres", "--strategy", "identity",
                     "--m", "4", "--matrix-a", a_path, "--matrix-b", b_path,
                     "--density", "1.0", "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "iter=1" in out
        assert Path(tmp_path / "out" / "history.csv").exists()
        assert Path(tmp_path / "out" / "summary.csv").exists()

    def test_nonconvergence_exit_two(self, tmp_path):
        code = main(["run", "--variant", "glgmres", "--strategy", "identity",
                     "--m", "2", "--maxit", "2", "--tol", "1e-14",
                     "--fdm-n0", "8", "--fdm-s0", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_usage_error_exit_one(self, tmp_path, capsys):
        code = main(["run", "--variant", "glgmres", "--strategy", "mean",
                     "--m", "4", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "identity" in capsys.readouterr().err

    def test_nan_tolerance_exit_one(self, tmp_path, capsys):
        code = main(["run", "--variant", "glgmres", "--strategy", "identity",
                     "--m", "4", "--tol", "nan", "--fdm-n0", "4", "--fdm-s0", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "tolerance" in capsys.readouterr().err

    def test_compare_empty_variants_exit_one(self, tmp_path, capsys):
        code = main(["compare", "--variants", ",", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "no variants" in capsys.readouterr().err
        assert not (tmp_path / "out" / "comparison.csv").exists()

    @pytest.mark.parametrize("command", [
        ["run", "--variant", "glgmres", "--strategy", "identity"],
        ["compare", "--variants", "glgmres,wglgmres", "--strategy", "mean"],
    ])
    def test_unusable_out_exit_one(self, tmp_path, capsys, monkeypatch, command):
        # the directory cannot be made under a regular file: an OSError,
        # reported as an I/O error (exit 1), not a traceback, and before
        # any solve runs
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output directory was made")

        monkeypatch.setattr(cli, "wglgmres_dr", no_solve)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(command + ["--m", "4", "--fdm-n0", "4", "--fdm-s0", "2",
                               "--out", str(blocker / "sub")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err
        assert "Traceback" not in err

    def test_unknown_flag_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--no-such-flag"])
        assert exc.value.code == 1

    def test_missing_matrix_file_exit_one(self, tmp_path):
        code = main(["run", "--variant", "glgmres", "--strategy", "identity",
                     "--m", "4", "--matrix-a", str(tmp_path / "absent.mtx"),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        a_path, b_path = write_identity_problem(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "variant": "glgmres", "strategy": "identity", "m": 4,
            "matrix_a": a_path, "matrix_b": b_path, "density": 1.0,
            "out": str(tmp_path / "from_config"),
        }))
        code = main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "flag_wins")])
        assert code == 0
        assert (tmp_path / "flag_wins" / "history.csv").exists()

    def test_config_file_unknown_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"variants": "glgmres"}))
        code = main(["run", "--config", str(cfg_path)])
        assert code == 1

    def test_config_file_unreadable_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        code = main(["run", "--config", str(missing)])
        assert code == 1
        assert f"error: cannot read config file {missing}: " in capsys.readouterr().err
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{")
        assert main(["run", "--config", str(garbled)]) == 1
        assert f"error: cannot read config file {garbled}: " in capsys.readouterr().err

    def test_config_file_not_an_object_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "error: config file must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("m", "10"), ("fdm_n0", 2.5), ("maxit", True), ("k", 1.0), ("tol", True),
        ("density", "0.5"), ("variant", 3), ("matrix_a", 1),
    ])
    def test_config_file_wrong_type_exit_one(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"error: config key {key!r} must be " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_int_for_float_and_null_for_optional(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "variant": "glgmres", "strategy": "identity", "m": 4, "tol": 1,
            "density": None, "matrix_a": None, "fdm_n0": 4, "fdm_s0": 2,
            "out": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(cfg_path)]) == 0

    def test_compare_subcommand(self, tmp_path, capsys):
        code = main(["compare", "--variants", "glgmres,wglgmres-d",
                     "--strategy", "mean", "--m", "10", "--k", "5",
                     "--fdm-n0", "10", "--fdm-s0", "2", "--seed", "7",
                     "--out", str(tmp_path / "cmp")])
        assert code == 0
        out = capsys.readouterr().out
        assert "glgmres" in out and "wglgmres-d" in out
        assert (tmp_path / "cmp" / "comparison.csv").exists()
        histories = list((tmp_path / "cmp").glob("history_*.csv"))
        assert len(histories) == 2
