"""Command-line experiment harness.

Builds Sylvester test problems (finite-difference operators or Matrix Market
files, seeded random right-hand sides), runs one of the four solver variants
and writes per-cycle convergence histories plus summary tables.

Variants:

* ``glgmres``     restarted global GMRES (identity weight)
* ``wglgmres``    restarted weighted global GMRES
* ``glgmres-d``   deflated restarts, identity weight
* ``wglgmres-d``  deflated restarts with weighting

Exit codes: 0 converged, 2 stopped at the cycle cap, 1 usage or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import SylvesterOperator
from .problems import (
    FdmSpec,
    fdm_matrix,
    gen_rhs,
    read_matrix_market,
)
from .solver import SolverConfig, wglgmres_dr
from .weighting import STRATEGY_KINDS, WeightStrategy

__all__ = [
    "ExperimentConfig",
    "UsageError",
    "VARIANTS",
    "COEFFICIENT_PRESETS",
    "run_experiment",
    "compare_variants",
    "render_comparison",
    "main",
]

VARIANTS = ("glgmres", "wglgmres", "glgmres-d", "wglgmres-d")

HISTORY_HEADER = ["cycle", "cumulative_iter", "est_resnorm", "true_resnorm",
                  "weight_strategy", "wall_s"]
SUMMARY_HEADER = ["variant", "strategy", "m", "k", "iter", "res_norm", "cpu_s", "converged"]

# Named coefficient triples (f1, f2, f3) for the finite-difference operator.
COEFFICIENT_PRESETS = {
    "varcoef1": (lambda x, y: np.exp(x**2 + y),
                 lambda x, y: np.sin(x + 2.0 * y),
                 lambda x, y: np.cos(x * y)),
    "varcoef2": (lambda x, y: 2.0 * x * y,
                 lambda x, y: np.exp(x * y),
                 lambda x, y: x * y),
    "varcoef3": (lambda x, y: np.cos(x * y),
                 lambda x, y: np.exp(y**2 * x),
                 100.0),
    "varcoef4": (lambda x, y: np.sin(x * y),
                 lambda x, y: np.exp(x * y),
                 10.0),
    "laplace": (0.0, 0.0, 0.0),
}


class UsageError(ValueError):
    """Bad configuration; maps to exit code 1."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One solver run: problem source, variant and solver controls."""

    variant: str = "wglgmres"
    strategy: str = "mean"
    m: int = 20
    k: int = 0
    tol: float = 1e-6
    maxit: int = 2500
    seed: int = 0
    density: float | None = None
    fdm_n0: int = 20
    fdm_s0: int = 2
    preset_a: str = "varcoef1"
    preset_b: str = "varcoef2"
    matrix_a: str | None = None
    matrix_b: str | None = None
    out: str = "out"

    def validate(self):
        if self.variant not in VARIANTS:
            raise UsageError(f"unknown variant {self.variant!r}; choose one of {', '.join(VARIANTS)}")
        if self.strategy not in STRATEGY_KINDS:
            raise UsageError(
                f"unknown strategy {self.strategy!r}; choose one of {', '.join(STRATEGY_KINDS)}"
            )
        if self.variant in ("glgmres", "glgmres-d") and self.strategy != "identity":
            raise UsageError(
                f"variant {self.variant} is the unweighted method; "
                "it requires --strategy identity"
            )
        if self.variant.endswith("-d") and self.k < 1:
            raise UsageError(f"variant {self.variant} needs a deflation count --k >= 1")
        if not self.variant.endswith("-d") and self.k != 0:
            raise UsageError(f"variant {self.variant} does not deflate; set --k 0")
        for matrix, preset in ((self.matrix_a, self.preset_a), (self.matrix_b, self.preset_b)):
            if matrix is None and preset not in COEFFICIENT_PRESETS:
                raise UsageError(
                    f"unknown preset {preset!r}; choose one of {', '.join(COEFFICIENT_PRESETS)}"
                )

    def label(self):
        return f"{self.variant}_{self.strategy}_m{self.m}_k{self.k}"


def _build_matrix(path, preset, n0, role):
    if path is not None:
        try:
            return read_matrix_market(path)
        except OSError as exc:
            raise UsageError(f"cannot read {role} matrix: {exc}") from exc
    return fdm_matrix(FdmSpec(n0, *COEFFICIENT_PRESETS[preset]))


def build_problem(cfg):
    """The operator and right-hand side ``(op, c)`` an ExperimentConfig names."""
    op = SylvesterOperator(_build_matrix(cfg.matrix_a, cfg.preset_a, cfg.fdm_n0, "A"),
                           _build_matrix(cfg.matrix_b, cfg.preset_b, cfg.fdm_s0, "B"))
    return op, gen_rhs(op.n, op.s, cfg.seed, cfg.density)


def _solver_config(cfg):
    seed = cfg.seed if cfg.strategy == "random" else None
    strategy = WeightStrategy(cfg.strategy, seed=seed)
    return SolverConfig(m=cfg.m, k=cfg.k, tol=cfg.tol, maxit=cfg.maxit, strategy=strategy)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="ascii") as fh:
        csv.writer(fh).writerows([header, *rows])


def _write_history(report, path):
    _write_csv(path, HISTORY_HEADER,
               ([rec.cycle, rec.cumulative_iter, repr(rec.est_resnorm),
                 repr(rec.true_resnorm), rec.weight_tag, f"{rec.wall_s:.6f}"]
                for rec in report.history))


def _summary_row(cfg, report):
    # keyed by the summary file's column names, in its column order
    return dict(zip(SUMMARY_HEADER, [cfg.variant, cfg.strategy, cfg.m, cfg.k, report.cycles,
                                     report.true_resnorm, report.wall_time, report.converged]))


def _write_summary(rows, path):
    _write_csv(path, SUMMARY_HEADER,
               ([row["variant"], row["strategy"], row["m"], row["k"], row["iter"],
                 repr(row["res_norm"]), f"{row['cpu_s']:.4f}", int(row["converged"])]
                for row in rows))


def run_experiment(cfg):
    """Run one configured solve; emit history and summary files.

    Returns ``(report, files)`` where ``files`` maps the emitted kinds to
    their paths.  The initial guess is always the zero block.
    """
    out_dir, rows, (report,) = _compare([cfg], make_out_dir=True)
    history_path = out_dir / "history.csv"
    summary_path = out_dir / "summary.csv"
    _write_history(report, history_path)
    _write_summary(rows, summary_path)
    return report, {"history": str(history_path), "summary": str(summary_path)}


def compare_variants(cfgs):
    """Run several configs that differ only in variant/strategy/(m, k) on
    the one problem they share.

    Returns ``(rows, reports)`` with one summary row per config, in order.
    An empty ``cfgs`` raises UsageError.
    """
    return _compare(cfgs)[1:]


def _compare(cfgs, make_out_dir=False):
    """compare_variants, returning ``(out_dir, rows, reports)``.  Every
    config and its solver rules are checked first; then, with
    ``make_out_dir``, the configs' output directory is made, before the
    problem is built and any solve runs, so neither a bad rule nor an
    unusable directory costs a solve."""
    if not cfgs:
        raise UsageError("no variants to compare")
    for cfg in cfgs:
        cfg.validate()
        if cfg != replace(cfgs[0], variant=cfg.variant, strategy=cfg.strategy, m=cfg.m, k=cfg.k):
            raise UsageError("compared configs may differ only in variant, strategy, m and k")
    solver_cfgs = [_solver_config(cfg) for cfg in cfgs]
    out_dir = None
    if make_out_dir:
        out_dir = Path(cfgs[0].out)
        out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    reports = []
    op, c = build_problem(cfgs[0])
    for cfg, solver_cfg in zip(cfgs, solver_cfgs):
        report = wglgmres_dr(op, c, solver_cfg)
        rows.append(_summary_row(cfg, report))
        reports.append(report)
    return out_dir, rows, reports


def render_comparison(rows):
    """Fixed-width text table of comparison rows."""
    header = ["variant", "strategy", "(m,k)", "iter", "res.norm", "CPU(s)", "converged"]
    table = [header]
    for row in rows:
        table.append([row["variant"], row["strategy"], f"({row['m']},{row['k']})",
                      str(row["iter"]), f"{row['res_norm']:.4e}", f"{row['cpu_s']:.3f}",
                      "yes" if row["converged"] else "no"])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip()
             for r in table]
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    # usage errors exit with code 1 (2 is reserved for non-convergence)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common_flags(p):
    p.add_argument("--config", help="JSON file with ExperimentConfig fields; flags override it")
    p.add_argument("--variant", choices=VARIANTS, help="solver variant")
    p.add_argument("--strategy", choices=STRATEGY_KINDS, help="weighting strategy")
    p.add_argument("--m", type=int, help="restart length")
    p.add_argument("--k", type=int, help="deflation count (deflated variants)")
    p.add_argument("--tol", type=float, help="relative stopping tolerance")
    p.add_argument("--maxit", type=int, help="cycle cap")
    p.add_argument("--seed", type=int, help="seed for the right-hand side (and random weights)")
    p.add_argument("--density", type=float, help="right-hand-side fill-in, in (0, 1]")
    p.add_argument("--fdm-n0", type=int, dest="fdm_n0", help="grid points per axis for A")
    p.add_argument("--fdm-s0", type=int, dest="fdm_s0", help="grid points per axis for B")
    p.add_argument("--preset-a", dest="preset_a", help="coefficient preset for A")
    p.add_argument("--preset-b", dest="preset_b", help="coefficient preset for B")
    p.add_argument("--matrix-a", dest="matrix_a", help="Matrix Market file for A")
    p.add_argument("--matrix-b", dest="matrix_b", help="Matrix Market file for B")
    p.add_argument("--out", help="output directory")


_JSON_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", type(None): "null"}


def _check_config_value(name, value):
    """Raise UsageError unless the JSON ``value`` has the type of the
    ExperimentConfig field ``name``: a bool is no number, an int is a float,
    and null fits only a ``| None`` field."""
    hint = typing.get_type_hints(ExperimentConfig)[name]
    types = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        ok = bool in types
    else:
        ok = isinstance(value, types) or (float in types and isinstance(value, int))
    if not ok:
        expected = " or ".join(_JSON_TYPE_NAMES[t] for t in types)
        raise UsageError(f"config key {name!r} must be {expected}, got {json.dumps(value)}")


def _config_from_args(args):
    values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        fields = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(loaded) - fields
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for name, value in loaded.items():
            _check_config_value(name, value)
        values.update(loaded)
    for name in ExperimentConfig.__dataclass_fields__:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    # values holds field names only: unknown config keys were refused above
    return ExperimentConfig(**values)


def main(argv=None):
    parser = _Parser(prog="sylgmres",
                     description="Weighted, deflated global GMRES for AX + XB = C")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", parents=[], help="run one experiment")
    _add_common_flags(run_p)
    cmp_p = sub.add_parser("compare", help="run several variants on one problem")
    _add_common_flags(cmp_p)
    cmp_p.add_argument("--variants", required=True,
                       help="comma-separated variants to compare")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except (ValueError, OSError) as exc:  # UsageError and MatrixMarketError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_run(args):
    cfg = _config_from_args(args)
    report, files = run_experiment(cfg)
    status = "converged" if report.converged else f"NOT converged within maxit={cfg.maxit}"
    print(f"{cfg.variant} ({cfg.strategy}, m={cfg.m}, k={cfg.k}): "
          f"iter={report.cycles} res.norm={report.true_resnorm:.4e} "
          f"CPU={report.wall_time:.3f}s [{status}]")
    print(f"history: {files['history']}")
    return 0 if report.converged else 2


def _cmd_compare(args):
    base = _config_from_args(args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    cfgs = []
    for variant in variants:
        strategy = base.strategy if variant.startswith("w") else "identity"
        k = base.k if variant.endswith("-d") else 0
        cfgs.append(replace(base, variant=variant, strategy=strategy, k=k))
    out_dir, rows, reports = _compare(cfgs, make_out_dir=True)
    _write_summary(rows, out_dir / "comparison.csv")
    for cfg, report in zip(cfgs, reports):
        _write_history(report, out_dir / f"history_{cfg.label()}.csv")
    print(render_comparison(rows))
    print(f"comparison: {out_dir / 'comparison.csv'}")
    return 0 if all(r["converged"] for r in rows) else 2


if __name__ == "__main__":
    sys.exit(main())
