"""What the solve benchmark in ``solvebench/`` relies on from the package.

The benchmark wraps module-level names of ``sylgmres.arnoldi`` and
``sylgmres.solver`` (and ``SylvesterOperator.apply``) from outside, calls the
solvers by name and hands them a counting wrapper that forwards only part of
the operator.  A refactor that renames or bypasses any of these silently
drops per-layer metrics, so these checks keep the names and the call paths.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import sylgmres.solver as solver_mod
from sylgmres import SylvesterOperator
from sylgmres.problems import gen_rhs

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "solvebench"))

import bench  # noqa: E402


def test_every_trace_target_resolves():
    for owner, attr, layer, _ in bench.trace_targets():
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({layer})"


def test_every_workload_solver_exists():
    for name, wl in bench.WORKLOADS.items():
        assert callable(getattr(solver_mod, wl.solver, None)), name


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_solve_through_counting_operator(name):
    # the workload's solver and settings on a desk-size problem
    wl = dataclasses.replace(bench.WORKLOADS[name], n0=12)
    op = SylvesterOperator(*bench.build_operator(wl.n0))
    c = gen_rhs(op.n, op.s, 3)
    fn = getattr(solver_mod, wl.solver)
    direct = fn(op, c, bench.solver_config(wl))
    wrapped = fn(bench.CountingOperator(op), c, bench.solver_config(wl))
    assert wrapped.converged
    assert wrapped.cycles == direct.cycles
    assert np.array_equal(wrapped.x, direct.x)


def test_short_traced_run_reports_every_layer_metric(monkeypatch):
    wl = bench.WORKLOADS["fdm20_batch"]
    monkeypatch.setitem(bench.WORKLOADS, "fdm20_batch", dataclasses.replace(wl, rhs_count=4))
    result = bench.run("fdm20_batch", 5, 0, trace=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result.correct
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in result.metrics]
    assert missing == []
    assert "trace.missing" not in result.notes
    assert not [k for k, v in result.notes.items() if v.startswith("absent:")]
    for layer in ("core.inner", "core.diamond", "core.combine"):
        assert result.metrics[f"{layer}.calls"][0] > 0, layer
