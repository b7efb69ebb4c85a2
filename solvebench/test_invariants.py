"""Count invariants of the solve benchmark.

Run from the repository root with ``python3 -m pytest solvebench``.  Counts
(operator applications, cycles, Krylov steps) are exact, so these tests
compare them with ``==``; timings are not tested.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
from sylgmres import SylvesterOperator  # noqa: E402
from sylgmres.problems import gen_rhs  # noqa: E402

# ROADMAP baseline at seed 7: (cycles, Krylov steps, operator applications).
BASELINE_SEED7 = {
    "fdm100_wdr_mean": (84, 424, 510),
    "fdm100_plain": (117, 1170, 1289),
}


def per_rhs_counts(result):
    return {sv.rhs: sv.counts for sv in result.solves}


def test_seed7_single_solve_reproduces_baseline():
    for name, (cycles, steps, applications) in BASELINE_SEED7.items():
        wl = bench.WORKLOADS[name]
        op = SylvesterOperator(*bench.build_operator(wl.n0))
        c = gen_rhs(op.n, op.s, bench.rhs_seeds(7, 1)[0])
        sv, _ = bench.solve_once(op, c, wl, bench.solver_config(wl))
        assert sv.ok, name
        assert (sv.cycles, sv.krylov_steps, sv.applications) == (cycles, steps, applications), name


def test_counts_repeat_across_runs_and_under_tracing():
    first = bench.run("fdm20_batch", 5, 0, trace=False)
    second = bench.run("fdm20_batch", 5, 0, trace=False)
    traced = bench.run("fdm20_batch", 5, 0, trace=True)
    assert first.correct and second.correct and traced.correct
    assert per_rhs_counts(first) == per_rhs_counts(second) == per_rhs_counts(traced)
    for name in ("applications", "cycles"):
        assert first.metrics[name] == second.metrics[name]
    # an untraced solve's steps cover it from call to return, one per application
    for sv in first.solves:
        assert len(sv.step_s) == sv.applications + 1
        assert abs(sv.step_s.sum() - sv.seconds) <= 1e-9 * sv.seconds
    # so each step's fastest repeat sums to no more than the fastest whole solve
    for i in {sv.rhs for sv in first.solves}:
        solves = [sv for sv in first.solves if sv.rhs == i]
        fastest = min(sv.seconds for sv in solves)
        assert bench._fastest_steps([sv.step_s for sv in solves]) <= fastest * (1 + 1e-9)
    # every operator application of a traced solve passed through the tracer
    assert traced.metrics["core.apply.calls"][0] == first.metrics["applications"][0]
    steps = [sv.krylov_steps for sv in traced.solves if sv.traced]
    assert traced.metrics["arnoldi.steps"][0] == sum(steps) / len(steps)


def test_missing_target_marks_metrics_absent(monkeypatch):
    targets = [(owner, attr + "_gone" if layer == "core.diamond" else attr, layer, nbytes)
               for owner, attr, layer, nbytes in bench.trace_targets()]
    monkeypatch.setattr(bench, "trace_targets", lambda: targets)
    result = bench.run("fdm20_batch", 5, 0, trace=True)
    assert result.correct
    assert "core.diamond.calls" not in result.metrics
    assert "absent" in result.notes["core.diamond.calls"]
    assert "diamond_product_gone" in result.notes["trace.missing"]
    assert "core.inner.calls" in result.metrics


def test_outputs_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.UNTRACED_OUTPUT)
    assert [m["name"] for m in spec["per_layer"]] == list(bench.TRACED_OUTPUT)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in bench.LAYER_METRICS.items()}
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
