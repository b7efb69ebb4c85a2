"""Workloads, timed solve loop and correctness checks of the solve benchmark.

Every workload solves AX + XB = C for the finite-difference operators of the
CLI presets ``varcoef1`` (A, n = n0^2) and ``varcoef2`` (B, s = 4) at tol
1e-6 from x0 = 0, through the public API only.  The right-hand sides come
from ``gen_rhs`` seeded from the run's seed; the solver sees only C.  See
README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sylgmres
import sylgmres.arnoldi as arnoldi_mod
import sylgmres.solver as solver_mod
from sylgmres import SolverConfig, SylvesterOperator, WeightStrategy
from sylgmres.cli import COEFFICIENT_PRESETS
from sylgmres.problems import KRON_MAX, FdmSpec, fdm_matrix, gen_rhs, kron_solve

from tracer import Tracer

PRESET_A = "varcoef1"
PRESET_B = "varcoef2"
S0 = 2
M = 10
TOL = 1e-6
# Cycle cap.  Typical solves need 60-120 cycles; a rare right-hand side makes
# wglgmres_dr stagnate (rhs seed 5000006 sat at residual 0.108 for the
# default 2,500 cycles, 107 s).  The cap keeps such a solve a counted failure
# that costs seconds, so every run ends well within its time limit.
MAXIT = 500
# Right-hand side i of a run with seed s is gen_rhs(seed = s + i * RHS_SEED_STRIDE),
# so right-hand side 0 is gen_rhs(s), the one the CLI would build.
RHS_SEED_STRIDE = 1_000_000
# The problem build is timed in batches of this many builds: one batch before
# the first solve and one whenever SETUP_EVERY_S has passed since the last.
SETUP_BATCH = 5
SETUP_EVERY_S = 1.0
# Every right-hand side is solved at least this often in a run: solve_s takes
# each step's fastest repeat, and a traced run needs a traced and an untraced one.
MIN_ROUNDS = 2
# A tail percentile is reported only with at least this many solves.
P90_MIN_SOLVES = 100


@dataclass(frozen=True)
class Workload:
    n0: int
    solver: str  # name of the solver function in sylgmres.solver
    strategy: str
    k: int
    rhs_count: int  # distinct right-hand sides, solved round-robin


WORKLOADS = {
    # the paper's method at the size of the ROADMAP baseline; every layer runs
    "fdm100_wdr_mean": Workload(100, "wglgmres_dr", "mean", 5, 2),
    # same problems, plain restarts: bypasses weighting and the deflation path
    "fdm100_plain": Workload(100, "wglgmres", "identity", 0, 2),
    # desk size, many right-hand sides: per-call overhead and dense work show
    "fdm20_batch": Workload(20, "wglgmres_dr", "mean", 5, 64),
}


def solver_config(wl):
    return SolverConfig(m=M, k=wl.k, tol=TOL, maxit=MAXIT,
                        strategy=WeightStrategy(wl.strategy))


def rhs_seeds(seed, count):
    return [seed + i * RHS_SEED_STRIDE for i in range(count)]


def build_operator(n0):
    a = fdm_matrix(FdmSpec(n0, *COEFFICIENT_PRESETS[PRESET_A]))
    b = fdm_matrix(FdmSpec(S0, *COEFFICIENT_PRESETS[PRESET_B]))
    return a, b


class SetupTimer:
    """Times the problem build in batches spread over the whole run.

    A batch builds the problem SETUP_BATCH times back to back and keeps the
    fastest build of each part; the reported value is the median of the
    batches.  Other tenants of a shared machine slow it for seconds at a
    time and jitter single builds of a few milliseconds by 20% and more; the
    fastest of a batch drops the jitter, and the median over batches spread
    over the run drops the slow stretches.
    """

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.samples = {"setup_s": [], "problems.fdm_s": [], "problems.rhs_s": []}
        self.last = None

    def build(self):
        """Time one batch of builds; return the last (op, C)."""
        batch = {name: [] for name in self.samples}
        for _ in range(SETUP_BATCH):
            t0 = time.perf_counter()
            a, b = build_operator(self.wl.n0)
            t1 = time.perf_counter()
            op = SylvesterOperator(a, b)
            t2 = time.perf_counter()
            c = gen_rhs(op.n, op.s, self.seed)
            t3 = time.perf_counter()
            batch["setup_s"].append(t3 - t0)
            batch["problems.fdm_s"].append(t1 - t0)
            batch["problems.rhs_s"].append(t3 - t2)
        for name, values in batch.items():
            self.samples[name].append(min(values))
        self.last = time.perf_counter()
        return op, c

    def maybe_build(self):
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.build()

    def medians(self):
        return {name: statistics.median(v) for name, v in self.samples.items()}


class CountingOperator:
    """Passes every call through to ``op.apply``, counting it and noting the
    time it was made."""

    def __init__(self, op):
        self.op = op
        self.a = op.a
        self.b = op.b
        self.n = op.n
        self.s = op.s
        self.shape = op.shape
        self.stamps = []

    @property
    def calls(self):
        return len(self.stamps)

    def apply(self, x):
        self.stamps.append(time.perf_counter())
        return self.op.apply(x)


def residual_norm(op, c, x):
    """||C - A X - X B||_F / ||C||_F, formed here from A and B directly."""
    return float(np.linalg.norm(c - op.a @ x - x @ op.b) / np.linalg.norm(c))


@dataclass
class Solve:
    rhs: int  # index into the run's right-hand sides
    request: int
    traced: bool
    seconds: float
    applications: int
    cycles: int
    krylov_steps: int
    resnorm: float
    converged: bool
    # Durations of the solve's steps, each from one operator application (or
    # the solver call) to the next (or the return); untraced solves only.
    step_s: np.ndarray | None = None

    @property
    def ok(self):
        return self.converged and self.resnorm <= TOL

    @property
    def counts(self):
        return (self.applications, self.cycles, self.krylov_steps)


def solve_once(op, c, wl, cfg, rhs=0, request=0, tracer=None):
    """One timed solve from the solver call to its return, checked afterwards."""
    fn = getattr(solver_mod, wl.solver)
    counting = CountingOperator(op)
    step_s = None
    if tracer is None:
        t0 = time.perf_counter()
        report = fn(counting, c, cfg)
        t1 = time.perf_counter()
        seconds = t1 - t0
        step_s = np.diff([t0, *counting.stamps, t1])
    else:
        tracer.request = request
        with tracer.installed():
            t0 = time.perf_counter()
            with tracer.span("solver"):
                report = fn(counting, c, cfg)
            seconds = time.perf_counter() - t0
    steps = report.history[-1].cumulative_iter if report.history else 0
    return Solve(rhs, request, tracer is not None, seconds, counting.calls, report.cycles,
                 steps, residual_norm(op, c, report.x), bool(report.converged),
                 step_s), report.x


def warm_up(wl, cfg):
    """Solve a tiny problem once so lazy imports and first calls are not timed."""
    op = SylvesterOperator(*build_operator(6))
    solve_once(op, gen_rhs(op.n, op.s, 0, density=0.5), wl, cfg)


def _inner_bytes(y, z, weight):
    return y.nbytes + (z.nbytes if z is not y else 0) + _weight_bytes(weight)


def _norm_bytes(y, weight):
    return y.nbytes + _weight_bytes(weight)


def _weight_bytes(weight):
    data = getattr(weight, "data", None)
    return data.nbytes if isinstance(data, np.ndarray) else 0


def trace_targets():
    """What the traced run wraps: the names solver and arnoldi look up."""
    return [
        (SylvesterOperator, "apply", "core.apply", None),
        (arnoldi_mod, "weighted_inner", "core.inner", _inner_bytes),
        (arnoldi_mod, "weighted_norm", "core.inner", _norm_bytes),
        (solver_mod, "weighted_norm", "core.inner", _norm_bytes),
        (arnoldi_mod, "diamond_product", "core.diamond", None),
        (solver_mod, "basis_combine", "core.combine", None),
        (solver_mod, "arnoldi_run", "arnoldi", None),
        (solver_mod, "arnoldi_extend", "arnoldi", None),
        (solver_mod, "hessenberg_lsq", "dense.lsq", None),
        (solver_mod, "small_eig", "dense.eig", None),
        (solver_mod, "reduced_qr", "dense.qr", None),
        (solver_mod, "small_solve", "dense.solve", None),
        (solver_mod, "harmonic_pairs", "solver.harmonic", None),
        (solver_mod, "select_and_realify", "solver.harmonic", None),
        (solver_mod, "restart_subspace", "solver.restart", None),
        (solver_mod, "make_weight", "weighting", None),
    ]


def per_call_us(fn, x, batches=9, batch_s=0.02):
    """Median per-call time of ``fn(x)`` over timed batches, in microseconds."""
    t0 = time.perf_counter()
    fn(x)
    reps = max(1, int(batch_s / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(x)
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples) * 1e6


def oracle_relerr(op, c, x):
    """Relative error of ``x`` against a direct solve of the Kronecker system.

    ``kron_solve`` is the reference where it applies (n*s <= KRON_MAX); above
    that cap the same linearization is solved by sparse LU.
    """
    if op.n * op.s <= KRON_MAX:
        ref = kron_solve(op, c)
    else:
        big = sp.kron(sp.eye(op.s), op.a) + sp.kron(op.b.T, sp.eye(op.n))
        vec = spla.splu(sp.csc_matrix(big)).solve(c.ravel(order="F"))
        ref = vec.reshape(op.shape, order="F")
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


@dataclass
class RunResult:
    solves: list
    setup: dict
    rhs_seeds: list
    metrics: dict  # name -> (value, unit); what the run reports
    notes: dict  # name -> text, for metrics that are not reported
    correct: bool
    tracer: Tracer | None


def run(name, seed, seconds, trace):
    """Set up, solve round-robin for ``seconds`` and check every solve.

    A round solves every right-hand side once.  At least MIN_ROUNDS rounds
    run; after them a further solve starts only when it is expected (from
    that right-hand side's last solve) to end within ``seconds``, so a run
    may end inside a round.  With ``trace`` each right-hand side alternates
    between traced and untraced solves, so every right-hand side has both.
    One solve runs at a time, pinned to one of the CPUs the process may use;
    a neighbour that slows one core for a while then slows only some repeats.
    """
    wl = WORKLOADS[name]
    cfg = solver_config(wl)
    setup_timer = SetupTimer(wl, seed)
    op, c0 = setup_timer.build()
    seeds = rhs_seeds(seed, wl.rhs_count)
    rhs = [c0] + [gen_rhs(op.n, op.s, s) for s in seeds[1:]]
    warm_up(wl, cfg)
    tracer = Tracer(trace_targets()) if trace else None

    solves = []
    first_x = None
    last_s = {}
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    while True:
        rounds, i = divmod(len(solves), len(rhs))
        if rounds >= MIN_ROUNDS and time.perf_counter() - start + last_s[i] > seconds:
            break
        # Each right-hand side moves to the next usable CPU every two rounds,
        # so its repeats (traced and untraced alike) see every core.
        os.sched_setaffinity(0, {cpus[(rounds // 2 + i) % len(cpus)]})
        traced = trace and (rounds + i) % 2 == 1
        result, x = solve_once(op, rhs[i], wl, cfg, rhs=i, request=len(solves),
                               tracer=tracer if traced else None)
        solves.append(result)
        last_s[i] = result.seconds
        if first_x is None:
            first_x = x
        setup_timer.maybe_build()
    os.sched_setaffinity(0, cpus)

    counts = {}
    repeat_ok = True
    for sv in solves:
        repeat_ok &= counts.setdefault(sv.rhs, sv.counts) == sv.counts
    setup = setup_timer.medians()
    if trace:
        metrics, notes, trace_ok = layer_metrics(tracer, solves, op, rhs[0], first_x, setup)
    else:
        metrics, notes, trace_ok = end_to_end_metrics(solves, counts, setup), {}, True
        if len(solves) < P90_MIN_SOLVES:
            notes["solve_s_p90"] = f"not reported: {len(solves)} solves < {P90_MIN_SOLVES}"
    # Solves that miss the residual contract are counted as failed (and their
    # seeds listed); ``correct`` is about whether the run's counts can be trusted.
    correct = repeat_ok and trace_ok
    if not repeat_ok:
        notes["counts"] = "applications/cycles/krylov steps differ between solves of one rhs"
    return RunResult(solves, setup, seeds, metrics, notes, correct, tracer)


def end_to_end_metrics(solves, counts, setup):
    """``solve_s`` is the median over right-hand sides of each one's solve
    time with every step at its fastest.

    The repeated solves of one right-hand side run the same steps in the
    same order (the counts check it), a step being the stretch from one
    operator application to the next.  Other tenants of a shared machine
    slow single cores by up to 2x for spans of a fraction of a second to
    many seconds, so a whole solve of seconds rarely runs undisturbed; the
    fastest run of each short step does, in some repeat.  The sum of those
    is what one solve takes on an undisturbed core.  A slowdown in the code
    slows its step in every repeat, so it shows in full.
    """
    times = [sv.seconds for sv in solves]
    by_rhs = {}
    for sv in solves:
        by_rhs.setdefault(sv.rhs, []).append(sv.step_s)
    fastest_steps = [_fastest_steps(steps) for steps in by_rhs.values()]
    per_rhs = list(counts.values())
    metrics = {
        "solve_s": (statistics.median(fastest_steps), "s"),
        "applications": (statistics.fmean(c[0] for c in per_rhs), "count/solve"),
        "cycles": (statistics.fmean(c[1] for c in per_rhs), "count/solve"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (sum(not sv.ok for sv in solves) / len(solves), "ratio"),
    }
    if len(times) >= P90_MIN_SOLVES:
        metrics["solve_s_p90"] = (float(np.quantile(times, 0.9)), "s")
    return metrics


def _fastest_steps(steps):
    """Sum over steps of each one's fastest repeat; the fastest whole solve
    if the repeats differ in their number of steps (the run is then not
    ``correct``)."""
    if len({len(x) for x in steps}) > 1:
        return float(min(x.sum() for x in steps))
    return float(np.vstack(steps).min(axis=0).sum())


# Per-layer metrics of the traced run: name -> (unit, layers it needs wrapped).
LAYER_METRICS = {
    "core.apply.calls": ("count/solve", ("core.apply",)),
    "core.apply.self_s": ("s/solve", ("core.apply",)),
    "core.apply.ax_us": ("us", ()),
    "core.apply.xb_us": ("us", ()),
    "core.inner.calls": ("count/solve", ("core.inner",)),
    "core.inner.self_s": ("s/solve", ("core.inner",)),
    "core.inner.gbps": ("GB/s", ("core.inner",)),
    "core.diamond.calls": ("count/solve", ("core.diamond",)),
    "core.diamond.self_s": ("s/solve", ("core.diamond",)),
    "core.combine.calls": ("count/solve", ("core.combine",)),
    "core.combine.self_s": ("s/solve", ("core.combine",)),
    "arnoldi.calls": ("count/solve", ("arnoldi",)),
    "arnoldi.steps": ("count/solve", ("arnoldi", "core.apply")),
    "arnoldi.self_s": ("s/solve", ("arnoldi",)),
    "dense.lsq.self_s": ("s/solve", ("dense.lsq",)),
    "dense.eig.self_s": ("s/solve", ("dense.eig",)),
    "dense.qr.self_s": ("s/solve", ("dense.qr",)),
    "dense.solve.self_s": ("s/solve", ("dense.solve",)),
    "dense.self_s": ("s/solve", ("dense.lsq", "dense.eig", "dense.qr", "dense.solve")),
    "solver.harmonic.self_s": ("s/solve", ("solver.harmonic",)),
    "solver.restart.total_s": ("s/solve", ("solver.restart",)),
    "solver.residual.calls": ("count/solve", ("core.apply",)),
    "solver.residual.s": ("s/solve", ("core.apply",)),
    "solver.krylov_steps": ("count/solve", ()),
    "solver.self_s": ("s/solve", ()),
    "solver.deflation_ok_frac": ("ratio", ("solver.restart",)),
    "weighting.calls": ("count/solve", ("weighting",)),
    "weighting.self_s": ("s/solve", ("weighting",)),
    "problems.fdm_s": ("s", ()),
    "problems.rhs_s": ("s", ()),
    "problems.oracle_relerr": ("ratio", ()),
    "trace.overhead_frac": ("ratio", ()),
}


# What the last output line carries: the metrics BENCHMARK.json lists.  The
# rest (solve_s_p90 exists on fdm20_batch only, failed_frac is 0 when all is
# well) is printed above it and kept in the results file.
UNTRACED_OUTPUT = ("solve_s", "applications", "cycles", "setup_s", "peak_rss_mb")
TRACED_OUTPUT = tuple(LAYER_METRICS)


def layer_metrics(tracer, solves, op, c0, x0, setup):
    """Per-layer metrics from the traced solves, plus the traced-run checks.

    Returns (metrics, notes, ok); ``ok`` is false when a traced solve saw a
    different number of operator applications than the counting operator.
    """
    traced = [sv for sv in solves if sv.traced]
    plain = [sv for sv in solves if not sv.traced]
    n = len(traced)
    layers, by_parent = tracer.layers()

    def stat(layer, key):
        return layers.get(layer, {}).get(key, 0)

    def calls(layer):
        return stat(layer, "calls") / n

    def secs(layer, key="self_ns"):
        return stat(layer, key) * 1e-9 / n

    apply_spans = tracer.calls_per_request("core.apply")
    ok = "core.apply" not in tracer.present or all(
        apply_spans[sv.request] == sv.applications for sv in traced)

    dense = ("dense.lsq", "dense.eig", "dense.qr", "dense.solve")
    residual_calls, residual_ns = by_parent.get(("core.apply", "solver"), (0, 0))
    inner_ns = stat("core.inner", "self_ns")
    restarts = sum(sv.cycles - 1 for sv in traced)
    values = {
        "core.apply.calls": calls("core.apply"),
        "core.apply.self_s": secs("core.apply"),
        "core.apply.ax_us": per_call_us(lambda x: op.a @ x, c0),
        "core.apply.xb_us": per_call_us(lambda x: x @ op.b, c0),
        "core.inner.calls": calls("core.inner"),
        "core.inner.self_s": secs("core.inner"),
        "core.inner.gbps": tracer.bytes["core.inner"] / inner_ns if inner_ns else 0.0,
        "core.diamond.calls": calls("core.diamond"),
        "core.diamond.self_s": secs("core.diamond"),
        "core.combine.calls": calls("core.combine"),
        "core.combine.self_s": secs("core.combine"),
        "arnoldi.calls": calls("arnoldi"),
        "arnoldi.steps": by_parent.get(("core.apply", "arnoldi"), (0, 0))[0] / n,
        "arnoldi.self_s": secs("arnoldi"),
        "dense.lsq.self_s": secs("dense.lsq"),
        "dense.eig.self_s": secs("dense.eig"),
        "dense.qr.self_s": secs("dense.qr"),
        "dense.solve.self_s": secs("dense.solve"),
        "dense.self_s": sum(secs(d) for d in dense),
        "solver.harmonic.self_s": secs("solver.harmonic"),
        "solver.restart.total_s": secs("solver.restart", "total_ns"),
        "solver.residual.calls": residual_calls / n,
        "solver.residual.s": residual_ns * 1e-9 / n,
        "solver.krylov_steps": statistics.fmean(sv.krylov_steps for sv in traced),
        "solver.self_s": secs("solver"),
        "solver.deflation_ok_frac": (
            stat("solver.restart", "ok") / restarts if restarts else 0.0),
        "weighting.calls": calls("weighting"),
        "weighting.self_s": secs("weighting"),
        "problems.fdm_s": setup["problems.fdm_s"],
        "problems.rhs_s": setup["problems.rhs_s"],
        "problems.oracle_relerr": oracle_relerr(op, c0, x0),
        "trace.overhead_frac": _overhead(traced, plain),
    }
    metrics, notes = {}, {}
    present = tracer.present
    for name, (unit, needs) in LAYER_METRICS.items():
        absent = [layer for layer in needs if layer not in present]
        if absent:
            notes[name] = f"absent: no wrapped target for {', '.join(absent)}"
        else:
            metrics[name] = (values[name], unit)
    if tracer.missing:
        notes["trace.missing"] = ", ".join(tracer.missing)
    return metrics, notes, ok


def _overhead(traced, plain):
    """Traced over untraced time per right-hand side, summed over rhs, minus 1."""
    def medians(solves):
        by_rhs = {}
        for sv in solves:
            by_rhs.setdefault(sv.rhs, []).append(sv.seconds)
        return {i: statistics.median(t) for i, t in by_rhs.items()}

    t, u = medians(traced), medians(plain)
    both = sorted(set(t) & set(u))
    return sum(t[i] for i in both) / sum(u[i] for i in both) - 1.0


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _cpu_model():
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def environment(root):
    """Machine, library and commit record written next to the results."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sylgmres": sylgmres.__version__,
        "commit": commit,
        "processes": 1,
    }
