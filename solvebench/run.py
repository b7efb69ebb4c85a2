"""Solve benchmark of sylgmres.

Run from the repository root:

    python3 solvebench/run.py --workload fdm100_wdr_mean --seed 7 --seconds 30 --trace 0

It imports the package from ``src/`` of the same checkout, prints every
metric by name with its unit and, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of untraced solves, ``--trace 1`` the
per-layer metrics of a traced run.  The full record (environment, every
solve, notes) is written to ``solvebench/out/``.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    if not (SRC / "sylgmres" / "__init__.py").is_file():
        print(f"error: no sylgmres sources at {SRC}", file=sys.stderr)
        return 2
    # One process generates the load; BLAS gets one thread, set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    args = parse_args(argv, tuple(bench.WORKLOADS))
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    # One operation is one right-hand side, solved as often as the run allows;
    # it fails if any of its solves fails.  Its solves are the same work, so
    # attempted and failed depend on the seed only, not on machine speed.
    attempted = len({sv.rhs for sv in result.solves})
    failed = len({sv.rhs for sv in result.solves if not sv.ok})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"solves {len(result.solves)} ({sum(sv.traced for sv in result.solves)} traced)")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<26} {value:<14.6g} {unit}")
    for name, text in result.notes.items():
        print(f"  {name:<26} {text}")
    failing = sorted({result.rhs_seeds[sv.rhs] for sv in result.solves if not sv.ok})
    if failing:
        print(f"  failing rhs seeds: {failing}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": bench.environment(HERE.parent),
        "correct": result.correct, "setup": result.setup, "rhs_seeds": result.rhs_seeds,
        "failing_rhs_seeds": failing,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        "notes": result.notes,
        "solves": [{k: v for k, v in vars(sv).items() if k != "step_s"}
                   for sv in result.solves],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.save(out_dir / f"{stem}.spans.npz")

    gated = bench.TRACED_OUTPUT if args.trace else bench.UNTRACED_OUTPUT
    print(json.dumps({
        "correct": result.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.metrics.items() if k in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
