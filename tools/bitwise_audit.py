"""Fingerprint a fixed set of solves, to compare two source trees bit for bit.

    python3 tools/bitwise_audit.py SRC_DIR > digests.txt
    python3 tools/bitwise_audit.py --compare BASE.txt HEAD.txt

The first form imports ``sylgmres`` from SRC_DIR (the directory that holds
the package) and nothing else, runs the 123 solves below and prints one line
per solve: its label, its cycle count and SHA-256 digests of the iterate, of
the history and of the recorded traces ("-" when none are kept).  The history
digest covers every record but its wall time, the breakdown events and the
final ``converged`` and ``true_resnorm``; the trace digest every trace's
cycle, prefix size, weight, basis, ``h``, ``c``, ``y`` and ``beta``.

The set: FDM ``varcoef1`` x ``varcoef2`` at n0 = 20, s0 = 2, m = 10, the six
weight strategies (``random`` with seed 3) x k in {0, 5} x ``gen_rhs`` seeds
1-5, each with and without ``record_cycles``; plus n0 = 100 with the seed-7
right-hand side under (``mean``, 5), (``identity``, 0) and (``max-col``, 5),
capped at 500 cycles, without traces.

The second form reads two such outputs and prints, as Markdown, how many
solves of the second are byte-identical to the first, and a table of those
that differ with their cycle counts.
"""

import hashlib
import pathlib
import sys


def _load(src_dir):
    src = pathlib.Path(src_dir).resolve()
    sys.path.insert(0, str(src))
    import sylgmres

    where = pathlib.Path(sylgmres.__file__).resolve()
    if src not in where.parents:
        sys.exit(f"sylgmres was imported from {where}, not from {src}")
    return sylgmres


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(getattr(a, "shape", None)).encode())
        h.update(a.tobytes() if hasattr(a, "tobytes") else repr(a).encode())
    return h.hexdigest()


def solves():
    """(label, n0, strategy, k, rhs seed, maxit, record_cycles) of the set."""
    for kind in ("identity", "max-col", "min-col", "mean", "hadamard", "random"):
        for k in (0, 5):
            for seed in range(1, 6):
                for record in (False, True):
                    label = f"fdm20/{kind}/k{k}/rhs{seed}" + ("/traced" if record else "")
                    yield label, 20, kind, k, seed, 2500, record
    for kind, k in (("mean", 5), ("identity", 0), ("max-col", 5)):
        yield f"fdm100/{kind}/k{k}/rhs7", 100, kind, k, 7, 500, False


def audit(src_dir):
    pkg = _load(src_dir)
    from sylgmres.cli import COEFFICIENT_PRESETS
    from sylgmres.problems import FdmSpec, fdm_matrix, gen_rhs

    b = fdm_matrix(FdmSpec(2, *COEFFICIENT_PRESETS["varcoef2"]))
    ops = {n0: pkg.SylvesterOperator(fdm_matrix(FdmSpec(n0, *COEFFICIENT_PRESETS["varcoef1"])), b)
           for n0 in (20, 100)}
    for label, n0, kind, k, seed, maxit, record in solves():
        op = ops[n0]
        ws = pkg.WeightStrategy(kind, seed=3 if kind == "random" else None)
        cfg = pkg.SolverConfig(m=10, k=k, tol=1e-6, maxit=maxit, strategy=ws,
                               record_cycles=record)
        rep = pkg.wglgmres_dr(op, gen_rhs(op.n, op.s, seed), cfg)
        history = [(r.cycle, r.cumulative_iter, r.est_resnorm, r.true_resnorm, r.weight_tag)
                   for r in rep.history]
        history += [rep.breakdowns, rep.converged, rep.true_resnorm]
        traces = "-"
        if rep.traces is not None:
            traces = _digest([item for t in rep.traces for item in (
                t.cycle, t.prefix_blocks, t.weight.tag, t.weight.data,
                t.dec.basis, t.dec.h, t.c, t.y, t.beta)])
        print(label, rep.cycles, _digest([rep.x]), _digest(history), traces, flush=True)


def compare(base_path, head_path):
    def read(path):
        rows = {}
        for line in pathlib.Path(path).read_text().splitlines():
            label, cycles, *digests = line.split()
            rows[label] = (cycles, digests)
        return rows

    base, head = read(base_path), read(head_path)
    differ = [(label, base.get(label, ("-",))[0], cycles)
              for label, (cycles, digests) in head.items()
              if label not in base or base[label][1] != digests]
    print(f"{len(head) - len(differ)} of {len(head)} solves byte-identical to the base")
    if differ:
        print()
        print("| solve | base cycles | head cycles |")
        print("|---|---|---|")
        for label, was, now in differ:
            print(f"| {label} | {was} | {now} |")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        compare(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 2:
        audit(sys.argv[1])
    else:
        sys.exit(__doc__)
