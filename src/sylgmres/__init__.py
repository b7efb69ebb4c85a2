"""Weighted global GMRES with deflated restarting for AX + XB = C.

Quick start::

    import numpy as np
    from sylgmres import SylvesterOperator, SolverConfig, WeightStrategy, wglgmres_dr
    from sylgmres.problems import FdmSpec, fdm_matrix, gen_rhs

    a = fdm_matrix(FdmSpec(20))          # 400 x 400 Laplacian
    b = fdm_matrix(FdmSpec(2))           # 4 x 4
    op = SylvesterOperator(a, b)
    c = gen_rhs(op.n, op.s, seed=7)
    cfg = SolverConfig(m=10, k=5, strategy=WeightStrategy("mean"))
    report = wglgmres_dr(op, c, cfg)
    print(report.converged, report.cycles, report.true_resnorm)
"""

from .core import SylvesterOperator
from .problems import (
    FdmSpec,
    fdm_matrix,
    gen_rhs,
    kron_solve,
    read_matrix_market,
    write_matrix_market,
)
from .solver import (
    SolveReport,
    SolverConfig,
    collinearity_check,
    harmonic_pairs,
    wglgmres,
    wglgmres_dr,
)
from .weighting import WeightStrategy

__version__ = "0.1.0"

# the stable API; the building blocks are importable from their own modules
__all__ = [
    "FdmSpec",
    "SolveReport",
    "SolverConfig",
    "SylvesterOperator",
    "WeightStrategy",
    "collinearity_check",
    "fdm_matrix",
    "gen_rhs",
    "harmonic_pairs",
    "kron_solve",
    "read_matrix_market",
    "write_matrix_market",
    "wglgmres",
    "wglgmres_dr",
]
