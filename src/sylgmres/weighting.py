"""Residual-driven construction of inner-product weights.

Diagonal strategies rebuild the weight from the current residual block at
every restart:

* ``max-col`` / ``min-col``: normalized absolute values of the residual
  column with the largest / smallest 2-norm (smallest column index wins
  ties).
* ``mean``: absolute row means of the residual, kept unnormalized.

``hadamard`` derives an entrywise weight once from the right-hand side and
never updates it; ``random`` draws one positive diagonal per solve from a
seeded generator.  Every produced weight is floored at ``FLOOR_REL`` times
its largest entry, so the inner product stays positive definite even for
residuals with exact zeros; where that floor underflows to 0 (a largest
entry below about 2.5e-312), the weight degrades to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Weight, _finite_norm

__all__ = ["WeightStrategy", "STRATEGY_KINDS", "make_weight"]

STRATEGY_KINDS = ("identity", "max-col", "min-col", "mean", "hadamard", "random")

# Entries with absolute value below this are treated as an all-zero residual.
_ZERO_RESIDUAL = 1e-300
# Weight entries are floored at this fraction of the largest entry.
FLOOR_REL = 1e-12


@dataclass(frozen=True)
class WeightStrategy:
    """Named weighting scheme plus (for ``random``) its seed."""

    kind: str = "identity"
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(
                f"unknown weighting strategy {self.kind!r}; "
                f"choose one of {', '.join(STRATEGY_KINDS)}"
            )
        if self.kind == "random" and self.seed is None:
            raise ValueError("the random strategy needs an explicit seed")

    @property
    def follows_residual(self):
        """True for the kinds whose weight is rebuilt from the residual at every restart."""
        return self.kind in ("max-col", "min-col", "mean")


def _floored(values, shape, tag, mx=None):
    """The weight on blocks of ``shape`` with entries ``values`` (n x s, or an
    n x 1 diagonal; none negative) floored at ``FLOOR_REL`` times their
    largest ``mx``; the identity, tagged degenerate, if that floor is 0."""
    if mx is None:
        mx = float(values.max()) if values.size else 0.0
    if not mx < np.inf:  # NaN fails too
        raise ValueError("weight entries must be finite and > 0")
    floor = FLOOR_REL * mx
    if floor == 0.0:  # mx is 0, or so small that the floor underflows
        return Weight.identity(tag=f"identity[degenerate:{tag}]")
    # every entry now lies in [floor, mx], so the checks of Weight() would pass
    data = np.maximum(values, floor, out=np.empty(shape))
    data.flags.writeable = False
    return Weight._of(data, tag)


def make_weight(strategy, residual=None, rhs=None):
    """Build the Weight a strategy prescribes for the current solve state.

    ``residual`` feeds the max-col/min-col/mean strategies (and sizes the
    random one); ``rhs`` feeds hadamard.  A numerically zero residual
    degrades to the identity weight, recorded in the weight's tag.  An inf
    or NaN entry raises ValueError before any division by it: "residual
    (right-hand side for hadamard) contains non-finite entries", or for
    ``mean`` "weight entries must be finite and > 0".
    """
    kind = strategy.kind
    if kind == "identity":
        return Weight.identity()

    if kind == "hadamard":
        if rhs is None:
            raise ValueError("hadamard weighting needs the right-hand side block")
        c = np.asarray(rhs, dtype=np.float64)
        nrm = _finite_norm(c, "right-hand side")
        if nrm == 0.0:
            return Weight.identity(tag="identity[degenerate:hadamard]")
        big = float(np.abs(c).max())
        if not 1e-150 <= big <= 1e150:  # sqrt(c.size) * |c| could overflow
            return make_weight(strategy, rhs=c / big)
        w = np.sqrt(c.size) * np.abs(c) / nrm
        return _floored(w, c.shape, "hadamard")

    if residual is None:
        raise ValueError(f"{kind} weighting needs the current residual block")
    r = np.asarray(residual, dtype=np.float64)
    if r.ndim != 2:
        raise ValueError("residual must be an n x s block")

    if kind == "random":
        d = np.random.default_rng(strategy.seed).uniform(0.0, 2.0, (r.shape[0], 1))
        return _floored(d, r.shape, f"random[{strategy.seed}]")

    if kind == "mean":
        # the row means as one GEMV against the (s, 1) column of 1/s, in
        # place of numpy's slow strided reduction over the short axis
        values = r @ np.full((r.shape[1], 1), 1.0 / r.shape[1])
        np.abs(values, out=values)
        # a row mean is at most max |r|, so only a tiny one calls for that scan
        mx = float(values.max())
        if not mx >= _ZERO_RESIDUAL and float(np.abs(r).max()) < _ZERO_RESIDUAL:
            return Weight.identity(tag="identity[degenerate:mean]")
        return _floored(values, r.shape, "mean", mx)

    big = float(np.abs(r).max())
    if not big < np.inf:  # an inf or NaN entry; r / big would warn for an inf
        raise ValueError("residual contains non-finite entries")
    if big < _ZERO_RESIDUAL:
        return Weight.identity(tag=f"identity[degenerate:{kind}]")

    # kind is "max-col" or "min-col"
    if not 1e-150 <= big <= 1e150:  # the squares would under- or overflow
        r = r / big
    norms = np.sqrt(np.einsum("ij,ij->j", r, r))
    t = int(np.argmax(norms) if kind == "max-col" else np.argmin(norms))
    if norms[t] == 0.0:
        return Weight.identity(tag=f"identity[degenerate:{kind}]")
    return _floored(np.abs(r[:, t:t + 1]) / norms[t], r.shape, kind)
