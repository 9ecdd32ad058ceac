"""Diagonal preconditioners computable from hop-local filter data.

Two constructions are provided. The general one takes, at each vertex, the
largest row/column absolute sum found anywhere in its width-neighborhood;
its square dominates H^T H for every filter. The symmetric one is just the
absolute row sum and dominates H itself whenever H is symmetric positive
definite. Both are computable at vertex level with communication confined
to the filter's geodesic width.
"""

from __future__ import annotations

import numpy as np

from .filters import SYMMETRY_TOL, GraphFilter
from .graphs import hop_matrix

__all__ = [
    "build_pgda_preconditioner",
    "build_spgda_preconditioner",
]


def build_pgda_preconditioner(h: GraphFilter, exchange=None) -> np.ndarray:
    """The diagonal P(i,i) = max of d(k) = max(absolute row sum, absolute
    column sum) of k over the width-neighborhood of i: of d[B.indices], B
    the width-ball pattern, or of exchange(d), the simulator's "d" round.

    Every entry must come out positive, otherwise the preconditioner would
    be singular and the gradient iteration undefined.
    """
    if h.nnz == 0:
        raise ValueError("cannot precondition an all-zero filter")
    d = np.maximum(h.row_abs_sums(), h.col_abs_sums())
    ball = hop_matrix(h.graph, h.width)
    heard = d[ball.indices] if exchange is None else exchange(d)
    p = np.maximum.reduceat(heard, ball.indptr[:-1])
    if p.min() <= 0.0:
        bad = int(np.argmin(p))
        raise ValueError(
            f"preconditioner entry at vertex {bad} is zero: the filter has no "
            f"nonzero row or column within {h.width} hops"
        )
    return p


def build_spgda_preconditioner(h: GraphFilter) -> np.ndarray:
    """The diagonal P(i,i) = absolute row sum of row i: the filter's
    cached, read-only row sums. Requires a symmetric filter."""
    if h.nnz == 0:
        raise ValueError("cannot precondition an all-zero filter")
    if not h.symmetric:
        gap, i, j = h.asymmetry()
        raise ValueError(
            f"filter is not symmetric: |H({i},{j}) - H({j},{i})| = "
            f"{gap:.3e} exceeds {SYMMETRY_TOL:.0e}"
        )
    p = h.row_abs_sums()
    if p.min() <= 0.0:
        bad = int(np.argmin(p))
        raise ValueError(f"row {bad} of the filter is all zero")
    return p
