"""Centralized iterative solvers for inverse filtering y -> H^{-1} y.

All four methods are instances of the quasi-Newton template

    e_m = H x_{m-1} - y,   x_m = x_{m-1} - G e_m

with a different approximate inverse G each:

    pgda   G = P^{-2} H^T      (P the hop-local max-degree diagonal)
    spgda  G = P_sym^{-1}      (P_sym the absolute-row-sum diagonal)
    opgd   G = beta H^T        (beta the optimal constant step)
    imia   G = diag(H(i,i) / sum_j H(i,j)^2)

Each method is defined once, as a `Method` built from its G per filter;
`solve` runs its update and `iteration_matrix` takes its error operator.
The pgda and spgda updates are arranged entry-for-entry like the
vertex-level message-passing algorithms so the distributed simulator
reproduces these iterates bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import LinearOperator

from .filters import (
    GraphFilter,
    Signal,
    SingularValues,
    extreme_singular_values,
)
from .preconditioners import (
    build_pgda_preconditioner,
    build_spgda_preconditioner,
    normalized_filter,
)

__all__ = [
    "METHODS",
    "SolverConfig",
    "SolveTrace",
    "Method",
    "NumericError",
    "solve",
    "iteration_matrix",
    "optimal_step",
    "imia_diagonal",
    "direct_solve_oracle",
    "prepare_params",
]

METHODS = ("pgda", "spgda", "opgd", "imia")

SNR_CAP_DB = 300.0


class NumericError(RuntimeError):
    """Nonfinite values appeared during an iteration."""

    def __init__(self, method: str, iteration: int):
        super().__init__(
            f"{method}: nonfinite values at iteration {iteration}"
        )
        self.iteration = iteration


@dataclass
class SolverConfig:
    """Iteration budget and termination policy for `solve`.

    residual_tol, when set, stops early once ||H x - y|| <= residual_tol*||y||.
    divergence_factor aborts with status "diverged" once the residual exceeds
    that multiple of the initial residual.
    """

    method: str
    max_iter: int = 100
    residual_tol: float | None = None
    divergence_factor: float = 1e6
    initial: Signal | None = None
    keep_iterates: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.divergence_factor <= 1.0:
            raise ValueError("divergence_factor must be > 1")


@dataclass
class SolveTrace:
    """Per-iteration record of one solve, indexed m = 0..len-1.

    relative_error is ||x_m - x*|| / ||x*|| against the supplied reference,
    weighted_error applies the method's diagonal weight (P for pgda,
    sqrt(P_sym) for spgda, identity otherwise), and snr = -20 log10 of the
    relative error capped at 300 dB.
    """

    method: str
    residuals: list[float] = field(default_factory=list)
    relative_errors: list[float] | None = None
    weighted_errors: list[float] | None = None
    snrs: list[float] | None = None
    status: str = "max_iter"
    iterates: list[np.ndarray] | None = None

    @property
    def iterations(self) -> int:
        return len(self.residuals) - 1


@dataclass(frozen=True)
class Method:
    """One method's approximate inverse G, built once per filter.

    update(y) gives the step (x, Hx) -> next x for the observation y;
    weight is the diagonal behind SolveTrace.weighted_errors (None for the
    plain norm); error() gives the matvec of I - G H in symmetric
    similarity form. opgd keeps the singular values its step came from.
    """

    update: Callable
    weight: np.ndarray | None
    error: Callable | None
    singular_values: SingularValues | None = None


def _pgda(h: GraphFilter) -> Method:
    p = build_pgda_preconditioner(h).diag
    ht = h.transpose()
    scaled_ht = _scale_rows_by_division(ht.csr, p * p)
    return Method(
        update=lambda yv: lambda x, t: x - scaled_ht @ (t - yv),
        weight=p,
        error=lambda: lambda v: v - ht.matvec(h.matvec(v / p)) / p,
    )


def _spgda(h: GraphFilter) -> Method:
    pre = build_spgda_preconditioner(h)
    p = pre.diag
    h_tilde = _scale_rows_by_division(h.csr, p)

    def update(yv):
        y_tilde = yv / p
        # association fixed as (x + y~) - H~ x to mirror the vertex update
        return lambda x, t: (x + y_tilde) - h_tilde @ x

    def error():
        h_hat = normalized_filter(h, pre)
        return lambda v: v - h_hat.matvec(v)

    return Method(update, np.sqrt(p), error)


def _opgd(h: GraphFilter) -> Method:
    beta, sv = optimal_step(h, return_singular_values=True)
    ht = h.transpose()
    return Method(
        update=lambda yv: lambda x, t: x - beta * (ht.csr @ (t - yv)),
        weight=None,
        error=lambda: lambda v: v - beta * ht.matvec(h.matvec(v)),
        singular_values=sv,
    )


def _imia(h: GraphFilter) -> Method:
    d = imia_diagonal(h)

    def error():
        if np.any(d <= 0.0):
            raise ValueError(
                "imia diagonal has nonpositive entries; no symmetric "
                "similarity form exists"
            )
        sq = np.sqrt(d)
        return lambda v: v - sq * h.matvec(sq * v)

    return Method(lambda yv: lambda x, t: x - d * (t - yv), None, error)


_TABLE = {"pgda": _pgda, "spgda": _spgda, "opgd": _opgd, "imia": _imia}


def prepare_params(h: GraphFilter, method: str,
                   params: dict | None = None) -> dict:
    """Build `method`'s entry for h into params ({method: Method}) unless
    it is there already, and return params."""
    params = {} if params is None else params
    if method not in params:
        params[method] = _TABLE[method](h)
    return params


def optimal_step(h: GraphFilter, tol: float = 1e-10, max_iter: int = 20000,
                 rng_seed: int = 0, return_singular_values: bool = False):
    """Constant step length 2 / (sigma_max^2 + sigma_min^2), the minimizer
    of the spectral radius of I - beta H^T H."""
    sv = extreme_singular_values(h, tol=tol, max_iter=max_iter, rng_seed=rng_seed)
    if sv.sigma_max == 0.0 or sv.sigma_min / sv.sigma_max < 1e-10:
        raise ValueError(
            f"filter is numerically singular (sigma_min={sv.sigma_min:.3e}, "
            f"sigma_max={sv.sigma_max:.3e}); no stable step length exists"
        )
    beta = 2.0 / (sv.sigma_max**2 + sv.sigma_min**2)
    if return_singular_values:
        return beta, sv
    return beta


def imia_diagonal(h: GraphFilter) -> np.ndarray:
    """Diagonal approximate inverse H(i,i) / sum_j |H(i,j)|^2, the sum
    running over the stored width-neighborhood row entries."""
    diag = h.diagonal()
    zero = np.where(diag == 0.0)[0]
    if zero.size:
        bad = int(zero[0])
        raise ValueError(f"H({bad},{bad}) is zero; the diagonal approximate "
                         "inverse is undefined")
    data = h.csr.data
    return diag / h.row_sums(data * data)


def direct_solve_oracle(h: GraphFilter, y: Signal) -> Signal:
    """Sparse LU solve with partial pivoting through the filter's cached
    factor (`GraphFilter.lu`), used as ground truth.

    Raises LinAlgError if the factorization hits a zero pivot or if the
    residual check ||H x - y|| <= 1e-8 ||y|| fails.
    """
    if y.graph is not h.graph:
        raise ValueError("filter and signal must share the same graph instance")
    x = h.lu().solve(y.values)
    resid = np.linalg.norm(h.matvec(x) - y.values)
    if resid > 1e-8 * np.linalg.norm(y.values):
        raise np.linalg.LinAlgError(
            f"oracle residual {resid:.3e} exceeds 1e-8 * ||y||; "
            "filter too ill-conditioned for a trustworthy reference"
        )
    return Signal(h.graph, x)


def _scale_rows_by_division(m: sparse.csr_matrix, divisors: np.ndarray) -> sparse.csr_matrix:
    """Divide every stored entry of row i by divisors[i] (entrywise division,
    matching what a vertex-level agent computes locally)."""
    out = m.copy()
    counts = np.diff(out.indptr)
    out.data = out.data / np.repeat(divisors, counts)
    return out


def solve(
    h: GraphFilter,
    y: Signal,
    cfg: SolverConfig,
    reference: Signal | None = None,
    params: dict | None = None,
):
    """Run the configured iteration and return (solution, trace).

    The iteration is fully deterministic: identical inputs and config give
    bit-identical traces. Stops at max_iter, at the residual tolerance, or
    as soon as the residual exceeds divergence_factor times its initial
    value (status "diverged"). Nonfinite iterates raise NumericError.
    """
    if y.graph is not h.graph:
        raise ValueError("filter and signal must share the same graph instance")
    method = cfg.method
    entry = prepare_params(h, method, params)[method]

    yv = y.values
    if cfg.initial is not None:
        if cfg.initial.graph is not h.graph:
            raise ValueError("initial signal on a different graph")
        x = cfg.initial.values.copy()
    else:
        x = np.zeros(h.graph.n)
    step, weight = entry.update(yv), entry.weight

    track = reference is not None
    ref = reference.values if track else None
    ref_norm = np.linalg.norm(ref) if track else None

    trace = SolveTrace(method=method)
    if track:
        trace.relative_errors = []
        trace.weighted_errors = []
        trace.snrs = []
    if cfg.keep_iterates:
        trace.iterates = []

    def record(x, resid):
        trace.residuals.append(float(resid))
        if track:
            diff = x - ref
            rel = float(np.linalg.norm(diff) / ref_norm) if ref_norm > 0 else float(
                np.linalg.norm(diff))
            w = float(np.linalg.norm(weight * diff)) if weight is not None else float(
                np.linalg.norm(diff))
            trace.relative_errors.append(rel)
            trace.weighted_errors.append(w)
            trace.snrs.append(_snr_db(rel))
        if cfg.keep_iterates:
            trace.iterates.append(x.copy())

    t = h.matvec(x)
    resid0 = np.linalg.norm(t - yv)
    record(x, resid0)
    ynorm = np.linalg.norm(yv)

    status = "max_iter"
    if resid0 == 0.0:
        status = "converged"
    else:
        # a diverging iterate is allowed to overflow; it is reported through
        # the status / NumericError, not through numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, cfg.max_iter + 1):
                x = step(x, t)
                t = h.matvec(x)
                resid = np.linalg.norm(t - yv)
                if np.isnan(resid):
                    raise NumericError(method, m)
                record(x, resid)
                if cfg.residual_tol is not None and resid <= cfg.residual_tol * ynorm:
                    status = "converged"
                    break
                if resid > cfg.divergence_factor * resid0:
                    status = "diverged"
                    break
    trace.status = status
    return Signal(h.graph, x), trace


def _snr_db(rel_error: float) -> float:
    if rel_error <= 0.0:
        return SNR_CAP_DB
    return float(min(-20.0 * np.log10(rel_error), SNR_CAP_DB))


def iteration_matrix(h: GraphFilter, method: str,
                     params: dict | None = None) -> LinearOperator:
    """Error-propagation operator of a method, in symmetric similarity form
    so its spectral radius can be taken by a symmetric eigensolver.

    pgda:  I - P^{-1} H^T H P^{-1}
    spgda: I - P^{-1/2} H P^{-1/2}
    opgd:  I - beta H^T H
    imia:  I - D^{1/2} H D^{1/2}   (requires positive diagonal D)
    """
    n = h.graph.n
    mv = prepare_params(h, method, params)[method].error()
    return LinearOperator((n, n), matvec=mv, dtype=np.float64)
