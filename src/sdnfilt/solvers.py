"""Centralized iterative solvers for inverse filtering y -> H^{-1} y.

All four methods are instances of the quasi-Newton template

    e_m = H x_{m-1} - y,   x_m = x_{m-1} - G e_m

with a different approximate inverse G each:

    pgda   G = P^{-2} H^T      (P the hop-local max-degree diagonal)
    spgda  G = P_sym^{-1}      (P_sym the absolute-row-sum diagonal)
    opgd   G = beta H^T        (beta the optimal constant step)
    imia   G = diag(H(i,i) / sum_j H(i,j)^2)

Each method is defined once, as a `Method` built from its G per filter;
`solve_stack` runs its step and `spectral_radius` takes the radius of
its error operator. The iteration is linear in y, so all observations
of one filter run together as the columns of one block, and several
methods on it as one stack of blocks: `solve_stack` is that loop, and
`solve` its case of one method on one column. The pgda and spgda
updates are arranged entry-for-entry like the vertex-level
message-passing algorithms so the distributed simulator reproduces
these iterates bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sparse

from .filters import (
    GraphFilter,
    Signal,
    SingularValues,
    SpectralEstimate,
    csr_product,
    extreme_singular_values,
    power_spectral_radius,
)
from .preconditioners import (
    build_pgda_preconditioner,
    build_spgda_preconditioner,
)

__all__ = [
    "METHODS",
    "DIVERGENCE_FACTOR",
    "SolverConfig",
    "SolveTrace",
    "Method",
    "NumericError",
    "solve",
    "solve_stack",
    "spectral_radius",
    "optimal_step",
    "imia_diagonal",
    "direct_solve_oracle",
    "prepare_params",
]

METHODS = ("pgda", "spgda", "opgd", "imia")

SNR_CAP_DB = 300.0

# a solve stops as "diverged" once its residual exceeds this multiple of
# the initial residual
DIVERGENCE_FACTOR = 1e6

# ARPACK tolerance and restart budget of every spectral radius
RADIUS_TOL = 1e-9
RADIUS_MAX_ITER = 3000

# vertices per tile of `solve_stack`'s transposed copies: the columns of a
# tile of an n x T block stay in cache from one row of the copy to the next
ROW_TILE = 512


class NumericError(RuntimeError):
    """Nonfinite values appeared during an iteration."""

    def __init__(self, method: str, iteration: int):
        super().__init__(
            f"{method}: nonfinite values at iteration {iteration}"
        )
        self.iteration = iteration


@dataclass
class SolverConfig:
    """The method and iteration budget of `solve`, which iterates from
    x_0 = 0, as `solve_stack` does. A solve ends with status "converged"
    only when its residual is exactly zero at m = 0, "diverged" as soon as
    the residual exceeds DIVERGENCE_FACTOR times its initial value, and
    "max_iter" after max_iter iterations otherwise.
    """

    method: str
    max_iter: int = 100

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class SolveTrace:
    """Per-iteration record of one solve, indexed m = 0..len-1.

    relative_error is ||x_m - x*|| / ||x*|| against the supplied reference,
    and snr = -20 log10 of the relative error capped at 300 dB. status is
    "converged" (a zero residual at m = 0), "diverged" or "max_iter", as
    `SolverConfig` describes.
    """

    method: str
    residuals: list[float] = field(default_factory=list)
    relative_errors: list[float] | None = None
    snrs: list[float] | None = None
    status: str = "max_iter"

    @property
    def iterations(self) -> int:
        return len(self.residuals) - 1


@dataclass(frozen=True)
class Method:
    """One method's approximate inverse G, built once per filter.

    A step takes x to x - G e, e = H x - y being the residual that
    `solve_stack` has already formed for its record. g is the sparse part
    of G as a CSR matrix: pgda's P^{-2} H^T, opgd's H^T and imia's
    diagonal act on e. A method with a shift acts on x instead, as
    x - G e = (x + G y) - G H x: spgda's g is P^{-1} H, and shift(Y) its
    P^{-1} y, added to x before g's product is taken off. opgd's beta
    scales g's product (`scale`). A routed method has no g: its `step`
    takes (x, e) to the pair (x', H x'), forming H x' itself.
    error() gives the matvec of I - G H in symmetric similarity form.
    radius(), where a method has a route of its own, gives
    the spectral radius of that operator, or None where the route does
    not hold; `spectral_radius` then takes Lanczos on error(). opgd keeps
    the singular values its step came from.
    """

    g: sparse.csr_matrix | None
    error: Callable | None
    radius: Callable | None = None
    singular_values: SingularValues | None = None
    scale: float = 1.0
    shift: Callable | None = None
    step: Callable | None = None


def _pgda(h: GraphFilter, p: np.ndarray | None = None) -> Method:
    p = build_pgda_preconditioner(h) if p is None else p
    ht = h.transpose()
    return Method(
        g=_scale_rows_by_division(ht.csr, p * p),
        error=lambda: lambda v: v - ht.matvec(h.matvec(v / p)) / p,
        radius=lambda: _pgda_radius(h, p),
    )


def _pgda_radius(h: GraphFilter, p: np.ndarray) -> SpectralEstimate | None:
    """rho(I - M) for M = P^{-1} H^T H P^{-1}, as 1 - lambda_min(M).

    lambda_min(M) is 1 / lambda_max(P H^{-1} H^{-T} P), applied through
    the filter's cached LU factor: a handful of applications, where
    Lanczos on I - M needs many once lambda_min(M) nears 0. The spectrum
    of M lies in [lambda_min, ||H P^{-1}||_2^2], and ||H P^{-1}||_2^2 <=
    `_schur_bound(h, p)` (Schur). When that bound is at most 2 -
    lambda_min, no eigenvalue of I - M exceeds 1 - lambda_min in
    magnitude. None when the factor fails, its estimate is not a positive
    finite number, or the certificate does not hold.
    """
    try:
        lu = h.lu()
    except np.linalg.LinAlgError:
        return None
    lam = _lambda_min(h, lambda v: p * lu.solve(lu.solve(p * v, trans="T")))
    if lam is None or _schur_bound(h, p) > 2.0 - lam.value:
        return None
    return replace(lam, value=1.0 - lam.value)


def _lambda_min(h: GraphFilter, inverse: Callable) -> SpectralEstimate | None:
    """lambda_min(M) = 1 / lambda_max(M^{-1}) of a positive definite M on
    h's vertices, given the matvec of M^{-1}; None unless that top
    eigenvalue comes out a positive finite number."""
    est = power_spectral_radius((h.graph.n, inverse), tol=RADIUS_TOL,
                                max_iter=RADIUS_MAX_ITER)
    return (replace(est, value=1.0 / est.value, route="factor")
            if 0.0 < est.value < np.inf else None)


def _schur_bound(h: GraphFilter, p: np.ndarray) -> float:
    """a b >= ||H P^{-1}||_2^2, with a the largest absolute column sum of
    H P^{-1} and b its largest absolute row sum; both are at most 1 for
    pgda's own P, which is what P^2 >= H^T H rests on. Summed straight
    from the stored entries, O(nnz). Only a filter with an LU factor
    reaches here, so no row is empty."""
    m = h.csr
    w = np.abs(m.data) / p[m.indices]
    a = np.bincount(m.indices, weights=w, minlength=h.graph.n).max()
    return float(a * np.add.reduceat(w, m.indptr[:-1]).max())


def _spgda(h: GraphFilter) -> Method:
    p = build_spgda_preconditioner(h)

    def error():
        # P^{-1/2} H P^{-1/2} on H's own pattern: H(i,j) / sqrt(p_i p_j)
        m = h.csr
        rows = np.repeat(np.arange(h.graph.n), np.diff(m.indptr))
        h_hat = csr_product(sparse.csr_matrix(
            (m.data / np.sqrt(p[rows] * p[m.indices]), m.indices, m.indptr), shape=m.shape))
        return lambda v: v - h_hat(v)

    # x - P^{-1} (H x - y) associated as (x + P^{-1} y) - P^{-1} H x, to
    # mirror the vertex update
    return Method(g=_scale_rows_by_division(h.csr, p), error=error,
                  radius=lambda: _spgda_radius(h, p),
                  shift=lambda ys: ys / p[:, None])


def _spgda_radius(h: GraphFilter, p: np.ndarray) -> SpectralEstimate | None:
    """rho(I - M) for M = P^{-1/2} H P^{-1/2}, as 1 - lambda_min(M).

    P - H and P + H are diagonally dominant with a nonnegative diagonal,
    so the spectrum of M lies in [-1, 1] and rho(I - M) = 1 - lambda_min(M)
    for every symmetric H. Where the LU factor certifies H positive
    definite (`GraphFilter.positive_definite`), lambda_min(M) is
    1 / lambda_max(P^{1/2} H^{-1} P^{1/2}), one solve per application.
    None where it does not: a pivot off the diagonal, a negative pivot,
    no factor, or an estimate that is not a positive finite number.
    """
    if not h.positive_definite():
        return None
    lu, root = h.lu(), np.sqrt(p)
    lam = _lambda_min(h, lambda v: root * lu.solve(root * v))
    return None if lam is None else replace(lam, value=1.0 - lam.value)


def _opgd(h: GraphFilter) -> Method:
    beta, sv = optimal_step(h)
    ht = h.transpose()
    # I - beta H^T H has eigenvalues 1 - beta sigma^2, largest in magnitude
    # at sigma_max and sigma_min alike: no operator application needed
    smax2, smin2 = sv.sigma_max.value**2, sv.sigma_min.value**2
    radius = SpectralEstimate((smax2 - smin2) / (smax2 + smin2), 0, sv.converged,
                              "closed_form")
    return Method(
        g=ht.csr,
        error=lambda: lambda v: v - beta * ht.matvec(h.matvec(v)),
        radius=lambda: radius,
        singular_values=sv,
        scale=beta,
    )


def _imia(h: GraphFilter) -> Method:
    d = imia_diagonal(h)

    def error():
        if np.any(d <= 0.0):
            raise ValueError(
                "imia diagonal has nonpositive entries; no symmetric "
                "similarity form exists"
            )
        if not h.symmetric:
            raise ValueError("filter is not symmetric; imia's similarity form "
                             "D^{1/2} H D^{1/2} is not symmetric either")
        sq = np.sqrt(d)
        return lambda v: v - sq * h.matvec(sq * v)

    n = h.graph.n
    return Method(g=sparse.csr_matrix((d, np.arange(n), np.arange(n + 1)), shape=(n, n)),
                  error=error)


_TABLE = {"pgda": _pgda, "spgda": _spgda, "opgd": _opgd, "imia": _imia}


def prepare_params(h: GraphFilter, method: str,
                   params: dict | None = None) -> dict:
    """Build `method`'s entry for h into params ({method: Method}) unless
    it is there already, and return params."""
    params = {} if params is None else params
    if method not in params:
        params[method] = _TABLE[method](h)
    return params


def optimal_step(h: GraphFilter) -> tuple[float, SingularValues]:
    """Constant step length beta = 2 / (sigma_max^2 + sigma_min^2), the
    minimizer of the spectral radius of I - beta H^T H, and the singular
    values it came from."""
    sv = extreme_singular_values(h)
    smax, smin = sv.sigma_max.value, sv.sigma_min.value
    if smax == 0.0 or smin / smax < 1e-10:
        raise ValueError(
            f"filter is numerically singular (sigma_min={smin:.3e}, "
            f"sigma_max={smax:.3e}); no stable step length exists"
        )
    return 2.0 / (smax**2 + smin**2), sv


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


def direct_solve_oracle(h: GraphFilter, y):
    """Sparse LU solve through the filter's cached factor (`GraphFilter.lu`,
    symmetric mode for a symmetric filter), used as ground truth. y is a Signal, and the
    solution comes back as one, or an n x T block of observations of h,
    solved at once into the n x T solutions; each column equals its own
    solve bit for bit.

    Raises LinAlgError if the factorization hits a zero pivot or if a
    column fails its own residual check ||H x - y|| <= 1e-8 ||y||.
    """
    single = isinstance(y, Signal)
    if single and y.graph is not h.graph:
        raise ValueError("filter and signal must share the same graph instance")
    ys = y.values[:, None] if single else y
    x = h.lu().solve(ys)
    resid = _norms(_rows(h.matvec(x) - ys))
    bad = np.flatnonzero(resid > 1e-8 * _norms(_rows(ys)))
    if bad.size:
        raise np.linalg.LinAlgError(
            f"oracle residual {resid[bad[0]]:.3e} exceeds 1e-8 * ||y||"
            f"{'' if single else f' in column {bad[0]}'}; filter too "
            "ill-conditioned for a trustworthy reference"
        )
    return Signal(h.graph, x[:, 0]) if single else x


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
    """Run the configured iteration and return (solution, trace): the
    case of `solve_stack` with one method and one column.

    The iteration is fully deterministic: identical inputs and config give
    bit-identical traces. It stops at m = 0 on a zero residual (status
    "converged"), as soon as the residual exceeds DIVERGENCE_FACTOR times
    its initial value ("diverged"), or at max_iter ("max_iter"). Nonfinite
    iterates raise NumericError.
    """
    if y.graph is not h.graph:
        raise ValueError("filter and signal must share the same graph instance")
    ref = None if reference is None else reference.values
    x, (trace,) = solve_stack(h, y.values[:, None], (cfg.method,), cfg.max_iter,
                              ref, params)[0]
    return Signal(h.graph, x[:, 0]), trace


def _rows(a: np.ndarray) -> np.ndarray:
    """The columns of a as the C-contiguous rows of its transpose."""
    return np.ascontiguousarray(a.T)


def _norms(rows: np.ndarray) -> np.ndarray:
    """2-norm of each row, taken as a dot over the row's contiguous memory:
    the float np.linalg.norm gives for that row alone."""
    return np.sqrt(np.vecdot(rows, rows))


def _scaled_norm(row: np.ndarray) -> float:
    """2-norm of a row whose squared norm overflows: the norm of the row
    divided by its largest magnitude, scaled back (inf for a row that
    holds an inf)."""
    top = np.abs(row).max()
    return float(top * np.sqrt(np.vecdot(row / top, row / top))) if top < np.inf else np.inf


def _block_rows(mats, cols: int, remap) -> sparse.csr_matrix:
    """One CSR matrix of `cols` columns holding the rows of mats one block
    after another, column c of block b moved to remap(b, c)."""
    ends = np.cumsum([m.nnz for m in mats])
    return sparse.csr_matrix(
        (np.concatenate([m.data for m in mats]),
         np.concatenate([remap(b, m.indices) for b, m in enumerate(mats)]),
         np.concatenate([[0]] + [m.indptr[1:] + end - m.nnz
                                 for m, end in zip(mats, ends)])),
        shape=(sum(m.shape[0] for m in mats), cols))


def solve_stack(
    h: GraphFilter,
    ys: np.ndarray,
    methods,
    max_iter: int,
    reference: np.ndarray | None = None,
    params: dict | None = None,
):
    """Run the iterations of several methods on the columns of ys (n x T),
    T observations of the filter h, as one stack, and return one
    (solutions, traces) pair per method: an n x T array, and an iterator
    that builds one SolveTrace per column as it reaches it, so only the
    traces a caller keeps are held at once.

    The M methods' iterates form one (M n) x T state. Each iteration takes
    one product of the block diagonal diag(H, ..., H) with it, and one of
    the block diagonal of the methods' G matrices with the state and its
    residual (`Method`); for one method these are H and its own G. Every
    column of every method is checked, stopped and recorded on its own,
    as `solve` describes, so each gets bit for bit what `solve` gives on
    it alone: a zero column stops at m = 0 as "converged", a column that
    diverges when it does, and a nonfinite residual in a running column
    raises NumericError naming its method. A stopped column stays in the
    stack, stepping on with the others, and nothing reads its later
    values. reference is one signal for every column (n,) or one per
    column (n x T). The history keeps per-column scalars only: squared
    errors, whose square roots and quotients are taken once at the end.
    Where a squared residual norm overflows (entries above about 1e154),
    the stop check retakes that column's norm scaled, so a column of that
    size diverges when it would at any other scale; its trace records the
    overflowed norm, inf.
    """
    names = [SolverConfig(method, max_iter).method for method in methods]
    params = {} if params is None else params
    entries = [prepare_params(h, method, params)[method] for method in names]
    n, M = h.graph.n, len(names)
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[0] != n:
        raise ValueError(f"observation block must be {n} x T, got {ys.shape}")
    k = ys.shape[1]
    track = reference is not None
    if track:
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape not in ((n,), (n, k)):
            raise ValueError(f"reference must be {n} or {n} x {k}, got {reference.shape}")
        ref_rows = _rows(reference.reshape(n, -1))
        ref_norm = _norms(ref_rows)     # one norm, or one per column
    # per column: the residual and the error (squared)
    parts = 1 + track
    K = M * k                           # the stack's columns, method-major
    # the iterates and residuals of every method, in place throughout:
    # w[0] = X, w[1] = H X - Y. Their squared norms come from C-contiguous
    # rows, one per method and column, so that one vecdot writes them all,
    # each a dot over contiguous memory. The residual and error rows fill a
    # buffer of their own, ROW_TILE vertices at a time, so that each tile
    # of the transpose is read while it is still in cache
    w = np.zeros((2, M * n, k))
    x, e = w
    rows = np.empty((parts, K, n))
    x3 = x.reshape(M, n, k)
    x_rows, e_rows = x3.transpose(0, 2, 1), e.reshape(M, n, k).transpose(0, 2, 1)
    res_rows, err_rows = rows[0].reshape(M, k, n), rows[-1].reshape(M, k, n)
    tiles = [slice(lo, lo + ROW_TILE) for lo in range(0, n, ROW_TILE)]
    # per tile: (rows, E) to copy, and (X, reference, rows) to subtract
    res_tiles = [(res_rows[..., t], e_rows[..., t]) for t in tiles]
    err_tiles = [(x_rows[..., t], ref_rows[..., t], err_rows[..., t])
                 for t in tiles] if track else []
    y_stack = ys if M == 1 else np.tile(ys, (M, 1))
    h_stack = csr_product(h.csr if M == 1 else _block_rows(
        [h.csr] * M, M * n, lambda b, c: c + b * n))
    routed = entries[0].step if M == 1 else None
    if routed is None:
        # on [X; E]: each g reads its own block of X or of E
        g_stack = csr_product(_block_rows(
            [entry.g for entry in entries], 2 * M * n,
            lambda b, c: c + (b if entries[b].shift else M + b) * n))
        pair = w[:2].reshape(2 * M * n, k)
        blocks = [slice(b * n, (b + 1) * n) for b in range(M)]
        scales = [(block, entry.scale) for block, entry in zip(blocks, entries)
                  if entry.scale != 1.0]
        shifts = [(x[block], entry.shift(ys)) for block, entry in zip(blocks, entries)
                  if entry.shift is not None]

    last = np.full(K, max_iter)         # iteration of each column's last record
    status = ["max_iter"] * K
    kept = []                           # each stop's columns and their iterates
    # squared norms by iteration, part and column
    history = np.empty((max_iter + 1, parts, K))

    # a diverging iterate is allowed to overflow; it is reported through
    # the status / NumericError, not through numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(max_iter + 1):
            t = None
            if m and routed is not None:
                new, t = routed(x, e)
                np.copyto(x, new)
            elif m:
                g = g_stack(pair)
                for block, beta in scales:
                    g[block] *= beta
                for x_block, shift in shifts:
                    x_block += shift
                x -= g
            np.subtract(h_stack(x) if t is None else t, y_stack, out=e)
            for rows_tile, e_tile in res_tiles:
                np.copyto(rows_tile, e_tile)
            for x_tile, ref_tile, rows_tile in err_tiles:
                np.subtract(x_tile, ref_tile, out=rows_tile)
            resid = np.sqrt(np.vecdot(rows, rows, out=history[m])[0])
            if m:
                # checked on floats, cheaper than array operations on a few
                # columns; a NaN residual fails the comparison, so it stops
                # its column and raises below
                stop = [hi is not None and not r <= hi
                        for r, hi in zip(resid.tolist(), limits)]
                if any(stop):
                    # an infinite residual may be a squared norm that
                    # overflowed: the column stops only if its norm does not
                    # fit under the limit either
                    for j in np.flatnonzero(np.isinf(resid) & stop):
                        stop[j] = not _scaled_norm(rows[0, j]) <= limits[j]
            else:
                # a zero column stops at m = 0; a running one once its
                # residual is not <= its limit, None once it stopped
                for j in np.flatnonzero(np.isinf(resid)):
                    resid[j] = _scaled_norm(rows[0, j])
                limits = (DIVERGENCE_FACTOR * resid).tolist()
                stop = resid == 0.0
            if any(stop):
                nan = np.flatnonzero(np.isnan(resid) & stop) if m else ()
                if len(nan):
                    raise NumericError(names[nan[0] // k], m)
                for j in np.flatnonzero(stop):
                    status[j] = "diverged" if m else "converged"
                    limits[j] = None
                last[stop] = m
                cols = np.reshape(stop, (M, k))
                kept.append((cols, x_rows[cols]))
                if limits.count(None) == K:
                    break
        for cols, xs in kept:
            x_rows[cols] = xs

        norms = history[:last.max() + 1]
        np.sqrt(norms, out=norms)
        res = norms[:, 0]
        if track:
            # every method's block of columns shares the reference norms
            rel = (norms[:, 1].reshape(-1, M, k)
                   / np.where(ref_norm > 0.0, ref_norm, 1.0)).reshape(-1, K)
            snr = _snr_db(rel)

    def trace(j):
        upto = slice(0, last[j] + 1)
        tr = SolveTrace(method=names[j // k], residuals=res[upto, j].tolist(),
                        status=status[j])
        if track:
            tr.relative_errors = rel[upto, j].tolist()
            tr.snrs = snr[upto, j].tolist()
        return tr

    return [(x3[b].copy(), map(trace, range(b * k, (b + 1) * k))) for b in range(M)]


def _snr_db(rel_error):
    """-20 log10 of a relative error, capped at SNR_CAP_DB (the cap also
    for a zero error); elementwise on arrays."""
    rel = np.asarray(rel_error, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.minimum(-20.0 * np.log10(rel), SNR_CAP_DB)
    return np.where(rel <= 0.0, SNR_CAP_DB, snr)


def spectral_radius(h: GraphFilter, method: str,
                    params: dict | None = None) -> SpectralEstimate:
    """Spectral radius of `method`'s error operator I - G H (`Method`),
    to ARPACK's RADIUS_TOL within RADIUS_MAX_ITER restarts.

    pgda (`_pgda_radius`) and spgda (`_spgda_radius`) take it through the
    filter's LU factor and opgd in closed form from its singular values;
    imia takes it by Lanczos on the error operator, and so do pgda and
    spgda, with route "fallback", where their own route does not hold.
    """
    entry = prepare_params(h, method, params)[method]
    own = entry.radius() if entry.radius else None
    if own is not None:
        return own
    est = power_spectral_radius((h.graph.n, entry.error()), tol=RADIUS_TOL,
                                max_iter=RADIUS_MAX_ITER)
    return replace(est, route="fallback") if entry.radius else est
