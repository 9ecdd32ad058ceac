"""Sparse graph filters with geodesic-width metadata.

A graph filter is a vertex-indexed matrix whose nonzero entries connect
vertices at bounded hop distance (its geodesic width). Filters are stored
in CSR form with sorted column indices; every matrix-vector product sums
each row in ascending column order, which fixes the floating-point result
and lets the vertex-level simulator reproduce it bit for bit. Products are
taken by `csr_product`, which calls scipy's CSR kernels directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .graphs import Graph, hop_matrix

__all__ = [
    "Signal",
    "GraphFilter",
    "SpectralEstimate",
    "SingularValues",
    "apply",
    "csr_product",
    "laplacians",
    "power_spectral_radius",
    "extreme_singular_values",
    "build_fig1_filter",
    "build_denoise_filter",
]

# magnitude below which entries of the squared normalized Laplacian are
# dropped, so arithmetic noise cannot inflate the recorded geodesic width
COMPOSE_DROP_TOL = 1e-14

# largest |H(i,j) - H(j,i)| of a filter taken as symmetric
SYMMETRY_TOL = 1e-12


@dataclass(eq=False)
class Signal:
    """Per-vertex real vector attached to a graph."""

    graph: Graph
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.graph.n,):
            raise ValueError(
                f"signal length {self.values.shape} does not match "
                f"vertex count {self.graph.n}"
            )

    def copy(self) -> "Signal":
        return Signal(self.graph, self.values.copy())


class GraphFilter:
    """Sparse vertex-indexed matrix carrying its geodesic width.

    Entries equal to exactly zero are never stored, and the cached width
    always equals the maximum hop distance over stored entries. It is read
    off the graph's cached hop matrix of radius `_within`, or of a larger
    one where an entry lies beyond that; a caller that knows a bound on
    the width passes it.
    """

    def __init__(self, graph: Graph, matrix, *, _width: int | None = None,
                 _within: int = 1):
        self.graph = graph
        m = sparse.csr_matrix(matrix, shape=(graph.n, graph.n), dtype=np.float64)
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        self.csr = m
        self.width = _width if _width is not None else _entries_width(graph, m, _within)
        self._product = csr_product(m)
        self._transpose: GraphFilter | None = None
        self._asymmetry = None
        self._lu = None
        self._pivots = None
        self._row_abs_sums = None

    # ---- basic queries -------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def asymmetry(self) -> tuple[float, int, int]:
        """The largest |H(i,j) - H(j,i)| and an entry (i, j) that reaches
        it, (0.0, 0, 0) when none differ: the one symmetry test, O(nnz) on
        the cached transpose and taken once per filter."""
        if self._asymmetry is None:
            diff = (self.csr - self.transpose().csr).tocoo()
            k = int(np.argmax(np.abs(diff.data))) if diff.nnz else None
            self._asymmetry = (0.0, 0, 0) if k is None else (
                float(abs(diff.data[k])), int(diff.row[k]), int(diff.col[k]))
        return self._asymmetry

    @property
    def symmetric(self) -> bool:
        return self.asymmetry()[0] <= SYMMETRY_TOL

    def lu(self):
        """Sparse LU factor of H, computed once per filter and shared by
        every solve through it. A symmetric filter is factored in SuperLU's
        symmetric mode: minimum degree on Hᵀ + H, and a diagonal pivot
        wherever it is at least 0.1 of its column's largest entry, which
        fills far less than COLAMD does on these filters. Any other filter,
        and a symmetric one whose symmetric factorization raises, gets
        COLAMD with partial pivoting. A zero pivot raises LinAlgError."""
        if self._lu is None:
            a = self.csr.tocsc()
            if self.symmetric:
                try:
                    self._lu = splu(a, permc_spec="MMD_AT_PLUS_A",
                                    diag_pivot_thresh=0.1,
                                    options={"SymmetricMode": True})
                except RuntimeError:
                    pass                # COLAMD below
            if self._lu is None:
                try:
                    self._lu = splu(a)
                except RuntimeError as exc:  # "Factor is exactly singular"
                    raise np.linalg.LinAlgError(
                        f"filter is singular to working precision (zero "
                        f"pivot: {exc})") from None
        return self._lu

    def positive_definite(self) -> bool:
        """Whether the LU factor certifies H ≻ 0. A symmetric H whose
        pivots all stayed on the diagonal (perm_r == perm_c) is factored
        as P H Pᵀ = L U with U = D Lᵀ, so by Sylvester's law of inertia it
        is positive definite exactly when no pivot is negative. False for
        a pivot taken off the diagonal, which certifies nothing, and for a
        nonsymmetric filter or one with no factor."""
        if not self.symmetric:
            return False
        if self._pivots is None:
            try:
                lu = self.lu()
            except np.linalg.LinAlgError:
                return False
            # U's diagonal holds the pivots. Reading U makes SuperLU build
            # and keep CSC copies of L and U, so it is read here alone, once
            self._pivots = (bool(np.array_equal(lu.perm_r, lu.perm_c)),
                            int(np.count_nonzero(lu.U.diagonal() < 0.0)))
        diagonal, negative = self._pivots
        return diagonal and negative == 0

    def release_factor(self) -> None:
        """Drop the cached LU factor, and with it the CSC copies of L and U
        that reading the pivots made SuperLU keep; the pivot record stays,
        and a later `lu()` factors H again."""
        self._lu = None

    def diagonal(self) -> np.ndarray:
        return self.csr.diagonal()

    # ---- algebra -------------------------------------------------------

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Canonical product H v of an (n,), (n, 1) or n x T array: each row
        summed in ascending column order."""
        return self._product(v)

    def transpose(self) -> "GraphFilter":
        if self._transpose is None:
            # hop distance is symmetric, so the width carries over exactly
            t = GraphFilter(self.graph, self.csr.T.tocsr(), _width=self.width)
            t._transpose = self
            self._transpose = t
        return self._transpose

    def row_sums(self, data: np.ndarray) -> np.ndarray:
        """Per-row sums of `data`, an array aligned with the stored entries;
        each row summed over its own entry array, so a local agent holding
        the same array gets the identical float. Rows of equal length are
        gathered into one 2-D block; summing it along axis 1 runs numpy's
        pairwise sum per row, in the same order as on the row alone."""
        indptr = self.csr.indptr
        lengths = np.diff(indptr)
        out = np.zeros(self.graph.n)
        for length in np.flatnonzero(np.bincount(lengths)[1:]) + 1:
            rows = np.flatnonzero(lengths == length)
            out[rows] = data[indptr[rows, None] + np.arange(length)].sum(axis=1)
        return out

    def row_abs_sums(self) -> np.ndarray:
        """Per-row sum of absolute values, as `row_sums` adds them; computed
        once per filter and shared, so the array is read-only."""
        if self._row_abs_sums is None:
            self._row_abs_sums = self.row_sums(np.abs(self.csr.data))
            self._row_abs_sums.flags.writeable = False
        return self._row_abs_sums

    def col_abs_sums(self) -> np.ndarray:
        return self.transpose().row_abs_sums()


@dataclass(frozen=True)
class SpectralEstimate:
    """An estimate taken with `iterations` operator applications, by its
    `route`: "lanczos" (`power_spectral_radius`), "factor" (Lanczos on an
    inverse applied through a filter's LU factor), "closed_form" (no
    application), or "fallback" (Lanczos on a method's iteration matrix
    because the method's own route did not hold)."""

    value: float
    iterations: int
    converged: bool
    route: str = "lanczos"


@dataclass(frozen=True)
class SingularValues:
    """The extreme singular values, each an estimate of its own."""

    sigma_max: SpectralEstimate
    sigma_min: SpectralEstimate

    @property
    def converged(self) -> bool:
        return self.sigma_max.converged and self.sigma_min.converged


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def csr_product(m: sparse.csr_matrix):
    """The product v -> m @ v of a float64 CSR matrix, bound once.

    Each call runs the kernel `m @ v` reaches, with the same arguments and
    a fresh zero output: csr_matvec for an (n,) or (n, 1) array and
    csr_matvecs for an n x T one. The result is `m @ v` bit for bit, without
    scipy's per-call dispatch. The matrix's arrays are read once, here, so
    m must not change afterwards.
    """
    if m.format != "csr" or m.dtype != np.float64:
        raise ValueError(f"expected a float64 CSR matrix, got {m.format} {m.dtype}")
    (rows, cols), indptr, indices, data = m.shape, m.indptr, m.indices, m.data

    def product(v: np.ndarray) -> np.ndarray:
        if v.shape[0] != cols or v.ndim > 2:
            raise ValueError(f"cannot multiply a {rows} x {cols} matrix by an "
                             f"array of shape {v.shape}")
        if v.ndim == 1 or v.shape[1] == 1:
            out = np.zeros(rows)
            csr_matvec(rows, cols, indptr, indices, data, v.ravel(), out)
            return out if v.ndim == 1 else out.reshape(rows, 1)
        out = np.zeros((rows, v.shape[1]))
        csr_matvecs(rows, cols, v.shape[1], indptr, indices, data, v.ravel(),
                    out.ravel())
        return out

    return product


def apply(h: GraphFilter, x: Signal) -> Signal:
    """Filter a signal: y(i) = sum of H(i,j) x(j) over the width-neighborhood,
    accumulated in ascending column order."""
    if x.graph is not h.graph:
        raise ValueError("filter and signal must share the same graph instance")
    return Signal(h.graph, h.matvec(x.values))


def laplacians(g: Graph) -> GraphFilter:
    """Symmetrically normalized Laplacian D^{-1/2} (D - A) D^{-1/2}.

    Requires every vertex to have degree >= 1.
    """
    deg = g.degrees()
    if deg.min() < 1:
        raise ValueError(
            f"vertex {int(np.argmin(deg))} is isolated; Laplacian normalization "
            "requires positive degrees"
        )
    tails = np.repeat(np.arange(g.n), deg)
    heads = g.indices
    rows = np.concatenate([np.arange(g.n), tails])
    cols = np.concatenate([np.arange(g.n), heads])
    vals = np.concatenate([np.ones(g.n),
                           -1.0 / np.sqrt((deg[tails] * deg[heads]).astype(np.float64))])
    return GraphFilter(g, sparse.coo_matrix((vals, (rows, cols)), shape=(g.n, g.n)),
                       _width=1)


# ---------------------------------------------------------------------------
# spectral utilities
# ---------------------------------------------------------------------------


def _start_vector(n: int, rng_seed: int, stream: int) -> np.ndarray:
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=rng_seed, spawn_key=(stream,))
    )
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def power_spectral_radius(op: tuple, tol: float = 1e-10, max_iter: int = 5000,
                          rng_seed: int = 0) -> SpectralEstimate:
    """Spectral radius of the symmetric operator given as an (n, matvec)
    pair, the eigenvalue largest in magnitude, by ARPACK's implicitly
    restarted Lanczos method. The one LinearOperator layer is the counting
    one handed to ARPACK; the matvec runs under it directly.

    The start vector and ARPACK's restart stream are seeded by rng_seed,
    so reruns are bit-identical. `iterations` counts operator applications.
    `converged` means ARPACK's test ||A v - lambda v|| <= tol |lambda|
    passed within max_iter restarts; if it did not, the value is the
    largest |A v|/|v| seen on the applied vectors, a lower bound. A start
    vector that the operator annihilates is replaced once by a fresh one;
    if that one is annihilated too, the operator is taken as zero.
    """
    n, matvec = op
    bounds = []  # |A v|/|v|, one per application

    def counted(v):
        w = matvec(v)
        bounds.append(float(np.sqrt(w @ w / (v @ v))))
        return w

    if n == 1:  # eigsh needs k < n; a 1x1 operator is its own eigenvalue
        counted(np.ones(1))
        return SpectralEstimate(bounds[0], 1, True)
    for stream in (0, 1):
        v0 = _start_vector(n, rng_seed, stream)
        if counted(v0).any():
            break
    else:
        return SpectralEstimate(0.0, len(bounds), True)
    try:
        (value,) = eigsh(LinearOperator((n, n), matvec=counted, dtype=np.float64),
                         k=1, which="LM", v0=v0, tol=tol, maxiter=max_iter,
                         rng=rng_seed, return_eigenvectors=False)
        converged = True
    except ArpackNoConvergence:
        value, converged = max(bounds), False
    return SpectralEstimate(abs(float(value)), len(bounds), converged)


def extreme_singular_values(h: GraphFilter, tol: float = 1e-10, max_iter: int = 20000,
                            rng_seed: int = 0) -> SingularValues:
    """Largest and smallest singular values of a filter.

    sigma_max^2 is the top eigenvalue of H^T H. sigma_min is taken through
    the filter's cached LU factor: for a symmetric H it is the smallest
    |lambda(H)|, 1 / max |lambda(H^{-1})|, one solve per application;
    otherwise sigma_min^2 is the reciprocal of the top eigenvalue of
    (H^T H)^{-1} = H^{-1} H^{-T}, two solves per application. Each value
    keeps its own applications and converged flag. A filter that is
    singular to working precision has sigma_min = 0, after no application.
    """
    n = h.graph.n
    ht = h.transpose()
    gram = (n, lambda v: ht.matvec(h.matvec(v)))
    top = power_spectral_radius(gram, tol=tol, max_iter=max_iter, rng_seed=rng_seed)
    sigma_max = replace(top, value=float(np.sqrt(top.value)))
    try:
        lu = h.lu() if top.value else None
    except np.linalg.LinAlgError:
        lu = None
    if lu is None:
        return SingularValues(sigma_max, SpectralEstimate(0.0, 0, True, "factor"))
    symmetric = h.symmetric
    inverse = lu.solve if symmetric else (lambda v: lu.solve(lu.solve(v, trans="T")))
    bottom = power_spectral_radius((n, inverse), tol=tol, max_iter=max_iter,
                                   rng_seed=rng_seed + 1)
    sigma_min = 0.0
    if bottom.value > 0:
        sigma_min = float(1.0 / (bottom.value if symmetric else np.sqrt(bottom.value)))
    return SingularValues(sigma_max, replace(bottom, value=sigma_min, route="factor"))


# ---------------------------------------------------------------------------
# experiment filter constructions
# ---------------------------------------------------------------------------


def build_fig1_filter(g: Graph, gamma: float, rng_seed: int) -> GraphFilter:
    """Two-hop benchmark filter: a coordinate-based Gaussian proximity kernel
    with symmetrized uniform perturbations, plus the squared normalized
    Laplacian.

    The kernel entry for vertices i, j within two hops is
    exp(-2 n ||p_i - p_j||^2 - ||p_i + p_j||^2 / 2) + (g_ij + g_ji)/2,
    with g_ij i.i.d. uniform on [-gamma, gamma]. The result is symmetric
    with geodesic width 2.
    """
    if g.coordinates is None:
        raise ValueError("graph has no coordinates; the kernel needs positions")
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    pts = g.coordinates
    two_hop = hop_matrix(g, 2)        # pairs row-major, columns ascending
    pi = np.repeat(np.arange(g.n), np.diff(two_hop.indptr))
    pj = two_hop.indices
    # take(axis=0) gathers the same rows as pts[pi], several times faster
    d2 = np.sum((pts.take(pi, axis=0) - pts.take(pj, axis=0)) ** 2, axis=1)
    s2 = np.sum((pts.take(pi, axis=0) + pts.take(pj, axis=0)) ** 2, axis=1)
    vals = np.exp(-2.0 * g.n * d2 - s2 / 2.0)
    shape = (g.n, g.n)
    if gamma > 0:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed))
        noise = rng.uniform(-gamma, gamma, size=len(pi))
        # symmetrize the i.i.d. draws: entry (i,j) gets (g_ij + g_ji)/2. The
        # pattern is symmetric, so its transpose lists, at the position of
        # each (i,j), the position of (j,i)
        positions = sparse.csr_matrix((np.arange(len(pi)), pj, two_hop.indptr), shape)
        mirror = positions.T.tocsr().data
        vals = vals + (noise + noise[mirror]) / 2.0
    # the Laplacian term lies on the two-hop pattern too; when the sum keeps
    # every pair of it, the width is the pattern's largest hop count
    m = sparse.csr_matrix((vals, pj, two_hop.indptr), shape) \
        + _squared_normalized_laplacian(g).csr
    return GraphFilter(g, m, _within=2,
                       _width=int(two_hop.data.max()) if m.nnz == two_hop.nnz else None)


def _squared_normalized_laplacian(g: Graph) -> GraphFilter:
    """L_sym L_sym, which depends on the graph alone: built on the first
    call and cached on the graph next to its hop matrices. Entries below
    COMPOSE_DROP_TOL in magnitude are dropped. Shared, so callers must not
    modify it."""
    square = g._cache.get("lap_sym_squared")
    if square is None:
        lap_sym = laplacians(g).csr
        m = lap_sym @ lap_sym
        m.data[np.abs(m.data) < COMPOSE_DROP_TOL] = 0.0
        square = g._cache["lap_sym_squared"] = GraphFilter(g, m, _within=2)
    return square


def build_denoise_filter(g: Graph, alpha: float) -> GraphFilter:
    """Smoothing-penalty filter I + alpha * L_sym; symmetric positive
    definite with width 1 for alpha > 0 (width 0 at alpha = 0)."""
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return GraphFilter(g, sparse.identity(g.n, format="csr")
                       + laplacians(g).csr * float(alpha))


# ---------------------------------------------------------------------------
# internal helpers
# ---------------------------------------------------------------------------


def _entries_width(g: Graph, csr: sparse.csr_matrix, within: int) -> int:
    """Largest hop distance between the endpoints of a stored entry, read
    off the graph's cached hop matrix: of radius `within` when that holds
    every entry, else of radius 2, 4, 8, ... times it until one does."""
    n = g.n
    keys = np.repeat(np.arange(n), np.diff(csr.indptr)) * n + csr.indices
    radius = within
    while True:
        hops = hop_matrix(g, radius)
        ball = np.repeat(np.arange(n), np.diff(hops.indptr)) * n + hops.indices
        pos = np.minimum(np.searchsorted(ball, keys), len(ball) - 1)
        if np.array_equal(ball[pos], keys):
            return int(hops.data[pos].max(initial=0))
        if radius >= n - 1:
            raise ValueError("filter entry connects vertices in different components")
        radius = max(2 * radius, 1)
