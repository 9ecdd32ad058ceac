"""Sparse graph filters with geodesic-width metadata.

A graph filter is a vertex-indexed matrix whose nonzero entries connect
vertices at bounded hop distance (its geodesic width). Filters are stored
in CSR form with sorted column indices; every matrix-vector product sums
each row in ascending column order, which fixes the floating-point result
and lets the vertex-level simulator reproduce it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .graphs import Graph, hop_levels, hop_matrix

__all__ = [
    "Signal",
    "GraphFilter",
    "DiagonalPreconditioner",
    "SymmetricOperator",
    "SpectralEstimate",
    "SingularValues",
    "apply",
    "geodesic_width",
    "schur_norm",
    "compose",
    "laplacians",
    "power_spectral_radius",
    "extreme_singular_values",
    "build_fig1_filter",
    "build_denoise_filter",
]

# magnitude below which entries produced by filter composition are dropped,
# so arithmetic noise cannot inflate the recorded geodesic width
COMPOSE_DROP_TOL = 1e-14


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def copy(self) -> "Signal":
        return Signal(self.graph, self.values.copy())


class GraphFilter:
    """Sparse vertex-indexed matrix carrying its geodesic width.

    Entries equal to exactly zero are never stored, and the cached width
    always equals the maximum hop distance over stored entries.
    """

    def __init__(self, graph: Graph, matrix, *, _width: int | None = None):
        self.graph = graph
        m = sparse.csr_matrix(matrix, shape=(graph.n, graph.n), dtype=np.float64)
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        self.csr = m
        self.width = _width if _width is not None else _entries_width(graph, m)
        self._transpose: GraphFilter | None = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_entries(cls, graph: Graph, entries) -> "GraphFilter":
        """Build from a {(i, j): value} mapping or (i, j, value) iterable."""
        if isinstance(entries, dict):
            items = [(i, j, v) for (i, j), v in entries.items()]
        else:
            items = [(i, j, v) for i, j, v in entries]
        rows = np.array([t[0] for t in items], dtype=np.int64)
        cols = np.array([t[1] for t in items], dtype=np.int64)
        vals = np.array([t[2] for t in items], dtype=np.float64)
        if len(items) and (rows.min() < 0 or rows.max() >= graph.n
                           or cols.min() < 0 or cols.max() >= graph.n):
            raise ValueError("filter entry index out of range")
        m = sparse.coo_matrix((vals, (rows, cols)), shape=(graph.n, graph.n))
        return cls(graph, m)

    @classmethod
    def from_dense(cls, graph: Graph, dense) -> "GraphFilter":
        return cls(graph, sparse.csr_matrix(np.asarray(dense, dtype=np.float64)))

    @classmethod
    def identity(cls, graph: Graph) -> "GraphFilter":
        return cls(graph, sparse.identity(graph.n, format="csr"), _width=0)

    # ---- basic queries -------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def entry(self, i: int, j: int) -> float:
        return float(self.csr[i, j])

    def entries(self):
        """Yield (i, j, value) row-major with ascending column ids."""
        indptr, indices, data = self.csr.indptr, self.csr.indices, self.csr.data
        for i in range(self.graph.n):
            for k in range(indptr[i], indptr[i + 1]):
                yield i, int(indices[k]), float(data[k])

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def diagonal(self) -> np.ndarray:
        return self.csr.diagonal()

    # ---- algebra -------------------------------------------------------

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Canonical product: each row summed in ascending column order."""
        return self.csr @ v

    def transpose(self) -> "GraphFilter":
        if self._transpose is None:
            # hop distance is symmetric, so the width carries over exactly
            t = GraphFilter(self.graph, self.csr.T.tocsr(), _width=self.width)
            t._transpose = self
            self._transpose = t
        return self._transpose

    @property
    def T(self) -> "GraphFilter":
        return self.transpose()

    def __add__(self, other: "GraphFilter") -> "GraphFilter":
        self._check_same_graph(other)
        return GraphFilter(self.graph, self.csr + other.csr)

    def __sub__(self, other: "GraphFilter") -> "GraphFilter":
        self._check_same_graph(other)
        return GraphFilter(self.graph, self.csr - other.csr)

    def scaled(self, alpha: float) -> "GraphFilter":
        if alpha == 0.0:
            return GraphFilter(self.graph, sparse.csr_matrix((self.graph.n,) * 2),
                               _width=0)
        # width recomputed: scaling can underflow an entry to exact zero
        return GraphFilter(self.graph, self.csr * float(alpha))

    def row_abs_sums(self) -> np.ndarray:
        """Per-row sum of absolute values; each row summed over its own
        stored-entry array so a local agent holding the same array gets the
        identical float. Rows of equal length are gathered into one 2-D
        block; summing it along axis 1 runs numpy's pairwise sum per row,
        in the same order as on the row alone."""
        indptr, data = self.csr.indptr, np.abs(self.csr.data)
        lengths = np.diff(indptr)
        out = np.zeros(self.graph.n)
        for length in np.flatnonzero(np.bincount(lengths)[1:]) + 1:
            rows = np.flatnonzero(lengths == length)
            out[rows] = data[indptr[rows, None] + np.arange(length)].sum(axis=1)
        return out

    def col_abs_sums(self) -> np.ndarray:
        return self.transpose().row_abs_sums()

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        d = self.csr - self.csr.T
        return d.nnz == 0 or float(np.abs(d.data).max()) <= tol

    def _check_same_graph(self, other) -> None:
        if other.graph is not self.graph:
            raise ValueError("filters must share the same graph instance")


@dataclass(eq=False)
class DiagonalPreconditioner:
    """Positive per-vertex diagonal with a provenance tag.

    kind is one of {"pgda", "spgda", "degree"}; source_width records the
    geodesic width of the filter it was built from.
    """

    graph: Graph
    diag: np.ndarray
    kind: str
    source_width: int

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=np.float64)
        if self.diag.shape != (self.graph.n,):
            raise ValueError("diagonal length does not match vertex count")

    def max(self) -> float:
        return float(self.diag.max())

    def min(self) -> float:
        return float(self.diag.min())


@dataclass(frozen=True)
class SymmetricOperator:
    """Matrix-free symmetric linear operator on length-n vectors."""

    n: int
    matvec: callable

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v)


@dataclass(frozen=True)
class SpectralEstimate:
    value: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SingularValues:
    sigma_max: float
    sigma_min: float
    converged: bool


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def apply(h: GraphFilter, x: Signal) -> Signal:
    """Filter a signal: y(i) = sum of H(i,j) x(j) over the width-neighborhood,
    accumulated in ascending column order."""
    if x.graph is not h.graph:
        raise ValueError("filter and signal must share the same graph instance")
    return Signal(h.graph, h.matvec(x.values))


def geodesic_width(entries, g: Graph) -> int:
    """Largest hop distance between endpoints of any nonzero entry."""
    if isinstance(entries, GraphFilter):
        return entries.width
    return GraphFilter.from_entries(g, entries).width


def schur_norm(h: GraphFilter) -> float:
    """max(max absolute row sum, max absolute column sum)."""
    if h.nnz == 0:
        return 0.0
    return float(max(h.row_abs_sums().max(), h.col_abs_sums().max()))


def compose(a: GraphFilter, b: GraphFilter) -> GraphFilter:
    """Sparse filter product a @ b; entries below COMPOSE_DROP_TOL in
    magnitude are dropped so the width metadata stays truthful."""
    a._check_same_graph(b)
    m = (a.csr @ b.csr).tocsr()
    m.sum_duplicates()
    if m.nnz:
        m.data[np.abs(m.data) < COMPOSE_DROP_TOL] = 0.0
        m.eliminate_zeros()
    out = GraphFilter(a.graph, m)
    if out.width > a.width + b.width:
        raise AssertionError("composition widened beyond the sum of widths")
    return out


def laplacians(g: Graph):
    """Combinatorial Laplacian L = D - A, the symmetrically normalized
    Laplacian D^{-1/2} L D^{-1/2}, and the degree diagonal.

    Requires every vertex to have degree >= 1.
    """
    deg = g.degrees()
    if deg.min() < 1:
        raise ValueError(
            f"vertex {int(np.argmin(deg))} is isolated; Laplacian normalization "
            "requires positive degrees"
        )
    rows, cols, lvals, svals = [], [], [], []
    for i in range(g.n):
        rows.append(i)
        cols.append(i)
        lvals.append(float(deg[i]))
        svals.append(1.0)
        for j in g.adjacency[i]:
            rows.append(i)
            cols.append(j)
            lvals.append(-1.0)
            svals.append(-1.0 / np.sqrt(float(deg[i] * deg[j])))
    shape = (g.n, g.n)
    lap = GraphFilter(g, sparse.coo_matrix((lvals, (rows, cols)), shape=shape),
                      _width=1)
    lap_sym = GraphFilter(g, sparse.coo_matrix((svals, (rows, cols)), shape=shape),
                          _width=1)
    degree = DiagonalPreconditioner(g, deg.astype(np.float64), kind="degree",
                                    source_width=1)
    return lap, lap_sym, degree


# ---------------------------------------------------------------------------
# spectral utilities
# ---------------------------------------------------------------------------


def _as_operator(m) -> SymmetricOperator:
    if isinstance(m, GraphFilter):
        return SymmetricOperator(n=m.graph.n, matvec=m.matvec)
    if isinstance(m, SymmetricOperator):
        return m
    raise TypeError(f"expected GraphFilter or SymmetricOperator, got {type(m)}")


def _start_vector(n: int, rng_seed: int, stream: int) -> np.ndarray:
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=rng_seed, spawn_key=(stream,))
    )
    v = rng.standard_normal(n)
    nrm = np.linalg.norm(v)
    return v / nrm if nrm > 0 else np.full(n, 1.0 / np.sqrt(n))


def power_spectral_radius(
    m,
    tol: float = 1e-10,
    max_iter: int = 5000,
    rng_seed: int = 0,
) -> SpectralEstimate:
    """Largest absolute eigenvalue of a symmetric operator by power iteration.

    The estimate at each step is ||A v|| for the current unit vector v,
    i.e. the square root of the Rayleigh quotient of A^2; for a symmetric
    operator this converges to the spectral radius even when the extreme
    eigenvalues come in +/- pairs. Convergence is declared when successive
    estimates differ by less than tol. If the estimate starts out stuck at
    zero the iteration restarts once from a fresh vector.
    """
    op = _as_operator(m)
    if op.n == 0:
        return SpectralEstimate(0.0, 0, True)
    total_iters = 0
    for stream in (0, 1):  # one restart on a zero start
        v = _start_vector(op.n, rng_seed, stream)
        prev = np.inf
        for it in range(1, max_iter + 1):
            w = op(v)
            est = float(np.linalg.norm(w))
            total_iters += 1
            if est == 0.0:
                break  # v is (numerically) in the kernel; restart or accept 0
            if abs(est - prev) < tol:
                return SpectralEstimate(est, total_iters, True)
            prev = est
            v = w / est
        else:
            return SpectralEstimate(prev, total_iters, False)
    return SpectralEstimate(0.0, total_iters, True)


def extreme_singular_values(
    h: GraphFilter,
    tol: float = 1e-10,
    max_iter: int = 20000,
    rng_seed: int = 0,
) -> SingularValues:
    """Largest and smallest singular values of a filter, inverse-free.

    sigma_max^2 is the top eigenvalue of H^T H by power iteration;
    sigma_min^2 is recovered from a shifted power iteration on
    sigma_max^2 I - H^T H, so no factorization or inverse is needed.
    """
    ht = h.transpose()
    gram = SymmetricOperator(
        n=h.graph.n, matvec=lambda v: ht.matvec(h.matvec(v))
    )
    top = power_spectral_radius(gram, tol=tol, max_iter=max_iter,
                                rng_seed=rng_seed)
    smax2 = top.value
    if smax2 == 0.0:
        return SingularValues(0.0, 0.0, top.converged)
    shifted = SymmetricOperator(
        n=h.graph.n, matvec=lambda v: smax2 * v - gram.matvec(v)
    )
    gap = power_spectral_radius(shifted, tol=tol * smax2, max_iter=max_iter,
                                rng_seed=rng_seed + 1)
    smin2 = max(smax2 - gap.value, 0.0)
    return SingularValues(
        sigma_max=float(np.sqrt(smax2)),
        sigma_min=float(np.sqrt(smin2)),
        converged=top.converged and gap.converged,
    )


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
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    pts = g.coordinates
    two_hop = hop_matrix(g, 2)        # pairs row-major, columns ascending
    pi = np.repeat(np.arange(g.n), np.diff(two_hop.indptr))
    pj = two_hop.indices.astype(np.int64)
    d2 = np.sum((pts[pi] - pts[pj]) ** 2, axis=1)
    s2 = np.sum((pts[pi] + pts[pj]) ** 2, axis=1)
    vals = np.exp(-2.0 * g.n * d2 - s2 / 2.0)
    if gamma > 0:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed))
        noise = rng.uniform(-gamma, gamma, size=len(pi))
        # symmetrize the i.i.d. draws: entry (i,j) gets (g_ij + g_ji)/2
        mirror = np.searchsorted(pi * g.n + pj, pj * g.n + pi)
        vals = vals + (noise + noise[mirror]) / 2.0
    kernel = GraphFilter(
        g, sparse.coo_matrix((vals, (pi, pj)), shape=(g.n, g.n))
    )
    _, lap_sym, _ = laplacians(g)
    return kernel + compose(lap_sym, lap_sym)


def build_denoise_filter(g: Graph, alpha: float) -> GraphFilter:
    """Smoothing-penalty filter I + alpha * L_sym; symmetric positive
    definite with width 1 for alpha > 0 (width 0 at alpha = 0)."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0.0:
        return GraphFilter.identity(g)
    _, lap_sym, _ = laplacians(g)
    return GraphFilter.identity(g) + lap_sym.scaled(alpha)


# ---------------------------------------------------------------------------
# internal helpers
# ---------------------------------------------------------------------------


def _entries_width(g: Graph, csr: sparse.csr_matrix) -> int:
    """Smallest s such that every stored entry lies within s hops."""
    for s, reach in zip(range(g.n), hop_levels(g)):
        if csr.multiply(reach).nnz == csr.nnz:
            return s
    raise ValueError("filter entry connects vertices in different components")
