"""Reference filter code for the tests.

entries reads a filter's (i, j, value) triplets off its CSR arrays.
entries_width_by_levels is the level-by-level width search: it walks the
hop levels (I+A)^0, (I+A)^1, ... until one holds every stored entry.
sdnfilt.filters reads the width off the cached hop matrix instead, and
must agree with it.

Then the dominance instrument: the Schur norm, a symmetry test, the
smallest eigenvalue of a symmetric operator by ARPACK, and check_dominance,
which checks the relations the preconditioners rest on.

Last, builders and writers only the tests need: a filter from a dense
matrix or from its entries, the identity, the combinatorial Laplacian
D - A, the fig1 filter built by sorted-key search (the construction
sdnfilt.filters must reproduce byte for byte), and the filter and signal
CSV writers that sdnfilt.io reads back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                  aslinearoperator, eigsh)

from sdnfilt.filters import GraphFilter, Signal, SpectralEstimate, _start_vector
from sdnfilt.graphs import Graph, hop_levels, hop_matrix
from sdnfilt.preconditioners import SYMMETRY_TOL, build_spgda_preconditioner

DOMINANCE_PASS_TOL = -1e-10


def entries(h: GraphFilter):
    """(i, j, value) of every stored entry, in the order of h.csr: row-major
    with ascending column ids."""
    csr = h.csr
    rows = np.repeat(np.arange(h.graph.n), np.diff(csr.indptr))
    return zip(rows.tolist(), csr.indices.tolist(), csr.data.tolist())


def entries_width_by_levels(g: Graph, csr: sparse.csr_matrix) -> int:
    """Smallest s such that every stored entry lies within s hops."""
    for s, reach in zip(range(g.n), hop_levels(g)):
        if csr.multiply(reach).nnz == csr.nnz:
            return s
    raise ValueError("filter entry connects vertices in different components")


def schur_norm(h: GraphFilter) -> float:
    """max(max absolute row sum, max absolute column sum)."""
    return float(max(h.row_abs_sums().max(), h.col_abs_sums().max()))


def is_symmetric(h: GraphFilter, tol: float = 1e-12) -> bool:
    d = h.csr - h.csr.T
    return d.nnz == 0 or float(np.abs(d.data).max()) <= tol


def smallest_eigenvalue(m, tol: float = 1e-10, max_iter: int = 5000,
                        rng_seed: int = 0) -> SpectralEstimate:
    """Smallest (algebraic) eigenvalue of a symmetric operator by ARPACK,
    from a seeded start vector; `iterations` counts operator applications.
    An unconverged run reports the smallest Rayleigh quotient it saw."""
    op = aslinearoperator(m)
    n = op.shape[0]
    quotients = []

    def counted(v):
        w = op.matvec(v)
        quotients.append(float(v @ w / (v @ v)))
        return w

    try:
        (value,) = eigsh(LinearOperator((n, n), matvec=counted, dtype=np.float64),
                         k=1, which="SA", v0=_start_vector(n, rng_seed, 0),
                         tol=tol, maxiter=max_iter, rng=rng_seed,
                         return_eigenvectors=False)
        converged = True
    except ArpackNoConvergence:
        value, converged = min(quotients), False
    return SpectralEstimate(float(value), len(quotients), converged)


@dataclass(frozen=True)
class DominanceCheck:
    mode: str
    value: float
    passed: bool
    converged: bool


def check_dominance(h: GraphFilter, p: np.ndarray, mode: str,
                    tol: float = 1e-12, max_iter: int = 20000,
                    rng_seed: int = 0) -> DominanceCheck:
    """Verify one of the dominance relations behind the preconditioners,
    for the diagonal p of a preconditioner built from h.

    mode "pgda":       smallest eigenvalue of P^2 - H^T H
    mode "spgda":      smallest eigenvalue of P - H (symmetric H)
    mode "diag_chain": min over i of P(i,i) - P_sym(i,i)
    mode "schur":      schur_norm(H) - max over i of P(i,i)

    Eigenvalue modes take the smallest eigenvalue by ARPACK; diagonal
    modes are exact comparisons. A check passes when the value is at
    least -1e-10.
    """
    if p.shape != (h.graph.n,):
        raise ValueError("preconditioner and filter must share a graph")
    if mode == "diag_chain":
        value = float((p - build_spgda_preconditioner(h)).min())
        return DominanceCheck(mode, value, value >= DOMINANCE_PASS_TOL, True)
    if mode == "schur":
        value = schur_norm(h) - float(p.max())
        return DominanceCheck(mode, value, value >= DOMINANCE_PASS_TOL, True)
    if mode == "pgda":
        difference = sparse.diags(p * p) - h.transpose().csr @ h.csr
    elif mode == "spgda":
        if not is_symmetric(h, SYMMETRY_TOL):
            raise ValueError("spgda dominance requires a symmetric filter")
        difference = sparse.diags(p) - h.csr
    else:
        raise ValueError(f"unknown dominance mode {mode!r}")
    est = smallest_eigenvalue(difference, tol=tol, max_iter=max_iter,
                              rng_seed=rng_seed)
    return DominanceCheck(mode, est.value, est.value >= DOMINANCE_PASS_TOL,
                          est.converged)


def from_dense(g: Graph, dense) -> GraphFilter:
    """The filter whose matrix is the dense array `dense`."""
    return GraphFilter(g, sparse.csr_matrix(np.asarray(dense, dtype=np.float64)))


def filter_of(g: Graph, entries) -> GraphFilter:
    """The filter with the given entries, a {(i, j): value} dict or an
    iterable of (i, j, value) triplets."""
    triplets = ([(i, j, v) for (i, j), v in entries.items()]
                if isinstance(entries, dict) else list(entries))
    rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
    return GraphFilter(g, sparse.coo_matrix((vals, (rows, cols)), shape=(g.n, g.n)))


def identity(g: Graph) -> GraphFilter:
    """The identity filter, width 0."""
    return GraphFilter(g, sparse.identity(g.n, format="csr"))


def combinatorial_laplacian(g: Graph) -> GraphFilter:
    """L = D - A, width 1 on any graph with an edge."""
    entries = {(i, i): float(len(nbrs)) for i, nbrs in enumerate(g.adjacency)}
    entries.update({(i, j): -1.0 for i, nbrs in enumerate(g.adjacency) for j in nbrs})
    return filter_of(g, entries)


def fig1_filter_by_search(g: Graph, gamma: float, rng_seed: int) -> GraphFilter:
    """The fig1 filter with its kernel built as a filter of its own: the
    noise symmetrized through a mirror index found by searching the sorted
    pair keys, the kernel's width scanned from its entries, then the
    squared normalized Laplacian added as a second filter."""
    from sdnfilt.filters import _squared_normalized_laplacian

    pts, n = g.coordinates, g.n
    two_hop = hop_matrix(g, 2)
    pi = np.repeat(np.arange(n), np.diff(two_hop.indptr))
    pj = two_hop.indices.astype(np.int64)
    d2 = np.sum((pts[pi] - pts[pj]) ** 2, axis=1)
    s2 = np.sum((pts[pi] + pts[pj]) ** 2, axis=1)
    vals = np.exp(-2.0 * n * d2 - s2 / 2.0)
    if gamma > 0:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed))
        noise = rng.uniform(-gamma, gamma, size=len(pi))
        mirror = np.searchsorted(pi * n + pj, pj * n + pi)
        vals = vals + (noise + noise[mirror]) / 2.0
    kernel = GraphFilter(g, sparse.coo_matrix((vals, (pi, pj)), shape=(n, n)))
    return GraphFilter(g, kernel.csr + _squared_normalized_laplacian(g).csr)


def write_filter_csv(path: str, h: GraphFilter) -> None:
    """The '# n=... width=...' header, then one i,j,value row per entry."""
    rows = [f"# n={h.graph.n} width={h.width}", "i,j,value"]
    rows.extend(f"{i},{j},{v!r}" for i, j, v in entries(h))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def write_signal_csv(path: str, x: Signal) -> None:
    """One id,value row per vertex."""
    rows = ["id,value"]
    rows.extend(f"{i},{v!r}" for i, v in enumerate(x.values.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
