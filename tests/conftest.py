"""Shared builders for randomized test instances.

Dense oracles in the tests never go through the sparse code paths they
check: dense matrices come straight from entry dictionaries, eigenvalues
and solves from numpy.linalg.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sparse

from sdnfilt.filters import GraphFilter, Signal, csr_product
from sdnfilt.graphs import Graph, hop_matrix
from sdnfilt.preconditioners import (
    build_pgda_preconditioner,
    build_spgda_preconditioner,
)
from sdnfilt.solvers import prepare_params

from filter_reference import entries, filter_of


def random_connected_graph(rng: np.random.Generator, n: int) -> Graph:
    """Random tree plus a few extra edges; always connected."""
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    extra = int(rng.integers(0, max(1, n // 2)))
    for _ in range(extra):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def hop_row(g: Graph, i: int, s: int) -> list[int]:
    """Vertices within s hops of i, ascending: row i of the hop matrix."""
    m = hop_matrix(g, s)
    return m.indices[m.indptr[i]:m.indptr[i + 1]].tolist()


def random_filter(
    rng: np.random.Generator,
    g: Graph,
    width: int,
    symmetric: bool = False,
    keep_prob: float = 0.7,
) -> GraphFilter:
    """Random entries uniform on [-1, 1] over a random subset of vertex
    pairs within `width` hops. Diagonal entries always kept so rows are
    never empty."""
    entries = {}
    for i in range(g.n):
        for j in hop_row(g, i, width):
            if symmetric and j < i:
                continue
            if i != j and rng.random() > keep_prob:
                continue
            v = float(rng.uniform(-1.0, 1.0))
            entries[(i, j)] = v
            if symmetric:
                entries[(j, i)] = v
    return filter_of(g, entries)


def dense_of(h: GraphFilter) -> np.ndarray:
    """Dense oracle reconstruction, independent of the CSR algebra paths."""
    n = h.graph.n
    out = np.zeros((n, n))
    for i, j, v in entries(h):
        out[i, j] = v
    return out


def make_invertible(rng: np.random.Generator, g: Graph, width: int,
                    margin: float = 0.5, symmetric: bool = False) -> GraphFilter:
    """Random filter made strictly diagonally dominant by an identity shift."""
    h = random_filter(rng, g, width, symmetric=symmetric)
    shift = float(np.abs(dense_of(h)).sum(axis=1).max()) + margin
    return GraphFilter(g, h.csr + sparse.identity(g.n, format="csr") * shift)


def make_spd(rng: np.random.Generator, g: Graph, width: int,
             margin: float = 0.3) -> GraphFilter:
    """Random symmetric filter shifted to be positive definite."""
    h = random_filter(rng, g, width, symmetric=True)
    lam_min = float(np.linalg.eigvalsh(dense_of(h)).min())
    return GraphFilter(g, h.csr + sparse.identity(g.n, format="csr") * (abs(lam_min) + margin))


def make_well_conditioned_spd(rng: np.random.Generator, g: Graph,
                              width: int = 1, spread: float = 0.25) -> GraphFilter:
    """I plus a small symmetric perturbation: positive definite with
    condition number at most (1+spread)/(1-spread), and a row structure
    tight enough that every iteration method contracts quickly."""
    h = random_filter(rng, g, width, symmetric=True)
    s = float(np.abs(dense_of(h)).sum(axis=1).max())
    return GraphFilter(g, sparse.identity(g.n, format="csr") + h.csr * (spread / s))


def method_step(h: GraphFilter, method: str, ys: np.ndarray, params=None):
    """The step (x, e) -> x - G e of the method table's entry for the
    observations ys, e being the residual H x - y, as `Method` defines it:
    x - scale (g e), or (x + shift) - scale (g x) for a method with a
    shift."""
    entry = prepare_params(h, method, params)[method]
    g = csr_product(entry.g)
    if entry.shift is None:
        return lambda x, e: x - entry.scale * g(e)
    shift = entry.shift(ys)
    return lambda x, e: (x + shift) - entry.scale * g(x)


def weighted_errors(h: GraphFilter, y: Signal, method: str, reference: Signal,
                    iterations: int) -> list[float]:
    """||W (x_m - x*)|| for m = 0..iterations, the norm Theorems 2 and 3
    contract: W = P for pgda and P_sym^{1/2} for spgda. The iterates step
    the method table's step from x_0 = 0 on the residual H x - y, as
    `solve` does, but never stop early."""
    if method == "pgda":
        weight = build_pgda_preconditioner(h)
    else:
        weight = np.sqrt(build_spgda_preconditioner(h))
    ys = y.values[:, None]
    step = method_step(h, method, ys)
    x = np.zeros_like(ys)
    out = []
    for m in range(iterations + 1):
        if m:
            x = step(x, h.matvec(x) - ys)
        out.append(float(np.linalg.norm(weight * (x[:, 0] - reference.values))))
    return out


def write_two_vertex_custom(tmp_path):
    """Symmetric indefinite filter [[1,2],[2,1]]: I - H/3 has eigenvalue
    4/3, so spgda diverges."""
    e, f, s = (str(tmp_path / n) for n in ("e.csv", "f.csv", "s.csv"))
    (tmp_path / "e.csv").write_text("i,j\n0,1\n")
    (tmp_path / "f.csv").write_text(
        "# n=2 width=1\ni,j,value\n0,0,1.0\n0,1,2.0\n1,0,2.0\n1,1,1.0\n")
    (tmp_path / "s.csv").write_text("id,value\n0,1.0\n1,0.5\n")
    return dict(scenario="custom", edges_csv=e, filter_csv=f, signal_csv=s,
                trials=1, methods=("spgda",))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
