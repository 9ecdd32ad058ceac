"""Undirected graph container, geodesic neighborhoods and graph generators.

Graphs are immutable after construction: vertex ids are 0..n-1, neighbor
lists are sorted ascending, and connectivity is verified up front so that
every geodesic distance is finite.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice

import numpy as np
import scipy.sparse as sparse

__all__ = [
    "Graph",
    "GenerationError",
    "ball_positions",
    "hop_levels",
    "hop_matrix",
    "random_geometric_graph",
    "knn_graph",
]

RGG_MAX_ATTEMPTS = 64


class GenerationError(RuntimeError):
    """A randomized generator exhausted its retry budget, or a deterministic
    generator produced a disconnected graph."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Connected, undirected, unweighted graph in CSR form.

    Attributes
    ----------
    n : int
        Vertex count; vertices are 0..n-1.
    indptr, indices : ndarray of int64, read-only
        The neighbors of i are indices[indptr[i]:indptr[i+1]], ascending;
        each undirected edge is stored in both of its rows.
    coordinates : ndarray of shape (n, 2), optional
        Planar positions when the graph was built from points.
    generator_seed : (int, int), optional
        (entropy, attempt) pair accepted by a retrying random generator.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    coordinates: np.ndarray | None = None
    generator_seed: tuple[int, int] | None = None
    # products of the graph alone, built once and shared: hop matrices by
    # radius and their sorted pair keys, the adjacency view, and the
    # squared normalized Laplacian of the fig1 filter
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges,
        coordinates: np.ndarray | None = None,
        generator_seed: tuple[int, int] | None = None,
    ) -> "Graph":
        """Build and validate a graph from undirected edges: an iterable of
        pairs or an (m, 2) integer array. An edge given more than once, in
        either orientation, is kept once."""
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edges = np.asarray(edges, dtype=np.int64)
        if edges.shape[1:] != (2,) and edges.size:
            raise ValueError(f"edges must be (i, j) pairs, got shape {edges.shape}")
        i, j = edges.reshape(-1, 2).T
        bad = np.flatnonzero((np.minimum(i, j) < 0) | (np.maximum(i, j) >= n) | (i == j))
        if len(bad):
            a, b = int(i[bad[0]]), int(j[bad[0]])
            if a == b and 0 <= a < n:
                raise ValueError(f"self-loop at vertex {a}")
            raise ValueError(f"edge ({a},{b}) out of range for n={n}")
        if coordinates is not None:
            coordinates = np.asarray(coordinates, dtype=np.float64)
            if coordinates.shape != (n, 2):
                raise ValueError(
                    f"coordinates must have shape ({n}, 2), got {coordinates.shape}"
                )
            coordinates = coordinates.copy()
            coordinates.setflags(write=False)
        if not _is_connected(n, i, j):
            raise GenerationError("graph is not connected")
        # both orientations of every edge; scipy's conversion to CSR sorts
        # each row and merges repeats, with the sparse code every filter
        # build runs anyway (np.unique took 181 ms at 808k edges, and
        # np.sort loads 256 KB more of numpy's code)
        adj = sparse.csr_matrix(
            (np.ones(2 * len(i)), (np.concatenate((i, j)), np.concatenate((j, i)))),
            shape=(n, n))
        adj.sum_duplicates()
        indptr, indices = adj.indptr.astype(np.int64), adj.indices.astype(np.int64)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return cls(n=n, indptr=indptr, indices=indices, coordinates=coordinates,
                   generator_seed=generator_seed)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """adjacency[i] lists the neighbors of i, ascending: a view of
        indptr/indices as tuples, built on first use."""
        view = self._cache.get("adjacency")
        if view is None:
            nbrs, ptr = self.indices.tolist(), self.indptr.tolist()
            view = self._cache["adjacency"] = tuple(
                tuple(nbrs[a:b]) for a, b in zip(ptr, ptr[1:]))
        return view

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edges(self):
        """Iterate over the undirected edges as (i, j) with i < j, sorted."""
        rows = np.repeat(np.arange(self.n), self.degrees())
        upper = rows < self.indices
        return zip(rows[upper].tolist(), self.indices[upper].tolist())

    def num_edges(self) -> int:
        return len(self.indices) // 2


def hop_levels(g: Graph):
    """Yield, for s = 0, 1, 2, ..., the sorted CSR pattern of (I+A)^s: every
    pair within s hops. Each level costs one sparse product."""
    n = g.n
    step = sparse.csr_matrix(
        (np.ones(len(g.indices), dtype=np.int64), g.indices, g.indptr),
        shape=(n, n)) + sparse.identity(n, dtype=np.int64, format="csr")
    reach = sparse.identity(n, dtype=np.int64, format="csr")
    while True:
        yield reach
        reach = reach @ step
        reach.data[:] = 1
        reach.sort_indices()


def hop_matrix(g: Graph, radius: int) -> sparse.csr_matrix:
    """Sorted CSR of every pair within `radius` hops, holding the pair's hop
    distance (the diagonal as explicit zeros). Summing the levels 0..radius
    counts each pair radius + 1 - hops times. Cached on the graph and
    shared, so callers must not modify it."""
    if radius < 0:
        raise ValueError(f"hop radius must be >= 0, got {radius}")
    radius = min(radius, g.n - 1)       # no pair is farther apart
    cached = g._cache.get(radius)
    if cached is None:
        cached = reduce(operator.add, islice(hop_levels(g), radius + 1))
        cached.sort_indices()
        cached.data = radius + 1 - cached.data
        g._cache[radius] = cached
    return cached


def ball_positions(g: Graph, m: sparse.csr_matrix, radius: int):
    """The positions of the n x n CSR matrix m's stored entries among the
    pairs of hop_matrix(g, radius), in m's order, and a mask of the entries
    beyond the radius, whose positions mean nothing. A matrix on the ball's
    own pattern takes 0..nnz-1 without a search; any other is searched in
    the ball's sorted pair keys, built once per radius and cached."""
    ball = hop_matrix(g, radius)
    if np.array_equal(m.indptr, ball.indptr) and np.array_equal(m.indices, ball.indices):
        return np.arange(m.nnz), np.zeros(m.nnz, dtype=bool)
    if ("keys", radius) not in g._cache:
        g._cache["keys", radius] = _pair_keys(ball)
    keys, wanted = g._cache["keys", radius], _pair_keys(m)
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return pos, keys[pos] != wanted


def _pair_keys(m: sparse.csr_matrix) -> np.ndarray:
    """i * n + j of every stored entry (i, j) of an n x n CSR matrix."""
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)) * m.shape[0] + m.indices


def _close_pairs(pts: np.ndarray, radius: float, box=(0.0, 1.0)):
    """Arrays (i, j) of every unordered pair of points with
    dist2 <= radius * radius, each pair once, in O(n + candidates) time and
    memory. Every point lies in the square [lo, lo + extent]^2 of
    box = (lo, extent), by default the unit square.

    Points are binned into m x m square cells of width extent / m, at least
    radius * (1 + 1e-12) + 1e-15 * extent so that no rounding puts a kept
    pair two cells apart. m is at most sqrt(n): the grid keeps O(n) cells,
    and fewer, wider cells only add candidates. A counting table of the
    cell keys cx * (m + 1) + cy gives each cell's start in the points'
    order by key; the unused key cy = m ends each column. A point's
    candidates are two runs of that order: the later points of its own
    column up to cell cy+1, and cells cy-1..cy+1 of the next column.
    """
    n = len(pts)
    lo, extent = box
    side = radius * (1 + 1e-12) + 1e-15 * extent
    m = int(min(extent / side, np.sqrt(n))) if extent > side else 1
    cx, cy = np.minimum(((pts - lo) * (m / extent)).astype(np.int64), m - 1).T
    key = cx * (m + 1) + cy
    cells = (m + 1) ** 2
    # keys that fit in int16 sort by radix, in O(n)
    order = np.argsort(key.astype(np.int16) if cells <= 2**15 else key, kind="stable")
    start = np.zeros(cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=cells), out=start[1:])
    key = key.take(order)
    first = np.concatenate((np.arange(1, n + 1), start.take(key + m)))
    counts = np.concatenate((start.take(key + 2), start.take(key + (m + 3)))) - first
    # candidate pairs (a, b) as positions in that order
    a = np.repeat(np.tile(np.arange(n), 2), counts)
    b = np.arange(len(a))
    b += np.repeat(first - np.cumsum(counts) + counts, counts)
    pts = pts.take(order, axis=0)
    d = pts.take(a, axis=0)
    d -= pts.take(b, axis=0)
    d *= d
    keep = np.flatnonzero(d[:, 0] + d[:, 1] <= radius * radius)
    return order.take(a.take(keep)), order.take(b.take(keep))


def _is_connected(n: int, i: np.ndarray, j: np.ndarray) -> bool:
    """Whether the n vertices and undirected edges (i[k], j[k]) form one
    component: min-label propagation with pointer jumping. Every label
    points at a smaller or equal vertex, so jumping ends at roots."""
    label = np.arange(n)
    while True:
        li, lj = label[i], label[j]
        if np.array_equal(li, lj):
            return bool((label == 0).all())
        np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def random_geometric_graph(n: int, radius: float, rng_seed: int) -> Graph:
    """Random geometric graph on [0,1]^2 with the closed edge rule
    dist(i, j) <= radius.

    Points are drawn i.i.d. uniform; disconnected draws are retried with
    sub-seeds derived from (rng_seed, attempt) up to RGG_MAX_ATTEMPTS, and
    the accepted (rng_seed, attempt) pair is recorded on the graph. A draw
    with an isolated vertex is rejected from its pair arrays, and one with
    two components by `Graph.from_edges`' connectivity check, which comes
    before the CSR arrays are built.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    for attempt in range(RGG_MAX_ATTEMPTS):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=rng_seed, spawn_key=(attempt,))
        )
        pts = rng.random((n, 2))
        i, j = _close_pairs(pts, radius)
        if np.bincount(np.concatenate((i, j)), minlength=n).min() > 0:
            try:
                return Graph.from_edges(n, np.column_stack((i, j)), coordinates=pts,
                                        generator_seed=(int(rng_seed), attempt))
            except GenerationError:
                pass
    raise GenerationError(
        f"no connected random geometric graph with n={n}, radius={radius} "
        f"after {RGG_MAX_ATTEMPTS} attempts (seed {rng_seed})"
    )


def knn_graph(points, k: int) -> Graph:
    """Symmetrized k-nearest-neighbor graph of planar points.

    The directed k-NN relation is symmetrized by union: an undirected edge
    exists when either endpoint lists the other among its k nearest by
    Euclidean distance. Distance ties are broken by lower vertex id.

    Candidates come from `_close_pairs`, its radius doubled until every
    point has at least k of them: a point's k nearest then all lie within
    the radius. Once the radius reaches the points' extent, every pair is
    a candidate.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (m, 2), got {pts.shape}")
    m = pts.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= m:
        raise ValueError(f"k-NN graph needs at least k+1={k + 1} points, got {m}")
    lo = pts.min(axis=0)
    extent = float((pts.max(axis=0) - lo).max())
    radius = extent * np.sqrt(k / m)
    while radius < extent:
        i, j = _close_pairs(pts, radius, (lo, extent))
        if np.bincount(np.concatenate((i, j)), minlength=m).min() >= k:
            break
        radius = 2 * radius or extent
    else:
        i, j = np.triu_indices(m, 1)
    d = pts.take(i, axis=0) - pts.take(j, axis=0)
    d *= d
    dist2 = np.tile(d[:, 0] + d[:, 1], 2)
    src, dst = np.concatenate((i, j)), np.concatenate((j, i))
    # each point's candidates by distance, then vertex id; keep its first k
    order = np.lexsort((dst, dist2, src))
    src, dst = src.take(order), dst.take(order)
    counts = np.bincount(src, minlength=m)
    rank = np.arange(len(src)) - np.repeat(np.cumsum(counts) - counts, counts)
    try:
        return Graph.from_edges(m, np.column_stack((src, dst))[rank < k],
                                coordinates=pts)
    except GenerationError:
        raise GenerationError(
            f"k-NN graph with k={k} is not connected; increase k"
        ) from None
