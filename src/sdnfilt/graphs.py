"""Undirected graph container, geodesic neighborhoods and graph generators.

Graphs are immutable after construction: vertex ids are 0..n-1, neighbor
lists are sorted ascending, and connectivity is verified up front so that
every geodesic distance is finite.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, islice

import numpy as np
import scipy.sparse as sparse

__all__ = [
    "Graph",
    "GenerationError",
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
    """Connected, undirected, unweighted graph.

    Attributes
    ----------
    n : int
        Vertex count; vertices are 0..n-1.
    adjacency : tuple of tuples
        adjacency[i] lists the neighbors of i, sorted ascending.
    coordinates : ndarray of shape (n, 2), optional
        Planar positions in [0, 1]^2 when the graph was built from points.
    generator_seed : (int, int), optional
        (entropy, attempt) pair accepted by a retrying random generator.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    coordinates: np.ndarray | None = None
    generator_seed: tuple[int, int] | None = None
    # products of the graph alone, built once and shared: hop matrices by
    # radius, and the squared normalized Laplacian of the fig1 filter
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges,
        coordinates: np.ndarray | None = None,
        generator_seed: tuple[int, int] | None = None,
    ) -> "Graph":
        """Build and validate a graph from an iterable of undirected edges."""
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        for i, j in edges:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            neighbor_sets[i].add(j)
            neighbor_sets[j].add(i)
        adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
        if coordinates is not None:
            coordinates = np.asarray(coordinates, dtype=np.float64)
            if coordinates.shape != (n, 2):
                raise ValueError(
                    f"coordinates must have shape ({n}, 2), got {coordinates.shape}"
                )
            coordinates = coordinates.copy()
            coordinates.setflags(write=False)
        g = cls(n=n, adjacency=adjacency, coordinates=coordinates,
                generator_seed=generator_seed)
        if not g.is_connected():
            raise GenerationError("graph is not connected")
        return g

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.adjacency], dtype=np.int64)

    def edges(self):
        """Yield undirected edges as (i, j) with i < j, sorted."""
        for i, nbrs in enumerate(self.adjacency):
            for j in nbrs:
                if i < j:
                    yield (i, j)

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def is_connected(self) -> bool:
        heads = np.repeat(np.arange(self.n), self.degrees())
        tails = np.fromiter(chain.from_iterable(self.adjacency), dtype=np.int64)
        return self.n > 0 and _is_connected(self.n, heads, tails)


def hop_levels(g: Graph):
    """Yield, for s = 0, 1, 2, ..., the sorted CSR pattern of (I+A)^s: every
    pair within s hops. Each level costs one sparse product."""
    n = g.n
    step = sparse.csr_matrix(
        (np.ones(2 * g.num_edges(), dtype=np.int64),
         np.fromiter(chain.from_iterable(g.adjacency), dtype=np.int64),
         np.concatenate(([0], np.cumsum(g.degrees())))),
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


def _close_pairs(pts: np.ndarray, radius: float):
    """Arrays (i, j) of every unordered pair of points in [0,1)^2 with
    dist2 <= radius * radius, each pair once, in O(n + candidates) memory.

    Points are binned into m x m square cells of side at least
    radius * (1 + 1e-12) + 1e-15, so that no rounding puts a kept pair two
    cells apart, and sorted by cell key cx * (m + 1) + cy; m is capped so
    that keys fit in int64. A point's candidates are two runs of that
    order: the later points of its own column up to cell cy+1, and cells
    cy-1..cy+1 of the next column. The unused key cy = m ends each column.
    """
    m = int(min(max(1.0 / (radius * (1 + 1e-12) + 1e-15), 1.0), 2.0 ** 31))
    cx, cy = np.minimum((pts * m).astype(np.int64), m - 1).T
    key = cx * (m + 1) + cy
    order = np.argsort(key, kind="stable")
    key = key[order]
    lo = np.concatenate((np.arange(1, len(key) + 1), np.searchsorted(key, key + m)))
    hi = np.searchsorted(key, np.concatenate((key + 1, key + m + 2)), side="right")
    counts = hi - lo
    i = np.repeat(np.concatenate((order, order)), counts)
    j = order[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(len(i))]
    d = pts.take(i, axis=0) - pts.take(j, axis=0)   # pts[i] - pts[j], faster
    keep = np.einsum("ij,ij->i", d, d) <= radius * radius
    return i[keep], j[keep]


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
    with an isolated vertex or two components is rejected from its pair
    arrays, before any Graph is built.
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
        if np.bincount(np.concatenate((i, j)), minlength=n).min() > 0 \
                and _is_connected(n, i, j):
            return Graph.from_edges(
                n, zip(i, j), coordinates=pts, generator_seed=(int(rng_seed), attempt)
            )
    raise GenerationError(
        f"no connected random geometric graph with n={n}, radius={radius} "
        f"after {RGG_MAX_ATTEMPTS} attempts (seed {rng_seed})"
    )


def knn_graph(points, k: int) -> Graph:
    """Symmetrized k-nearest-neighbor graph of planar points.

    The directed k-NN relation is symmetrized by union: an undirected edge
    exists when either endpoint lists the other among its k nearest by
    Euclidean distance. Distance ties are broken by lower vertex id.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (m, 2), got {pts.shape}")
    m = pts.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= m:
        raise ValueError(f"k-NN graph needs at least k+1={k + 1} points, got {m}")
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(dist2, np.inf)
    ids = np.arange(m)
    edges = set()
    for i in range(m):
        # lexsort: primary key distance, secondary key vertex id
        order = np.lexsort((ids, dist2[i]))
        for j in order[:k]:
            edges.add((min(i, int(j)), max(i, int(j))))
    try:
        return Graph.from_edges(m, sorted(edges), coordinates=pts)
    except GenerationError:
        raise GenerationError(
            f"k-NN graph with k={k} is not connected; increase k"
        ) from None
