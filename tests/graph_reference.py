"""Reference graph code for the tests.

geodesic_distance is a per-pair breadth-first search, independent of the
sparse hop levels of sdnfilt.graphs.

dense_random_geometric_graph is the dense O(n^2) form of
sdnfilt.graphs.random_geometric_graph.

Every attempt builds the full n x n x 2 difference tensor, keeps each pair
i < j whose squared distance is <= radius * radius, and checks connectivity
with a breadth-first search before it builds a Graph. The grid generator
must agree with it on adjacency, coordinates and generator_seed.

sweep_pairs finds the same pairs as dense_pairs in O(n * window) for large
point sets.

dense_knn_graph is the dense O(n^2) form of sdnfilt.graphs.knn_graph: the
full n x n distance matrix, and one lexsort per point by distance, then
vertex id.
"""

from __future__ import annotations

import numpy as np

from sdnfilt.graphs import RGG_MAX_ATTEMPTS, GenerationError, Graph


def geodesic_distance(g: Graph, i: int, j: int) -> int:
    """Number of edges in a shortest path between i and j (0 iff i == j)."""
    for v in (i, j):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex id {v} out of range for n={g.n}")
    if i == j:
        return 0
    seen = bytearray(g.n)
    seen[i] = 1
    frontier = [i]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for w in g.adjacency[u]:
                if not seen[w]:
                    if w == j:
                        return depth
                    seen[w] = 1
                    nxt.append(w)
        frontier = nxt
    raise GenerationError(f"vertices {i} and {j} are not connected")


def dense_pairs(pts: np.ndarray, radius: float) -> list[tuple[int, int]]:
    """Every pair (i, j), i < j, with dist2 <= radius * radius, sorted."""
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    ii, jj = np.nonzero(dist2 <= radius * radius)
    return [(int(a), int(b)) for a, b in zip(ii, jj) if a < b]


def sweep_pairs(pts: np.ndarray, radius: float) -> list[tuple[int, int]]:
    """dense_pairs by a sweep in x, for many points and a small radius: each
    point is checked against the later points within 2 * radius in x."""
    order = np.argsort(pts[:, 0], kind="stable")
    xs = pts[order, 0]
    counts = np.searchsorted(xs, xs + 2 * radius, side="right") - np.arange(1, len(xs) + 1)
    a = np.repeat(np.arange(len(xs)), counts)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(counts) - counts, counts)
    i, j = order[a], order[b]
    d = pts[i] - pts[j]
    keep = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= radius * radius
    return sorted(zip(np.minimum(i, j)[keep].tolist(), np.maximum(i, j)[keep].tolist()))


def bfs_connected(n: int, edges) -> bool:
    """Whether vertex 0 reaches all n vertices over the undirected edges."""
    nbrs = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in nbrs[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == n


def dense_random_geometric_graph(n: int, radius: float, rng_seed: int) -> Graph:
    for attempt in range(RGG_MAX_ATTEMPTS):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=rng_seed, spawn_key=(attempt,))
        )
        pts = rng.random((n, 2))
        edges = dense_pairs(pts, radius)
        if bfs_connected(n, edges):
            return Graph.from_edges(n, edges, coordinates=pts,
                                    generator_seed=(int(rng_seed), attempt))
    raise GenerationError(
        f"no connected random geometric graph with n={n}, radius={radius} "
        f"after {RGG_MAX_ATTEMPTS} attempts (seed {rng_seed})"
    )


def dense_knn_graph(points, k: int) -> Graph:
    pts = np.asarray(points, dtype=np.float64)
    m = pts.shape[0]
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
    return Graph.from_edges(m, sorted(edges), coordinates=pts)
