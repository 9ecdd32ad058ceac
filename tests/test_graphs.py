import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdnfilt.graphs import (
    GenerationError,
    Graph,
    _close_pairs,
    _is_connected,
    hop_matrix,
    knn_graph,
    random_geometric_graph,
)

from conftest import hop_row, random_connected_graph
from graph_reference import (
    bfs_connected,
    dense_knn_graph,
    dense_pairs,
    dense_random_geometric_graph,
    geodesic_distance,
    sweep_pairs,
)


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def graph_connected(g: Graph) -> bool:
    """_is_connected on a graph's own CSR arrays."""
    return _is_connected(g.n, np.repeat(np.arange(g.n), g.degrees()), g.indices)


def floyd_warshall(g: Graph) -> np.ndarray:
    """Independent all-pairs shortest-path oracle."""
    n = g.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i in range(n):
        for j in g.adjacency[i]:
            d[i, j] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


class TestGraphConstruction:
    def test_adjacency_sorted_and_symmetric(self):
        g = Graph.from_edges(4, [(2, 1), (0, 3), (3, 1)])
        for i in range(4):
            assert list(g.adjacency[i]) == sorted(g.adjacency[i])
            for j in g.adjacency[i]:
                assert i in g.adjacency[j]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(0, 0), (0, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 5)])

    def test_disconnected_rejected(self):
        with pytest.raises(GenerationError, match="not connected"):
            Graph.from_edges(4, [(0, 1), (2, 3)])

    def test_duplicate_edges_coalesced(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges() == 1

    def test_repeats_in_either_orientation_kept_once(self):
        edges = [(3, 1), (0, 2), (1, 3), (2, 0), (1, 2), (3, 1), (2, 1), (0, 3)]
        for given in (edges, np.array(edges), iter(edges)):
            g = Graph.from_edges(4, given)
            assert g.indptr.tolist() == [0, 2, 4, 6, 8]
            assert g.indices.tolist() == [2, 3, 2, 3, 0, 1, 0, 1]
            assert g.adjacency == ((2, 3), (2, 3), (0, 1), (0, 1))
            assert list(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
            assert g.num_edges() == 4 and g.degrees().tolist() == [2, 2, 2, 2]

    def test_matches_neighbor_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            path = [(v, v + 1) for v in range(n - 1)]
            extra = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
            edges = path + [(int(i), int(j)) for i, j in extra if i != j]
            nbrs = [set() for _ in range(n)]
            for i, j in edges:
                nbrs[i].add(j)
                nbrs[j].add(i)
            g = Graph.from_edges(n, edges)
            assert g.adjacency == tuple(tuple(sorted(s)) for s in nbrs)

    def test_arrays_read_only(self):
        g = path3()
        for a in (g.indptr, g.indices):
            with pytest.raises(ValueError):
                a[0] = 1

    @pytest.mark.parametrize("edges,message", [
        ([(0, 1), (2, 2), (0, 7)], "self-loop at vertex 2"),
        ([(0, 1), (0, 7), (2, 2)], r"edge \(0,7\) out of range for n=3"),
        ([(1, 2), (-1, 0), (1, 1)], r"edge \(-1,0\) out of range for n=3"),
        ([(0, 1), (5, 5)], r"edge \(5,5\) out of range for n=3"),
        (np.array([[0, 1], [1, 1], [3, 0]]), "self-loop at vertex 1"),
    ])
    def test_first_bad_edge_named(self, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph.from_edges(3, edges)

    def test_edges_must_be_pairs(self):
        with pytest.raises(ValueError, match=r"edges must be \(i, j\) pairs"):
            Graph.from_edges(3, [(0, 1, 2), (1, 2, 0)])
        assert Graph.from_edges(1, []).num_edges() == 0


class TestGeodesicDistance:
    def test_path_endpoints(self):
        # oracle: the only simple paths on 1-2-3 give hop counts 1 and 2
        assert geodesic_distance(path3(), 0, 2) == 2

    def test_identity(self):
        assert geodesic_distance(path3(), 1, 1) == 0

    def test_adjacent(self):
        assert geodesic_distance(path3(), 0, 1) == 1

    def test_invalid_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            geodesic_distance(path3(), 0, 7)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 50))
    def test_matches_floyd_warshall_and_symmetry(self, seed, n):
        g = random_connected_graph(np.random.default_rng(seed), n)
        d = floyd_warshall(g)
        rng = np.random.default_rng(seed + 1)
        for _ in range(10):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            assert geodesic_distance(g, i, j) == int(d[i, j])
            assert geodesic_distance(g, i, j) == geodesic_distance(g, j, i)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, int(rng.integers(3, 30)))
        for _ in range(10):
            i, j, k = (int(rng.integers(g.n)) for _ in range(3))
            assert geodesic_distance(g, i, j) <= (
                geodesic_distance(g, i, k) + geodesic_distance(g, k, j)
            )


class TestBall:
    """Rows of hop_matrix as the s-hop neighborhoods of their vertices."""

    def test_path_examples(self):
        g = path3()
        assert hop_row(g, 0, 1) == [0, 1]
        assert hop_row(g, 1, 1) == [0, 1, 2]

    def test_zero_radius(self):
        g = path3()
        for i in range(3):
            assert hop_row(g, i, 0) == [i]

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="hop radius"):
            hop_matrix(path3(), -1)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 50), s=st.integers(0, 5))
    def test_matches_bruteforce_and_monotone(self, seed, n, s):
        g = random_connected_graph(np.random.default_rng(seed), n)
        d = floyd_warshall(g)
        i = seed % n
        expected = [j for j in range(n) if d[i, j] <= s]
        members = hop_row(g, i, s)
        assert members == expected
        assert i in members
        assert set(members) <= set(hop_row(g, i, s + 1))
        m = hop_matrix(g, s)
        assert m.data[m.indptr[i]:m.indptr[i + 1]].tolist() == d[i, members].tolist()


class TestRandomGeometricGraph:
    def test_deterministic(self):
        a = random_geometric_graph(40, 0.35, rng_seed=7)
        b = random_geometric_graph(40, 0.35, rng_seed=7)
        assert a.adjacency == b.adjacency
        assert np.array_equal(a.coordinates, b.coordinates)
        assert a.generator_seed == b.generator_seed

    def test_two_vertices_large_radius(self):
        g = random_geometric_graph(2, 2.0, rng_seed=0)
        assert g.adjacency == ((1,), (0,))

    def test_mean_degree_at_paper_density(self):
        # Monte-Carlo expectation for interior vertices: n*pi*r^2 ~ 6.3.
        # Connectivity is rare at this density, so go through the harness
        # helper that stacks retry rounds on the generator's budget.
        from sdnfilt.scenarios import generate_run_graph

        g = generate_run_graph(512, float(np.sqrt(2.0 / 512)), master_seed=777016)
        mean_degree = 2 * g.num_edges() / g.n
        assert abs(mean_degree - 512 * np.pi * (2.0 / 512)) < 2.0

    def test_coordinates_in_unit_square(self):
        g = random_geometric_graph(30, 0.5, rng_seed=3)
        assert g.coordinates.min() >= 0.0 and g.coordinates.max() <= 1.0

    def test_retry_budget_exceeded(self):
        with pytest.raises(GenerationError, match="64 attempts"):
            random_geometric_graph(50, 1e-6, rng_seed=0)

    def test_tiny_radius_exhausts_attempts(self):
        # 1e12 cells per axis would overflow int64 cell keys without a cap
        with pytest.raises(GenerationError, match="64 attempts"):
            random_geometric_graph(50, 1e-12, rng_seed=0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_geometric_graph(1, 0.5, rng_seed=0)
        with pytest.raises(ValueError):
            random_geometric_graph(5, 0.0, rng_seed=0)
        with pytest.raises(ValueError, match="radius must be > 0, got nan"):
            random_geometric_graph(5, float("nan"), rng_seed=0)

    def test_infinite_radius_gives_complete_graph(self):
        g = random_geometric_graph(7, float("inf"), rng_seed=2)
        assert g.num_edges() == 21
        assert g.generator_seed == (2, 0)

    def test_fig1_graph_pinned(self):
        from sdnfilt.scenarios import generate_run_graph

        g = generate_run_graph(512, float(np.sqrt(2.0 / 512)), master_seed=777016)
        assert g.generator_seed == (1077016, 35)
        assert g.num_edges() == 1507

    @pytest.mark.parametrize("n,radius,seed", [
        (2, 0.5, 0), (2, 1.0, 1), (2, 3.0, 2), (2, float("inf"), 3),
        (3, 0.9, 4), (10, 0.45, 5), (25, 0.3, 6), (40, 0.35, 7),
        (60, 0.25, 8), (100, 0.2, 9), (100, 1.0, 10), (150, 0.16, 11),
        (200, 0.12, 12), (300, 0.1, 13), (64, float(np.sqrt(2.0 / 64)), 14),
        (30, float("inf"), 15), (50, 1e-12, 16), (80, 0.05, 17),
    ])
    def test_matches_dense_reference(self, n, radius, seed):
        try:
            expected = dense_random_geometric_graph(n, radius, seed)
        except GenerationError:
            with pytest.raises(GenerationError, match="64 attempts"):
                random_geometric_graph(n, radius, seed)
            return
        g = random_geometric_graph(n, radius, seed)
        assert g.adjacency == expected.adjacency
        assert np.array_equal(g.coordinates, expected.coordinates)
        assert g.generator_seed == expected.generator_seed

    @pytest.mark.parametrize("n,radius,seed", [
        (2, 1.0, 30), (12, 1.0, 31), (40, 1.5, 32), (25, float("inf"), 33),
        (9, 0.32, 20), (10, 0.3, 20), (20, 0.22, 25),
    ])
    def test_large_and_capped_radii_match_dense(self, n, radius, seed):
        # radius >= 1: one cell; 1 / radius > sqrt(n): the O(n) cell cap
        # binds and cells are wider than the radius needs
        assert radius >= 1 or 1 / radius > np.sqrt(n)
        expected = dense_random_geometric_graph(n, radius, seed)
        g = random_geometric_graph(n, radius, seed)
        assert g.adjacency == expected.adjacency
        assert np.array_equal(g.coordinates, expected.coordinates)
        assert g.generator_seed == expected.generator_seed

    @pytest.mark.parametrize("n,radius,seed", [(50, 1e-6, 0), (200, 0.05, 3)])
    def test_unconnectable_radius_raises_as_dense(self, n, radius, seed):
        with pytest.raises(GenerationError) as dense:
            dense_random_geometric_graph(n, radius, seed)
        with pytest.raises(GenerationError) as grid:
            random_geometric_graph(n, radius, seed)
        assert str(grid.value) == str(dense.value)


class TestClosePairs:
    @staticmethod
    def pairs(pts, radius):
        i, j = _close_pairs(np.asarray(pts, dtype=np.float64), radius)
        found = sorted((min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist()))
        assert len(set(found)) == len(found)        # each pair once
        return found

    @classmethod
    def pairs_among(cls, pts, radius):
        """The pairs among pts alone, found with (1 / radius)^2 uniform
        filler points added: enough that the sqrt(n) cap on the grid does
        not bind, and cells are as narrow as the radius allows."""
        fill = np.random.default_rng(0).random((int(np.ceil(1 / radius)) ** 2, 2))
        assert np.sqrt(len(pts) + len(fill)) >= 1 / radius
        found = cls.pairs(np.vstack((pts, fill)), radius)
        return [p for p in found if p[1] < len(pts)]

    def test_matches_dense_on_random_points(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(2, 300))
            radius = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
            pts = rng.random((n, 2))
            if rng.random() < 0.3:      # a lattice: many equal x and y values
                pts = rng.integers(0, 12, size=(n, 2)) / 12.0
            assert self.pairs(pts, radius) == dense_pairs(pts, radius)

    def test_pair_at_exactly_radius_kept(self):
        # dyadic coordinates: dist2 is exactly radius**2 in floating point;
        # filler points keep the cells about one radius wide
        pts = [(0.25, 0.5), (0.25, 0.75), (0.125, 0.125), (0.375, 0.125),
               (0.625, 0.625), (0.8125, 0.875)]
        assert self.pairs_among(pts, 0.25) == [(0, 1), (2, 3)]
        # a 3-4-5 triangle across diagonal cells
        assert self.pairs_among(pts, 0.3125) == [(0, 1), (2, 3), (4, 5)]
        beyond = np.nextafter(0.25, 0.0)
        assert self.pairs_among(pts, beyond) == dense_pairs(np.array(pts), beyond) == []

    def test_equal_coordinates(self):
        pts = [(0.5, 0.1), (0.5, 0.2), (0.5, 0.9), (0.1, 0.2), (0.3, 0.2),
               (0.3, 0.2), (0.0, 0.0), (0.0, 0.0)]
        for radius in (0.05, 0.1, 0.2, 0.45, 1.0, float("inf")):
            assert self.pairs(pts, radius) == dense_pairs(np.array(pts), radius)

    def test_tiny_radius_near_the_corner(self):
        top = np.nextafter(1.0, 0.0)
        pts = [(top, top), (top - 5e-13, top), (0.5, 0.5), (top, 0.0)]
        # the few cells of four points, and 127 cells a side with fillers
        assert self.pairs(pts, 1e-12) == [(0, 1)]
        assert self.pairs_among(pts, 2.0**-7) == [(0, 1)]

    def test_tiny_radius_keys_do_not_wrap(self):
        # A grid of width-radius cells would have m ~ 1e12 cells per axis
        # here, and the key cx * (m + 1) + cy would pass 2**63 - 1 between
        # the two cells of this close pair; m <= sqrt(n) keeps keys small.
        m = int(1.0 / (1e-12 * (1 + 1e-12) + 1e-15))
        cx, cy = divmod(2**63 - 1, m + 1)
        assert cy + 1 < m
        x = (cx + 0.5) / m
        pts = [(x, (cy + 0.9) / m), (x, (cy + 1.1) / m), (0.5, 0.5)]
        assert self.pairs(pts, 1e-12) == [(0, 1)]

    def test_any_box_matches_dense(self):
        # points anywhere in a given box, with the O(n) cell cap binding
        # for the smaller radii
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            lo, extent = rng.normal(0, 100, size=2), float(np.exp(rng.uniform(-3, 6)))
            pts = lo + extent * rng.random((n, 2))
            if rng.random() < 0.3:
                pts = lo + extent * rng.integers(0, 7, size=(n, 2)) / 6.0
            radius = extent * float(np.exp(rng.uniform(np.log(1e-3), np.log(2.0))))
            i, j = _close_pairs(pts, radius, (pts.min(axis=0), extent))
            found = sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
            assert found == dense_pairs(pts, radius)

    def test_grid_too_large_for_int16_keys(self):
        # a large grid: 182^2 cell keys pass 2**15, so the keys sort as int64
        n, radius = 33_500, 4e-4
        assert (min(int(1 / radius), int(np.sqrt(n))) + 1) ** 2 > 2**15
        pts = np.random.default_rng(6).random((n, 2))
        found = self.pairs(pts, radius)
        assert len(found) > 100
        assert found == sweep_pairs(pts, radius)

    def test_large_radius_gives_every_pair(self):
        pts = np.random.default_rng(3).random((9, 2))
        for radius in (1.5, float("inf")):
            assert len(self.pairs(pts, radius)) == 36


class TestIsConnected:
    def test_matches_bfs_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(0, 2 * n))
            i, j = rng.integers(0, n, size=(2, m))
            keep = i != j
            i, j = i[keep], j[keep]
            expected = bfs_connected(n, zip(i.tolist(), j.tolist()))
            assert _is_connected(n, i, j) == expected

    def test_isolated_vertex(self):
        i, j = np.array([0, 1, 2]), np.array([1, 2, 0])
        assert not _is_connected(4, i, j)
        assert _is_connected(3, i, j)

    def test_two_components(self):
        # a path 5-4-3 and a path 2-1-0 in descending labels
        i, j = np.array([5, 4, 2, 1]), np.array([4, 3, 1, 0])
        assert not _is_connected(6, i, j)
        assert _is_connected(6, np.append(i, 3), np.append(j, 2))

    def test_graph_method(self):
        assert graph_connected(path3())
        assert graph_connected(Graph.from_edges(1, []))


class TestKnnGraph:
    def test_three_collinear_points(self):
        # nearest-neighbor table by hand: 0->1, 1->0, 2->1
        g = knn_graph([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)], k=1)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_complete_when_k_is_n_minus_1(self):
        pts = np.random.default_rng(1).random((6, 2))
        g = knn_graph(pts, k=5)
        assert g.num_edges() == 15

    def test_square_corners(self):
        # sides shorter than diagonals: a 4-cycle, no chords
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        g = knn_graph(pts, k=2)
        assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="k"):
            knn_graph([(0.0, 0.0), (1.0, 1.0)], k=2)

    def test_duplicate_coordinates_allowed(self):
        g = knn_graph([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)], k=1)
        assert graph_connected(g)

    def test_union_symmetrization(self):
        # vertex 2 is far right; its nearest is 1, while 1's nearest is 0.
        # the union rule still links 1-2 because 2 lists 1.
        g = knn_graph([(0.0, 0.0), (0.4, 0.0), (1.0, 0.0)], k=1)
        assert (1, 2) in list(g.edges())

    @staticmethod
    def adjacency_or_error(build, pts, k):
        try:
            return build(pts, k).adjacency
        except GenerationError as exc:
            return str(exc)

    def assert_matches_dense(self, pts, k):
        expected = self.adjacency_or_error(dense_knn_graph, pts, k)
        found = self.adjacency_or_error(knn_graph, pts, k)
        if isinstance(expected, str):
            assert found == f"k-NN graph with k={k} is not connected; increase k"
        else:
            assert found == expected

    def test_matches_dense_on_denoise_points(self):
        from sdnfilt.scenarios import synthetic_points

        for seed in (0, 1, 5, 15):
            pts, _ = synthetic_points(218, rng_seed=seed)
            for k in (1, 3, 5, 8):
                self.assert_matches_dense(pts, k)
        assert knn_graph(pts, 5).num_edges() > 0

    def test_matches_dense_on_lattice_ties(self):
        # integer lattice: every point has up to 4 neighbors at distance 1,
        # 4 at sqrt(2) and 4 at 2, so ties decide which are kept
        pts = np.array([(x, y) for x in range(9) for y in range(7)], dtype=np.float64)
        for scale in (1.0, 0.1, 3.0):
            for k in (1, 2, 3, 5, 6, 9, 13):
                self.assert_matches_dense(scale * pts, k)

    def test_matches_dense_on_random_points(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            m = int(rng.integers(3, 120))
            pts = rng.normal(0, float(np.exp(rng.uniform(-5, 5))), size=(m, 2))
            if rng.random() < 0.3:      # clusters of equal points
                pts = pts[rng.integers(0, max(1, m // 3), size=m)]
            self.assert_matches_dense(pts, int(rng.integers(1, m)))

    def test_all_points_equal(self):
        self.assert_matches_dense(np.zeros((5, 2)), 2)
