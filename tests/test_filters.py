import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

from sdnfilt.filters import (
    GraphFilter,
    Signal,
    SingularValues,
    SpectralEstimate,
    apply,
    build_denoise_filter,
    build_fig1_filter,
    csr_product,
    extreme_singular_values,
    laplacians,
    power_spectral_radius,
)
from sdnfilt.graphs import Graph, random_geometric_graph
from sdnfilt.scenarios import _STREAM_FILTER, _stream_seed, generate_run_graph

from conftest import (
    dense_of,
    make_invertible,
    make_spd,
    make_well_conditioned_spd,
    random_connected_graph,
    random_filter,
)
from filter_reference import (
    combinatorial_laplacian,
    entries,
    entries_width_by_levels,
    fig1_filter_by_search,
    filter_of,
    from_dense,
    identity,
    is_symmetric,
    schur_norm,
    smallest_eigenvalue,
)


def operator(n, matvec):
    """The (n, matvec) pair `power_spectral_radius` takes."""
    return n, matvec


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def edge2():
    return Graph.from_edges(2, [(0, 1)])


def two_by_two():
    return from_dense(edge2(), [[2.0, 1.0], [1.0, 2.0]])


def dense_matvec_oracle(dense: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-by-row sequential accumulation in ascending column order, the
    same summation order the sparse path promises."""
    n = dense.shape[0]
    out = np.zeros(n)
    for i in range(n):
        s = 0.0
        for j in range(n):
            if dense[i, j] != 0.0:
                s += dense[i, j] * x[j]
        out[i] = s
    return out


class TestGraphFilterBasics:
    def test_zero_entries_not_stored(self):
        m = sparse.coo_matrix(([0.0, 2.0], ([0, 1], [0, 1])), shape=(3, 3))
        assert m.nnz == 2
        h = GraphFilter(path3(), m)
        assert h.nnz == 1

    def test_width_identity(self):
        assert identity(path3()).width == 0

    def test_width_adjacency(self):
        g = path3()
        adj = filter_of(g, {(i, j): 1.0 for i in range(3) for j in g.adjacency[i]})
        assert adj.width == 1

    def test_entry_between_components_rejected(self):
        # a Graph built directly, not through from_edges, may have two
        # components; the hop matrix stops growing at radius n - 1, so
        # without the raise the width search would never end
        g = Graph(4, np.array([0, 1, 2, 3, 4]), np.array([1, 0, 3, 2]))
        m = sparse.coo_matrix(([1.0, 2.0], ([0, 0], [0, 3])), shape=(4, 4))
        with pytest.raises(ValueError, match="different components"):
            GraphFilter(g, m)

    def test_width_of_squared_adjacency(self):
        # A^2 on the path has a corner-to-corner entry two hops apart
        g = path3()
        adj = filter_of(g, {(i, j): 1.0 for i in range(3) for j in g.adjacency[i]})
        sq = GraphFilter(g, adj.csr @ adj.csr)
        assert np.allclose(dense_of(sq), [[1, 0, 1], [0, 2, 0], [1, 0, 1]])
        assert sq.width == 2

    def test_geodesic_width_free_function(self):
        # the geodesic width of an entry set: the farthest stored entry's
        # hop distance, a zero entry not counted
        g = path3()
        assert filter_of(g, {(0, 0): 1.0, (2, 2): 3.0}).width == 0
        assert filter_of(g, {(0, 2): 1.0}).width == 2
        assert filter_of(g, {(0, 2): 0.0, (0, 1): 1.0}).width == 1

    def test_width_recomputed_after_underflow(self):
        # 1e-300 * 1e-30 underflows to zero: the two-hop entry is gone and
        # the width is the diagonal's
        h = filter_of(path3(), {(0, 0): 1.0, (0, 2): 1e-300})
        assert h.width == 2
        scaled = GraphFilter(h.graph, h.csr * 1e-30)
        assert scaled.nnz == 1 and scaled.width == 0

    def test_width_matches_level_reference(self, rng):
        # the width read off the cached hop matrix equals the level-by-level
        # search, whether or not the first hop radius holds every entry
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(1, 30)))
            a = random_filter(rng, g, int(rng.integers(0, 4)), keep_prob=0.3).csr
            b = random_filter(rng, g, int(rng.integers(0, 3)), keep_prob=0.3).csr
            for m in (a, b, a + b, a - a, a * float(rng.uniform(-2, 2)), a @ b, a.T):
                h = GraphFilter(g, m, _within=int(rng.integers(0, 4)))
                assert h.width == entries_width_by_levels(g, h.csr)

    def test_entries_sorted_row_major(self):
        h = filter_of(path3(), {(1, 2): 1.0, (1, 0): 2.0, (0, 0): 3.0})
        assert [(i, j) for i, j, _ in entries(h)] == [(0, 0), (1, 0), (1, 2)]

    def test_builders_shift_the_random_filter(self, rng):
        # make_invertible, make_spd and make_well_conditioned_spd are the
        # random filter plus a multiple of I, or I plus a multiple of it
        g = random_connected_graph(rng, 15)
        for build in (make_invertible, make_spd, make_well_conditioned_spd):
            state = rng.bit_generator.state
            h = build(rng, g, 2)
            rng.bit_generator.state = state
            base = dense_of(random_filter(rng, g, 2, symmetric=build is not make_invertible))
            if build is make_invertible:
                expected = base + np.eye(15) * (np.abs(base).sum(axis=1).max() + 0.5)
            elif build is make_spd:
                expected = base + np.eye(15) * (abs(np.linalg.eigvalsh(base).min()) + 0.3)
            else:
                expected = np.eye(15) + base * (0.25 / np.abs(base).sum(axis=1).max())
            assert np.array_equal(dense_of(h), expected)

    def test_row_abs_sums_bit_identical_to_per_row_sums(self):
        # numpy's pairwise summation changes order at 8 and at 128 entries;
        # values spread over 16 decades make any change of order visible
        g = random_geometric_graph(300, float("inf"), rng_seed=0)
        rng = np.random.default_rng(21)
        lengths = [0, 1, 2, 5, 7, 8, 9, 15, 16, 17, 100, 127, 128, 129, 130,
                   200, 255, 256, 257, 300]
        for _ in range(5):
            rows, cols, vals = [], [], []
            for i in range(g.n):
                k = int(rng.choice(lengths))
                rows += [i] * k
                cols += sorted(rng.choice(g.n, size=k, replace=False).tolist())
                vals += (rng.standard_normal(k) * 10.0 ** rng.uniform(-8, 8, k)).tolist()
            h = GraphFilter(g, (np.array(vals), (np.array(rows), np.array(cols))),
                            _width=1)
            indptr, data = h.csr.indptr, h.csr.data
            expected = np.array([np.abs(data[indptr[i]:indptr[i + 1]]).sum()
                                 for i in range(g.n)])
            assert np.array_equal(h.row_abs_sums().view(np.int64),
                                  expected.view(np.int64))

    def test_row_abs_sums_computed_once_and_read_only(self, rng):
        g = random_connected_graph(rng, 20)
        h = make_invertible(rng, g, 2)
        rows, cols = h.row_abs_sums(), h.col_abs_sums()
        assert h.row_abs_sums() is rows and h.col_abs_sums() is cols
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 1.0
        assert np.array_equal(cols, h.transpose().row_sums(np.abs(h.transpose().csr.data)))

    def test_row_sums_bit_identical_to_per_row_sums(self):
        g = random_geometric_graph(140, float("inf"), rng_seed=0)
        rng = np.random.default_rng(22)
        lengths = [0, 7, 8, 9, 127, 128, 129, 130]
        rows, cols, vals = [], [], []
        for i in range(g.n):
            k = lengths[i % len(lengths)]
            rows += [i] * k
            cols += sorted(rng.choice(g.n, size=k, replace=False).tolist())
            vals += (rng.standard_normal(k) * 10.0 ** rng.uniform(-8, 8, k)).tolist()
        h = GraphFilter(g, (np.array(vals), (np.array(rows), np.array(cols))), _width=1)
        indptr, data = h.csr.indptr, h.csr.data
        squares = data * data
        rows_of = [data[indptr[i]:indptr[i + 1]] for i in range(g.n)]
        expected = np.array([(row * row).sum() for row in rows_of])
        assert np.array_equal(np.diff(indptr)[:8], lengths)
        assert np.array_equal(h.row_sums(squares).view(np.int64),
                              expected.view(np.int64))


class TestApply:
    def test_identity(self, rng):
        g = random_connected_graph(rng, 9)
        x = Signal(g, rng.standard_normal(9))
        y = apply(identity(g), x)
        assert np.array_equal(y.values, x.values)

    def test_laplacian_kills_constants(self):
        lap = combinatorial_laplacian(path3())
        y = apply(lap, Signal(lap.graph, np.ones(3)))
        assert np.array_equal(y.values, np.zeros(3))

    def test_two_by_two_by_hand(self):
        h = two_by_two()
        y = apply(h, Signal(h.graph, np.array([1.0, 0.0])))
        assert np.array_equal(y.values, np.array([2.0, 1.0]))

    def test_graph_mismatch(self):
        h = two_by_two()
        other = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="share the same graph"):
            apply(h, Signal(other, np.zeros(2)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 50), width=st.integers(0, 2))
    def test_matches_dense_oracle_exactly(self, seed, n, width):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n)
        h = random_filter(rng, g, width)
        x = rng.standard_normal(n)
        expected = dense_matvec_oracle(dense_of(h), x)
        assert np.array_equal(h.matvec(x), expected)


class TestSchurNorm:
    def test_path_laplacian(self):
        assert schur_norm(combinatorial_laplacian(path3())) == 4.0

    def test_identity(self):
        assert schur_norm(identity(path3())) == 1.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(-8, 8, allow_nan=False))
    def test_homogeneity(self, seed, alpha):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, int(rng.integers(2, 20)))
        h = random_filter(rng, g, 1)
        assert schur_norm(GraphFilter(g, h.csr * alpha)) == pytest.approx(
            abs(alpha) * schur_norm(h), rel=1e-12, abs=1e-300
        )

    def test_operator_norm_bound(self, rng):
        # ||Hx|| <= schur_norm(H) ||x|| on 100 random pairs
        for _ in range(100):
            g = random_connected_graph(rng, int(rng.integers(2, 30)))
            h = random_filter(rng, g, int(rng.integers(0, 3)))
            x = rng.standard_normal(g.n)
            assert np.linalg.norm(h.matvec(x)) <= (
                schur_norm(h) * np.linalg.norm(x) + 1e-12
            )


class TestLaplacians:
    def test_path_matrix(self):
        lap = combinatorial_laplacian(path3())
        assert np.array_equal(
            dense_of(lap), np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], float)
        )

    def test_row_sums_zero(self, rng):
        g = random_connected_graph(rng, 23)
        lap = combinatorial_laplacian(g)
        assert np.array_equal(dense_of(lap).sum(axis=1), np.zeros(23))

    def test_single_edge_normalized(self):
        lap_sym = laplacians(edge2())
        assert np.array_equal(dense_of(lap_sym), np.array([[1, -1], [-1, 1]], float))

    def test_normalized_spectrum_bounded(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(3, 40)))
            lap_sym = laplacians(g)
            est = power_spectral_radius((g.n, lap_sym.matvec), tol=1e-12, max_iter=20000)
            assert est.value <= 2.0 + 1e-12
            assert is_symmetric(lap_sym)

    def test_isolated_vertex_rejected(self):
        g = Graph.from_edges(1, [])
        with pytest.raises(ValueError, match="isolated"):
            laplacians(g)


class TestPowerSpectralRadius:
    def test_zero_operator(self):
        op = operator(4, lambda v: np.zeros(4))
        est = power_spectral_radius(op)
        assert est.value == 0.0 and est.converged

    def test_sign_symmetric_spectrum(self):
        # eigenvalues {-0.8, +0.8}: the radius is 0.8 whichever of the
        # pair the eigensolver returns
        mat = np.array([[0.0, -0.8], [-0.8, 0.0]])
        est = power_spectral_radius(
            operator(2, lambda v: mat @ v), tol=1e-13
        )
        assert est.value == pytest.approx(0.8, abs=1e-10)

    def test_spgda_style_example(self):
        # I - H/3 with H=[[2,1],[1,2]] has eigenvalues {0, 2/3}
        h = two_by_two()
        op = operator(2, lambda v: v - h.matvec(v) / 3.0)
        est = power_spectral_radius(op, tol=1e-13)
        assert est.value == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_pgda_style_example(self):
        # I - H^T H / 9 has eigenvalues {0, 8/9}
        h = two_by_two()
        op = operator(2, lambda v: v - h.transpose().matvec(h.matvec(v)) / 9.0)
        est = power_spectral_radius(op, tol=1e-13)
        assert est.value == pytest.approx(8.0 / 9.0, abs=1e-10)

    def test_agrees_with_dense_eigensolver(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 31))
            g = random_connected_graph(rng, n)
            h = random_filter(rng, g, 1, symmetric=True)
            oracle = float(np.abs(np.linalg.eigvalsh(dense_of(h))).max())
            est = power_spectral_radius((n, h.matvec), tol=1e-12, max_iter=50000)
            assert est.value == pytest.approx(oracle, abs=1e-6)

    def test_unconverged_flagged(self):
        # ARPACK solves a 2x2 exactly; it misses its tolerance only when a
        # clustered top spectrum meets too few restarts
        d = np.concatenate([1.0 - 1e-9 * np.arange(10), np.linspace(0.0, 0.5, 190)])
        est = power_spectral_radius(operator(200, lambda v: d * v),
                                    tol=1e-16, max_iter=1)
        assert not est.converged
        assert 0.5 < est.value <= 1.0

    def test_single_vertex(self):
        est = power_spectral_radius(operator(1, lambda v: -3.0 * v))
        assert est.value == 3.0 and est.converged and est.iterations == 1

    def test_annihilated_start_vector_restarts(self):
        # I - v0 v0^T kills the first start vector; the radius is still 1
        from sdnfilt.filters import _start_vector

        v0 = _start_vector(6, 0, 0)
        est = power_spectral_radius(operator(6, lambda v: v - v0 * (v0 @ v)))
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_smallest_algebraic(self):
        mat = np.diag([3.0, -2.0, 1.0, 0.5])
        est = smallest_eigenvalue(mat, tol=1e-14)
        assert est.converged
        assert est.value == pytest.approx(-2.0, abs=1e-12)

    def test_reruns_bit_identical(self, rng):
        g = random_connected_graph(rng, 60)
        h = random_filter(rng, g, 2, symmetric=True)
        a = power_spectral_radius((g.n, h.matvec), tol=1e-12)
        b = power_spectral_radius((g.n, h.matvec), tol=1e-12)
        assert a == b
        sa = smallest_eigenvalue(h.csr, tol=1e-12)
        assert sa == smallest_eigenvalue(h.csr, tol=1e-12)


class TestCsrProduct:
    """csr_product against scipy's own m @ v, bit for bit."""

    @staticmethod
    def inputs(rng, n):
        x = rng.standard_normal((n, 7))
        x[::3, 1] = -0.0
        return [x[:, 0].copy(), x[:, 3], x[:, :1].copy(), x[:, 2:3], x[:, [5]],
                x, x[:, [0, 2, 3, 6]], x[:, 1:6:2], np.asfortranarray(x)]

    def check(self, m, rng):
        product = csr_product(m)
        for v in self.inputs(rng, m.shape[1]):
            ours, theirs = product(v), m @ v
            assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes(), v.shape

    def test_random_square_and_rectangular(self, rng):
        for shape in ((40, 40), (30, 55), (1, 9)):
            self.check(sparse.random(*shape, density=0.2, format="csr", rng=rng), rng)

    def test_empty_rows_and_no_entries(self, rng):
        m = sparse.random(40, 40, density=0.3, format="csr", rng=rng).tolil()
        m[::4] = 0.0
        m = m.tocsr()
        assert (np.diff(m.indptr) == 0).sum() >= 10
        self.check(m, rng)
        self.check(sparse.csr_matrix((25, 25)), rng)

    def test_stored_negative_zeros(self, rng):
        m = sparse.random(30, 30, density=0.3, format="csr", rng=rng)
        m.data[::2] = -0.0
        assert m.nnz and np.signbit(m.data[0])
        self.check(m, rng)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_index_dtypes(self, rng, dtype):
        m = sparse.random(50, 50, density=0.2, format="csr", rng=rng)
        m.indices, m.indptr = m.indices.astype(dtype), m.indptr.astype(dtype)
        assert m.indices.dtype == dtype
        self.check(m, rng)

    def test_graph_filter_products(self, rng):
        g = random_connected_graph(rng, 30)
        h = make_invertible(rng, g, 2)
        for v in self.inputs(rng, 30):
            assert h.matvec(v).tobytes() == (h.csr @ v).tobytes()

    def test_rejects_what_the_kernel_cannot_take(self):
        m = sparse.identity(4, format="csr")
        with pytest.raises(ValueError, match="shape"):
            csr_product(m)(np.ones(5))
        with pytest.raises(ValueError, match="shape"):
            csr_product(m)(np.ones((4, 1, 1)))
        with pytest.raises(ValueError, match="float64 CSR"):
            csr_product(m.tocsc())
        with pytest.raises(ValueError, match="float64 CSR"):
            csr_product(m.astype(np.float32))

    def test_kernel_module_adds_no_import(self):
        # scipy.sparse loads its kernels itself; naming them loads nothing new
        code = ("import sys, scipy.sparse; before = set(sys.modules); "
                "from scipy.sparse._sparsetools import csr_matvec, csr_matvecs; "
                "print(sorted(set(sys.modules) - before))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


class TestExtremeSingularValues:
    def test_identity(self):
        sv = extreme_singular_values(identity(path3()))
        assert sv.sigma_max.value == pytest.approx(1.0, abs=1e-10)
        assert sv.sigma_min.value == pytest.approx(1.0, abs=1e-10)

    def test_two_by_two(self):
        sv = extreme_singular_values(two_by_two(), tol=1e-13)
        assert sv.sigma_max.value == pytest.approx(3.0, abs=1e-8)
        assert sv.sigma_min.value == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        h = from_dense(edge2(), np.diag([5.0, 2.0]))
        sv = extreme_singular_values(h, tol=1e-13)
        assert sv.sigma_max.value == pytest.approx(5.0, abs=1e-8)
        assert sv.sigma_min.value == pytest.approx(2.0, abs=1e-8)

    def test_against_dense_svd(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 25))
            g = random_connected_graph(rng, n)
            h = random_filter(rng, g, 1)
            oracle = np.linalg.svd(dense_of(h), compute_uv=False)
            sv = extreme_singular_values(h, tol=1e-13, max_iter=100000)
            assert sv.sigma_max.value == pytest.approx(oracle[0], rel=1e-8, abs=1e-8)
            assert sv.sigma_min.value == pytest.approx(oracle[-1], rel=1e-6, abs=1e-7)

    def test_match_dense_svd_to_rel_1e10(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 60))
            h = make_invertible(rng, random_connected_graph(rng, n), 2, margin=0.1)
            oracle = np.linalg.svd(dense_of(h), compute_uv=False)
            sv = extreme_singular_values(h)
            assert sv.converged
            assert sv.sigma_max.value == pytest.approx(oracle[0], rel=1e-10)
            assert sv.sigma_min.value == pytest.approx(oracle[-1], rel=1e-10)

    def test_fig1_trial0_filter_matches_dense_svd(self):
        g = generate_run_graph(512, float(np.sqrt(2.0 / 512)), 777016)
        h = build_fig1_filter(g, 0.05, _stream_seed(777016, 0, _STREAM_FILTER))
        oracle = np.linalg.svd(dense_of(h), compute_uv=False)
        sv = extreme_singular_values(h)
        assert sv.converged
        assert sv.sigma_max.value == pytest.approx(oracle[0], rel=1e-10)
        assert sv.sigma_min.value == pytest.approx(oracle[-1], rel=1e-10)

    def test_singular_filter_has_zero_sigma_min(self):
        sv = extreme_singular_values(from_dense(edge2(), [[1.0, 1.0], [1.0, 1.0]]))
        assert sv.sigma_max.value == pytest.approx(2.0, abs=1e-12)
        assert sv.sigma_min.value == 0.0

    def test_zero_filter(self):
        sv = extreme_singular_values(GraphFilter(path3(), sparse.csr_matrix((3, 3))))
        assert (sv.sigma_max.value, sv.sigma_min.value, sv.converged) == (0.0, 0.0, True)

    def test_reruns_bit_identical(self, rng):
        g = random_connected_graph(rng, 50)
        h1 = make_invertible(rng, g, 2)
        h2 = GraphFilter(g, h1.csr.copy())  # no shared factor
        assert extreme_singular_values(h1) == extreme_singular_values(h2)
        assert extreme_singular_values(h1) == extreme_singular_values(h1)

    @staticmethod
    def two_solve_sigma_min(h):
        lu = h.lu()
        inverse_gram = (h.graph.n, lambda v: lu.solve(lu.solve(v, trans="T")))
        return 1.0 / np.sqrt(power_spectral_radius(inverse_gram, rng_seed=1).value)

    @pytest.mark.parametrize("n, radius", [(512, 0.0625), (4096, 0.035)])
    def test_symmetric_sigma_min_from_one_solve(self, n, radius):
        # sigma_min = 1 / max |lambda(H^{-1})| for a symmetric H agrees
        # with the two-solve 1 / sqrt(lambda_max(H^{-1} H^{-T}))
        g = generate_run_graph(n, radius, 777016)
        h = build_fig1_filter(g, 0.05, _stream_seed(777016, 0, _STREAM_FILTER))
        sv = extreme_singular_values(h)
        assert sv.converged
        assert sv.sigma_min.value == pytest.approx(self.two_solve_sigma_min(h), rel=1e-12)

    def test_symmetric_sigma_min_on_denoise_filter(self):
        from sdnfilt.graphs import knn_graph
        from sdnfilt.scenarios import synthetic_points

        coords, _ = synthetic_points(218, rng_seed=3)
        h = build_denoise_filter(knn_graph(coords, 5), 0.9075)
        sv = extreme_singular_values(h)
        assert sv.sigma_min.value == pytest.approx(self.two_solve_sigma_min(h), rel=1e-12)
        assert sv.sigma_min.value == pytest.approx(
            np.linalg.eigvalsh(dense_of(h)).min(), rel=1e-10)

    def test_indefinite_symmetric_sigma_min(self):
        # eigenvalues 3 and -1: sigma_min is the smallest |lambda|
        sv = extreme_singular_values(from_dense(edge2(), [[1.0, 2.0], [2.0, 1.0]]),
                                     tol=1e-13)
        assert sv.sigma_min.value == pytest.approx(1.0, rel=1e-12)
        assert sv.sigma_max.value == pytest.approx(3.0, rel=1e-12)

    def test_pair_of_estimates(self):
        # each singular value is an estimate with its own route and
        # applications: sigma_min's are the solves through the factor
        g = generate_run_graph(128, float(np.sqrt(2.0 / 128)), 777016)
        h = build_fig1_filter(g, 0.05, _stream_seed(777016, 0, _STREAM_FILTER))
        sv = extreme_singular_values(h)
        top = power_spectral_radius((g.n, lambda v: h.transpose().matvec(h.matvec(v))),
                                    max_iter=20000)
        bottom = power_spectral_radius((g.n, h.lu().solve), max_iter=20000, rng_seed=1)
        assert sv.sigma_max == SpectralEstimate(float(np.sqrt(top.value)), top.iterations,
                                                True, "lanczos")
        assert sv.sigma_min == SpectralEstimate(1.0 / bottom.value, bottom.iterations,
                                                True, "factor")
        assert sv.sigma_min.iterations > 0 and sv.converged

    def test_pair_converged_only_when_both_are(self):
        est = SpectralEstimate(1.0, 3, True)
        missed = SpectralEstimate(1.0, 3, False)
        assert SingularValues(est, est).converged
        assert not SingularValues(missed, est).converged
        assert not SingularValues(est, missed).converged
        assert not SingularValues(missed, missed).converged

    @pytest.mark.parametrize("dense", [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]])
    def test_no_factor_gives_zero_sigma_min(self, dense):
        # a singular or zero filter has no factor: sigma_min is 0 after no
        # application, and the pair's convergence is sigma_max's
        sv = extreme_singular_values(from_dense(edge2(), dense))
        assert sv.sigma_min == SpectralEstimate(0.0, 0, True, "factor")
        assert sv.converged == sv.sigma_max.converged


class TestFactor:
    """One cached factor per filter: SuperLU's symmetric mode for a
    symmetric filter, COLAMD otherwise, and the inertia certificate read
    off its pivots."""

    @staticmethod
    def spy(monkeypatch, fail_symmetric=False):
        import sdnfilt.filters as filters

        calls, real = [], filters.splu

        def splu(a, **options):
            calls.append(options)
            if fail_symmetric and options:
                raise RuntimeError("Factor is exactly singular")
            return real(a, **options)

        monkeypatch.setattr(filters, "splu", splu)
        return calls

    def test_symmetric_filter_gets_symmetric_mode(self, monkeypatch):
        calls = self.spy(monkeypatch)
        g = generate_run_graph(512, float(np.sqrt(2.0 / 512)), 777016)
        h = build_fig1_filter(g, 0.05, 3)
        assert h.symmetric and h.lu() is h.lu()
        assert calls == [{"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.1,
                          "options": {"SymmetricMode": True}}]
        # a fig1 filter factors with every pivot on the diagonal, none
        # negative: the certificate holds
        assert h.positive_definite() and h._pivots == (True, 0)
        x = h.lu().solve(np.ones(g.n))
        assert np.linalg.norm(h.matvec(x) - 1.0) <= 1e-12 * np.sqrt(g.n)

    def test_released_factor_keeps_the_pivot_record(self, monkeypatch):
        calls = self.spy(monkeypatch)
        g = generate_run_graph(128, float(np.sqrt(2.0 / 128)), 31)
        h = build_fig1_filter(g, 0.05, 3)
        assert h.positive_definite()
        first = h.lu()
        h.release_factor()
        assert h._lu is None and len(calls) == 1
        # the certificate is read off the kept record, with no new factor
        assert h.positive_definite() and len(calls) == 1
        # a later solve factors H again
        assert h.lu() is not first and len(calls) == 2

    def test_nonsymmetric_filter_gets_colamd(self, rng, monkeypatch):
        calls = self.spy(monkeypatch)
        h = make_invertible(rng, random_connected_graph(rng, 30), 2)
        assert not h.symmetric
        h.lu()
        assert calls == [{}]
        assert not h.positive_definite()

    def test_raising_symmetric_factorization_falls_back_to_colamd(self, rng,
                                                                   monkeypatch):
        calls = self.spy(monkeypatch, fail_symmetric=True)
        g = random_connected_graph(rng, 30)
        h = make_invertible(rng, g, 2, symmetric=True)
        y = rng.standard_normal(30)
        x = h.lu().solve(y)
        assert [bool(c) for c in calls] == [True, False]
        assert h._pivots is None   # read only for the certificate
        assert np.allclose(dense_of(h) @ x, y, rtol=1e-12, atol=1e-12)

    def test_singular_filter_raises_after_both(self, monkeypatch):
        calls = self.spy(monkeypatch)
        h = from_dense(edge2(), [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="pivot"):
            h.lu()
        assert [bool(c) for c in calls] == [True, False]
        assert not h.positive_definite()

    @pytest.mark.parametrize("dense, pivots, definite", [
        ([[2.0, 1.0], [1.0, 2.0]], (True, 0), True),
        # eigenvalues 3 and -1: one negative pivot
        ([[1.0, 2.0], [2.0, 1.0]], (True, 1), False),
        # positive definite, but 1 < 0.1 * 11 sends the pivot off the
        # diagonal; the factor then certifies nothing
        ([[200.0, 11.0], [11.0, 1.0]], (False, 1), False),
        # indefinite with no negative pivot: only perm_r != perm_c tells
        ([[0.0, 1.0], [1.0, 0.0]], (False, 0), False),
    ])
    def test_inertia_certificate(self, dense, pivots, definite):
        h = from_dense(edge2(), dense)
        assert h.positive_definite() is definite
        assert h._pivots == pivots

    def test_inertia_counts_negative_eigenvalues(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 40))
            g = random_connected_graph(rng, n)
            h = random_filter(rng, g, 2, symmetric=True)
            shift = sparse.identity(n, format="csr") * rng.uniform(1.0, 3.0)
            h = GraphFilter(g, h.csr + shift)
            h.positive_definite()
            if h._pivots is None:   # singular: no factor
                continue
            diagonal, negative = h._pivots
            if diagonal:
                assert negative == int((np.linalg.eigvalsh(dense_of(h)) < 0).sum())

    def test_symmetry_test_taken_once(self, rng, monkeypatch):
        g = random_connected_graph(rng, 20)
        h = make_invertible(rng, g, 1, symmetric=True)
        assert h.asymmetry() == (0.0, 0, 0) and h.symmetric
        monkeypatch.setattr(type(h), "transpose", lambda self: 1 / 0)
        h.lu()
        assert h.symmetric

    def test_asymmetry_names_the_worst_pair(self):
        h = from_dense(edge2(), [[1.0, 0.5], [0.2, 1.0]])
        gap, i, j = h.asymmetry()
        assert gap == pytest.approx(0.3) and {i, j} == {0, 1}
        assert not h.symmetric
        tiny = from_dense(edge2(), [[1.0, 0.5], [0.5 + 1e-13, 1.0]])
        assert tiny.symmetric


class TestFig1Filter:
    def build(self, gamma=0.0, seed=0, n=48):
        g = random_geometric_graph(n, float(np.sqrt(2.0 / n)) * 1.6, rng_seed=5)
        return g, build_fig1_filter(g, gamma, rng_seed=seed)

    def test_symmetric(self):
        _, h = self.build(gamma=0.07, seed=3)
        d = dense_of(h)
        assert np.array_equal(d, d.T)

    def test_width_exactly_two(self):
        _, h = self.build(gamma=0.05, seed=1)
        assert h.width == 2

    def test_diagonal_at_origin(self):
        # place one vertex at the origin: the kernel's self weight is
        # exp(0) = 1, so H(i,i) = 1 + (L_sym^2)(i,i)
        g = Graph.from_edges(
            3, [(0, 1), (1, 2)],
            coordinates=np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]),
        )
        h = build_fig1_filter(g, gamma=0.0, rng_seed=0)
        lap_sym = laplacians(g).csr
        assert h.csr[0, 0] == pytest.approx(1.0 + (lap_sym @ lap_sym)[0, 0], abs=1e-14)

    def test_requires_coordinates(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="coordinates"):
            build_fig1_filter(g, 0.05, rng_seed=0)

    @pytest.mark.parametrize("gamma", [-0.1, float("nan")])
    def test_bad_gamma_rejected(self, gamma):
        g, _ = self.build()
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            build_fig1_filter(g, gamma, rng_seed=0)

    def test_deterministic(self):
        _, h1 = self.build(gamma=0.05, seed=11)
        _, h2 = self.build(gamma=0.05, seed=11)
        assert np.array_equal(dense_of(h1), dense_of(h2))

    def test_laplacian_square_built_once_per_graph(self, monkeypatch):
        import sdnfilt.filters as filters

        calls = []
        real = filters.laplacians
        monkeypatch.setattr(filters, "laplacians",
                            lambda g: calls.append(1) or real(g))
        g, _ = self.build()
        cached = [build_fig1_filter(g, 0.05, rng_seed=s) for s in (11, 12)]
        assert len(calls) == 1
        # a fresh graph builds its own square: the filters are the same bytes
        for seed, h in zip((11, 12), cached):
            _, fresh = self.build(gamma=0.05, seed=seed)
            for name in ("data", "indices", "indptr"):
                assert getattr(h.csr, name).tobytes() == getattr(fresh.csr, name).tobytes()
            assert h.width == fresh.width

    def test_matches_search_built_filter_byte_for_byte(self):
        for n, seed in ((2, 1), (3, 2), (40, 3), (128, 4), (600, 5)):
            radius = float(np.sqrt(2.0 / n)) * 1.6 if n > 3 else float("inf")
            g = random_geometric_graph(n, radius, rng_seed=seed)
            for gamma, filter_seed in ((0.0, 0), (0.05, 1), (0.6, 2)):
                h = build_fig1_filter(g, gamma, filter_seed)
                ref = fig1_filter_by_search(g, gamma, filter_seed)
                for name in ("data", "indices", "indptr"):
                    assert getattr(h.csr, name).tobytes() == \
                        getattr(ref.csr, name).tobytes()
                assert h.width == ref.width

    def test_width_rescanned_where_entries_cancel(self, monkeypatch):
        # a Laplacian term that cancels every kernel entry two hops apart
        # leaves a filter of width 1, found by the rescan
        import sdnfilt.filters as filters
        from sdnfilt.graphs import hop_matrix

        g, _ = self.build()
        monkeypatch.setattr(filters, "_squared_normalized_laplacian",
                            lambda g: GraphFilter(g, sparse.csr_matrix((g.n, g.n))))
        kernel = build_fig1_filter(g, 0.0, 0).csr
        far = kernel.multiply(hop_matrix(g, 2) == 2)
        monkeypatch.setattr(filters, "_squared_normalized_laplacian",
                            lambda g: GraphFilter(g, -far, _width=2))
        h = build_fig1_filter(g, 0.0, 0)
        assert h.nnz < hop_matrix(g, 2).nnz
        assert h.width == entries_width_by_levels(g, h.csr) == 1

    @pytest.mark.parametrize("radius", [0.35, float("inf")])
    def test_width_read_off_hop_counts_is_exact(self, radius):
        # a complete graph has no vertex pair two hops apart: width 1
        g = random_geometric_graph(40, radius, rng_seed=5)
        h = build_fig1_filter(g, 0.05, rng_seed=2)
        rescanned = entries_width_by_levels(g, h.csr)
        assert h.width == rescanned == (1 if radius == float("inf") else 2)


class TestDenoiseFilter:
    def test_alpha_zero_is_identity(self, rng):
        g = random_connected_graph(rng, 14)
        h = build_denoise_filter(g, 0.0)
        assert np.array_equal(dense_of(h), np.eye(14))
        assert h.width == 0

    @pytest.mark.parametrize("alpha", [-0.5, float("nan")])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            build_denoise_filter(edge2(), alpha)

    def test_single_edge_alpha_one(self):
        h = build_denoise_filter(edge2(), 1.0)
        assert np.array_equal(dense_of(h), np.array([[2.0, -1.0], [-1.0, 2.0]]))

    def test_spectrum_bounds(self, rng):
        alpha = 0.9075
        g = random_connected_graph(rng, 31)
        h = build_denoise_filter(g, alpha)
        lam = np.linalg.eigvalsh(dense_of(h))
        assert lam.min() >= 1.0 - 1e-12
        assert lam.max() <= 1.0 + 2.0 * alpha + 1e-12
        assert h.width == 1
