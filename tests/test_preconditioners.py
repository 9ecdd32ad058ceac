import numpy as np
import pytest

import sdnfilt.solvers as solvers
from sdnfilt.filters import laplacians, power_spectral_radius
from sdnfilt.graphs import Graph
from sdnfilt.preconditioners import build_pgda_preconditioner, build_spgda_preconditioner

from conftest import dense_of, make_invertible, make_spd, random_connected_graph, random_filter
from filter_reference import (
    check_dominance,
    combinatorial_laplacian,
    filter_of,
    from_dense,
    identity,
    schur_norm,
)
from solver_reference import iteration_matrix


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def edge2():
    return Graph.from_edges(2, [(0, 1)])


def two_by_two():
    return from_dense(edge2(), [[2.0, 1.0], [1.0, 2.0]])


class TestPgdaPreconditioner:
    def test_identity(self, rng):
        g = random_connected_graph(rng, 8)
        p = build_pgda_preconditioner(identity(g))
        assert np.array_equal(p, np.ones(8))

    def test_path_laplacian(self):
        lap = combinatorial_laplacian(path3())
        p = build_pgda_preconditioner(lap)
        # absolute row sums are (2, 4, 2); every 1-hop ball sees the 4
        assert np.array_equal(p, np.array([4.0, 4.0, 4.0]))

    def test_two_by_two(self):
        p = build_pgda_preconditioner(two_by_two())
        assert np.array_equal(p, np.array([3.0, 3.0]))

    def test_all_zero_rejected(self):
        h = filter_of(path3(), {})
        with pytest.raises(ValueError, match="all-zero"):
            build_pgda_preconditioner(h)

    def test_locally_empty_neighborhood_rejected(self):
        # width-0 filter supported on one vertex only: other vertices get a
        # zero entry, which would make the preconditioner singular
        h = filter_of(path3(), {(0, 0): 2.0})
        with pytest.raises(ValueError, match="vertex"):
            build_pgda_preconditioner(h)


class TestSpgdaPreconditioner:
    def test_path_laplacian(self):
        lap = combinatorial_laplacian(path3())
        p = build_spgda_preconditioner(lap)
        assert np.array_equal(p, np.array([2.0, 4.0, 2.0]))

    def test_identity(self, rng):
        g = random_connected_graph(rng, 5)
        p = build_spgda_preconditioner(identity(g))
        assert np.array_equal(p, np.ones(5))

    def test_two_by_two(self):
        p = build_spgda_preconditioner(two_by_two())
        assert np.array_equal(p, np.array([3.0, 3.0]))

    def test_asymmetric_rejected_with_worst_pair(self):
        h = from_dense(edge2(), [[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match=r"H\(0,1\)|H\(1,0\)"):
            build_spgda_preconditioner(h)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            build_spgda_preconditioner(filter_of(path3(), {}))

    def test_zero_row_rejected(self):
        h = filter_of(path3(), {(0, 0): 2.0, (2, 2): 1.0})
        with pytest.raises(ValueError, match="row 1 of the filter is all zero"):
            build_spgda_preconditioner(h)


def normalized(h):
    """The dense P^{-1/2} H P^{-1/2} of spgda's diagonal P, read off
    spgda's error operator I - P^{-1/2} H P^{-1/2} column by column."""
    n, error = iteration_matrix(h, "spgda")
    return np.eye(n) - np.column_stack([error(e) for e in np.eye(n)])


class TestNormalizedFilter:
    def test_identity(self, rng):
        g = random_connected_graph(rng, 6)
        assert np.array_equal(normalized(identity(g)), np.eye(6))

    def test_two_by_two(self):
        assert np.allclose(normalized(two_by_two()), np.array([[2, 1], [1, 2]]) / 3.0,
                           atol=1e-15)

    def test_laplacian_gives_half_normalized_laplacian(self, rng):
        # normalization of L equals L_sym / 2 on any graph without
        # isolated vertices
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(2, 30)))
            out = normalized(combinatorial_laplacian(g))
            assert np.allclose(out, dense_of(laplacians(g)) / 2.0, atol=1e-13)

    def test_same_sparsity_and_width(self, rng, monkeypatch):
        # the normalized matrix is taken on H's own index arrays, so its
        # pattern, and with it the width, is H's
        bound, real = [], solvers.csr_product
        monkeypatch.setattr(solvers, "csr_product", lambda m: bound.append(m) or real(m))
        h = make_spd(rng, random_connected_graph(rng, 20), 2)
        iteration_matrix(h, "spgda")
        (m,) = bound
        assert np.shares_memory(m.indices, h.csr.indices)
        assert np.shares_memory(m.indptr, h.csr.indptr)
        assert np.array_equal(m.toarray() != 0, dense_of(h) != 0)

    def test_underflowing_entry_leaves_input_intact(self):
        # 1e-200 / sqrt(1e150 * 1e150) underflows to 0 in the normalized
        # matrix, which shares h's index arrays; h's own arrays and
        # product must not move
        h = from_dense(edge2(), [[1e150, 1e-200], [1e-200, 1e150]])
        arrays = [a.copy() for a in (h.csr.indptr, h.csr.indices, h.csr.data)]
        v = np.array([1.0, 2.0])
        hv = h.matvec(v)
        assert np.array_equal(normalized(h), np.eye(2))
        for a, b in zip(arrays, (h.csr.indptr, h.csr.indices, h.csr.data)):
            assert np.array_equal(a, b)
        assert np.array_equal(h.matvec(v), hv)


class TestCheckDominance:
    def test_pgda_mode_path_laplacian(self):
        lap = combinatorial_laplacian(path3())
        p = build_pgda_preconditioner(lap)
        # dense oracle: min eig of 16 I - L^T L
        oracle = np.linalg.eigvalsh(
            np.diag(p**2) - dense_of(lap).T @ dense_of(lap)
        ).min()
        assert oracle >= -1e-10
        res = check_dominance(lap, p, "pgda")
        assert res.passed
        assert res.value == pytest.approx(oracle, abs=1e-8)

    def test_spgda_mode_two_by_two(self):
        h = two_by_two()
        p = build_spgda_preconditioner(h)
        # P - H = [[1,-1],[-1,1]] has eigenvalues {0, 2}
        res = check_dominance(h, p, "spgda")
        assert res.passed
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_diag_chain(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 25)))
            h = random_filter(rng, g, int(rng.integers(1, 3)), symmetric=True)
            p = build_pgda_preconditioner(h)
            res = check_dominance(h, p, "diag_chain")
            assert res.passed and res.value >= 0.0

    def test_schur_mode(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 25)))
            h = random_filter(rng, g, int(rng.integers(0, 3)))
            p = build_pgda_preconditioner(h)
            res = check_dominance(h, p, "schur")
            assert res.passed
            assert max(p) <= schur_norm(h) + 1e-12

    def test_unknown_mode(self):
        h = two_by_two()
        with pytest.raises(ValueError, match="mode"):
            check_dominance(h, build_pgda_preconditioner(h), "nope")

    def test_eigen_modes_match_dense_oracle(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng, int(rng.integers(3, 25)))
            h = make_spd(rng, g, 1)
            dense = dense_of(h)
            p = build_pgda_preconditioner(h)
            oracle = np.linalg.eigvalsh(np.diag(p**2) - dense.T @ dense).min()
            res = check_dominance(h, p, "pgda", tol=1e-14)
            assert res.value == pytest.approx(oracle, abs=1e-7)

            ps = build_spgda_preconditioner(h)
            oracle_s = np.linalg.eigvalsh(np.diag(ps) - dense).min()
            res_s = check_dominance(h, ps, "spgda", tol=1e-14)
            assert res_s.value == pytest.approx(oracle_s, abs=1e-7)


class TestDominanceTheory:
    """Randomized spot checks; the full 200-filter suites live in the
    acceptance tests."""

    def test_gram_dominance_random_filters(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(2, 41)))
            h = random_filter(rng, g, int(rng.integers(1, 4)))
            p = build_pgda_preconditioner(h)
            dense = dense_of(h)
            lam_min = np.linalg.eigvalsh(np.diag(p**2) - dense.T @ dense).min()
            assert lam_min >= -1e-10

    def test_symmetric_dominance_chain_spd(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(2, 41)))
            h = make_spd(rng, g, int(rng.integers(1, 4)))
            p_sym = build_spgda_preconditioner(h)
            p = build_pgda_preconditioner(h)
            lam_min = np.linalg.eigvalsh(np.diag(p_sym) - dense_of(h)).min()
            assert lam_min >= -1e-10
            assert np.all(p_sym <= p + 1e-12)

    def test_strict_contraction_invertible(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 30)))
            h = make_invertible(rng, g, int(rng.integers(1, 3)))
            est = power_spectral_radius(iteration_matrix(h, "pgda"), tol=1e-12,
                                        max_iter=50000)
            assert est.value < 1.0

    def test_strict_contraction_spd(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 30)))
            h = make_spd(rng, g, int(rng.integers(1, 3)))
            est = power_spectral_radius(iteration_matrix(h, "spgda"), tol=1e-12,
                                        max_iter=50000)
            assert est.value < 1.0
