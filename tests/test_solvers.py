import dataclasses

import numpy as np
import pytest

import sdnfilt.solvers as solvers
from sdnfilt.filters import GraphFilter, Signal, extreme_singular_values
from sdnfilt.graphs import Graph, knn_graph, random_geometric_graph
from sdnfilt.preconditioners import build_pgda_preconditioner, build_spgda_preconditioner
from sdnfilt.scenarios import synthetic_points
from sdnfilt.solvers import (
    METHODS,
    NumericError,
    SolverConfig,
    direct_solve_oracle,
    imia_diagonal,
    optimal_step,
    prepare_params,
    solve,
    solve_stack,
    spectral_radius,
)
from sdnfilt.filters import (
    build_denoise_filter,
    build_fig1_filter,
    power_spectral_radius,
)

from conftest import (
    dense_of,
    make_invertible,
    make_spd,
    make_well_conditioned_spd,
    method_step,
    random_connected_graph,
    random_filter,
    weighted_errors,
)
from filter_reference import entries, filter_of, from_dense, identity
from solver_reference import iteration_matrix


def edge2():
    return Graph.from_edges(2, [(0, 1)])


def two_by_two():
    return from_dense(edge2(), [[2.0, 1.0], [1.0, 2.0]])


def single_vertex():
    return Graph.from_edges(1, [])


class TestSolveBasics:
    @pytest.mark.parametrize("method", ["pgda", "spgda"])
    def test_identity_one_step(self, method, rng):
        g = random_connected_graph(rng, 7)
        y = Signal(g, rng.standard_normal(7))
        x, trace = solve(identity(g), y,
                         SolverConfig(method=method, max_iter=1))
        assert np.array_equal(x.values, y.values)
        assert trace.residuals[-1] == 0.0

    def test_spgda_two_by_two_limit_and_rate(self):
        h = two_by_two()
        y = Signal(h.graph, np.array([1.0, 1.0]))
        ref = direct_solve_oracle(h, y)
        assert np.allclose(ref.values, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)
        x, _ = solve(h, y, SolverConfig(method="spgda", max_iter=80))
        assert np.allclose(x.values, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        w = weighted_errors(h, y, "spgda", ref, 80)
        for m in range(1, len(w)):
            if w[m - 1] > 1e-13:
                assert w[m] <= (2.0 / 3.0) * w[m - 1] + 1e-13

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            SolverConfig(method="cg")

    def test_no_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
            SolverConfig(method="pgda", max_iter=0)

    def test_spgda_asymmetric_rejected(self):
        h = from_dense(edge2(), [[1.0, 0.7], [0.1, 1.0]])
        y = Signal(h.graph, np.ones(2))
        with pytest.raises(ValueError, match="not symmetric"):
            solve(h, y, SolverConfig(method="spgda", max_iter=3))

    def test_graph_mismatch(self):
        h = two_by_two()
        other = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="share the same graph"):
            solve(h, Signal(other, np.ones(2)), SolverConfig(method="pgda"))
        with pytest.raises(ValueError, match="share the same graph"):
            direct_solve_oracle(h, Signal(other, np.ones(2)))

    def test_trace_shapes(self, rng):
        g = random_connected_graph(rng, 9)
        h = make_spd(rng, g, 1)
        y = Signal(g, rng.standard_normal(9))
        M = 17
        _, trace = solve(h, y, SolverConfig(method="imia", max_iter=M),
                         reference=direct_solve_oracle(h, y))
        assert len(trace.residuals) <= M + 1
        assert len(trace.relative_errors) == len(trace.residuals)
        assert len(trace.snrs) == len(trace.residuals)
        assert all(s <= 300.0 for s in trace.snrs)

    def test_deterministic_bitwise(self, rng):
        g = random_connected_graph(rng, 21)
        h = make_invertible(rng, g, 2, symmetric=True)
        y = Signal(g, rng.standard_normal(21))
        ref = direct_solve_oracle(h, y)
        for method in METHODS:
            x1, t1 = solve(h, y, SolverConfig(method=method, max_iter=40), reference=ref)
            x2, t2 = solve(h, y, SolverConfig(method=method, max_iter=40), reference=ref)
            assert np.array_equal(x1.values, x2.values)
            assert t1.residuals == t2.residuals
            assert t1.relative_errors == t2.relative_errors


class TestDivergenceHandling:
    def indefinite(self):
        # symmetric, invertible, not positive definite: eigenvalues {3, -1};
        # the row-sum preconditioner cannot contract it
        return from_dense(edge2(), [[1.0, 2.0], [2.0, 1.0]])

    def test_spgda_diverges_with_status(self):
        h = self.indefinite()
        y = Signal(h.graph, np.array([1.0, -1.0]))
        _, trace = solve(h, y, SolverConfig(method="spgda", max_iter=500))
        assert trace.status == "diverged"
        assert trace.residuals[-1] > 1e6 * trace.residuals[0]

    def test_nonfinite_raises_with_iteration(self, monkeypatch):
        # with divergence detection off, the growing iterate overflows and
        # mixed-sign infinite sums turn into NaN
        h = self.indefinite()
        y = Signal(h.graph, np.array([1.0, -1.0]))
        monkeypatch.setattr(solvers, "DIVERGENCE_FACTOR", float("inf"))
        cfg = SolverConfig(method="spgda", max_iter=10000)
        with pytest.raises(NumericError, match="iteration"):
            solve(h, y, cfg)

    def test_pgda_converges_where_spgda_diverges(self):
        # invertible-but-indefinite filters are exactly the regime where
        # the gram-dominance iteration still contracts
        h = self.indefinite()
        y = Signal(h.graph, np.array([1.0, -1.0]))
        ref = direct_solve_oracle(h, y)
        x, trace = solve(h, y, SolverConfig(method="pgda", max_iter=4000),
                         reference=ref)
        assert trace.status != "diverged"
        assert trace.relative_errors[-1] < 1e-6


class TestIterationMatrix:
    def test_fixture_radii(self):
        h = two_by_two()
        expected = {"pgda": 8.0 / 9.0, "spgda": 2.0 / 3.0, "opgd": 0.8,
                    "imia": 0.6}
        for method, value in expected.items():
            est = power_spectral_radius(iteration_matrix(h, method),
                                        tol=1e-13, max_iter=20000)
            assert est.converged
            assert est.value == pytest.approx(value, abs=1e-10)

    def test_matches_dense_oracle(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng, int(rng.integers(2, 25)))
            h = make_spd(rng, g, 1)
            dense = dense_of(h)
            p = build_pgda_preconditioner(h)
            oracle = {
                "pgda": np.abs(np.linalg.eigvalsh(
                    np.eye(g.n) - (dense.T @ dense) / p[:, None] / p[None, :]
                )).max(),
                "spgda": np.abs(np.linalg.eigvalsh(
                    np.eye(g.n) - dense / np.sqrt(
                        np.outer(np.abs(dense).sum(1), np.abs(dense).sum(1)))
                )).max(),
            }
            for method, val in oracle.items():
                est = power_spectral_radius(iteration_matrix(h, method),
                                            tol=1e-12, max_iter=50000)
                assert est.value == pytest.approx(val, abs=1e-7)

    def test_all_four_radii_match_dense_symmetric_forms(self, rng):
        for _ in range(6):
            g = random_connected_graph(rng, int(rng.integers(3, 40)))
            h = make_well_conditioned_spd(rng, g, 2, spread=0.6)
            dense = dense_of(h)
            gram = dense.T @ dense
            p = build_pgda_preconditioner(h)
            ps = np.abs(dense).sum(axis=1)
            s = np.linalg.svd(dense, compute_uv=False)
            beta = 2.0 / (s[0] ** 2 + s[-1] ** 2)
            d = np.diag(dense) / (dense * dense).sum(axis=1)
            forms = {
                "pgda": np.eye(g.n) - gram / np.outer(p, p),
                "spgda": np.eye(g.n) - dense / np.sqrt(np.outer(ps, ps)),
                "opgd": np.eye(g.n) - beta * gram,
                "imia": np.eye(g.n) - np.sqrt(np.outer(d, d)) * dense,
            }
            for method, form in forms.items():
                oracle = np.abs(np.linalg.eigvalsh(form)).max()
                est = power_spectral_radius(iteration_matrix(h, method), tol=1e-13)
                assert est.converged
                assert est.value == pytest.approx(oracle, rel=1e-10)

    def test_imia_needs_positive_diagonal(self):
        g = edge2()
        h = from_dense(g, [[-2.0, 1.0], [1.0, -2.0]])
        with pytest.raises(ValueError, match="nonpositive"):
            iteration_matrix(h, "imia")

    def test_imia_needs_symmetric_filter(self):
        # D^{1/2} H D^{1/2} is symmetric only when H is; Lanczos on the
        # form of a nonsymmetric H would not give its radius
        h = from_dense(edge2(), [[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            iteration_matrix(h, "imia")


class TestSpectralRadius:
    """pgda's and spgda's radii through the LU factor and opgd's in closed
    form, each against Lanczos on the iteration matrix."""

    @staticmethod
    def lanczos(h, method, params):
        return power_spectral_radius(iteration_matrix(h, method, params),
                                     tol=1e-13, max_iter=20000)

    def check_own_routes(self, h):
        params = {}
        for method in ("pgda", "opgd"):
            est = spectral_radius(h, method, params)
            assert est.route != "fallback" and est.converged
            assert abs(est.value - self.lanczos(h, method, params).value) <= 1e-12
        assert spectral_radius(h, "opgd", params).iterations == 0

    @pytest.mark.parametrize("n", [64, 128, 512])
    def test_fig1_filters(self, n):
        from sdnfilt.scenarios import generate_run_graph

        for seed in (1, 2):
            g = generate_run_graph(n, np.sqrt(2.0 / n), 777016 + seed)
            for trial in range(2):
                self.check_own_routes(build_fig1_filter(g, 0.05, seed + 10 * trial))

    def test_denoise_filter(self):
        from sdnfilt.graphs import knn_graph
        from sdnfilt.scenarios import synthetic_points

        coords, _ = synthetic_points(218, rng_seed=3)
        self.check_own_routes(build_denoise_filter(knn_graph(coords, 5), 0.9075))

    def test_random_nonsymmetric_filters(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 40)))
            h = make_invertible(rng, g, int(rng.integers(1, 3)), margin=0.2)
            assert (h.csr != h.csr.T).nnz
            self.check_own_routes(h)

    def test_imia_stays_on_lanczos(self, rng):
        g = random_connected_graph(rng, 20)
        h = make_well_conditioned_spd(rng, g, 2, spread=0.6)
        params = {}
        est = spectral_radius(h, "imia", params)
        assert est.route != "fallback"
        assert est == power_spectral_radius(iteration_matrix(h, "imia", params),
                                            tol=1e-9, max_iter=3000)

    def check_spgda_factor_route(self, h):
        params = {}
        est = spectral_radius(h, "spgda", params)
        assert h.positive_definite() and est.route != "fallback" and est.converged
        lanczos = self.lanczos(h, "spgda", params)
        assert est.value == pytest.approx(lanczos.value, rel=1e-12)
        return est, lanczos

    @pytest.mark.parametrize("n, radius", [(512, 0.0625), (4096, 0.035)])
    def test_spgda_factor_route_on_fig1_filters(self, n, radius):
        from sdnfilt.scenarios import generate_run_graph

        g = generate_run_graph(n, radius, 777016)
        for seed in (2, 3):
            est, lanczos = self.check_spgda_factor_route(build_fig1_filter(g, 0.05, seed))
            assert est.iterations <= 30 < lanczos.iterations

    def test_indefinite_fig1_filter_falls_back(self):
        # this n = 4096 filter has one negative eigenvalue (its factor
        # takes a pivot off the diagonal); Lanczos finds spgda diverging
        from sdnfilt.scenarios import generate_run_graph

        h = build_fig1_filter(generate_run_graph(4096, 0.035, 777016), 0.05, 1)
        est = spectral_radius(h, "spgda")
        assert est.route == "fallback" and not h.positive_definite()
        assert est.value > 1.0

    def test_spgda_factor_route_on_denoise_filter(self):
        from sdnfilt.graphs import knn_graph
        from sdnfilt.scenarios import synthetic_points

        coords, _ = synthetic_points(218, rng_seed=3)
        self.check_spgda_factor_route(build_denoise_filter(knn_graph(coords, 5), 0.9075))

    def test_spgda_factor_route_on_random_spd_filters(self, rng):
        for _ in range(6):
            g = random_connected_graph(rng, int(rng.integers(3, 40)))
            self.check_spgda_factor_route(make_spd(rng, g, int(rng.integers(1, 3))))

    @pytest.mark.parametrize("dense, above_one", [
        # eigenvalues 3 and -1: a negative pivot; M has eigenvalue -1/3,
        # so the radius is 4/3
        ([[1.0, 2.0], [2.0, 1.0]], True),
        # positive definite, but with a pivot off the diagonal
        ([[200.0, 11.0], [11.0, 1.0]], False),
    ])
    def test_spgda_uncertified_filter_falls_back(self, dense, above_one):
        h = from_dense(edge2(), dense)
        params = {}
        est = spectral_radius(h, "spgda", params)
        assert est.route == "fallback" and not h.positive_definite()
        assert est == dataclasses.replace(
            power_spectral_radius(iteration_matrix(h, "spgda", params), tol=1e-9,
                                  max_iter=3000), route="fallback")
        assert (est.value > 1.0) is above_one
        d = np.array(dense)
        ps = np.abs(d).sum(axis=1)
        oracle = np.abs(np.linalg.eigvalsh(np.eye(2) - d / np.sqrt(np.outer(ps, ps)))).max()
        assert est.value == pytest.approx(oracle, rel=1e-10)

    def test_pgda_applications_at_n512(self):
        from sdnfilt.scenarios import generate_run_graph

        g = generate_run_graph(512, np.sqrt(2.0 / 512), 777016)
        est = spectral_radius(build_fig1_filter(g, 0.05, 5), "pgda")
        assert est.converged and est.route != "fallback"
        assert est.iterations <= 30

    def test_failed_factor_falls_back(self):
        # [[1,1],[1,1]] is singular: no LU factor, so Lanczos on I - M,
        # whose radius is 1 (M has eigenvalues 0 and 1)
        h = from_dense(edge2(), [[1.0, 1.0], [1.0, 1.0]])
        params = {}
        est = spectral_radius(h, "pgda", params)
        assert est.route == "fallback"
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est == dataclasses.replace(
            power_spectral_radius(iteration_matrix(h, "pgda", params), tol=1e-9,
                                  max_iter=3000), route="fallback")

    def test_failed_certificate_falls_back(self, rng, monkeypatch):
        # halving P breaks P^2 >= H^T H: the Schur bound a b exceeds
        # 2 - lambda_min(M), so the LU route cannot vouch for the radius
        real = solvers.build_pgda_preconditioner
        monkeypatch.setattr(solvers, "build_pgda_preconditioner",
                            lambda h: real(h) / 2.0)
        g = random_connected_graph(rng, 20)
        h = make_invertible(rng, g, 1)
        params = {}
        est = spectral_radius(h, "pgda", params)
        assert est.route == "fallback"
        assert est == dataclasses.replace(
            power_spectral_radius(iteration_matrix(h, "pgda", params), tol=1e-9,
                                  max_iter=3000), route="fallback")
        assert est.value > 1.0

    def test_routes_on_fig1_filter(self):
        from sdnfilt.scenarios import generate_run_graph

        h = build_fig1_filter(generate_run_graph(128, np.sqrt(2.0 / 128), 777016), 0.05, 1)
        params = {}
        routes = {m: spectral_radius(h, m, params).route for m in METHODS}
        assert routes == {"pgda": "factor", "spgda": "factor", "opgd": "closed_form",
                          "imia": "lanczos"}

    @pytest.mark.parametrize("method", ["pgda", "spgda"])
    def test_singular_filter_falls_back(self, method):
        h = from_dense(edge2(), [[1.0, 1.0], [1.0, 1.0]])
        assert spectral_radius(h, method).route == "fallback"

    def test_fallbacks_counted_per_method(self, rng):
        from sdnfilt.scenarios import ScenarioConfig, _MethodRuns

        g = random_connected_graph(rng, 12)
        singular = from_dense(edge2(), [[1.0, 1.0], [1.0, 1.0]])
        runs = _MethodRuns(ScenarioConfig(scenario="fig1",
                                          methods=("pgda", "spgda")), "rel_error")
        runs.prepare(singular)
        runs.prepare(make_invertible(rng, g, 1, symmetric=True))
        assert runs.aggregate("fig1", {}).spectral_fallbacks == {"pgda": 1, "spgda": 1}


class TestOptimalStep:
    def test_identity(self, rng):
        g = random_connected_graph(rng, 4)
        assert optimal_step(identity(g))[0] == pytest.approx(1.0, abs=1e-9)

    def test_two_by_two(self):
        assert optimal_step(two_by_two())[0] == pytest.approx(0.2, abs=1e-8)

    def test_diagonal(self):
        h = from_dense(edge2(), np.diag([5.0, 2.0]))
        assert optimal_step(h)[0] == pytest.approx(2.0 / 29.0, abs=1e-9)

    def test_near_singular_rejected(self):
        h = from_dense(edge2(), [[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.raises(ValueError, match="singular"):
            optimal_step(h)


class TestImiaDiagonal:
    def test_identity(self, rng):
        g = random_connected_graph(rng, 5)
        assert np.array_equal(imia_diagonal(identity(g)), np.ones(5))

    def test_two_by_two(self):
        assert np.allclose(imia_diagonal(two_by_two()), [0.4, 0.4], atol=1e-15)

    def test_single_vertex(self):
        h = from_dense(single_vertex(), [[4.0]])
        assert np.array_equal(imia_diagonal(h), np.array([0.25]))

    def test_bit_identical_to_per_row_loop(self):
        # row lengths 7-9 and 127-130, where numpy's pairwise sum changes
        # its order; values over 16 decades make a changed order visible
        g = random_geometric_graph(160, float("inf"), rng_seed=0)
        rng = np.random.default_rng(23)
        lengths = [7, 8, 9, 127, 128, 129, 130]
        rows, cols, vals = [], [], []
        for i in range(g.n):
            others = rng.choice(np.delete(np.arange(g.n), i),
                                size=lengths[i % len(lengths)] - 1, replace=False)
            row_cols = sorted([i] + others.tolist())
            rows += [i] * len(row_cols)
            cols += row_cols
            vals += (rng.uniform(0.5, 1.0, len(row_cols))
                     * 10.0 ** rng.uniform(-8, 8, len(row_cols))).tolist()
        h = GraphFilter(g, (np.array(vals), (np.array(rows), np.array(cols))))
        indptr, data = h.csr.indptr, h.csr.data
        denom = np.zeros(g.n)
        for i in range(g.n):
            row = data[indptr[i]:indptr[i + 1]]
            denom[i] = (row * row).sum()
        expected = h.diagonal() / denom
        assert np.array_equal(np.diff(indptr)[:7], lengths)
        assert np.array_equal(imia_diagonal(h).view(np.int64), expected.view(np.int64))

    def test_zero_diagonal_rejected(self):
        h = from_dense(edge2(), [[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match=r"H\(0,0\)"):
            imia_diagonal(h)


class TestDirectSolveOracle:
    def test_identity(self, rng):
        g = random_connected_graph(rng, 6)
        y = Signal(g, rng.standard_normal(6))
        x = direct_solve_oracle(identity(g), y)
        assert np.allclose(x.values, y.values, atol=1e-15)

    def test_two_by_two_hand_inverse(self):
        h = two_by_two()
        x = direct_solve_oracle(h, Signal(h.graph, np.array([1.0, 1.0])))
        assert np.allclose(x.values, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_diagonal(self):
        h = from_dense(edge2(), np.diag([2.0, 4.0]))
        x = direct_solve_oracle(h, Signal(h.graph, np.array([2.0, 4.0])))
        assert np.allclose(x.values, [1.0, 1.0], atol=1e-15)

    def test_singular_reports_pivot(self):
        h = from_dense(edge2(), [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="pivot"):
            direct_solve_oracle(h, Signal(h.graph, np.ones(2)))

    def test_reuses_the_singular_value_factor(self, rng, monkeypatch):
        import sdnfilt.filters as filters

        class CountingFactor:
            def __init__(self, lu):
                self.lu, self.solves = lu, 0

            def solve(self, b, trans="N"):
                self.solves += 1
                return self.lu.solve(b, trans=trans)

        calls = []
        real = filters.splu
        monkeypatch.setattr(filters, "splu", lambda a: calls.append(a) or real(a))
        g = random_connected_graph(rng, 30)
        h = make_invertible(rng, g, 2)
        extreme_singular_values(h)
        assert len(calls) == 1
        h._lu = factor = CountingFactor(h.lu())
        for _ in range(3):
            y = Signal(g, rng.standard_normal(30))
            x = direct_solve_oracle(h, y)
            assert np.allclose(np.linalg.solve(dense_of(h), y.values), x.values,
                               rtol=1e-10, atol=1e-12)
        assert factor.solves == 3 and len(calls) == 1

    def test_residual_gate(self, rng):
        g = random_connected_graph(rng, 15)
        h = make_invertible(rng, g, 1)
        y = Signal(g, rng.standard_normal(15))
        x = direct_solve_oracle(h, y)
        assert np.linalg.norm(h.matvec(x.values) - y.values) <= (
            1e-8 * np.linalg.norm(y.values))


class TestTheoremEnvelopes:
    """Per-iteration contraction spot checks; the 50-instance acceptance
    suite repeats these at scale."""

    def test_pgda_weighted_envelope(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(3, 35)))
            h = make_invertible(rng, g, int(rng.integers(1, 3)), margin=0.2)
            y = Signal(g, rng.standard_normal(g.n))
            ref = direct_solve_oracle(h, y)
            p = build_pgda_preconditioner(h)
            dense = dense_of(h)
            r = np.abs(np.linalg.eigvalsh(
                np.eye(g.n) - (dense.T @ dense) / p[:, None] / p[None, :]
            )).max()
            w = weighted_errors(h, y, "pgda", ref, 60)
            for m in range(len(w)):
                assert w[m] <= (r ** m) * w[0] * (1 + 1e-8) + 1e-12

    def test_spgda_weighted_envelope(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(3, 35)))
            h = make_spd(rng, g, int(rng.integers(1, 3)))
            y = Signal(g, rng.standard_normal(g.n))
            ref = direct_solve_oracle(h, y)
            ps = build_spgda_preconditioner(h)
            dense = dense_of(h)
            r = np.abs(np.linalg.eigvalsh(
                np.eye(g.n) - dense / np.sqrt(np.outer(ps, ps))
            )).max()
            w = weighted_errors(h, y, "spgda", ref, 60)
            for m in range(len(w)):
                assert w[m] <= (r ** m) * w[0] * (1 + 1e-8) + 1e-12


class TestOracleAgreement:
    def test_all_methods_reach_oracle(self, rng):
        # well-conditioned positive definite filters: every method's
        # M -> 500 iterate matches the dense solve
        for _ in range(4):
            g = random_connected_graph(rng, int(rng.integers(3, 41)))
            h = make_well_conditioned_spd(rng, g, 1)
            lam = np.linalg.eigvalsh(dense_of(h))
            assert lam.min() > 0 and lam.max() / lam.min() <= 20.0
            y = Signal(g, rng.standard_normal(g.n))
            ref = direct_solve_oracle(h, y)
            for method in METHODS:
                x, trace = solve(h, y, SolverConfig(method=method, max_iter=500),
                                 reference=ref)
                assert trace.relative_errors[-1] <= 1e-6, method


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_block_matches_single(h, ys, cfg, reference=None):
    """One method's solve_stack on the columns of ys equals solve on each
    column alone, bit for bit; returns the block's traces."""
    xs, traces = solve_stack(h, ys, (cfg.method,), cfg.max_iter, reference)[0]
    traces = list(traces)
    assert xs.shape == ys.shape and len(traces) == ys.shape[1]
    for j, trace in enumerate(traces):
        ref = None
        if reference is not None:
            ref = Signal(h.graph, reference if reference.ndim == 1 else reference[:, j])
        x, single = solve(h, Signal(h.graph, ys[:, j].copy()), cfg, reference=ref)
        assert bits(xs[:, j]) == bits(x.values), j
        assert bits(trace.residuals) == bits(single.residuals), j
        for name in ("relative_errors", "snrs"):
            ours, theirs = getattr(trace, name), getattr(single, name)
            assert (ours is None) == (theirs is None)
            if ours is not None:
                assert bits(ours) == bits(theirs), (name, j)
        assert trace.status == single.status, j
        assert trace.iterations == single.iterations, j
        assert trace.method == cfg.method
    return traces


def fast_column(h, method):
    """An observation whose error lies along the eigenvector of I - G H
    with the smallest eigenvalue magnitude, so it converges far sooner
    than a random one. The step with y = 0 is e -> (I - G H) e."""
    n = h.graph.n
    eye = np.eye(n)
    step = method_step(h, method, np.zeros((n, n)))
    lam, vecs = np.linalg.eig(step(eye, h.matvec(eye)))
    v = np.real(vecs[:, np.argmin(np.abs(lam))])
    return h.matvec(v)


class TestSolveBlock:
    """A block of T observations of one filter gives, column by column,
    what T calls to `solve` give."""

    @pytest.mark.parametrize("method", METHODS)
    def test_random_filter_with_early_stops(self, method, rng):
        # unit diagonal, random symmetric off-diagonal: indefinite, so spgda
        # and imia grow every error with a share along a negative
        # eigenvector, each column stopping at its own iteration; pgda and
        # opgd contract it, so only the zero column stops early
        g = random_connected_graph(rng, 150)
        off = random_filter(rng, g, 2, symmetric=True)
        h = filter_of(g, {(i, j): 1.0 if i == j else v for i, j, v in entries(off)})
        assert np.linalg.eigvalsh(dense_of(h)).min() < 0.0
        cols = [rng.standard_normal(150) * 10.0 ** rng.uniform(-3, 3)
                for _ in range(5)]
        cols.insert(2, np.zeros(150))               # stops at m = 0
        cols.insert(4, fast_column(h, method))      # no growing share but roundoff
        ys = np.column_stack(cols)
        cfg = SolverConfig(method=method, max_iter=300)
        traces = assert_block_matches_single(h, ys, cfg, rng.standard_normal(150))
        assert traces[2].status == "converged" and traces[2].iterations == 0
        random_cols = [traces[j] for j in (0, 1, 3, 5, 6)]
        if method in ("spgda", "imia"):
            assert all(t.status == "diverged" for t in random_cols)
            assert len({t.iterations for t in random_cols}) >= 2
            assert traces[4].iterations > max(t.iterations for t in random_cols)
        else:
            assert all(t.status == "max_iter" for t in traces[:2] + traces[3:])

    @pytest.mark.parametrize("method", METHODS)
    def test_per_column_reference_and_initial(self, method, rng):
        g = random_connected_graph(rng, 40)
        h = make_invertible(rng, g, 2, symmetric=True)
        ys = rng.standard_normal((40, 4))
        refs = np.column_stack([direct_solve_oracle(h, Signal(g, ys[:, j].copy())).values
                                for j in range(4)])
        refs[:, 3] = 0.0                            # plain norms for a zero reference
        cfg = SolverConfig(method=method, max_iter=25)
        traces = assert_block_matches_single(h, ys, cfg, refs)
        assert all(t.status == "max_iter" and t.iterations == 25 for t in traces)
        assert_block_matches_single(h, ys, cfg)
        # a strided reference is normed like np.linalg.norm does, contiguously
        x, trace = solve(h, Signal(g, ys[:, 0].copy()), cfg,
                         reference=Signal(g, refs[:, 0]))
        diff = x.values - refs[:, 0]
        assert trace.relative_errors[-1] == float(
            np.linalg.norm(diff) / np.linalg.norm(refs[:, 0]))

    @pytest.mark.parametrize("method", METHODS)
    def test_column_diverges_while_others_run(self, method, rng):
        # on [[1,2],[2,1]] spgda (I - H/3) and imia (I - H/5) grow the error
        # along [1,-1] and contract it along [1,1]; pgda and opgd converge
        h = from_dense(edge2(), [[1.0, 2.0], [2.0, 1.0]])
        ys = np.column_stack([[3.0, 3.0], [-1.0, 1.0], [3.0 - 1e-3, 3.0 + 1e-3],
                              [0.0, 0.0], rng.standard_normal(2)])
        cfg = SolverConfig(method=method, max_iter=300)
        traces = assert_block_matches_single(
            h, ys, cfg, direct_solve_oracle(h, Signal(h.graph, ys[:, 4].copy())).values)
        if method in ("spgda", "imia"):
            assert traces[1].status == traces[2].status == "diverged"
            assert traces[1].iterations < traces[2].iterations < 300
            assert traces[0].status == "max_iter"
        else:
            assert not any(t.status == "diverged" for t in traces)

    def test_nan_in_live_column_raises_at_its_iteration(self, monkeypatch):
        h = from_dense(edge2(), [[1.0, 2.0], [2.0, 1.0]])
        monkeypatch.setattr(solvers, "DIVERGENCE_FACTOR", float("inf"))
        cfg = SolverConfig(method="spgda", max_iter=10000)
        with pytest.raises(NumericError) as single:
            solve(h, Signal(h.graph, np.array([-1.0, 1.0])), cfg)
        ys = np.array([[3.0, -1.0], [3.0, 1.0]])
        with pytest.raises(NumericError) as block:
            solve_stack(h, ys, (cfg.method,), cfg.max_iter)[0]
        assert block.value.iteration == single.value.iteration

    def test_nan_in_diverged_column_does_not_raise(self, monkeypatch):
        # alone and unbounded, column 1 overflows to NaN long before the
        # last iteration; in the block it diverged first and stopped, so it
        # steps on to NaN without raising while column 0 runs to max_iter
        h = from_dense(edge2(), [[1.0, 2.0], [2.0, 1.0]])
        with monkeypatch.context() as unbounded:
            unbounded.setattr(solvers, "DIVERGENCE_FACTOR", float("inf"))
            with pytest.raises(NumericError) as alone:
                solve(h, Signal(h.graph, np.array([-1.0, 1.0])),
                      SolverConfig(method="spgda", max_iter=10000))
        cfg = SolverConfig(method="spgda", max_iter=alone.value.iteration + 100)
        ys = np.array([[3.0, -1.0], [3.0, 1.0]])
        traces = assert_block_matches_single(h, ys, cfg)
        assert traces[1].status == "diverged"
        assert traces[0].status == "max_iter"
        assert traces[0].iterations == cfg.max_iter

    def test_nan_in_stopped_column_ignored_at_a_later_stop(self, monkeypatch):
        # two 2 x 2 blocks: spgda grows the error along [1,-1,0,0] by 4/3 a
        # step and along [0,0,1,-1] by 2.02/2.01. Column 0 diverges first
        # and steps on to NaN before column 1 diverges; column 1's stop
        # checks its own residual alone
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        h = from_dense(g, [[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0],
                           [0.0, 0.0, 1.0, 1.01], [0.0, 0.0, 1.01, 1.0]])
        ys = np.array([[-1e150, 0.0, 3.0], [1e150, 0.0, 3.0],
                       [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        with monkeypatch.context() as unbounded:
            unbounded.setattr(solvers, "DIVERGENCE_FACTOR", float("inf"))
            with pytest.raises(NumericError) as alone:
                solve(h, Signal(g, ys[:, 0].copy()),
                      SolverConfig(method="spgda", max_iter=10000))
        cfg = SolverConfig(method="spgda", max_iter=4000)
        traces = assert_block_matches_single(h, ys, cfg)
        assert [t.status for t in traces] == ["diverged", "diverged", "max_iter"]
        assert traces[0].iterations < alone.value.iteration < traces[1].iterations

    def test_overflowing_residual_norm_diverges_on_time(self):
        # spgda grows the error along [1, -1] by 4/3 a step. At +-1e300 the
        # squared residual norm overflows from m = 0 on, yet the column
        # stops "diverged" at the iteration it does at +-1e150 and at +-1,
        # with its iterate still finite
        h = from_dense(edge2(), [[1.0, 2.0], [2.0, 1.0]])
        cfg = SolverConfig(method="spgda", max_iter=200)
        stops = {}
        for scale in (1.0, 1e150, 1e300):
            x, (trace,) = solve_stack(h, np.array([[-scale], [scale]]), (cfg.method,),
                                      cfg.max_iter)[0]
            assert trace.status == "diverged" and np.isfinite(x).all()
            stops[scale] = trace.iterations
        assert stops[1e300] == stops[1e150] == stops[1.0]
        # the residual grows by 4/3 a step, so it first exceeds 1e6 times
        # its start at m = ceil(log 1e6 / log 4/3) = 49
        assert stops[1e300] == int(np.ceil(np.log(1e6) / np.log(4.0 / 3.0)))

    def test_overflow_in_one_column_leaves_the_others_bit_identical(self):
        h = from_dense(edge2(), [[1.0, 2.0], [2.0, 1.0]])
        ys = np.array([[-1e300, 1.0, 2.0], [1e300, 1.0, -1.0]])
        traces = assert_block_matches_single(h, ys, SolverConfig("spgda", 100))
        assert [t.status for t in traces] == ["diverged", "max_iter", "diverged"]
        assert traces[0].iterations == traces[2].iterations

    def test_shape_checks(self, rng):
        g = random_connected_graph(rng, 6)
        h = make_spd(rng, g, 1)
        cfg = SolverConfig(method="imia", max_iter=2)
        with pytest.raises(ValueError, match="observation block"):
            solve_stack(h, np.zeros(6), (cfg.method,), cfg.max_iter)[0]
        with pytest.raises(ValueError, match="reference must be"):
            solve_stack(h, np.zeros((6, 2)), (cfg.method,), cfg.max_iter, np.zeros((6, 3)))[0]


class TestWeightedErrors:
    """The weighted errors that criterion 4 and the envelope tests bound are
    the method's weighted norms of the solver's own iterates' errors."""

    @pytest.mark.parametrize("method", ["pgda", "spgda"])
    def test_pinned_to_independent_norms(self, method, rng):
        g = random_connected_graph(rng, 25)
        h = make_well_conditioned_spd(rng, g, 2, spread=0.6)
        y = Signal(g, rng.standard_normal(25))
        ref = direct_solve_oracle(h, y)
        weight = {"pgda": build_pgda_preconditioner(h),
                  "spgda": np.sqrt(build_spgda_preconditioner(h))}[method]
        # x_m as a solve of m iterations ends, which is the m-th iterate of
        # a longer solve bit for bit
        xs = [np.zeros(25)] + [
            solve(h, y, SolverConfig(method=method, max_iter=m))[0].values
            for m in range(1, 13)]
        errors = [x - ref.values for x in xs]
        w = weighted_errors(h, y, method, ref, 12)
        assert w == [np.linalg.norm(weight * e) for e in errors]
        assert w != pytest.approx([np.linalg.norm(e) for e in errors], rel=1e-6)


def sparse_schur_bound(h, p):
    """The Schur bound as sparse sums of |H| P^{-1}."""
    import scipy.sparse as sparse

    hp = abs(h.csr) @ sparse.diags(1.0 / p)
    return float(hp.sum(axis=0).max() * hp.sum(axis=1).max())


class TestSchurBound:
    """The O(nnz) certificate agrees with the sparse sums it replaced, and
    pgda's fallback decision is unchanged."""

    def filters(self, rng):
        from sdnfilt.graphs import knn_graph
        from sdnfilt.scenarios import generate_run_graph, synthetic_points

        for n, seed in ((64, 1), (128, 2), (512, 3)):
            g = generate_run_graph(n, np.sqrt(2.0 / n), 777016 + seed)
            for trial in range(2):
                yield build_fig1_filter(g, 0.05, seed + 10 * trial)
        coords, _ = synthetic_points(218, rng_seed=3)
        yield build_denoise_filter(knn_graph(coords, 5), 0.9075)
        for _ in range(12):
            g = random_connected_graph(rng, int(rng.integers(3, 40)))
            yield make_invertible(rng, g, int(rng.integers(1, 3)), margin=0.2)

    def test_bound_and_decision_unchanged(self, rng, monkeypatch):
        checked = 0
        for h in self.filters(rng):
            p = build_pgda_preconditioner(h)
            # P/2 breaks the certificate, P*2 keeps it
            for scale in (1.0, 0.5, 2.0):
                q = p * scale
                # the sparse product orders each row's entries its own way
                assert solvers._schur_bound(h, q) == pytest.approx(
                    sparse_schur_bound(h, q), rel=1e-14, abs=0.0)
                new = solvers._pgda_radius(h, q)
                with monkeypatch.context() as patch:
                    patch.setattr(solvers, "_schur_bound", sparse_schur_bound)
                    old = solvers._pgda_radius(h, q)
                assert new == old
                checked += new is None
        assert checked >= 10   # the halved P fails the certificate


class TestBlockOracle:
    """An n x T block through `direct_solve_oracle` is T single solves."""

    def check(self, h, ys):
        xs = direct_solve_oracle(h, ys)
        assert xs.shape == ys.shape
        for j in range(ys.shape[1]):
            single = direct_solve_oracle(h, Signal(h.graph, ys[:, j].copy()))
            assert xs[:, j].tobytes() == single.values.tobytes(), j
            assert single.values.tobytes() == h.lu().solve(ys[:, j].copy()).tobytes()

    def test_denoise_and_fig1_filters(self, rng):
        from sdnfilt.graphs import knn_graph
        from sdnfilt.scenarios import generate_run_graph, synthetic_points

        coords, values = synthetic_points(218, rng_seed=0)
        h = build_denoise_filter(knn_graph(coords, 5), 0.9075)
        self.check(h, values[:, None] + rng.uniform(-35, 35, (218, 100)))
        g = generate_run_graph(512, np.sqrt(2.0 / 512), 777016)
        self.check(build_fig1_filter(g, 0.05, 5), rng.standard_normal((512, 20)))

    def test_random_filters(self, rng):
        for _ in range(6):
            g = random_connected_graph(rng, int(rng.integers(2, 40)))
            h = make_invertible(rng, g, int(rng.integers(1, 3)))
            self.check(h, rng.standard_normal((g.n, int(rng.integers(1, 9)))))

    def test_each_column_gated_on_its_own(self):
        # sigma_min ~ 5e-13: columns along (1, 1) solve exactly, while one
        # with a share of (1, -1) leaves a residual above 1e-8 ||y||
        h = from_dense(edge2(), [[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        ys = np.array([[1.0, 0.3, 2.0], [1.0, 0.7, 2.0]])
        fine = np.linalg.norm(h.matvec(h.lu().solve(ys)) - ys, axis=0) <= (
            1e-8 * np.linalg.norm(ys, axis=0))
        assert list(fine) == [True, False, True]
        with pytest.raises(np.linalg.LinAlgError, match="in column 1"):
            direct_solve_oracle(h, ys)


class TestOneOperatorLayer:
    def test_lanczos_applications_pass_one_linear_operator(self, rng, monkeypatch):
        from scipy.sparse.linalg import LinearOperator

        calls = []
        real = LinearOperator.matvec
        monkeypatch.setattr(LinearOperator, "matvec",
                            lambda self, v: calls.append(1) or real(self, v))
        g = random_connected_graph(rng, 30)
        h = make_well_conditioned_spd(rng, g, 2, spread=0.6)
        # every application but the first, the start vector's check, runs
        # under the one operator ARPACK is handed
        for method in ("spgda", "imia", "pgda"):
            params = prepare_params(h, method)
            calls.clear()
            est = spectral_radius(h, method, params)
            assert est.iterations > 1 and len(calls) == est.iterations - 1, method


def fig1_trials(n, master_seed, trials, gamma=0.05):
    """(h, y, x) of the first trials of a fig1 run, drawn as run_fig1 draws
    them: the filter, the observation (n, 1) and the clean signal."""
    from sdnfilt.scenarios import (_STREAM_FILTER, _STREAM_SIGNAL, _stream_seed,
                                   add_uniform_noise, blockwise_polynomial,
                                   generate_run_graph)

    g = generate_run_graph(n, float(np.sqrt(2.0 / n)), master_seed)
    base = blockwise_polynomial(g)
    for t in range(trials):
        h = build_fig1_filter(g, gamma, _stream_seed(master_seed, t, _STREAM_FILTER))
        x = add_uniform_noise(base, 0.2, _stream_seed(master_seed, t, _STREAM_SIGNAL))
        yield h, h.matvec(x.values)[:, None], x.values


class TestSolveStack:
    """A stack of methods on one filter gives, method by method, what each
    method's own solve gives, bit for bit."""

    def assert_stack_matches_alone(self, h, ys, methods, max_iter, reference=None):
        """The stack's iterates and traces against `solve` on each method
        and column alone; returns the stack's traces by method."""
        params = {}
        stacked = solve_stack(h, ys, methods, max_iter, reference, params)
        out = {}
        for method, (xs, traces) in zip(methods, stacked):
            traces = list(traces)
            assert xs.shape == ys.shape and len(traces) == ys.shape[1]
            for j, trace in enumerate(traces):
                ref = None if reference is None else Signal(
                    h.graph, reference if reference.ndim == 1 else reference[:, j])
                x, alone = solve(h, Signal(h.graph, ys[:, j].copy()),
                                 SolverConfig(method, max_iter), ref, params)
                assert bits(xs[:, j]) == bits(x.values), method
                assert dataclasses.asdict(trace) == dataclasses.asdict(alone), method
                assert bits(trace.residuals) == bits(alone.residuals), method
                if reference is not None:
                    assert bits(trace.relative_errors) == bits(alone.relative_errors)
            out[method] = traces
        return out

    @pytest.mark.parametrize("n, master_seed, trials", [(128, 31, 3), (512, 777016, 1)])
    def test_fig1_trials(self, n, master_seed, trials):
        # (512, 777016, 1) is the reference study's first trial
        for h, y, x in fig1_trials(n, master_seed, trials):
            traces = self.assert_stack_matches_alone(h, y, METHODS, 200, x)
            assert all(t[0].status == "max_iter" for t in traces.values())
            # and each equals the plain iteration of the method's own step
            xs = dict(zip(METHODS, (x for x, _ in solve_stack(h, y, METHODS, 200))))
            for method in METHODS:
                step, xm = method_step(h, method, y), np.zeros_like(y)
                for _ in range(200):
                    xm = step(xm, h.matvec(xm) - y)
                assert bits(xs[method]) == bits(xm), method

    def test_overflow_of_a_diverged_method_leaves_the_others_alone(self):
        # at gamma = 0.6 the filter is indefinite: spgda's radius falls back
        # to Lanczos and comes out above 1, and spgda and imia diverge. Their
        # stopped blocks step on until their iterates overflow, while pgda
        # and opgd run to max_iter
        (h, y, x), = fig1_trials(128, 777016, 1, gamma=0.6)
        assert not h.positive_definite()
        max_iter = 5000
        traces = self.assert_stack_matches_alone(h, y, METHODS, max_iter, x)
        for method in ("spgda", "imia"):
            (trace,) = traces[method]
            assert trace.status == "diverged" and trace.iterations < 200
            rho = spectral_radius(h, method).value
            grown = np.log(trace.residuals[-1]) + (max_iter - trace.iterations) * np.log(rho)
            assert grown > np.log(np.finfo(float).max), method
        assert [traces[m][0].status for m in ("pgda", "opgd")] == ["max_iter"] * 2

    def test_nan_in_one_method_raises_naming_it(self, monkeypatch):
        # on [[1,2],[2,1]] spgda grows the error along [1,-1] by 4/3 a step
        # and imia by 6/5; pgda and opgd contract it
        h = from_dense(edge2(), [[1.0, 2.0], [2.0, 1.0]])
        monkeypatch.setattr(solvers, "DIVERGENCE_FACTOR", float("inf"))
        y = np.array([[-1.0], [1.0]])
        alone = {}
        for method in ("spgda", "imia"):
            with pytest.raises(NumericError) as exc:
                solve_stack(h, y, (method,), 10000)[0]
            alone[method] = exc.value.iteration
        assert alone["spgda"] < alone["imia"]
        for stack, first in ((METHODS, "spgda"), (("pgda", "opgd", "imia"), "imia")):
            with pytest.raises(NumericError) as exc:
                solve_stack(h, y, stack, 10000)
            assert exc.value.iteration == alone[first]
            assert str(exc.value) == f"{first}: nonfinite values at iteration {alone[first]}"

    def test_block_over_several_row_tiles(self, rng):
        # n spans three tiles of the transposed row copies, the last one
        # partial; one reference for every column, and one per column
        n = 2 * solvers.ROW_TILE + 77
        coords, values = synthetic_points(n, rng_seed=5)
        h = build_denoise_filter(knn_graph(coords, 7), 0.9075)
        ys = values[:, None] + rng.uniform(-35.0, 35.0, (n, 3))
        for reference in (values, ys - 1.0):
            self.assert_stack_matches_alone(h, ys, METHODS, 30, reference)
            for method in METHODS:
                self.assert_stack_matches_alone(h, ys, (method,), 30, reference)

    def test_zero_observation_converges_at_once(self, rng):
        g = random_connected_graph(rng, 30)
        h = make_invertible(rng, g, 2, symmetric=True)
        traces = self.assert_stack_matches_alone(h, np.zeros((30, 1)), METHODS, 50,
                                                 np.zeros(30))
        for method, (trace,) in traces.items():
            assert (trace.status, trace.iterations) == ("converged", 0), method

    def test_columns_and_early_stops(self, rng):
        # several columns in a stack keep every method's early stops
        h = from_dense(edge2(), [[1.0, 2.0], [2.0, 1.0]])
        ys = np.column_stack([[3.0, 3.0], [-1.0, 1.0], [0.0, 0.0], rng.standard_normal(2)])
        stacked = solve_stack(h, ys, METHODS, 300)
        for method, (xs, traces) in zip(METHODS, stacked):
            x, alone = solve_stack(h, ys, (method,), 300)[0]
            assert bits(xs) == bits(x), method
            assert [dataclasses.asdict(t) for t in traces] == \
                [dataclasses.asdict(t) for t in alone], method
