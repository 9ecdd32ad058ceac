import numpy as np
import pytest

from sdnfilt.filters import GraphFilter, Signal
from sdnfilt.graphs import Graph
from sdnfilt.preconditioners import build_pgda_preconditioner, build_spgda_preconditioner
from sdnfilt.sdn import RangeViolationError, SdnNetwork
from sdnfilt.solvers import SolverConfig, solve

from conftest import hop_row, make_invertible, make_spd, random_connected_graph
from filter_reference import combinatorial_laplacian, entries, filter_of, from_dense, identity
from graph_reference import geodesic_distance
from sdn_reference import (
    ReferenceNetwork,
    agents,
    local_coefficients,
    max_message_distance,
    messages_per_exchange,
    run_rounds,
)


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def edge2():
    return Graph.from_edges(2, [(0, 1)])


class TestSharedRowSums:
    def test_absolute_row_sums_taken_once_per_filter(self, rng, monkeypatch):
        # both preconditioner builders and both simulator setups read the
        # sums the filter caches
        calls = []
        real = GraphFilter.row_sums
        monkeypatch.setattr(GraphFilter, "row_sums",
                            lambda self, data: calls.append(self) or real(self, data))
        g = random_connected_graph(rng, 20)
        h = make_spd(rng, g, 2)
        build_pgda_preconditioner(h)
        build_spgda_preconditioner(h)
        net = SdnNetwork(g, h, Signal(g, np.zeros(20)), log_messages=False)
        net.distributed_preconditioner()
        net.spgda_setup()
        assert calls == [h, h.transpose()]


class TestDistributedPreconditioner:
    def test_identity_no_messages(self, rng):
        g = random_connected_graph(rng, 10)
        h = identity(g)
        y = Signal(g, np.zeros(10))
        net = SdnNetwork(g, h, y)
        p = net.distributed_preconditioner()
        assert np.array_equal(p, np.ones(10))
        assert net.total_messages() == 0

    def test_path_laplacian_values_and_count(self):
        g = path3()
        lap = combinatorial_laplacian(g)
        net = SdnNetwork(g, lap, Signal(g, np.zeros(3)))
        p = net.distributed_preconditioner()
        assert np.array_equal(p, np.array([4.0, 4.0, 4.0]))
        # hand trace: middle vertex sends 2 messages, end vertices 1 each
        assert net.total_messages() == 4

    def test_matches_centralized_bitwise(self, rng):
        for _ in range(12):
            g = random_connected_graph(rng, int(rng.integers(2, 40)))
            h = make_invertible(rng, g, int(rng.integers(1, 3)))
            net = SdnNetwork(g, h, Signal(g, rng.standard_normal(g.n)))
            distributed = net.distributed_preconditioner()
            centralized = build_pgda_preconditioner(h)
            assert np.array_equal(distributed, centralized)

    def test_zero_neighbourhood_rejected_as_centralized(self):
        # vertex 0 has no nonzero row or column within one hop: p(0) = 0,
        # which build_pgda_preconditioner rejects after the d-round
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        h = filter_of(g, {(2, 2): 1.0, (2, 3): 0.5, (3, 2): 0.5, (3, 3): 1.0})
        with pytest.raises(ValueError, match="entry at vertex 0 is zero") as central:
            build_pgda_preconditioner(h)
        net = SdnNetwork(g, h, Signal(g, np.ones(4)))
        with pytest.raises(ValueError) as err:
            net.distributed_preconditioner()
        assert str(err.value) == str(central.value)
        assert net.rounds == ["d"]
        with pytest.raises(RuntimeError, match="preconditioner values missing"):
            net.run_pgda()

    def test_doubled_filter_doubles_preconditioner(self, rng):
        g = random_connected_graph(rng, 10)
        h = make_invertible(rng, g, 1)
        y = Signal(g, rng.standard_normal(10))
        p = SdnNetwork(g, h, y).distributed_preconditioner()
        doubled = SdnNetwork(g, GraphFilter(g, h.csr * 2.0), y).distributed_preconditioner()
        assert np.array_equal(2.0 * p, doubled)

    def test_filter_and_observation_on_the_network_graph(self):
        h = from_dense(edge2(), [[2.0, 1.0], [1.0, 2.0]])
        other = edge2()
        with pytest.raises(ValueError, match="filter built on a different graph"):
            SdnNetwork(other, h, Signal(other, np.zeros(2)))
        with pytest.raises(ValueError, match="observation on a different graph"):
            SdnNetwork(h.graph, h, Signal(other, np.zeros(2)))

    def test_range_below_width_rejected_before_messages(self, rng):
        g = random_connected_graph(rng, 15)
        h = make_invertible(rng, g, 2)
        if h.width < 2:
            pytest.skip("random instance came out narrower than 2")
        with pytest.raises(RangeViolationError, match="communication range"):
            SdnNetwork(g, h, Signal(g, np.zeros(15)), comm_range=h.width - 1)


class TestDistributedPgda:
    def test_identity_one_iteration(self, rng):
        g = random_connected_graph(rng, 8)
        y = Signal(g, rng.standard_normal(8))
        net = SdnNetwork(g, identity(g), y)
        net.distributed_preconditioner()
        x = net.run_pgda()
        assert np.array_equal(x.values, y.values)

    def test_two_by_two_matches_centralized(self):
        h = from_dense(edge2(), [[2.0, 1.0], [1.0, 2.0]])
        y = Signal(h.graph, np.array([1.0, 1.0]))
        central, _ = solve(h, y, SolverConfig(method="pgda", max_iter=2))
        net = SdnNetwork(h.graph, h, y)
        net.distributed_preconditioner()
        x = run_rounds(net.run_pgda, 2)
        assert np.array_equal(x.values, central.values)

    def test_requires_preconditioner(self, rng):
        g = random_connected_graph(rng, 5)
        h = make_invertible(rng, g, 1)
        net = SdnNetwork(g, h, Signal(g, np.zeros(5)))
        with pytest.raises(RuntimeError, match="preconditioner"):
            net.run_pgda()

    def test_message_count_formula(self, rng):
        g = random_connected_graph(rng, 17)
        h = make_invertible(rng, g, 1)
        y = Signal(g, rng.standard_normal(17))
        net = SdnNetwork(g, h, y)
        net.distributed_preconditioner()
        per_exchange = messages_per_exchange(net)
        M = 7
        run_rounds(net.run_pgda, M)
        assert net.total_messages() == per_exchange + M * 2 * per_exchange

    def test_neighborhood_outputs_consistent(self, rng):
        # after the final exchange every agent holds x(j) for its whole
        # neighborhood, and those copies agree with the owners' values
        g = random_connected_graph(rng, 12)
        h = make_invertible(rng, g, 1)
        y = Signal(g, rng.standard_normal(12))
        net = SdnNetwork(g, h, y)
        net.distributed_preconditioner()
        x = run_rounds(net.run_pgda, 3)
        for agent in agents(net):
            for j in agent.neighborhood:
                assert agent.x_local[j] == x.values[j]


class TestDistributedSpgda:
    def test_setup_is_local(self, rng):
        g = random_connected_graph(rng, 9)
        h = make_spd(rng, g, 1)
        net = SdnNetwork(g, h, Signal(g, rng.standard_normal(9)))
        net.spgda_setup()
        assert net.total_messages() == 0

    def test_path_laplacian_row_normalization(self):
        g = path3()
        lap = combinatorial_laplacian(g)
        net = SdnNetwork(g, lap, Signal(g, np.zeros(3)))
        net.spgda_setup()
        # the middle agent's p_sym is 4: its row (-1, 2, -1) scaled by 1/4
        assert np.array_equal(local_coefficients(net, net._spgda_step, 1),
                              np.array([-0.25, 0.5, -0.25]))
        # pgda's agent i holds column i of H over its ball, scaled by
        # 1/p(i)^2; only a nonsymmetric pattern, the upper triangle here,
        # tells a column from a row
        upper = filter_of(g, [(i, j, v) for i, j, v in entries(lap) if j >= i])
        for h in (lap, upper):
            net = SdnNetwork(g, h, Signal(g, np.zeros(3)))
            p, dense = net.distributed_preconditioner(), h.csr.toarray()
            for i in range(3):
                ball = net._ball.indices[net._ball.indptr[i]:net._ball.indptr[i + 1]]
                assert np.array_equal(local_coefficients(net, net._pgda_step, i),
                                      dense[ball, i] / (p[i] * p[i]))

    def test_nonsymmetric_filter_rejected_as_centralized(self):
        # the setup is spgda's centralized Method, symmetry check included
        g = path3()
        h = filter_of(g, {(0, 0): 2.0, (0, 1): -1.0, (1, 1): 2.0,
                          (1, 2): -1.0, (2, 2): 2.0})
        with pytest.raises(ValueError, match="filter is not symmetric") as central:
            build_spgda_preconditioner(h)
        net = SdnNetwork(g, h, Signal(g, np.ones(3)))
        for setup in (net.spgda_setup, net.run_spgda):
            with pytest.raises(ValueError) as err:
                setup()
            assert str(err.value) == str(central.value)
        assert net.total_messages() == 0

    def test_identity_one_iteration_no_messages(self, rng):
        g = random_connected_graph(rng, 6)
        y = Signal(g, rng.standard_normal(6))
        net = SdnNetwork(g, identity(g), y)
        x = net.run_spgda()
        assert np.array_equal(x.values, y.values)
        assert net.total_messages() == 0

    def test_half_of_pgda_traffic(self, rng):
        g = random_connected_graph(rng, 14)
        h = make_spd(rng, g, 1)
        y = Signal(g, rng.standard_normal(14))
        M = 5
        net_s = SdnNetwork(g, h, y)
        run_rounds(net_s.run_spgda, M)
        net_p = SdnNetwork(g, h, y)
        net_p.distributed_preconditioner()
        run_rounds(net_p.run_pgda, M)
        pgda_iteration_msgs = net_p.total_messages() - messages_per_exchange(net_p)
        assert net_s.total_messages() * 2 == pgda_iteration_msgs

    def test_matches_centralized_on_shifted_laplacian(self, rng):
        g = random_connected_graph(rng, 11)
        h = GraphFilter(g, identity(g).csr + combinatorial_laplacian(g).csr)
        y = Signal(g, rng.standard_normal(11))
        central, _ = solve(h, y, SolverConfig(method="spgda", max_iter=50))
        net = SdnNetwork(g, h, y)
        x = run_rounds(net.run_spgda, 50)
        assert np.array_equal(x.values, central.values)


class TestBitEquality:
    def test_random_instances(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 41))
            g = random_connected_graph(rng, n)
            width = int(rng.integers(1, 3))
            y = Signal(g, rng.standard_normal(n))
            M = int(rng.integers(1, 60))

            h = make_invertible(rng, g, width)
            central, _ = solve(h, y, SolverConfig(method="pgda", max_iter=M))
            net = SdnNetwork(g, h, y)
            net.distributed_preconditioner()
            assert np.array_equal(run_rounds(net.run_pgda, M).values, central.values)

            hs = make_spd(rng, g, width)
            central_s, _ = solve(hs, y, SolverConfig(method="spgda", max_iter=M))
            net_s = SdnNetwork(g, hs, y)
            assert np.array_equal(run_rounds(net_s.run_spgda, M).values, central_s.values)


class TestRangeAndLocality:
    def test_all_messages_within_range(self, rng):
        g = random_connected_graph(rng, 20)
        h = make_invertible(rng, g, 2)
        y = Signal(g, rng.standard_normal(20))
        net = SdnNetwork(g, h, y, comm_range=max(h.width, 2))
        net.distributed_preconditioner()
        run_rounds(net.run_pgda, 3)
        assert max_message_distance(net) <= net.comm_range

    def test_max_message_distance_without_log(self, rng):
        g = random_connected_graph(rng, 12)
        h = make_invertible(rng, g, 2)
        net = SdnNetwork(g, h, Signal(g, rng.standard_normal(12)),
                         log_messages=False)
        net.distributed_preconditioner()
        run_rounds(net.run_pgda, 2)
        assert net.total_messages() > 0
        assert max_message_distance(net) == 0

    def test_agents_store_only_local_data(self, rng):
        g = random_connected_graph(rng, 25)
        h = make_invertible(rng, g, 2)
        net = SdnNetwork(g, h, Signal(g, np.zeros(25)), comm_range=2)
        for agent in agents(net):
            hood = set(hop_row(g, agent.vertex, h.width))
            assert set(agent.row_ids) <= hood
            assert set(agent.col_ids) <= hood
            assert set(agent.x_local) <= hood

    def test_row_and_column_copies_agree_across_agents(self, rng):
        # agent i's H(i,j) must equal the H(i,j) stored in agent j's column
        g = random_connected_graph(rng, 18)
        h = make_invertible(rng, g, 1)
        net = SdnNetwork(g, h, Signal(g, np.zeros(18)))
        views = agents(net)
        for agent in views:
            i = agent.vertex
            for k in range(len(agent.row_ids)):
                j = int(agent.row_ids[k])
                other = views[j]
                pos = np.searchsorted(other.col_ids, i)
                assert other.col_ids[pos] == i
                assert other.col_vals[pos] == agent.row_vals[k]

    def test_output_depends_only_on_dependency_cone(self, rng):
        # one iteration: x(v) is a function of data within B(v, width) only,
        # so perturbing y outside that ball cannot change it
        g = random_connected_graph(rng, 30)
        h = make_invertible(rng, g, 1)
        v = 0
        far = [u for u in range(g.n) if geodesic_distance(g, v, u) > h.width]
        if not far:
            pytest.skip("graph too dense for an outside vertex")
        y1 = rng.standard_normal(30)
        y2 = y1.copy()
        y2[far[0]] += 5.0

        outputs = []
        for yv in (y1, y2):
            net = SdnNetwork(g, h, Signal(g, yv))
            net.distributed_preconditioner()
            outputs.append(net.run_pgda().values[v])
        assert outputs[0] == outputs[1]


class TestTimeVarying:
    """A time-varying run deploys one network per epoch; each epoch's
    agents see only that epoch's filter."""

    def test_epochs_match_centralized(self, rng):
        g = random_connected_graph(rng, 15)
        y = Signal(g, rng.standard_normal(15))
        filters = [make_invertible(rng, g, 1) for _ in range(3)]
        comm_range = max(h.width for h in filters)
        for t, h in enumerate(filters):
            net = SdnNetwork(g, h, y, comm_range=comm_range, epoch=t)
            net.distributed_preconditioner()
            x = run_rounds(net.run_pgda, 20)
            central, _ = solve(h, y, SolverConfig(method="pgda", max_iter=20))
            assert np.array_equal(x.values, central.values)
            assert net.message_log().epoch == t

    def test_width_beyond_range_rejected_at_epoch(self, rng):
        g = random_connected_graph(rng, 20)
        h2 = make_invertible(rng, g, 2)
        if h2.width < 2:
            pytest.skip("random instance came out narrower than 2")
        y = Signal(g, rng.standard_normal(20))
        with pytest.raises(RangeViolationError, match="epoch 1"):
            SdnNetwork(g, h2, y, comm_range=1, epoch=1)

    def test_width_beyond_range_without_epoch_names_none(self, rng):
        # a network deployed outside time_varying has no epoch to name;
        # its message log carries epoch 0
        g = random_connected_graph(rng, 20)
        h2 = make_invertible(rng, g, 2)
        if h2.width < 2:
            pytest.skip("random instance came out narrower than 2")
        y = Signal(g, rng.standard_normal(20))
        with pytest.raises(RangeViolationError) as err:
            SdnNetwork(g, h2, y, comm_range=1)
        assert str(err.value).startswith("communication range 1 is below")
        net = SdnNetwork(g, h2, y)
        net.distributed_preconditioner()
        assert net.epoch == 0 and net.message_log().epoch == 0


class TestNetworkSummary:
    def test_record_counts(self, rng):
        g = random_connected_graph(rng, 9)
        h = make_invertible(rng, g, 1)
        net = SdnNetwork(g, h, Signal(g, rng.standard_normal(9)))
        net.distributed_preconditioner()
        run_rounds(net.run_pgda, 2)
        # one d-exchange plus 2 x (v, x)
        assert net.rounds == ["d", "v", "x", "v", "x"]
        log = net.message_log()
        assert (log.epoch, log.kinds, len(log.sent)) == (0, net.rounds, 5)
        assert len(log.senders) == len(log.receivers) == messages_per_exchange(net)
        assert net.total_messages() == 5 * messages_per_exchange(net)
        assert len(agents(net)) == 9


def slot(net, agent, vertex):
    """Position of agent's local copy of x(vertex) in the network's slot
    array (white-box: the compiled layout is B.indptr/B.indices)."""
    lo, hi = net._ball.indptr[agent], net._ball.indptr[agent + 1]
    return lo + list(net._ball.indices[lo:hi]).index(vertex)


class TestCompiledLocality:
    def far_pair(self, rng, g, h):
        """(i, j, u): agents i != j and a vertex u outside ball(i, width)
        with H(j,u) != 0, so agent j's copy of x(u) feeds its own update."""
        for i in rng.permutation(g.n):
            hood = set(hop_row(g, int(i), h.width))
            for j, u, _ in entries(h):
                if j != i and u not in hood:
                    return int(i), j, u
        pytest.skip("no vertex outside any ball")

    def test_spgda_agent_ignores_other_agents_slots(self, rng):
        # one spgda update reads only the agent's own slots: corrupting
        # agent j's copy of x(u), u outside ball(i), moves x(j) but not x(i)
        g = random_connected_graph(rng, 30)
        h = make_spd(rng, g, 1)
        y = Signal(g, rng.standard_normal(30))
        i, j, u = self.far_pair(rng, g, h)
        clean, dirty = SdnNetwork(g, h, y), SdnNetwork(g, h, y)
        run_rounds(clean.run_spgda, 2)
        run_rounds(dirty.run_spgda, 2)
        dirty._x[slot(dirty, j, u)] += 5.0
        a, b = clean.run_spgda().values, dirty.run_spgda().values
        assert a[i] == b[i]
        assert a[j] != b[j]

    def test_pgda_output_ignores_slots_outside_ball(self, rng):
        # a pgda iteration at i hears only v from its ball, so corrupting
        # the slots of an agent j outside ball(i) cannot reach x(i)
        g = random_connected_graph(rng, 30)
        h = make_invertible(rng, g, 1)
        y = Signal(g, rng.standard_normal(30))
        i = 0
        hood = set(hop_row(g, i, h.width))
        j = next((v for v in range(g.n) if v not in hood), None)
        if j is None:
            pytest.skip("graph too dense for an outside agent")
        nets = [SdnNetwork(g, h, y), SdnNetwork(g, h, y)]
        for net in nets:
            net.distributed_preconditioner()
            run_rounds(net.run_pgda, 2)
        nets[1]._x[slot(nets[1], j, j)] += 5.0
        a, b = (net.run_pgda().values for net in nets)
        assert a[i] == b[i]
        assert a[j] != b[j]


class TestMatchesReference:
    """The compiled simulator against the dict-loop reference."""

    @staticmethod
    def rows(net):
        log = net.message_log()
        return [[(int(s), int(t), kind, float(v))
                 for s, t, v in zip(log.senders, log.receivers, sent[log.senders])]
                for kind, sent in zip(log.kinds, log.sent)]

    def check(self, net, ref, x, x_ref):
        assert np.array_equal(x.values, x_ref)
        # every round sends the network's one pattern
        assert [(kind, len(net.message_log().senders)) for kind in net.rounds] == \
            [(kind, count) for kind, count, _ in ref.rounds]
        assert net.total_messages() == sum(count for _, count, _ in ref.rounds)
        assert self.rows(net) == [messages for _, _, messages in ref.rounds]
        hops = [geodesic_distance(net.graph, s, t)
                for _, _, messages in ref.rounds for s, t, _, _ in messages]
        assert max_message_distance(net) == max(hops, default=0)

    def test_random_instances(self, rng):
        for k in range(12):
            n = int(rng.integers(2, 31))
            g = random_connected_graph(rng, n)
            width = int(rng.integers(1, 3))
            y = Signal(g, rng.standard_normal(n))
            M = int(rng.integers(1, 8))
            h = make_invertible(rng, g, width)
            comm = h.width + (k % 2) * int(rng.integers(1, 3))

            net = SdnNetwork(g, h, y, comm_range=comm, epoch=k)
            ref = ReferenceNetwork(g, h, y, comm_range=comm)
            assert np.array_equal(net.distributed_preconditioner(),
                                  ref.distributed_preconditioner())
            self.check(net, ref, run_rounds(net.run_pgda, M), ref.run_pgda(M))
            assert net.message_log().epoch == k

            hs = make_spd(rng, g, width)
            net_s = SdnNetwork(g, hs, y, comm_range=comm)
            ref_s = ReferenceNetwork(g, hs, y, comm_range=comm)
            self.check(net_s, ref_s, run_rounds(net_s.run_spgda, M), ref_s.run_spgda(M))
            # the agents divide by the filter's own absolute row sums
            assert np.array_equal(hs.row_abs_sums(), ref_s.p)

    def test_filtered_is_the_centralized_product(self, rng):
        # the H x the agents form for their next residual equals the
        # centralized product bit for bit, and reading it between rounds
        # changes no iterate, round or message
        for _ in range(6):
            n = int(rng.integers(2, 31))
            g = random_connected_graph(rng, n)
            h = make_invertible(rng, g, int(rng.integers(1, 3)))
            y = Signal(g, rng.standard_normal(n))
            stepped, whole = SdnNetwork(g, h, y), SdnNetwork(g, h, y)
            for net in (stepped, whole):
                net.distributed_preconditioner()
            for _ in range(5):
                x = stepped.run_pgda().values
                assert np.array_equal(stepped.filtered(), h.csr @ x)
                assert np.array_equal(stepped.filtered(), h.matvec(x[:, None])[:, 0])
            assert np.array_equal(run_rounds(whole.run_pgda, 5).values, x)
            assert self.rows(stepped) == self.rows(whole)

    def test_log_off_keeps_counts(self, rng):
        g = random_connected_graph(rng, 15)
        h = make_invertible(rng, g, 2)
        y = Signal(g, rng.standard_normal(15))
        quiet = SdnNetwork(g, h, y, log_messages=False)
        loud = SdnNetwork(g, h, y)
        for net in (quiet, loud):
            net.distributed_preconditioner()
            run_rounds(net.run_pgda, 3)
        assert quiet.rounds == loud.rounds
        assert quiet.total_messages() == loud.total_messages() > 0
        quiet_log, loud_log = quiet.message_log(), loud.message_log()
        assert np.array_equal(quiet_log.senders, loud_log.senders)
        assert quiet_log.kinds == loud_log.kinds
        assert quiet_log.sent == [] and len(loud_log.sent) == len(loud.rounds)
        assert np.array_equal(quiet.gather().values, loud.gather().values)
