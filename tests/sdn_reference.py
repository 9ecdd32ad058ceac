"""Reference vertex-level simulator for the tests: one dict per agent and a
Python loop per message.

This is the straightforward form of the algorithms in sdnfilt.sdn. Every
agent keeps {vertex: value} copies for its width ball, sums its stored row
in ascending neighbor id, and each exchange walks the senders in ascending
order and their receivers in ascending order, checking every message
against the hop range. Neighborhoods come from the breadth-first
geodesic_distance, not from the sparse hop matrix. The compiled simulator
must agree with it on iterates, preconditioner, per-round counts and every
logged message.

`run_rounds` runs several rounds of the compiled simulator, which takes
one per call. The functions after it are the locality instruments: each
agent's local storage read out of a network's compiled slot arrays, the
coefficients of a bound local update, and the message count and hop
distances that the simulator's counters and logs must respect.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from graph_reference import geodesic_distance


class ReferenceNetwork:
    def __init__(self, graph, h, y, comm_range=None):
        self.graph = graph
        self.width = h.width
        self.comm_range = h.width if comm_range is None else comm_range
        self.rounds = []          # (kind, count, [(sender, receiver, kind, value)])
        hops = [[geodesic_distance(graph, i, j) for j in range(graph.n)]
                for i in range(graph.n)]
        self.hood = [[j for j, d in enumerate(row) if d <= h.width] for row in hops]
        self.reach = [{j for j, d in enumerate(row) if d <= self.comm_range}
                      for row in hops]
        csr, csc = h.csr, h.transpose().csr
        self.rows = [(csr.indices[csr.indptr[i]:csr.indptr[i + 1]],
                      csr.data[csr.indptr[i]:csr.indptr[i + 1]])
                     for i in range(graph.n)]
        self.cols = [(csc.indices[csc.indptr[i]:csc.indptr[i + 1]],
                      csc.data[csc.indptr[i]:csc.indptr[i + 1]])
                     for i in range(graph.n)]
        self.y = y.values
        self.x_local = [{j: 0.0 for j in hood} for hood in self.hood]
        self.p = None

    def exchange(self, kind, payload):
        inbox = {i: {i: payload[i]} for i in range(self.graph.n)}
        messages = []
        for i in range(self.graph.n):
            for j in self.hood[i]:
                if j == i:
                    continue
                assert j in self.reach[i], f"message {i} -> {j} out of range"
                inbox[j][i] = payload[i]
                messages.append((i, j, kind, payload[i]))
        self.rounds.append((kind, len(messages), messages))
        return inbox

    def local_sum(self, ids, vals, values):
        s = 0.0
        for k in range(len(ids)):
            s += vals[k] * values[ids[k]]
        return s

    def distributed_preconditioner(self):
        d = {i: max(np.abs(self.rows[i][1]).sum(), np.abs(self.cols[i][1]).sum())
             for i in range(self.graph.n)}
        inbox = self.exchange("d", d)
        self.p = np.array([max(inbox[i].values()) for i in range(self.graph.n)])
        return self.p

    def store(self, inbox):
        for i, box in inbox.items():
            self.x_local[i].update(box)

    def run_pgda(self, iterations):
        for _ in range(iterations):
            v = {i: self.y[i] - self.local_sum(*self.rows[i], self.x_local[i])
                 for i in range(self.graph.n)}
            v_inbox = self.exchange("v", v)
            x = {}
            for i in range(self.graph.n):
                ids, vals = self.cols[i]
                scaled = vals / (self.p[i] * self.p[i])
                x[i] = self.x_local[i][i] + self.local_sum(ids, scaled, v_inbox[i])
            self.store(self.exchange("x", x))
        return self.gather()

    def run_spgda(self, iterations):
        self.p = np.array([np.abs(vals).sum() for _, vals in self.rows])
        for _ in range(iterations):
            x = {}
            for i in range(self.graph.n):
                ids, vals = self.rows[i]
                s = self.local_sum(ids, vals / self.p[i], self.x_local[i])
                x[i] = (self.x_local[i][i] + self.y[i] / self.p[i]) - s
            self.store(self.exchange("x", x))
        return self.gather()

    def gather(self):
        return np.array([self.x_local[i][i] for i in range(self.graph.n)])


def run_rounds(run, rounds):
    """Call a one-round simulator step, `SdnNetwork.run_pgda` or
    `run_spgda`, `rounds` times; returns the last gathered iterate."""
    for _ in range(rounds):
        x = run()
    return x


def agents(net):
    """One view per agent of its local storage in the compiled network:
    its width ball (ascending, itself included), the nonzero entries of
    its filter row and column by ascending neighbor id, and its copies of
    x by vertex."""
    views, csr, csc = [], net._h.csr, net._h.transpose().csr
    for i in range(net.graph.n):
        own, row, col = (slice(m.indptr[i], m.indptr[i + 1])
                         for m in (net._ball, csr, csc))
        hood = net._ball.indices[own].tolist()
        views.append(SimpleNamespace(
            vertex=i, neighborhood=hood,
            row_ids=csr.indices[row], row_vals=csr.data[row],
            col_ids=csc.indices[col], col_vals=csc.data[col],
            x_local=dict(zip(hood, net._x[own].tolist()))))
    return views


def local_coefficients(net, step, i):
    """Agent i's coefficients in the bound local update `step`, one per
    slot of its own ball, read back by applying it to the unit slot
    vectors."""
    lo, hi = net._ball.indptr[i], net._ball.indptr[i + 1]
    return step(np.eye(net._ball.nnz)[:, lo:hi])[i]


def hop_distances(graph):
    """All-pairs hop distances, by one breadth-first search per vertex."""
    dist = np.full((graph.n, graph.n), -1)
    for i in range(graph.n):
        dist[i, i], frontier, depth = 0, [i], 0
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for w in graph.adjacency[u]:
                    if dist[i, w] < 0:
                        dist[i, w] = depth
                        nxt.append(w)
            frontier = nxt
    return dist


def messages_per_exchange(net):
    """Messages in one exchange: each agent sends to every other vertex
    within the filter width."""
    dist = hop_distances(net.graph)
    return int(((dist >= 0) & (dist <= net.width)).sum()) - net.graph.n


def max_message_distance(net):
    """Largest hop distance traveled by a logged message, or 0 when none
    was logged."""
    log = net.message_log()
    if not log.sent:
        return 0
    return int(hop_distances(net.graph)[log.senders, log.receivers].max(initial=0))
