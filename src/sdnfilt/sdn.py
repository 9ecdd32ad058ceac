"""Bulk-synchronous simulation of inverse filtering on a spatially
distributed network.

Each vertex hosts one agent holding only its own observation, the nonzero
filter entries of its row and column, and signal values for vertices within
the filter's geodesic width. Computation proceeds in rounds; all messages
sent in a round read pre-round state, and every message is checked against
the network's hop communication range. Per-agent sums run in ascending
neighbor id, which makes the gathered results bit-identical to the
centralized solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filters import GraphFilter, Signal
from .graphs import Graph, ball, geodesic_distance

__all__ = [
    "AgentState",
    "Round",
    "RangeViolationError",
    "SdnNetwork",
    "run_time_varying",
    "TimeVaryingEpoch",
]

MESSAGE_KINDS = ("d", "v", "x", "p")


class RangeViolationError(RuntimeError):
    """A message would travel farther than the communication range allows."""


@dataclass
class AgentState:
    """Local storage of one agent.

    Everything here is reachable within the filter width: the ball members,
    the nonzero row/column entries aligned to ascending neighbor ids, and
    the locally known signal values.
    """

    vertex: int
    neighborhood: tuple[int, ...]          # B(i, width), ascending, includes i
    row_ids: np.ndarray                    # j with H(i,j) != 0, ascending
    row_vals: np.ndarray                   # H(i,j)
    col_ids: np.ndarray                    # j with H(j,i) != 0, ascending
    col_vals: np.ndarray                   # H(j,i)
    y: float = 0.0
    p_value: float | None = None
    x_local: dict[int, float] = field(default_factory=dict)
    scratch: dict = field(default_factory=dict)


@dataclass
class Round:
    """One synchronized exchange: every message was sent this round and
    satisfies the hop-range constraint."""

    epoch: int
    index: int
    kind: str
    messages: list  # (sender, receiver, kind, value) when logging is on
    count: int


class SdnNetwork:
    """Agents on a graph, a hop-range-checked message fabric, and the
    vertex-level inverse filtering algorithms.

    comm_range must be at least the filter width, otherwise the exchange
    steps are physically impossible; this is checked before anything runs.
    """

    def __init__(
        self,
        graph: Graph,
        h: GraphFilter,
        y: Signal,
        comm_range: int | None = None,
        log_messages: bool = True,
        epoch: int = 0,
    ):
        if h.graph is not graph:
            raise ValueError("filter built on a different graph")
        if y.graph is not graph:
            raise ValueError("observation on a different graph")
        comm_range = h.width if comm_range is None else int(comm_range)
        if comm_range < h.width:
            raise RangeViolationError(
                f"communication range {comm_range} is below the filter "
                f"width {h.width}; no message has been sent"
            )
        self.graph = graph
        self.width = h.width
        self.comm_range = comm_range
        self.log_messages = log_messages
        self.epoch = epoch
        self.rounds: list[Round] = []
        self._reach = [set(ball(graph, i, comm_range).members)
                       for i in range(graph.n)]
        self.agents = self._deploy(h, y)

    # ---- construction ----------------------------------------------------

    def _deploy(self, h: GraphFilter, y: Signal) -> list[AgentState]:
        csr = h.csr
        csc = h.transpose().csr
        agents = []
        for i in range(self.graph.n):
            hood = ball(self.graph, i, self.width).members
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            tlo, thi = csc.indptr[i], csc.indptr[i + 1]
            agents.append(AgentState(
                vertex=i,
                neighborhood=hood,
                row_ids=csr.indices[lo:hi].copy(),
                row_vals=csr.data[lo:hi].copy(),
                col_ids=csc.indices[tlo:thi].copy(),
                col_vals=csc.data[tlo:thi].copy(),
                y=y.values[i],
                x_local={j: 0.0 for j in hood},
            ))
        return agents

    # ---- messaging -------------------------------------------------------

    def _exchange(self, kind: str, payload: dict[int, float]) -> dict[int, dict[int, float]]:
        """One synchronized round: agent i sends payload[i] to every other
        member of its width-neighborhood. Returns the per-agent inbox
        (sender -> value), which includes the agent's own value."""
        inbox: dict[int, dict[int, float]] = {
            i: {i: payload[i]} for i in payload
        }
        messages = []
        count = 0
        for i in sorted(payload):
            value = payload[i]
            for j in self.agents[i].neighborhood:
                if j == i:
                    continue
                if j not in self._reach[i]:
                    rho = geodesic_distance(self.graph, i, j)
                    raise RangeViolationError(
                        f"message {i} -> {j} travels {rho} hops, beyond the "
                        f"communication range {self.comm_range}"
                    )
                inbox[j][i] = value
                count += 1
                if self.log_messages:
                    messages.append((i, j, kind, value))
        self.rounds.append(Round(
            epoch=self.epoch, index=len(self.rounds), kind=kind,
            messages=messages, count=count,
        ))
        return inbox

    def total_messages(self) -> int:
        return sum(r.count for r in self.rounds)

    def expected_messages_per_exchange(self) -> int:
        return sum(len(a.neighborhood) - 1 for a in self.agents)

    # ---- Algorithm: distributed preconditioner ---------------------------

    def distributed_preconditioner(self) -> np.ndarray:
        """Hop-local preconditioner: each agent takes the larger of its
        absolute row and column sums, shares it once with its
        width-neighborhood, and keeps the maximum it hears."""
        local_d = {}
        for a in self.agents:
            d = max(np.abs(a.row_vals).sum(), np.abs(a.col_vals).sum())
            a.scratch["d"] = d
            local_d[a.vertex] = d
        inbox = self._exchange("d", local_d)
        p = np.zeros(self.graph.n)
        for a in self.agents:
            a.p_value = max(inbox[a.vertex].values())
            p[a.vertex] = a.p_value
        return p

    # ---- Algorithm: distributed PGDA --------------------------------------

    def run_pgda(self, iterations: int) -> Signal:
        """Vertex-level preconditioned gradient descent from zero initial.

        Per iteration: local residual v(i) = y(i) - sum_j H(i,j) x(j), a
        v-exchange, the local update x(i) += sum_j H(j,i)/P(i,i)^2 * v(j),
        and an x-exchange (also after the final iteration, so every agent
        ends up holding x(j) for its whole neighborhood).
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        for a in self.agents:
            if a.p_value is None:
                raise RuntimeError(
                    "preconditioner values missing; run "
                    "distributed_preconditioner() first"
                )
            p2 = a.p_value * a.p_value
            a.scratch["col_scaled"] = a.col_vals / p2
        for _ in range(iterations):
            local_v = {}
            for a in self.agents:
                s = 0.0
                for k in range(len(a.row_ids)):
                    s += a.row_vals[k] * a.x_local[a.row_ids[k]]
                local_v[a.vertex] = a.y - s
            v_inbox = self._exchange("v", local_v)
            local_x = {}
            for a in self.agents:
                vbox = v_inbox[a.vertex]
                scaled = a.scratch["col_scaled"]
                s = 0.0
                for k in range(len(a.col_ids)):
                    s += scaled[k] * vbox[a.col_ids[k]]
                local_x[a.vertex] = a.x_local[a.vertex] + s
            x_inbox = self._exchange("x", local_x)
            for a in self.agents:
                for j, value in x_inbox[a.vertex].items():
                    a.x_local[j] = value
        return self.gather()

    # ---- Algorithm: distributed SPGDA -------------------------------------

    def spgda_setup(self) -> None:
        """Purely local normalization: p_sym(i) = sum_j |H(i,j)|, scaled row
        H(i,j)/p_sym(i) and scaled observation y(i)/p_sym(i). No messages."""
        for a in self.agents:
            p = np.abs(a.row_vals).sum()
            if p == 0.0:
                raise ValueError(f"row {a.vertex} of the filter is all zero")
            a.p_value = p
            a.scratch["row_scaled"] = a.row_vals / p
            a.scratch["y_scaled"] = a.y / p

    def run_spgda(self, iterations: int) -> Signal:
        """Vertex-level symmetric preconditioned gradient descent from zero
        initial: one local update and one x-exchange per iteration (half the
        traffic of run_pgda)."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if any("row_scaled" not in a.scratch for a in self.agents):
            self.spgda_setup()
        for _ in range(iterations):
            local_x = {}
            for a in self.agents:
                scaled = a.scratch["row_scaled"]
                s = 0.0
                for k in range(len(a.row_ids)):
                    s += scaled[k] * a.x_local[a.row_ids[k]]
                local_x[a.vertex] = (a.x_local[a.vertex] + a.scratch["y_scaled"]) - s
            x_inbox = self._exchange("x", local_x)
            for a in self.agents:
                for j, value in x_inbox[a.vertex].items():
                    a.x_local[j] = value
        return self.gather()

    # ---- outputs ----------------------------------------------------------

    def gather(self) -> Signal:
        return Signal(
            self.graph,
            np.array([a.x_local[a.vertex] for a in self.agents]),
        )

    def max_message_distance(self) -> int:
        """Largest hop distance actually traveled by a logged message."""
        worst = 0
        for r in self.rounds:
            for i, j, _, _ in r.messages:
                worst = max(worst, geodesic_distance(self.graph, i, j))
        return worst

    def summary(self) -> dict:
        """JSON-compatible record of the simulation so far."""
        return {
            "agents": self.graph.n,
            "filter_width": self.width,
            "comm_range": self.comm_range,
            "rounds": len(self.rounds),
            "messages": self.total_messages(),
        }


@dataclass
class TimeVaryingEpoch:
    epoch: int
    x: Signal
    preconditioner: np.ndarray
    messages: int
    rounds: int
    round_log: list | None = None


def run_time_varying(
    graph: Graph,
    filters: list[GraphFilter],
    observations: list[Signal],
    iterations: int,
    comm_range: int,
    log_messages: bool = False,
) -> list[TimeVaryingEpoch]:
    """Re-run the vertex-level pipeline for a sequence of filters.

    Each epoch hands the agents only their local rows and columns of that
    epoch's filter, rebuilds the preconditioner by local exchange, and runs
    the distributed gradient descent; nothing global is ever computed.
    """
    if len(filters) != len(observations):
        raise ValueError("need one observation per filter epoch")
    out = []
    for t, (h, y) in enumerate(zip(filters, observations)):
        if h.width > comm_range:
            raise RangeViolationError(
                f"epoch {t}: filter width {h.width} exceeds communication "
                f"range {comm_range}"
            )
        net = SdnNetwork(graph, h, y, comm_range=comm_range,
                         log_messages=log_messages, epoch=t)
        p = net.distributed_preconditioner()
        x = net.run_pgda(iterations)
        out.append(TimeVaryingEpoch(
            epoch=t, x=x, preconditioner=p,
            messages=net.total_messages(), rounds=len(net.rounds),
            round_log=net.rounds if log_messages else None,
        ))
    return out
