"""Bulk-synchronous simulation of inverse filtering on a spatially
distributed network.

Each vertex hosts one agent holding only its own observation, the nonzero
filter entries of its row and column, and signal values for vertices within
the filter's geodesic width. All messages sent in a round read pre-round
state. The exchanges are compiled once, at deploy: agent i keeps its copies
in the slots B.indptr[i]:B.indptr[i+1] of the sorted width-ball pattern
B = pattern((I+A)^width), every filter entry it uses maps to one of its own
slots, and every (sender, receiver) pair lies within the width, which the
hop range must cover. A round is the gather payload[B.indices] plus
per-agent CSR rows over the slots, taken by `filters.csr_product`: H's for
the residual, and for each method the centralized G (`solvers.Method.g`),
placed on the slots. csr_matvec sums each row in stored (ascending
neighbor id) order from 0.0, so the gathered results are bit-identical to
the centralized solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .filters import GraphFilter, Signal, csr_product
from .graphs import Graph, ball_positions, hop_matrix
from .preconditioners import build_pgda_preconditioner
from .solvers import _pgda, _spgda

__all__ = [
    "MessageLog",
    "RangeViolationError",
    "SdnNetwork",
]


class RangeViolationError(RuntimeError):
    """A message would travel farther than the communication range allows."""


@dataclass
class MessageLog:
    """The messages of one network's rounds. Every round sends the same
    pattern, each message within the hop range: message k goes from
    senders[k] to receivers[k], sender-major with receivers ascending, and
    in round r carries sent[r][senders[k]]. kinds holds each round's kind;
    sent holds each round's payload, one value per agent, and is empty
    when logging was off."""

    epoch: int
    senders: np.ndarray
    receivers: np.ndarray
    kinds: list
    sent: list


class SdnNetwork:
    """Agents on a graph, a hop-range-checked message fabric, and the
    vertex-level inverse filtering algorithms.

    comm_range must be at least the filter width, otherwise the exchange
    steps are physically impossible; this is checked before anything runs.
    `epoch` names a time_varying epoch in that error and tags the message
    log; a network given none logs epoch 0. `rounds` holds the kind of
    each exchange so far.
    """

    def __init__(
        self,
        graph: Graph,
        h: GraphFilter,
        y: Signal,
        comm_range: int | None = None,
        log_messages: bool = True,
        epoch: int | None = None,
    ):
        if h.graph is not graph:
            raise ValueError("filter built on a different graph")
        if y.graph is not graph:
            raise ValueError("observation on a different graph")
        comm_range = h.width if comm_range is None else int(comm_range)
        if comm_range < h.width:
            raise RangeViolationError(
                f"{'' if epoch is None else f'epoch {epoch}: '}communication "
                f"range {comm_range} is below the filter width {h.width}; no "
                "message has been sent"
            )
        self.graph = graph
        self.width = h.width
        self.comm_range = comm_range
        self.log_messages = log_messages
        self.epoch = 0 if epoch is None else epoch
        self.rounds: list[str] = []
        self._payloads: list[np.ndarray] = []  # each round's payload, when logging
        self._deploy(h, y)

    # ---- construction ----------------------------------------------------

    def _deploy(self, h: GraphFilter, y: Signal) -> None:
        """Compile the exchanges and H's residual product on the slots."""
        ball = hop_matrix(self.graph, self.width)
        owner = np.repeat(np.arange(self.graph.n), np.diff(ball.indptr))
        self._ball, self._gather = ball, ball.indices.astype(np.intp)
        sent = ball.indices != owner
        self._senders, self._receivers = owner[sent], ball.indices[sent]
        self._own = np.flatnonzero(~sent)      # agent i's slot for x(i)
        self._h, self._residual = h, self._on_slots(h.csr)
        self._y = y.values.copy()
        self._x = np.zeros(ball.nnz)           # every agent's copies of x, by slot
        self._hx = None                        # H x over those copies, once formed
        self._pgda_step = self._spgda_step = None  # the local updates, once set up

    def _on_slots(self, m: sparse.csr_matrix):
        """The product of a vertex CSR matrix m over the slots: row i is
        agent i's, each stored entry (i, j) reading its own copy of x(j).
        m is H, Hᵀ or a row scaling of one, whose entries lie within H's width."""
        pos, _ = ball_positions(self.graph, m, self.width)
        return csr_product(sparse.csr_matrix((m.data, pos, m.indptr),
                                             shape=(self.graph.n, self._ball.nnz)))

    # ---- messaging -------------------------------------------------------

    def _exchange(self, kind: str, payload: np.ndarray) -> np.ndarray:
        """One synchronized round: agent i sends payload[i] to every other
        member of its width ball. Returns the slot array, in which each
        agent's slots hold the values of its ball members, its own
        included."""
        self.rounds.append(kind)
        if self.log_messages:
            self._payloads.append(payload)
        return payload[self._gather]

    def total_messages(self) -> int:
        return len(self.rounds) * len(self._senders)

    def message_log(self) -> MessageLog:
        """The messages of the rounds so far, as one record."""
        return MessageLog(self.epoch, self._senders, self._receivers,
                          list(self.rounds), list(self._payloads))

    # ---- Algorithm: distributed preconditioner ---------------------------

    def distributed_preconditioner(self) -> np.ndarray:
        """Hop-local preconditioner: each agent takes the larger of its
        absolute row and column sums, shares it once with its
        width-neighborhood, and keeps the maximum it hears. p is
        `build_pgda_preconditioner`'s, taken from the values heard, and
        the local update is pgda's G for it on the slots."""
        p = build_pgda_preconditioner(self._h, lambda d: self._exchange("d", d))
        self._pgda_step = self._on_slots(_pgda(self._h, p).g)
        return p

    # ---- Algorithm: distributed PGDA --------------------------------------

    def run_pgda(self) -> Signal:
        """One round of vertex-level preconditioned gradient descent, the
        first from zero initial: local residual v(i) = y(i) - sum_j H(i,j)
        x(j), a v-exchange, the local update x(i) += sum_j H(j,i)/P(i,i)^2
        * v(j), and an x-exchange, so every agent ends up holding x(j) for
        its whole neighborhood. Returns the gathered iterate.
        """
        if self._pgda_step is None:
            raise RuntimeError(
                "preconditioner values missing; run "
                "distributed_preconditioner() first"
            )
        v = self._y - self.filtered()
        x = self._x[self._own] + self._pgda_step(self._exchange("v", v))
        self._x, self._hx = self._exchange("x", x), None
        return self.gather()

    # ---- Algorithm: distributed SPGDA -------------------------------------

    def spgda_setup(self) -> None:
        """Purely local normalization, no messages: spgda's G, each row
        H(i,j) scaled by p_sym(i) = sum_j |H(i,j)|, on the slots, and its
        shift, the scaled observation y(i)/p_sym(i)."""
        spgda = _spgda(self._h)
        self._spgda_step = self._on_slots(spgda.g)
        self._y_scaled = spgda.shift(self._y[:, None])[:, 0]

    def run_spgda(self) -> Signal:
        """One round of vertex-level symmetric preconditioned gradient
        descent, the first from zero initial: one local update and one
        x-exchange (half the traffic of run_pgda). Returns the gathered
        iterate."""
        if self._spgda_step is None:
            self.spgda_setup()
        x = (self._x[self._own] + self._y_scaled) - self._spgda_step(self._x)
        self._x, self._hx = self._exchange("x", x), None
        return self.gather()

    # ---- outputs ----------------------------------------------------------

    def gather(self) -> Signal:
        return Signal(self.graph, self._x[self._own])

    def filtered(self) -> np.ndarray:
        """H x for the gathered iterate x, each agent summing its row over
        its own slots: bit for bit h.csr @ x. It is the product the next
        pgda residual reads, formed once per x-exchange."""
        if self._hx is None:
            self._hx = self._residual(self._x)
        return self._hx
