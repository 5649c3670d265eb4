"""Push mode: the token finds its requesters (Section 4.2's dual).

"It is also possible to have nodes keep their requests local and have the
token find which node wants it."  Executable interpretation: an idle
holder parks the token and **advertises** its position through a binary
fan-out tree over the ring (n−1 cheap messages, log N depth — the paper's
observation that a parallel search costs Θ(n) messages).  Ready nodes
never search: knowing the holder from the latest advertisement, they send
a direct request; the holder traps requests FIFO and serves them by loan.

The parked holder is the paper's "virtual root of a token-distribution
tree": response is O(1) hops once the advertisement has spread, but the
message load concentrates at the root — exactly the tree-protocol
trade-off the conclusion contrasts with the ring's load balance.  The A3
ablation benchmark measures both sides of that trade.

While demand persists the token keeps circulating as usual (requests are
also trapped by the rotating token), so the ring's fairness and O(N)
fallback are preserved; a node whose request message is lost is still
served by rotation.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.binary_search import BinarySearchCore
from repro.core.effects import Effect, Send, SetTimer
from repro.core.messages import AdvertMsg, RequestMsg

__all__ = ["PushCore", "advert_fanout"]

_FWD = "forward"


def advert_fanout(node_id: int, n: int, holder: int, clock: int, span: int) -> List[Send]:
    """Delegate the upper half of the covered ring segment repeatedly:
    the node responsible for ``[x, x+span)`` hands ``[x+k/2, x+k)`` to the
    node at offset ``k/2`` and recurses on the lower half — n−1 messages
    total across all nodes, log₂ n depth."""
    sends: List[Send] = []
    k = span
    while k >= 2:
        half = k // 2
        target = (node_id + half) % n
        sends.append(Send(target, AdvertMsg(holder=holder, clock=clock,
                                            span=k - half)))
        k = half
    return sends


class PushCore(BinarySearchCore):
    """Binary-search core with pull searches replaced by push adverts."""

    protocol_name = "push"

    def __init__(self, node_id: int, config, initial_holder: int = 0) -> None:
        super().__init__(node_id, config, initial_holder)
        self.known_holder: Optional[int] = initial_holder
        self.known_holder_clock = -1
        self._advertised_clock = -1
        self._requested_holder = -1

    # -- requester side: no search, direct request -------------------------------

    def _launch_search(self) -> List[Effect]:
        if self.n <= 1:
            return []
        if self.outstanding and self.config.single_outstanding:
            return []
        if self.known_holder is None or self.known_holder == self.node_id:
            return []  # rotation will serve us
        self.outstanding = True
        self._requested_holder = self.known_holder
        return [Send(self.known_holder, RequestMsg(
            requester=self.node_id, req_seq=self.req_seq,
            visit_stamp=self.last_visit,
        ))]

    # -- holder side ----------------------------------------------------------------

    def _advance(self, now: float) -> List[Effect]:
        effects = super()._advance(now)
        if self.has_token and self._parked:
            # We just parked: become the virtual root.  Advertise once per
            # parking spot (re-parking at the same clock stays silent).
            if self._advertised_clock != self.clock:
                self._advertised_clock = self.clock
                effects.extend(advert_fanout(
                    self.node_id, self.n, self.node_id, self.clock, self.n,
                ))
        return effects

    def on_timer(self, key, now: float) -> List[Effect]:
        # A parked virtual root with no demand stays parked: the whole
        # point of push mode is that requests come to the root.
        if (key == _FWD and self.has_token and self._parked
                and not self._demand_seen):
            return [SetTimer(_FWD, self.config.idle_pause)]
        return super().on_timer(key, now)

    def _adopt(self, msg, now: float) -> List[Effect]:
        self.known_holder = self.node_id
        self.known_holder_clock = msg.clock
        return super()._adopt(msg, now)

    def _on_request_msg(self, msg: RequestMsg, now: float) -> List[Effect]:
        self._demand_seen = True
        if msg.requester == self.node_id:
            return []
        if self._is_served(msg.requester, msg.req_seq):
            return []
        self.traps.add(msg.requester, msg.req_seq,
                       max(msg.visit_stamp, self.last_visit - self.ring_size()))
        return self._wake(now)

    def _on_advert(self, msg: AdvertMsg, now: float) -> List[Effect]:
        effects: List[Effect] = []
        if msg.clock >= self.known_holder_clock:
            self.known_holder = msg.holder
            self.known_holder_clock = msg.clock
        effects.extend(advert_fanout(
            self.node_id, self.n, msg.holder, msg.clock, msg.span,
        ))
        resend = (
            self.ready
            and msg.holder != self.node_id
            and (not self.outstanding or msg.holder != self._requested_holder)
        )
        if resend:
            # Fresh advert: the root moved since our last request, so the
            # old request is parked as a trap somewhere behind it.  Ask the
            # new root directly (cheap, idempotent — traps dedupe by seq).
            self.outstanding = True
            self._requested_holder = msg.holder
            effects.append(Send(msg.holder, RequestMsg(
                requester=self.node_id, req_seq=self.req_seq,
                visit_stamp=self.last_visit,
            )))
        return effects

    # -- dispatch ----------------------------------------------------------------------

    def on_message(self, src: int, msg: object, now: float) -> List[Effect]:
        if isinstance(msg, RequestMsg):
            return self._on_request_msg(msg, now)
        if isinstance(msg, AdvertMsg):
            return self._on_advert(msg, now)
        return super().on_message(src, msg, now)
