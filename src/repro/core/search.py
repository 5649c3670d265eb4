"""System Search with the Lemma 5 ring restriction, executable.

The *linear*-search ancestor of the binary-search protocol: a ready node
sends an ``ask`` to its ring successor; each node lays a trap and forwards
the ask to *its* successor, so the request traverses the ring node by
node.  A holder with a trap sends the token **directly** to the trapped
requester (the paper's rule 7 sends the token itself, not a loan), and
rotation resumes from the requester's position.

Responsiveness is O(N) (Lemma 5) — the same bound as the plain ring but
with extra search traffic; it exists here as the stepping-stone baseline
between :class:`~repro.core.ring.RingCore` and
:class:`~repro.core.binary_search.BinarySearchCore`, and the benchmarks
show why the binary refinement is the one that matters.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import GC_ROTATION, ProtocolConfig
from repro.core.effects import Effect, Send
from repro.core.messages import AskMsg, TokenMsg
from repro.core.ring import RingCore
from repro.core.traps import TrapStore
from repro.errors import ProtocolError

__all__ = ["LinearSearchCore"]


class LinearSearchCore(RingCore):
    """Per-node state machine of the ring-restricted System Search."""

    protocol_name = "linear_search"

    def __init__(self, node_id: int, config: ProtocolConfig,
                 initial_holder: int = 0) -> None:
        super().__init__(node_id, config, initial_holder)
        self.outstanding = False
        self.traps = TrapStore()

    # -- application interface ---------------------------------------------------

    def on_request(self, now: float) -> List[Effect]:
        # Local demand, like an ask, keeps the token from parking.
        self._demand_seen = True
        return super().on_request(now)

    def _seek(self) -> List[Effect]:
        if self.n <= 1 or (self.outstanding and self.config.single_outstanding):
            return []
        self.outstanding = True
        return [Send(self.ring_succ(), AskMsg(
            requester=self.node_id, req_seq=self.req_seq,
            visit_stamp=self.last_visit,
        ))]

    # -- protocol ------------------------------------------------------------------

    def on_message(self, src: int, msg: object, now: float) -> List[Effect]:
        if isinstance(msg, TokenMsg):
            return self._on_token(msg, now)
        if isinstance(msg, AskMsg):
            return self._on_ask(msg, now)
        raise ProtocolError(
            f"linear-search node {self.node_id}: unexpected {msg!r}"
        )

    def _adopt(self, msg: TokenMsg, now: float) -> List[Effect]:
        if self.config.trap_gc == GC_ROTATION:
            self.traps.expire(self.clock, self.n)
        return []

    def _on_ask(self, msg: AskMsg, now: float) -> List[Effect]:
        self._demand_seen = True
        if msg.requester == self.node_id:
            return []  # our ask completed a full circuit
        self.traps.add(msg.requester, msg.req_seq, msg.visit_stamp)
        if self.has_token or self._serving:
            return self._wake(now)
        nxt = self.ring_succ()
        if nxt == msg.requester:
            return []  # the ask is about to complete its circuit
        return [Send(nxt, msg)]

    def _grant(self) -> List[Effect]:
        self.outstanding = False
        return super()._grant()

    def _hand_off(self) -> Optional[List[Effect]]:
        """Rule 7: hand the token straight to the oldest trapped requester;
        rotation then continues from there."""
        while True:
            t = self.traps.pop()
            if t is None:
                return None
            if t.requester == self.node_id:
                continue
            self.has_token = False
            # A direct hand-over is not a circulation hop: the clock is not
            # advanced (matching the spec, where rule 7 appends no event).
            return [Send(t.requester, TokenMsg(
                clock=self.clock, round_no=self.round_no,
            ))]
