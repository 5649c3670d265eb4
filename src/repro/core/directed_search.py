"""Directed search (Section 4.4), executable.

A variant of System BinarySearch where "search messages do not migrate
through the ring but instead are always returned to the searching node
informing it whether the token was found or not".  The requester steers
the whole binary search itself: it probes a node, the probed node lays a
trap and replies with its visit stamp, and the requester halves the span
and probes again in the direction the reply implies.

This doubles the search traffic (≤ 2·log N messages per request) but lets
the requester stop the search the moment it is served — e.g. when the
rotating token reaches it first — saving the tail of the search.  The
A2 ablation benchmark compares the two disciplines.
"""

from __future__ import annotations

from typing import List

from repro.core.binary_search import BinarySearchCore
from repro.core.effects import Effect, Send
from repro.core.messages import ProbeMsg, ProbeReplyMsg

__all__ = ["DirectedSearchCore"]


class DirectedSearchCore(BinarySearchCore):
    """Binary-search protocol with requester-driven (directed) probing."""

    protocol_name = "directed_search"

    def __init__(self, node_id: int, config, initial_holder: int = 0) -> None:
        super().__init__(node_id, config, initial_holder)
        self._probe_span = 0
        self._probe_target = -1

    # -- requester side --------------------------------------------------------

    def _launch_search(self) -> List[Effect]:
        if self.n <= 1:
            return []
        if self.outstanding and self.config.single_outstanding:
            return []
        self.outstanding = True
        self._probe_span = self.n // 2
        self._probe_target = self.hop(self._probe_span)
        return [self._probe()]

    def _probe(self) -> Send:
        return Send(self._probe_target, ProbeMsg(
            requester=self.node_id, req_seq=self.req_seq,
            visit_stamp=self.last_visit,
        ))

    def _on_probe_reply(self, msg: ProbeReplyMsg) -> List[Effect]:
        if not self.ready or msg.req_seq != self.req_seq:
            return []  # already served: stop the search right here
        if msg.has_token:
            return []  # the probed holder has trapped us; the loan is coming
        half = self._probe_span // 2
        if half < 1:
            return []  # search exhausted; the laid traps will catch the token
        if msg.last_visit < self.last_visit:
            self._probe_target = (self._probe_target - half) % self.n
        else:
            self._probe_target = (self._probe_target + half) % self.n
        self._probe_span = half
        if self._probe_target == self.node_id:
            return []
        return [self._probe()]

    # -- probed side --------------------------------------------------------------

    def _on_probe(self, msg: ProbeMsg, now: float) -> List[Effect]:
        self._demand_seen = True
        if msg.requester == self.node_id:
            return []
        if self._is_served(msg.requester, msg.req_seq):
            return []
        holds = self.has_token or self.lent_to is not None
        self.traps.add(msg.requester, msg.req_seq, msg.visit_stamp)
        effects: List[Effect] = [Send(msg.requester, ProbeReplyMsg(
            prober=self.node_id, req_seq=msg.req_seq,
            last_visit=self.last_visit, has_token=holds,
        ))]
        effects.extend(self._wake(now))
        return effects

    # -- dispatch -------------------------------------------------------------------

    def on_message(self, src: int, msg: object, now: float) -> List[Effect]:
        if isinstance(msg, ProbeMsg):
            return self._on_probe(msg, now)
        if isinstance(msg, ProbeReplyMsg):
            return self._on_probe_reply(msg)
        return super().on_message(src, msg, now)
