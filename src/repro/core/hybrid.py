"""Combined push–pull protocol ("Finally, it is possible to combine both
schemes", Section 4.2).

Pull (binary gimme search) remains the workhorse.  Push engages only when
it is cheap to be right: a holder that *parks* (idle system, adaptive
speed) advertises its position; a ready node holding a fresh advertisement
sends a direct request instead of searching, falling back to the binary
search when its knowledge is stale or absent.  Under load the token never
parks, no adverts flow, and the protocol behaves exactly like
System BinarySearch — the "fluid" virtual-root behaviour the conclusion
describes.

The holder side (advertise on park, stay parked while idle, trap direct
requests, relay adverts) is :class:`~repro.core.push.PushCore`'s; the
hybrid differs only in what a requester knows and does with it.
"""

from __future__ import annotations

from typing import List

from repro.core.binary_search import BinarySearchCore
from repro.core.effects import Effect, Send
from repro.core.messages import RequestMsg
from repro.core.push import PushCore

__all__ = ["HybridCore"]


class HybridCore(PushCore):
    """Pull by default; push advertisements while the token is parked."""

    protocol_name = "hybrid"

    def __init__(self, node_id: int, config, initial_holder: int = 0) -> None:
        super().__init__(node_id, config, initial_holder)
        self.known_holder = None  # learned from adverts only

    # -- requester: direct request when knowledge is fresh, else pull ----------

    def _launch_search(self) -> List[Effect]:
        if self.n <= 1:
            return []
        if self.outstanding and self.config.single_outstanding:
            return []
        fresh = (
            self.known_holder is not None
            and self.known_holder != self.node_id
            and self.known_holder_clock >= self.last_visit
        )
        if fresh:
            self.outstanding = True
            return [Send(self.known_holder, RequestMsg(
                requester=self.node_id, req_seq=self.req_seq,
            ))]
        return BinarySearchCore._launch_search(self)

    def _adopt(self, msg, now: float) -> List[Effect]:
        # A token arrival teaches the hybrid nothing about the holder: its
        # knowledge comes from adverts only.
        return BinarySearchCore._adopt(self, msg, now)
