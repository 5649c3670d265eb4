"""The regular ring token-rotation protocol (System Message-Passing with
rule 3'), and the rotation skeleton every other core refines.

This is the paper's baseline comparator in Figures 9 and 10: the token
circulates node-to-node; a node serves its own pending request when the
token arrives and passes it on.  Responsiveness is O(N) (Lemma 4).

The ``idle_pause`` knob implements the Section 4.4 adaptive-speed remark —
"the speed of token passing around the cycle can be varied according to
demand": a node holding the token with no local demand parks it for
``idle_pause`` before forwarding (a locally arriving request un-parks it
immediately).  The ring node has no remote-demand signal, so slowing the
rotation trades responsiveness for message savings; the
adaptive-speed ablation benchmark quantifies this.

The paper derives System Search and System BinarySearch from this ring
by keeping the circulation and changing only how a ready node reaches
the token, and :class:`RingCore` is shaped the same way.  It owns the
rotation state, the grant, park and release arms, and
:meth:`RingCore._advance`; a refinement overrides the hooks:

- ``_seek`` — what a ready node without a free token sends;
- ``_adopt`` — what an arriving token's holder absorbs besides the
  clock (trap GC, the served map);
- ``_hand_off`` — serve a remote requester instead of rotating (rule 7);
- ``_grant`` — extra bookkeeping around a local grant;
- ``_rotation_successor`` / ``_token_msg`` — the next hop and what the
  rotating token carries.

A core with a remote-demand signal sets ``_demand_seen`` to keep the
token rotating; the ring never sets it, so it parks whenever
``idle_pause`` is set.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from repro.core.base import ProtocolCore
from repro.core.config import ProtocolConfig
from repro.core.effects import CancelTimer, Deliver, Effect, Send, SetTimer
from repro.core.messages import TokenMsg
from repro.errors import ProtocolError

__all__ = ["RingCore"]

_FWD = "forward"
_REL = "release"


class RingCore(ProtocolCore):
    """Per-node state machine of the circular-rotation protocol."""

    protocol_name = "ring"

    def __init__(self, node_id: int, config: ProtocolConfig,
                 initial_holder: int = 0) -> None:
        super().__init__(node_id, config)
        self.has_token = node_id == initial_holder
        self.clock = 0
        self.round_no = 0
        self.last_visit = 0 if self.has_token else -1
        self.ready = False
        self.req_seq = 0
        self.granted_seq = -1
        self._parked = False          # token held with the forward timer armed
        self._serving = False         # grant outstanding (hold/service mode)
        self._demand_seen = False     # remote demand seen since the last forward

    # -- requests -------------------------------------------------------------

    def on_request(self, now: float) -> List[Effect]:
        """Become ready; a parked or just-arrived token serves immediately."""
        self.ready = True
        self.req_seq += 1
        if self.has_token and not self._serving:
            return self._wake(now)
        return self._seek()

    def _seek(self) -> List[Effect]:
        """Reach for the token from a node that cannot serve itself; the
        ring just waits for the rotation."""
        return []

    def on_release(self, now: float) -> List[Effect]:
        """Finish using the token (hold_until_release mode)."""
        if not self._serving:
            return []
        self._serving = False
        effects: List[Effect] = [
            Deliver("released", (self.node_id, self.granted_seq))
        ]
        effects.extend(self._advance(now))
        return effects

    # -- protocol -------------------------------------------------------------

    def on_start(self, now: float) -> List[Effect]:
        if not self.has_token:
            return []
        return [Deliver("token_visit", (self.node_id, self.clock))] + \
            self._advance(now)

    def on_message(self, src: int, msg: object, now: float) -> List[Effect]:
        if isinstance(msg, TokenMsg):
            return self._on_token(msg, now)
        raise ProtocolError(f"ring node {self.node_id}: unexpected {msg!r}")

    def on_timer(self, key: Hashable, now: float) -> List[Effect]:
        if key == _FWD:
            if not (self.has_token and self._parked):
                return []
            self._parked = False
            return self._forward()
        if key == _REL:
            return self.on_release(now)
        return []

    def _wake(self, now: float) -> List[Effect]:
        """Demand reached a free holder: un-park the token and advance it."""
        if not self.has_token or self._serving:
            return []
        if self._parked:
            self._parked = False
            effects: List[Effect] = [CancelTimer(_FWD)]
            effects.extend(self._advance(now))
            return effects
        return self._advance(now)

    def _on_token(self, msg: TokenMsg, now: float) -> List[Effect]:
        if self.has_token:
            raise ProtocolError(f"node {self.node_id} received a second token")
        self.has_token = True
        self.clock = msg.clock
        self.round_no = msg.round_no
        self.last_visit = msg.clock
        effects: List[Effect] = [Deliver("token_visit", (self.node_id, self.clock))]
        effects.extend(self._adopt(msg, now))
        effects.extend(self._advance(now))
        return effects

    def _adopt(self, msg: TokenMsg, now: float) -> List[Effect]:
        """Absorb what an arriving token carries besides its clock; returns
        effects due before the token moves on.  The ring's carries nothing."""
        return []

    def _advance(self, now: float) -> List[Effect]:
        """Serve a local request if any, then a remote requester, else
        forward (or park) the token."""
        if self._serving or not self.has_token:
            return []
        if self.ready:
            effects = self._grant()
            if self._serving:
                return effects
        else:
            effects = []
        hand_off = self._hand_off()
        if hand_off is not None:
            effects.extend(hand_off)
            return effects
        if self.config.idle_pause > 0 and not self._demand_seen:
            self._parked = True
            effects.append(SetTimer(_FWD, self.config.idle_pause))
            return effects
        effects.extend(self._forward())
        return effects

    def _grant(self) -> List[Effect]:
        """Serve the local request; a held or timed service sets
        ``_serving`` and keeps the token here until it is released."""
        self.ready = False
        self.granted_seq = self.req_seq
        effects: List[Effect] = [Deliver("granted", (self.node_id, self.req_seq))]
        if self.config.hold_until_release:
            self._serving = True
        elif self.config.service_time > 0:
            self._serving = True
            effects.append(SetTimer(_REL, self.config.service_time))
        else:
            effects.append(Deliver("released", (self.node_id, self.req_seq)))
        return effects

    def _hand_off(self) -> Optional[List[Effect]]:
        """Send the token to a remote requester instead of rotating it, or
        return None; the ring only rotates."""
        return None

    def _forward(self) -> List[Effect]:
        if self.ring_size() == 1:
            return []  # a solitary node keeps its token
        self.has_token = False
        self._demand_seen = False
        successor = self._rotation_successor()
        if successor == self.node_id:
            self.has_token = True
            return []  # everyone else is suspected or gone
        next_round = (
            self.round_no + 1 if successor == self.ring_first() else self.round_no
        )
        return [Send(successor, self._token_msg(self.clock + 1, next_round))]

    def _rotation_successor(self) -> int:
        """Next hop of the circulation; overridden to skip suspects."""
        return self.ring_succ()

    def _token_msg(self, clock: int, round_no: int) -> TokenMsg:
        """The token as it leaves for the next hop."""
        return TokenMsg(clock=clock, round_no=round_no)
