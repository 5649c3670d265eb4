"""System BinarySearch, executable — the paper's contribution.

The token circulates the logical ring exactly as in :class:`RingCore`.
When a node becomes ready it launches a *gimme* search "directly across"
the ring; every node the search touches lays a FIFO trap and forwards the
search half as far, choosing the direction by comparing visit stamps — the
bounded-history realisation of rule 6's ``⊂_C`` comparison (a node whose
last token visit is *older* than the requester's snapshot concludes the
token is behind it, counter-clockwise; otherwise ahead, clockwise).

A holder (or a node the rotating token reaches) with traps serves them in
FIFO order by **loaning** the token (rule 7's decorated ``ŷ``): the
requester uses it and returns it, and the rotation resumes where it was
intercepted (rule 8).

Optimizations from Section 4.4, all config-selectable:

- trap GC ``rotation`` (clock-expiry + recent-serves piggyback) and
  ``inverse`` (loans retrace the gimme trail, clearing traps en route);
- ``single_outstanding`` request throttling;
- ``idle_pause`` adaptive rotation speed — unlike the plain ring, this core
  *does* have a remote-demand signal (incoming gimmes), so the token can
  park when idle and resume at full speed the instant demand appears;
- ``retry_timeout`` — because gimmes are cheap (droppable), an optional
  retry recovers search progress under lossy networks; the rotation is
  always the safety net.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

from repro.core.config import GC_INVERSE, GC_ROTATION, ProtocolConfig
from repro.core.effects import Deliver, Effect, Send, SetTimer
from repro.core.messages import GimmeMsg, LoanMsg, LoanReturnMsg, TokenMsg
from repro.core.ring import RingCore
from repro.core.traps import TrapStore
from repro.errors import ProtocolError

__all__ = ["BinarySearchCore"]

_RETRY = "retry"


class BinarySearchCore(RingCore):
    """Per-node state machine of the adaptive binary-search protocol."""

    protocol_name = "binary_search"

    def __init__(self, node_id: int, config: ProtocolConfig,
                 initial_holder: int = 0) -> None:
        super().__init__(node_id, config, initial_holder)
        self.lent_to: Optional[int] = None
        self.outstanding = False
        self.traps = TrapStore()
        self._served_carry: Tuple[Tuple[int, int], ...] = ()
        # Memo of the last _merge_served inputs/output: between grants the
        # token's piggyback and each node's carry are stable, so most merges
        # repeat the previous one verbatim.
        self._ms_in: Optional[Tuple[Tuple[int, int], ...]] = None
        self._ms_base: Optional[Tuple[Tuple[int, int], ...]] = None
        self._ms_out: Tuple[Tuple[int, int], ...] = ()
        # Lazily-rebuilt {z: seq} view of _served_carry (ids are unique in
        # the carry).  Keyed by tuple identity so direct writes to
        # _served_carry (tests, subclasses) invalidate it automatically.
        self._sm_src: Optional[Tuple[Tuple[int, int], ...]] = None
        self._sm_map: dict = {}
        self._loan_pending: Optional[Tuple[int, Tuple[Tuple[int, int], ...]]] = None
        self._gimme_inflight = False
        self._gimme_queue: List[GimmeMsg] = []

    # -- application interface -------------------------------------------------

    def on_request(self, now: float) -> List[Effect]:
        """Become ready; serve locally when holding, else launch the search.
        Local demand, like a gimme, keeps the token from parking."""
        self._demand_seen = True
        return super().on_request(now)

    def _seek(self) -> List[Effect]:
        if self.lent_to is not None:
            return []  # served when the loan returns
        return self._launch_search()

    def on_release(self, now: float) -> List[Effect]:
        """Finish using a held grant (hold_until_release mode)."""
        if not self._serving or self._loan_pending is None:
            return super().on_release(now)
        # We were serving a loaned token: return it now.
        self._serving = False
        lender, carry = self._loan_pending
        self._loan_pending = None
        return [
            Deliver("released", (self.node_id, self.granted_seq)),
            Send(lender, LoanReturnMsg(
                clock=self.clock, round_no=self.round_no, served=carry,
                epoch=self._token_epoch())),
        ]

    # -- protocol --------------------------------------------------------------

    def on_message(self, src: int, msg: object, now: float) -> List[Effect]:
        # Exact-type dispatch (message classes are final); isinstance
        # fallback keeps hypothetical subclasses working.
        kind = type(msg)
        if kind is TokenMsg:
            return self._on_token(msg, now)
        if kind is GimmeMsg:
            return self._on_gimme(msg, now)
        if kind is LoanMsg:
            return self._on_loan(src, msg, now)
        if kind is LoanReturnMsg:
            return self._on_loan_return(msg, now)
        if isinstance(msg, TokenMsg):
            return self._on_token(msg, now)
        if isinstance(msg, GimmeMsg):
            return self._on_gimme(msg, now)
        if isinstance(msg, LoanMsg):
            return self._on_loan(src, msg, now)
        if isinstance(msg, LoanReturnMsg):
            return self._on_loan_return(msg, now)
        raise ProtocolError(
            f"binary-search node {self.node_id}: unexpected {msg!r}"
        )

    def on_timer(self, key: Hashable, now: float) -> List[Effect]:
        if isinstance(key, tuple) and key and key[0] == _RETRY:
            return self._on_retry(key[1])
        return super().on_timer(key, now)

    # -- token rotation ----------------------------------------------------------

    def _on_token(self, msg: TokenMsg, now: float) -> List[Effect]:
        if self.lent_to is not None:
            raise ProtocolError(f"node {self.node_id} received a second token")
        return super()._on_token(msg, now)

    def _adopt(self, msg: TokenMsg, now: float) -> List[Effect]:
        self._merge_served(msg.served)
        self._gc_traps()
        return self._release_gimme_budget(now)

    def _grant(self) -> List[Effect]:
        self.outstanding = False
        self._record_served(self.node_id, self.req_seq)
        return super()._grant()

    def _hand_off(self) -> Optional[List[Effect]]:
        """Pop the next live trap and loan the token to its requester,
        returning the effects, or None when no live trap remains."""
        while True:
            t = self.traps.pop()
            if t is None:
                return None
            if t.requester == self.node_id:
                continue
            if self._is_served(t.requester, t.req_seq):
                continue
            if self._skip_requester(t.requester):
                continue
            self.has_token = False
            self.lent_to = t.requester
            trail: Tuple[int, ...] = ()
            target = t.requester
            if self.config.trap_gc == GC_INVERSE and t.trail:
                # Retrace the search path backwards, clearing traps en route.
                back = tuple(h for h in reversed(t.trail)
                             if h not in (self.node_id, t.requester))
                if back:
                    target = back[0]
                    trail = back[1:]
            effects = [Send(target, LoanMsg(
                clock=self.clock, round_no=self.round_no,
                lender=self.node_id, requester=t.requester,
                req_seq=t.req_seq, served=self._served_carry, trail=trail,
                epoch=self._token_epoch(),
            ))]
            effects.extend(self._after_loan_sent(t.requester))
            return effects

    def _token_msg(self, clock: int, round_no: int) -> TokenMsg:
        return TokenMsg(
            clock=clock, round_no=round_no,
            served=self._served_carry, epoch=self._token_epoch(),
            suspects=self._token_suspects(),
        )

    # -- extension hooks (fault tolerance / dynamic membership) -----------------

    def _token_epoch(self) -> int:
        """Epoch stamped on outgoing token/loan messages (0 = static)."""
        return 0

    def _token_suspects(self):
        """Suspect set piggybacked on the forwarded token (static: none)."""
        return ()

    def _skip_requester(self, requester: int) -> bool:
        """Whether to drop traps for this requester (e.g. suspected dead)."""
        return False

    def _after_loan_sent(self, requester: int) -> List[Effect]:
        """Extra effects after a loan departs (e.g. arm a reclaim timer)."""
        return []

    # -- loans ---------------------------------------------------------------------

    def _on_loan(self, src: int, msg: LoanMsg, now: float) -> List[Effect]:
        if msg.requester != self.node_id:
            # Inverse-GC relay hop: clear our trap and pass the loan along.
            self.traps.remove_for(msg.requester)
            nxt = msg.trail[0] if msg.trail else msg.requester
            relayed = LoanMsg(
                clock=msg.clock, round_no=msg.round_no, lender=msg.lender,
                requester=msg.requester, req_seq=msg.req_seq,
                served=msg.served, trail=msg.trail[1:], epoch=msg.epoch,
            )
            return [Send(nxt, relayed)]
        self.last_visit = msg.clock
        self.clock = msg.clock
        self.round_no = msg.round_no
        self._merge_served(msg.served)
        if not self.ready:
            # Stale loan (already served through rotation): bounce it back.
            return [Send(msg.lender, LoanReturnMsg(
                clock=msg.clock, round_no=msg.round_no,
                served=self._served_carry, epoch=msg.epoch))]
        effects = self._grant()
        if self._serving:
            # Held or timed service: the loan returns on release.
            self._loan_pending = (msg.lender, self._served_carry)
            return effects
        effects.append(Send(msg.lender, LoanReturnMsg(
            clock=msg.clock, round_no=msg.round_no,
            served=self._served_carry, epoch=msg.epoch)))
        return effects

    def _on_loan_return(self, msg: LoanReturnMsg, now: float) -> List[Effect]:
        if self.lent_to is None:
            raise ProtocolError(
                f"node {self.node_id}: loan return without outstanding loan"
            )
        self.lent_to = None
        self.has_token = True
        self._merge_served(msg.served)
        self._gc_traps()
        effects = self._release_gimme_budget(now)
        effects.extend(self._advance(now))
        return effects

    # -- search ------------------------------------------------------------------

    def _launch_search(self) -> List[Effect]:
        if self.ring_size() <= 1:
            return []
        if self.outstanding and self.config.single_outstanding:
            return []
        self.outstanding = True
        self._gimme_inflight = True
        span = self.ring_size() // 2
        target = self.hop(span)
        effects: List[Effect] = [Send(target, GimmeMsg(
            requester=self.node_id, req_seq=self.req_seq, span=span,
            visit_stamp=self.last_visit, trail=(self.node_id,),
        ))]
        if self.config.retry_timeout > 0:
            effects.append(SetTimer((_RETRY, self.req_seq),
                                    self.config.retry_timeout))
        return effects

    def _on_retry(self, req_seq: int) -> List[Effect]:
        if not self.ready or req_seq != self.req_seq:
            return []
        self.outstanding = False
        return self._launch_search()

    def _on_gimme(self, msg: GimmeMsg, now: float) -> List[Effect]:
        self._demand_seen = True
        if msg.requester == self.node_id:
            return []  # our own search came all the way around
        if self._is_served(msg.requester, msg.req_seq):
            return []  # stale search: its request is already satisfied
        if self.has_token or self.lent_to is not None:
            # The search found the token('s owner): trap FIFO, serve when free.
            self.traps.add(msg.requester, msg.req_seq, msg.visit_stamp, msg.trail)
            return self._wake(now)
        # Traps are stamped with the *requester's* visit stamp: the rotating
        # token reaches the requester within n clock ticks of that stamp, so
        # a trap older than that is provably obsolete (rotation GC).
        self.traps.add(msg.requester, msg.req_seq, msg.visit_stamp, msg.trail)
        half = msg.span // 2
        if half < 1:
            return []  # search exhausted; the trap will catch the token
        if self.config.forward_throttle and self._gimme_inflight:
            # Strong throttle: one in-flight gimme per node; the rest wait
            # for the next token sighting (the trap is already laid, so
            # correctness never depends on the delayed forward).
            self._gimme_queue.append(msg)
            return []
        if self.last_visit < msg.visit_stamp:
            # Rule 6 / Figure 8(a): the requester saw the token after us, so
            # the token is behind us — continue counter-clockwise.
            target = self.hop(-half)
        else:
            # Figure 8(b): we saw the token after the requester (or neither
            # has) — the token is ahead, continue clockwise.
            target = self.hop(half)
        if target in (self.node_id, msg.requester):
            return []
        self._gimme_inflight = True
        return [Send(target, GimmeMsg(
            requester=msg.requester, req_seq=msg.req_seq, span=half,
            visit_stamp=msg.visit_stamp, trail=msg.trail + (self.node_id,),
        ))]

    def _release_gimme_budget(self, now: float) -> List[Effect]:
        """A token sighting resets the forward-throttle budget and releases
        at most one queued gimme (re-run through the normal handler so
        staleness checks and direction are re-evaluated with fresh state)."""
        self._gimme_inflight = False
        if not self._gimme_queue:
            return []
        queued = self._gimme_queue
        self._gimme_queue = []
        effects: List[Effect] = []
        for idx, msg in enumerate(queued):
            if self._is_served(msg.requester, msg.req_seq):
                continue
            effects.extend(self._on_gimme(msg, now))
            if self._gimme_inflight:
                self._gimme_queue.extend(queued[idx + 1:])
                break
        return effects

    # -- served bookkeeping --------------------------------------------------------

    def _record_served(self, z: int, seq: int) -> None:
        if self.config.trap_gc != GC_ROTATION or self.config.served_piggyback == 0:
            return
        entries = [(a, b) for (a, b) in self._served_carry if a != z]
        entries.append((z, seq))
        keep = self.config.served_piggyback
        self._served_carry = tuple(entries[-keep:])

    def _merge_served(self, served: Tuple[Tuple[int, int], ...]) -> None:
        if self.config.trap_gc != GC_ROTATION:
            return
        carry = self._served_carry
        if served == self._ms_in and carry == self._ms_base:
            # Same inputs as last time: reuse the identical result.
            self._served_carry = self._ms_out
            return
        merged = dict(carry)
        for z, seq in served:
            if merged.get(z, -1) < seq:
                merged[z] = seq
        entries = sorted(merged.items())
        keep = self.config.served_piggyback
        if keep and len(entries) > keep:
            entries = entries[-keep:]
        out = tuple(entries)
        self._served_carry = out
        self._ms_in, self._ms_base, self._ms_out = served, carry, out

    def _served_lookup(self) -> dict:
        """The carry as a ``{z: seq}`` dict, rebuilt only when the carry
        tuple was replaced since the last call."""
        carry = self._served_carry
        if carry is not self._sm_src:
            self._sm_src = carry
            self._sm_map = dict(carry)
        return self._sm_map

    def _is_served(self, z: int, seq: int) -> bool:
        return self._served_lookup().get(z, -1) >= seq

    def _gc_traps(self) -> None:
        if self.config.trap_gc == GC_ROTATION:
            self.traps.expire(self.clock, self.ring_size())
            self.traps.drop_served(self._served_lookup())
