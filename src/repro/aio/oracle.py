"""Invariant oracle for the asyncio runtime.

:class:`AioInvariantOracle` runs the PR-4 network-wide safety checks
(:class:`~repro.fuzz.oracle.InvariantOracle`) against a live
:class:`~repro.aio.cluster.AioCluster` instead of the discrete-event
simulator.  The checks themselves — per-epoch token conservation, shadow
history differential, trap/search stamp consistency — are inherited
unchanged; only the *wiring* differs:

- **logical sends** are observed at the driver seam
  (``driver.on_send_msg``), which fires exactly once per protocol payload
  — never per :class:`~repro.aio.reliability.DataFrame` retransmission —
  so a retransmitted token does not double-count as two in-flight units;
- **in-flight lineage** is settled at *terminal* events only: the core
  fully handled the payload (``driver.on_handled``), the reliability
  channel surrendered it (``on_give_up``), or the transport dropped an
  unframed reliable message (``on_drop``).  Settling floors at zero:
  under crash/restart a payload can be both given up *and* later
  delivered by a wire copy, and the floor keeps that benign;
- **conservation is checked at quiescent points**: after a handled
  delivery, when every send the handler emitted has been counted — the
  asyncio analogue of checking after ``_deliver`` completes in the sim;
- **violations are captured, not raised**, by default: the hooks run deep
  inside node coroutines, where an exception would kill one node task
  asymmetrically instead of failing the run.  The chaos runner inspects
  :attr:`violation` after the schedule completes.

Runs that inject arbitrary-state corruption attach no oracle: a scrambled
history violates these checks by construction.  The chaos and wire
harnesses judge such runs by convergence instead — at most one token at
rest (:func:`~repro.aio.runtime.tokens_at_rest`) after the stabilization
window.

Known over-count: a lineage payload whose wire frame evaporates *after*
its sender crashed (channel stopped, so no give-up will ever fire) stays
in the in-flight ledger.  That is deliberate — phantom units at stale
epochs are harmless to the newest-epoch check, while under-counting could
mask a real duplication.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.aio.cluster import AioCluster
from repro.aio.driver import AioNodeDriver
from repro.core.messages import LoanMsg
from repro.fuzz.oracle import InvariantOracle, OracleViolation, _LINEAGE

__all__ = ["AioInvariantOracle"]


class AioInvariantOracle(InvariantOracle):
    """PR-4 invariant checks re-wired onto the asyncio runtime."""

    def __init__(self, cluster: AioCluster, protocol: str = "",
                 capture: bool = True) -> None:
        # Never strict: the whole point of the aio runtime is schedules
        # that *can* destroy the token.
        super().__init__(cluster, protocol=protocol, strict=False)
        self.capture = capture
        self.violation: Optional[OracleViolation] = None

    # -- wiring ---------------------------------------------------------------

    def attach(self) -> None:
        if self._attached:
            return
        self._attached = True
        self.cluster.transport.on_drop.append(self._on_transport_drop)
        self.cluster.on_driver.append(self._wire_driver)
        for node, driver in self.cluster.drivers.items():
            self._wire_driver(node, driver)

    def _wire_driver(self, node: int, driver: AioNodeDriver) -> None:
        driver.on_send_msg.append(self._on_send)
        driver.on_handled.append(self._on_handled)
        driver.on_control.append(self._make_loan_peek(node))
        driver.subscribe(self._on_app_event)
        if driver.channel is not None:
            driver.channel.on_give_up.append(self._on_give_up)
        # (Re)sync the shadow history with the core we now observe: a
        # restarted node's restored ``last_visit`` *is* its observable
        # history (the pre-crash tail is genuinely forgotten).
        self._seen[node] = getattr(driver.core, "last_visit", -1)

    def _make_loan_peek(self, node: int):
        def peek(src: int, msg: object) -> bool:
            # Mirror the borrower's ring contact before the core runs
            # (the sim oracle does this in ``_deliver``): accepting a loan
            # extends H_x to the lender's clock, unless epoch-fenced.
            if isinstance(msg, LoanMsg) and msg.requester == node:
                core = self.cluster.drivers[node].core
                if getattr(msg, "epoch", 0) >= getattr(core, "epoch", 0):
                    self._seen[node] = msg.clock
            return False  # observe only; never consume

        return peek

    # -- terminal events ------------------------------------------------------

    def _settle(self, epoch: int) -> None:
        count = self._inflight.get(epoch, 0)
        if count > 1:
            self._inflight[epoch] = count - 1
        else:
            self._inflight.pop(epoch, None)

    def _on_handled(self, src: int, msg: object) -> None:
        if isinstance(msg, _LINEAGE):
            self._settle(getattr(msg, "epoch", 0))
            self._check_conservation()

    def _on_give_up(self, src: int, dst: int, payload: object) -> None:
        if isinstance(payload, _LINEAGE):
            self._settle(getattr(payload, "epoch", 0))
            self._lineage_lost += 1
            self._check_conservation()

    def _on_transport_drop(self, src: int, dst: int, msg: object,
                           reason: str) -> None:
        # Only an *unframed* reliable lineage message dies at the transport
        # (no channel to retransmit it).  Dropped DataFrames are
        # non-terminal: the ARQ either recovers them or gives up above.
        if isinstance(msg, _LINEAGE):
            self._settle(getattr(msg, "epoch", 0))
            self._lineage_lost += 1

    # -- reporting ------------------------------------------------------------

    def _fail(self, invariant: str, detail: str, **context) -> None:
        try:
            context.setdefault("now", asyncio.get_running_loop().time())
        except RuntimeError:
            context.setdefault("now", -1.0)
        violation = OracleViolation(invariant, detail, context)
        if self.capture:
            if self.violation is None:
                self.violation = violation
            return
        raise violation

