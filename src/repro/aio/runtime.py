"""The fault-tolerant runtime as the chaos harness and the wire smoke
stand it up: its protocol config, the one fault applier (the asyncio
counterpart of the fuzz runner's DES scheduler) and the at-rest token
census their convergence verdicts read.  Fault plans are validated
against :mod:`repro.faults.vocabulary` before they get here."""

from __future__ import annotations

import asyncio
from typing import Any, Mapping

from repro.aio.cluster import AioCluster
from repro.core.config import ProtocolConfig
from repro.faults.corruption import corrupt_core

__all__ = ["service_config", "apply_fault", "tokens_at_rest"]


def service_config(protocol: str) -> ProtocolConfig:
    """The protocol stack a runtime runs.  For ``fault_tolerant`` (and the
    stabilizing core on top of it): rotation trap GC and quorum-gated
    regeneration, with timers in message-delay units that the driver
    scales by the transport delay.  ``regen_timeout`` is the *fallback* —
    once the ring has cadence history, the supervisor's phi provider
    overrides it."""
    if protocol not in ("fault_tolerant", "stabilizing"):
        return ProtocolConfig()
    config = ProtocolConfig(
        trap_gc="rotation",
        single_outstanding=True,
        retry_timeout=25.0,
        regen_timeout=30.0,
        census_window=8.0,
        loan_timeout=80.0,
        regen_quorum=True,
    )
    if protocol == "stabilizing":
        # The watchdog census would race the quorum-gated demand-driven
        # regeneration; its staggered cadence sits well above it.
        config.stabilize_watch = 50.0
    return config


async def apply_fault(cluster: AioCluster, fault: Mapping[str, Any]) -> None:
    """Sleep until the fault's time, then inject it at the transport (or,
    for ``corrupt``, into the victim's core)."""
    await asyncio.sleep(float(fault.get("t", 0.0)))
    op = fault["op"]
    transport = cluster.transport
    if op == "crash":
        await cluster.crash_node(fault["a"])
    elif op == "partition":
        transport.split(fault["group_a"], fault["group_b"])
    elif op == "heal":
        transport.heal(fault["a"], fault["b"])
    elif op == "heal_all":
        transport.heal_all()
    elif op == "reset":
        transport.reset_connections(fault.get("a"))  # type: ignore[attr-defined]
    elif op == "corrupt":
        corrupt_core(cluster.drivers[fault["a"]].core, fault["what"],
                     int(fault.get("arg", 0)), n=cluster.n)


def tokens_at_rest(cluster: AioCluster) -> int:
    """Nodes holding or lending the token.  The census is blind to
    in-flight copies, so only a count above 1 is a breach at a cut."""
    return sum(1 for driver in cluster.drivers.values()
               if getattr(driver.core, "has_token", False)
               or getattr(driver.core, "lent_to", None) is not None)
