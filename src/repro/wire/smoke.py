"""End-to-end wire runs: the smoke/soak harness behind ``repro wire-smoke``.

One call stands up the entire real-socket stack in-process — a
:class:`~repro.wire.transport.WireTransport` (every node on its own TCP
listener), an :class:`~repro.aio.cluster.AioCluster` with the
fault-tolerant runtime (ARQ reliability, supervision, phi-accrual
detection) attached **unchanged**, the
:class:`~repro.aio.oracle.AioInvariantOracle` observing every logical
send (except in runs that inject corruption, which are judged by
convergence), a :class:`~repro.wire.server.LockServiceServer` on its own port,
and a closed-loop :class:`~repro.wire.client.LoadGenerator` hammering it
over loopback TCP.  Optionally a chaos-style fault schedule (crash /
partition / heal / connection reset, all at the socket layer) runs
concurrently with the load.

The report is a JSON-able dict (schema ``repro-wire-smoke/v1``): ``ok``
demands every op granted, zero oracle violations, zero client errors,
and p99 acquire wait within budget.  CI runs a 3-node/2k-op smoke; the
soak tier runs 5 nodes and 10k+ ops.
"""

from __future__ import annotations

import asyncio
import json
import platform
import time
from typing import Any, Dict, List, Optional

from repro.aio.cluster import AioCluster
from repro.aio.oracle import AioInvariantOracle
from repro.aio.reliability import ReliabilityConfig
from repro.aio.runtime import apply_fault, service_config, tokens_at_rest
from repro.aio.supervisor import ClusterSupervisor, RestartPolicy
from repro.errors import ConfigError
from repro.faults.vocabulary import check_faults, wire_ops
from repro.wire.client import LoadGenerator
from repro.wire.server import LockServiceServer
from repro.wire.transport import WireTransport

__all__ = ["SCHEMA", "service_config", "run_wire_smoke"]

SCHEMA = "repro-wire-smoke/v1"

async def _run(
    n: int,
    ops: int,
    clients: int,
    protocol: str,
    seed: int,
    delay: float,
    loss_rate: float,
    think_time: float,
    hold_time: float,
    reliability: bool,
    supervise: bool,
    acquire_timeout: float,
    p99_budget: float,
    faults: List[Dict],
) -> Dict[str, Any]:
    import random

    corrupting = any(f["op"] == "corrupt" for f in faults)
    transport = WireTransport(
        delay=delay, loss_rate=loss_rate,
        rng=random.Random(seed ^ 0x5EED))
    cluster = AioCluster(
        protocol, n, seed=seed,
        config=service_config(protocol),
        transport=transport,
        reliability=ReliabilityConfig() if reliability else None,
        # Injected illegal states would (rightly) trip the at-rest
        # sanitizer; a corruption run's verdict is convergence instead.
        sanitize=False if corrupting else None,
    )
    # A corrupted history breaks every oracle check by construction; a
    # corrupt run is judged by convergence at teardown instead.
    oracle: Optional[AioInvariantOracle] = None
    if not corrupting:
        oracle = AioInvariantOracle(cluster, protocol=protocol)
        oracle.attach()
    supervisor: Optional[ClusterSupervisor] = None
    if supervise:
        supervisor = ClusterSupervisor(cluster, RestartPolicy(
            restart_delay=20.0 * max(delay, 1e-3),
            heartbeat_interval=5.0 * max(delay, 1e-3),
            phi_threshold=8.0,
        ))
    server = LockServiceServer(cluster)
    await server.start()
    if supervisor is not None:
        await supervisor.start()

    generator = LoadGenerator("127.0.0.1", server.port, seed=seed,
                              acquire_timeout=acquire_timeout)
    fault_tasks = [asyncio.get_running_loop().create_task(
        apply_fault(cluster, f)) for f in faults]
    try:
        load = await generator.run_closed_loop(
            clients, ops, think_time=think_time, hold_time=hold_time)
    finally:
        for task in fault_tasks:
            task.cancel()
        # Let in-flight protocol traffic settle before tearing down, so
        # the oracle judges a quiescent network.
        await asyncio.sleep(20.0 * max(delay, 1e-3))
        if supervisor is not None:
            await supervisor.stop()
        await server.stop()

    violation: Optional[Dict[str, str]] = None
    if oracle is not None and oracle.violation is not None:
        exc = oracle.violation
        violation = {"invariant": exc.invariant, "detail": exc.detail}

    converged: Optional[bool] = None
    if corrupting:
        # Convergence fold: at most one token at rest at teardown (the
        # census is blind to in-flight copies, so only > 1 is a breach);
        # liveness is already proven by every op having been granted.
        converged = tokens_at_rest(cluster) <= 1

    p99_ok = load.wait_p99 <= p99_budget
    ok = (violation is None and load.errors == 0 and load.failures == 0
          and load.grants == ops and p99_ok and converged is not False)
    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "ok": ok,
        "protocol": protocol,
        "n": n,
        "ops": ops,
        "clients": clients,
        "seed": seed,
        "delay": delay,
        "loss_rate": loss_rate,
        "reliability": reliability,
        "supervised": supervise,
        "faults": list(faults),
        "load": load.as_dict(),
        "p99_budget_s": p99_budget,
        "p99_ok": p99_ok,
        "converged": converged,
        "oracle_violation": violation,
        "server": {
            "grants": server.grants,
            "releases": server.releases,
            "failures": server.failures,
        },
        "wire": transport.counters.as_dict(),
        "transport": {
            "sent": transport.sent_count,
            "delivered": transport.delivered_count,
            "dropped": transport.dropped_count,
        },
        "host": platform.node(),
        "unix_time": int(time.time()),
    }
    if cluster.reliability_counters is not None:
        report["arq"] = cluster.reliability_counters.as_dict()
    if supervisor is not None:
        report["restarts"] = sum(supervisor.restarts.values())
    return report


def run_wire_smoke(
    n: int = 3,
    ops: int = 2000,
    clients: int = 6,
    protocol: str = "fault_tolerant",
    seed: int = 0,
    delay: float = 0.001,
    loss_rate: float = 0.0,
    think_time: float = 0.0,
    hold_time: float = 0.0,
    reliability: bool = True,
    supervise: bool = True,
    acquire_timeout: float = 30.0,
    p99_budget: float = 2.0,
    faults: Optional[List[Dict]] = None,
) -> Dict[str, Any]:
    """Run the full real-socket stack once; returns the report dict.

    Real wall-clock asyncio (sockets cannot run on the virtual clock), so
    numbers vary run to run — the *assertions* (every op granted, zero
    oracle violations, p99 within budget) are what must hold."""
    if n < 2:
        raise ConfigError(f"wire smoke needs n >= 2, got {n}")
    if ops < 1:
        raise ConfigError(f"ops must be >= 1, got {ops}")
    fault_list = list(faults) if faults else []
    check_faults(fault_list, n, wire_ops(protocol))
    return asyncio.run(_run(
        n=n, ops=ops, clients=clients, protocol=protocol, seed=seed,
        delay=delay, loss_rate=loss_rate, think_time=think_time,
        hold_time=hold_time, reliability=reliability, supervise=supervise,
        acquire_timeout=acquire_timeout, p99_budget=p99_budget,
        faults=fault_list,
    ))


def save_report(report: Dict[str, Any], path: str) -> None:
    """Write a report as deterministic JSON (counterexample artifacts)."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
