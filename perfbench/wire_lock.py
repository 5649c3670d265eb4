"""Workload ``wire_lock``: the lock service over loopback TCP.

The service runs in its own process (``wire_server.py``, the stack
``repro serve`` builds); this process is the load generator, with at
most ``nproc`` = 2 connections:

- phase A, closed loop: 2 clients, each acquire -> one loop turn ->
  release, in passes of ``PASS_OPS`` ops.  Server CPU per grant comes
  from ``/proc`` and is scaled to the reference host speed sampled
  inside the server; ``run_s`` is a pass's wall time with the server's
  CPU share scaled the same way (the link delay's share is not host
  speed, so it stays raw);
- phase B, open loop: Poisson arrivals at ``RATE`` ops/s precomputed
  from the seed, sent by one task that sleeps until each due time, on
  one connection.  Each op is timed from its due time to its reply.

Checks: every op is granted or counted failed, the server's grant count
equals the clients', and the client-observed grant intervals (reply
received .. release sent) of all connections never overlap.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from calibrate import REFERENCE_S
from common import (BENCH_DIR, READY, check, median, metric, percentile,
                    proc_cpu_s, self_cpu_s)

CLIENTS = 2
PASS_OPS = 400
WARMUP_OPS = 200
RATE = 150.0
ACQUIRE_TIMEOUT = 10.0
#: Share of the budget for phase A; phase B gets the rest.  A traced
#: run splits it A / B / traced A.
A_SHARE = 0.55
TRACED_SPLIT = (0.3, 0.3, 0.4)


class Ops:
    """Client-side record of every op of one phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.grants = 0
        self.failed = 0
        self.latency: List[float] = []
        #: (due, reply received) of each granted op, loop-clock seconds.
        self.spans: List[Tuple[float, float]] = []
        #: The server's own ``waited`` for each grant (from the reply).
        self.waited: List[float] = []
        self.late: List[float] = []
        self.intervals: List[Tuple[float, float]] = []


async def one_op(client, ops: Ops, due: Optional[float] = None) -> None:
    from repro.errors import WireError

    loop = asyncio.get_running_loop()
    sent = loop.time()
    if due is None:
        due = sent
    else:
        ops.late.append(sent - due)
    ops.attempted += 1
    try:
        reply = await client.acquire(timeout=ACQUIRE_TIMEOUT)
    except WireError:
        ops.failed += 1
        return
    granted = loop.time()
    if not reply.ok:
        ops.failed += 1
        return
    ops.grants += 1
    ops.latency.append(granted - due)
    ops.spans.append((due, granted))
    ops.waited.append(reply.waited)
    # Hold across one loop turn, so a second grant delivered meanwhile
    # on the other connection would be seen inside this interval.
    await asyncio.sleep(0)
    ops.intervals.append((granted, loop.time()))
    try:
        released = await client.release(reply.node)
    except WireError:
        ops.failed += 1
        return
    if not released.ok:
        ops.failed += 1


async def closed_pass(clients, count: int, ops: Ops) -> None:
    left = [count]

    async def run(client) -> None:
        while left[0] > 0:
            left[0] -= 1
            await one_op(client, ops)

    await asyncio.gather(*(run(c) for c in clients))


def poisson_schedule(seed: int, seconds: float) -> List[float]:
    rng = random.Random(seed)
    offsets, now = [], 0.0
    while True:
        now += rng.expovariate(RATE)
        if now > seconds:
            return offsets
        offsets.append(now)


async def open_phase(client, offsets: List[float], ops: Ops) -> None:
    """One sender task sleeps until each due time and starts that op;
    ops already sent wait for their replies concurrently."""
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.01
    pending = []
    for offset in offsets:
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        pending.append(loop.create_task(one_op(client, ops, due)))
    await asyncio.gather(*pending)


def overlaps(intervals: List[Tuple[float, float]]) -> int:
    """Pairs of consecutive (by start) intervals that overlap."""
    count = 0
    latest_end = float("-inf")
    for start, end in sorted(intervals):
        if start < latest_end:
            count += 1
        latest_end = max(latest_end, end)
    return count


def peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc status")


class Server:
    """The service process, driven over its stdin/stdout."""

    def __init__(self, proc, port: int) -> None:
        self.proc = proc
        self.port = port

    @classmethod
    async def spawn(cls, seed: int) -> "Server":
        proc = await asyncio.create_subprocess_exec(
            sys.executable, os.path.join(BENCH_DIR, "wire_server.py"),
            "--seed", str(seed),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE)
        line = (await asyncio.wait_for(proc.stdout.readline(), 60)).decode()
        if not line.startswith(READY):
            proc.kill()
            await proc.wait()
            raise RuntimeError(f"service did not start: {line!r}")
        return cls(proc, int(line.split()[1]))

    async def command(self, name: str) -> Dict[str, Any]:
        self.proc.stdin.write(name.encode() + b"\n")
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
        return json.loads(line)

    async def stop(self) -> Dict[str, Any]:
        final = await self.command("stop")
        self.proc.stdin.close()
        await asyncio.wait_for(self.proc.wait(), 60)
        return final


async def _setup(seed: int) -> Dict[str, Any]:
    from repro.wire.client import LockClient

    server = await Server.spawn(seed)
    clients = [await LockClient("127.0.0.1", server.port).connect()
               for _ in range(CLIENTS)]
    return {"server": server, "clients": clients, "seed": seed}


async def _close(state: Dict[str, Any]) -> Dict[str, Any]:
    for client in state["clients"]:
        await client.aclose()
    return await state["server"].stop()


def setup(seed: int) -> Dict[str, Any]:
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    state = loop.run_until_complete(_setup(seed))
    state["loop"] = loop
    return state


def teardown(state: Dict[str, Any]) -> None:
    loop = state["loop"]
    loop.run_until_complete(_close(state))
    loop.close()


async def _phase_a(state, until: float, minimum: int) -> List[Dict[str, Any]]:
    """Closed-loop passes; the server samples its host speed during each
    so its CPU time can be normalized (:mod:`calibrate`)."""
    server = state["server"]
    pid = server.proc.pid
    passes = []
    while True:
        ops = Ops()
        await server.command("sample")
        cpu0, wall0 = proc_cpu_s(pid), time.perf_counter()
        await closed_pass(state["clients"], PASS_OPS, ops)
        wall, cpu = time.perf_counter() - wall0, proc_cpu_s(pid) - cpu0
        rate = await server.command("rate")
        mean = rate["spent"] / rate["samples"]
        cpu_n = (cpu - rate["spent"]) * REFERENCE_S / mean
        # The server's busy time is on the closed loop's critical path:
        # scale that share of the wall time, leave link delay and the
        # load generator's share raw.
        passes.append({"wall": wall, "cpu": cpu, "ops": ops, "cpu_n": cpu_n,
                       "wall_n": wall - cpu + cpu_n})
        if len(passes) >= minimum and (
                time.perf_counter() + median([p["wall"] for p in passes])
                > until):
            return passes


def _delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """Numeric leaf-wise ``after - before``."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = _delta(value, before.get(key, {}))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
        else:
            out[key] = value
    return out


async def _measure(state: Dict[str, Any], seconds: float,
                   trace: bool) -> Dict[str, Any]:
    server, clients = state["server"], state["clients"]
    start = time.perf_counter()
    shares = TRACED_SPLIT if trace else (A_SHARE, 1.0 - A_SHARE, 0.0)
    warm = Ops()
    await closed_pass(clients, WARMUP_OPS, warm)
    before_a = await server.command("snap")
    a_passes = await _phase_a(state, start + shares[0] * seconds, 3)
    after_a = await server.command("snap")
    # Phase A may overrun its share (it runs at least 3 passes); phase B
    # still gets a second of arrivals.
    b_seconds = max(start + (shares[0] + shares[1]) * seconds
                    - time.perf_counter() - 0.05, 1.0)
    offsets = poisson_schedule(state["seed"], b_seconds)
    b_ops = Ops()
    cpu0, wall0 = self_cpu_s(), time.perf_counter()
    await open_phase(clients[0], offsets, b_ops)
    b_wall, b_cpu = time.perf_counter() - wall0, self_cpu_s() - cpu0
    traced_passes: List[Dict[str, Any]] = []
    traced_delta = None
    if trace:
        await server.command("trace")
        before_t = await server.command("snap")
        traced_passes = await _phase_a(state, start + seconds, 1)
        traced_delta = _delta(await server.command("snap"), before_t)
    server_peak_kb = peak_rss_kb(server.proc.pid)
    final = await _close(state)
    return {"warm": warm, "a": a_passes, "a_delta": _delta(after_a, before_a),
            "b": b_ops, "b_wall": b_wall, "b_cpu": b_cpu, "b_offsets": offsets,
            "traced": traced_passes,
            "traced_delta": traced_delta, "final": final,
            "server_peak_kb": server_peak_kb}


def _layers(run: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of the traced phase-A passes (server side)."""
    from report import layer_metrics

    traced = run["traced"]
    delta = run["traced_delta"]
    wall = sum(p["wall"] for p in traced)
    grants = sum(p["ops"].grants for p in traced)
    out = layer_metrics(delta["trace"], len(traced), wall)
    wire, rel = delta["wire"], delta["reliability"]
    by_type = delta["frames_by_type"]
    out["wire.transport.frames_per_grant"] = wire["frames_sent"] / grants
    for kind, name in (("DataFrame", "data"), ("AckFrame", "ack"),
                       ("HeartbeatMsg", "heartbeat")):
        out[f"wire.transport.{name}_frames_per_grant"] = (
            by_type.get(kind, 0) / grants)
    out["wire.transport.backpressure_drops"] = wire["backpressure_drops"]
    # Links are dialled during set-up; a connect while under load is a
    # reconnect.
    out["wire.transport.reconnects"] = wire["connects"]
    out["aio.reliability.retransmits_per_grant"] = rel["retransmits"] / grants
    out["aio.reliability.dedup_drops_per_grant"] = rel["dedup_drops"] / grants
    attempts = rel["data_frames"] + rel["retransmits"]
    if attempts:
        out["aio.reliability.useful_ratio"] = rel["data_frames"] / attempts
    out["aio.supervisor.heartbeats_per_s"] = by_type.get("HeartbeatMsg",
                                                         0) / wall
    out["protocol.messages_per_grant"] = delta["messages"]["_total"] / grants
    out["trace.overhead_ratio"] = (
        median([p["cpu_n"] / p["ops"].grants for p in traced])
        / median([p["cpu_n"] / p["ops"].grants for p in run["a"]]))
    return out


def _cost_table(run: Dict[str, Any], layers: Dict[str, float]
                ) -> List[Dict[str, Any]]:
    """Server-side host time of one grant, by layer, in the traced
    passes; time outside every span is split into CPU (event loop,
    sockets, coroutine bodies) and idle."""
    from report import cost_table

    traced = run["traced"]
    grants = sum(p["ops"].grants for p in traced) / len(traced)
    cpu = sum(p["cpu"] for p in traced) / len(traced)
    spanned = sum(v for k, v in layers.items()
                  if k.endswith(".self_s") and k != "bench.self_s")
    outside = dict(layers, **{"bench.self_s": 0.0})
    return cost_table(outside, grants, {
        "(server cpu outside spans)": max(cpu - spanned, 0.0),
        "(server idle)": max(layers["trace.wall_s"] - cpu, 0.0)})


def measure(state: Dict[str, Any], seconds: float,
            trace: bool) -> Dict[str, Any]:
    loop = state["loop"]
    run = loop.run_until_complete(_measure(state, seconds, trace))
    loop.close()
    a_passes, b_ops, final = run["a"], run["b"], run["final"]
    phases = [run["warm"], b_ops] + [p["ops"] for p in a_passes + run["traced"]]
    attempted = sum(o.attempted for o in phases)
    grants = sum(o.grants for o in phases)
    failed = sum(o.failed for o in phases)
    intervals = [iv for o in phases for iv in o.intervals]
    checks: List[Dict[str, Any]] = []
    check(checks, "every op granted or counted failed",
          attempted == grants + failed,
          f"{attempted} attempted, {grants} granted, {failed} failed")
    check(checks, "server grants == client grants", final["grants"] == grants,
          f"server {final['grants']}, clients {grants}")
    check(checks, "client-observed grant intervals never overlap",
          overlaps(intervals) == 0,
          f"{overlaps(intervals)} overlaps in {len(intervals)} intervals")
    check(checks, "open loop sent its whole schedule",
          b_ops.attempted == len(run["b_offsets"]),
          f"{b_ops.attempted} of {len(run['b_offsets'])}")
    a_delta = run["a_delta"]
    a_grants = sum(p["ops"].grants for p in a_passes)
    result: Dict[str, Any] = {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "child_maxrss_kb": run["server_peak_kb"],
        "e2e": {
            "run_s": metric(median([p["wall_n"] for p in a_passes]), "s",
                            len(a_passes)),
            "cpu_ms_per_op": metric(
                median([p["cpu_n"] * 1e3 / p["ops"].grants for p in a_passes]),
                "ms", len(a_passes)),
        },
        "extra": {
            "grants_per_s": metric(
                median([p["ops"].grants / p["wall"] for p in a_passes]),
                "1/s", len(a_passes)),
            "acquire_p50_ms": metric(percentile(b_ops.latency, 50) * 1e3,
                                     "ms", len(b_ops.latency)),
            "acquire_p99_ms": metric(percentile(b_ops.latency, 99) * 1e3,
                                     "ms", len(b_ops.latency)),
            "failed_ops_ratio": metric(failed / attempted, "ratio",
                                       attempted),
            "messages_per_grant": metric(
                a_delta["wire"]["frames_sent"] / a_grants, "1", a_grants),
        },
    }
    b_samples = len(b_ops.latency)
    a_wall = sum(p["wall"] for p in a_passes)
    validity = {  # name: (value, unit, samples)
        "loadgen.late_p99_ms": (percentile(b_ops.late, 99) * 1e3, "ms",
                                b_samples),
        "loadgen.cpu_busy_ratio": (run["b_cpu"] / run["b_wall"], "ratio",
                                   b_samples),
        "loadgen.acquire_p50_ms": (percentile(b_ops.latency, 50) * 1e3, "ms",
                                   b_samples),
        "loadgen.acquire_p99_ms": (percentile(b_ops.latency, 99) * 1e3, "ms",
                                   b_samples),
        "wire.server.wait_p50_ms": (percentile(b_ops.waited, 50) * 1e3, "ms",
                                    b_samples),
        "wire.server.cpu_busy_ratio": (
            sum(p["cpu"] for p in a_passes) / a_wall, "ratio", len(a_passes)),
    }
    result["extra"].update({name: metric(*doc)
                            for name, doc in validity.items()})
    if trace:
        layers = _layers(run)
        layers.update({name: doc[0] for name, doc in validity.items()})
        result["layers"] = layers
        result["cost_table"] = _cost_table(run, layers)
        result["tracer"] = _op_spans(b_ops)
    return result


def _op_spans(ops: Ops):
    """Phase B's lock ops as spans with their op ids, due -> reply (the
    server process writes its layer spans itself)."""
    from tracing import Tracer

    tracer = Tracer()
    for op_id, (due, granted) in enumerate(ops.spans):
        tracer.record("loadgen.acquire", int(due * 1e9), int(granted * 1e9),
                      op=op_id)
    return tracer
