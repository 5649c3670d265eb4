"""Chaos testing for the fault-tolerant asyncio runtime.

The fuzz harness (PR 4) stresses the protocol *cores* under the
discrete-event simulator; this module stresses the *runtime* — supervisor,
reliability channel, adaptive detection — under the real asyncio stack,
kept bit-exact by :mod:`repro.aio.virtualtime`.

A :class:`ChaosCase` pins a complete scenario as plain data: node count,
transport parameters, an acquire schedule, and a fault plan (crashes that
the supervisor must detect and repair, partitions that the quorum gate
must park through).  ``run_chaos_case`` executes it on a virtual clock
with the :class:`~repro.aio.oracle.AioInvariantOracle` attached and
demands **bounded recovery**: every scheduled acquire must be granted
within ``recovery_window`` virtual seconds of the later of its issue time
and the last injected fault.  A run fails on an oracle violation, a dead
node coroutine, or an unrecovered acquire.  A run that injects corruption
attaches no oracle; it fails instead when more than one token is at rest
at the horizon or a final probe acquire is not granted.

Determinism contract: the same case always produces the same
:class:`ChaosResult`, including the CRC32 checksum over the logical
protocol send stream (framing retransmissions and heartbeats excluded) —
the virtual clock removes wall-time jitter and every RNG is derived from
the case seed.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.aio.cluster import AioCluster
from repro.aio.oracle import AioInvariantOracle
from repro.aio.reliability import ReliabilityConfig
from repro.aio.runtime import apply_fault, service_config, tokens_at_rest
from repro.aio.supervisor import ClusterSupervisor, RestartPolicy
from repro.aio.virtualtime import run_virtual
from repro.errors import ConfigError
from repro.faults.corruption import CORRUPTION_KINDS
from repro.faults.vocabulary import chaos_ops, check_faults
from repro.fuzz.case import CaseFile, RecordedOutcome
from repro.fuzz.rng import child_rng

__all__ = [
    "SCHEMA",
    "PROFILES",
    "ChaosCase",
    "ChaosResult",
    "generate_chaos_case",
    "run_chaos_case",
    "chaos_run",
]

SCHEMA = "repro-chaos-case/v1"

PROFILES = ("crash", "partition", "mixed", "corrupt")


@dataclass
class ChaosCase(CaseFile):
    """One self-contained chaos scenario (serializable, replayable)."""

    SCHEMA = SCHEMA

    seed: int
    profile: str = "mixed"
    #: Protocol core under test.  ``corrupt`` faults require the
    #: stabilizing core — every other core has no convergence story.
    protocol: str = "fault_tolerant"
    n: int = 5
    delay: float = 0.01
    loss_rate: float = 0.02
    #: Every acquire must be granted within this many virtual seconds of
    #: ``max(issue time, last fault time)`` — the bounded-recovery SLO.
    recovery_window: float = 8.0
    requests: List[Tuple[float, int]] = field(default_factory=list)
    faults: List[Dict] = field(default_factory=list)
    horizon: float = 30.0
    label: str = ""

    def validate(self) -> "ChaosCase":
        if self.n < 2:
            raise ConfigError(f"chaos needs n >= 2, got {self.n}")
        if self.recovery_window <= 0:
            raise ConfigError("recovery_window must be positive")
        for t, node in self.requests:
            if not 0 <= node < self.n:
                raise ConfigError(f"request targets unknown node {node}")
        check_faults(self.faults, self.n, chaos_ops(self.protocol))
        return self

    @staticmethod
    def _coerce(doc: Dict) -> None:
        doc["requests"] = [(float(t), int(node)) for t, node in
                           doc.get("requests", [])]


@dataclass
class ChaosResult(RecordedOutcome):
    """Outcome of one chaos scenario."""

    ok: bool
    checksum: str
    grants: int = 0
    requests: int = 0
    sends: int = 0
    restarts: int = 0
    give_ups: int = 0
    max_wait: float = 0.0
    duration: float = 0.0
    unrecovered: List[Dict] = field(default_factory=list)
    violation: Optional[Dict] = None

    def outcome(self) -> Dict:
        """The stable portion recorded in counterexample files."""
        doc: Dict = {"ok": self.ok, "checksum": self.checksum,
                     "grants": self.grants}
        if self.violation is not None:
            doc["invariant"] = self.violation.get("invariant")
        if self.unrecovered:
            doc["unrecovered"] = len(self.unrecovered)
        return doc


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

async def _execute(case: ChaosCase) -> ChaosResult:
    corrupting = any(f["op"] == "corrupt" for f in case.faults)
    cluster = AioCluster(
        case.protocol, case.n, seed=case.seed,
        # Chaos pins the stabilizing core's full reset on whatever the
        # config default.
        config=replace(service_config(case.protocol), stabilize_reset=True),
        delay=case.delay, loss_rate=case.loss_rate,
        reliability=ReliabilityConfig(),
        # The at-rest sanitizer would (rightly) reject the injected
        # illegal states; convergence is the corrupt run's verdict.
        sanitize=False if corrupting else None,
    )
    # A corrupted history breaks every oracle check by construction; a
    # corrupt run is judged by the convergence verdict below instead.
    oracle: Optional[AioInvariantOracle] = None
    if not corrupting:
        oracle = AioInvariantOracle(cluster, protocol=case.protocol)
        oracle.attach()
    supervisor = ClusterSupervisor(cluster, RestartPolicy(
        restart_delay=20.0 * case.delay,
        heartbeat_interval=5.0 * case.delay,
        phi_threshold=8.0,
    ))

    checksum = 0
    sends = 0

    def _digest(src: int, dst: int, msg: object) -> None:
        nonlocal checksum, sends
        sends += 1
        now = asyncio.get_running_loop().time()
        record = f"{now:.9f}|{src}|{dst}|{msg!r}"
        checksum = zlib.crc32(record.encode("utf-8"), checksum)

    def _wire_digest(node: int, driver) -> None:
        driver.on_send_msg.append(_digest)

    cluster.on_driver.append(_wire_digest)
    for node, driver in cluster.drivers.items():
        _wire_digest(node, driver)

    await cluster.start()
    await supervisor.start()

    last_fault_t = max((float(f["t"]) for f in case.faults), default=0.0)

    grants = 0
    waits: List[float] = []
    unrecovered: List[Dict] = []

    async def _request(t: float, node: int) -> None:
        nonlocal grants
        await asyncio.sleep(t)
        loop = asyncio.get_running_loop()
        start = loop.time()
        deadline = max(start, last_fault_t) + case.recovery_window
        try:
            await cluster.acquire(node, timeout=max(deadline - start, 1e-3))
        except asyncio.TimeoutError:
            unrecovered.append({
                "node": node, "t": round(t, 6),
                "waited": round(loop.time() - start, 6),
            })
            return
        grants += 1
        waits.append(loop.time() - start)
        await asyncio.sleep(case.delay)  # brief critical section
        cluster.release(node)

    tasks = [asyncio.create_task(apply_fault(cluster, f))
             for f in case.faults]
    tasks += [asyncio.create_task(_request(t, node))
              for t, node in case.requests]
    await asyncio.gather(*tasks)
    await asyncio.sleep(10.0 * case.delay)  # drain in-flight traffic
    if corrupting:
        # Leave the stabilizing machinery its convergence window, then
        # demand the single-token predicate at the horizon cut.
        loop = asyncio.get_running_loop()
        settle = case.horizon - loop.time()
        if settle > 0:
            await asyncio.sleep(settle)

    violation: Optional[Dict] = None
    if corrupting:
        # Convergence verdict, two halves.  Reduction: at most one token
        # at rest (the census is blind to in-flight copies, so only > 1
        # is a breach at the cut).  Liveness: a probe acquire must still
        # be granted — a deleted-and-never-regenerated token fails here.
        census = tokens_at_rest(cluster)
        if census > 1:
            violation = {
                "type": "OracleViolation", "invariant": "convergence",
                "detail": f"{census} tokens at the horizon cut after "
                          f"corruption (want at most 1 at rest)"}
        else:
            try:
                await cluster.acquire(0, timeout=case.recovery_window)
                cluster.release(0)
            except asyncio.TimeoutError:
                violation = {
                    "type": "OracleViolation", "invariant": "convergence",
                    "detail": "post-corruption probe acquire timed out: "
                              "the token never came back"}
    if oracle is not None and oracle.violation is not None:
        exc = oracle.violation
        violation = {"type": "OracleViolation", "invariant": exc.invariant,
                     "detail": exc.detail,
                     "context": {k: repr(v) for k, v in exc.context.items()}}
    else:
        # A node coroutine that died (sanitizer violation, core bug) is a
        # finding too — it just surfaces as a dead task, not a raise.
        for node, driver in cluster.drivers.items():
            task = driver._task
            if task is None or not task.done() or task.cancelled():
                continue
            exc = task.exception()
            if exc is not None:
                violation = {"type": type(exc).__name__,
                             "invariant": type(exc).__name__,
                             "detail": f"node {node} coroutine died: {exc}"}
                break

    duration = asyncio.get_running_loop().time()
    restarts = sum(supervisor.restarts.values())
    give_ups = (cluster.reliability_counters.give_ups
                if cluster.reliability_counters is not None else 0)
    await supervisor.stop()
    await cluster.stop()
    return ChaosResult(
        ok=violation is None and not unrecovered,
        checksum=f"{checksum:08x}",
        grants=grants,
        requests=len(case.requests),
        sends=sends,
        restarts=restarts,
        give_ups=give_ups,
        max_wait=round(max(waits), 6) if waits else 0.0,
        duration=round(duration, 6),
        unrecovered=unrecovered,
        violation=violation,
    )


def run_chaos_case(case: ChaosCase) -> ChaosResult:
    """Execute one chaos scenario to completion on a fresh virtual clock."""
    case.validate()
    return run_virtual(_execute(case))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _draw_crashes(rng, n: int) -> List[Dict]:
    faults = [{"t": round(rng.uniform(1.0, 2.5), 3),
               "op": "crash", "a": rng.randrange(n)}]
    if rng.random() < 0.5:
        survivors = [x for x in range(n) if x != faults[0]["a"]]
        # Spaced so the supervisor repairs the first before the second
        # lands — at most one node is ever down, preserving the quorum.
        faults.append({"t": round(faults[0]["t"] + rng.uniform(2.0, 3.5), 3),
                       "op": "crash", "a": rng.choice(survivors)})
    return faults


def _draw_partition(rng, n: int) -> List[Dict]:
    minority = 1 if n < 5 else rng.choice((1, 2))
    group_a = sorted(rng.sample(range(n), minority))
    group_b = [x for x in range(n) if x not in group_a]
    t = round(rng.uniform(1.0, 2.5), 3)
    return [
        {"t": t, "op": "partition", "group_a": group_a, "group_b": group_b},
        {"t": round(t + rng.uniform(1.5, 3.0), 3), "op": "heal_all"},
    ]


def generate_chaos_case(root_seed: int, index: int,
                        profile: str = "mixed") -> ChaosCase:
    """Derive the ``index``-th chaos scenario of a run from the root seed
    — the same triple always yields the same case."""
    if profile not in PROFILES:
        raise ConfigError(
            f"unknown profile {profile!r}; choose from {PROFILES}")
    mode = profile
    if profile == "mixed":
        mode = ("crash", "partition", "crash+partition")[index % 3]
    rng = child_rng(root_seed, "chaos", index, mode)

    n = rng.choice((4, 5, 6, 7))
    requests = sorted(
        (round(rng.uniform(0.5, 5.0), 3), rng.randrange(n))
        for _ in range(rng.randrange(3, 7))
    )
    faults: List[Dict] = []
    if "crash" in mode:
        faults.extend(_draw_crashes(rng, n))
    if "partition" in mode:
        faults.extend(_draw_partition(rng, n))
    if mode == "corrupt":
        for _ in range(rng.randrange(1, 3)):
            faults.append({"t": round(rng.uniform(1.0, 2.5), 3),
                           "op": "corrupt", "a": rng.randrange(n),
                           "what": rng.choice(CORRUPTION_KINDS),
                           "arg": rng.randrange(1 << 16)})
    faults.sort(key=lambda f: f["t"])
    last_t = max(f["t"] for f in faults)
    case = ChaosCase(
        seed=root_seed + index,
        profile=profile,
        protocol="stabilizing" if mode == "corrupt" else "fault_tolerant",
        n=n,
        delay=0.01,
        loss_rate=rng.choice((0.0, 0.02, 0.05)),
        recovery_window=8.0,
        requests=requests,
        faults=faults,
        horizon=round(last_t + 10.0, 3),
        label=f"{mode}/n{n}",
    )
    return case.validate()


def chaos_run(root_seed: int, runs: int, profile: str = "mixed",
              on_result: Optional[Callable] = None) -> List[Dict]:
    """The chaos loop: generate and execute ``runs`` scenarios.

    Returns one summary dict per case; ``on_result(index, case, result)``
    fires after each (the CLI uses it for progress and counterexamples)."""
    summaries: List[Dict] = []
    for index in range(runs):
        case = generate_chaos_case(root_seed, index, profile)
        result = run_chaos_case(case)
        summary = {
            "index": index,
            "label": case.label,
            "ok": result.ok,
            "checksum": result.checksum,
            "grants": result.grants,
            "restarts": result.restarts,
        }
        if result.violation is not None:
            summary["violation"] = result.violation
        if result.unrecovered:
            summary["unrecovered"] = result.unrecovered
        summaries.append(summary)
        if on_result is not None:
            on_result(index, case, result)
    return summaries
