"""Workload ``fabric_zipf``: 10,000 binary_search lanes on one kernel.

Each lane is a 3-node ring with ``idle_pause`` 10,000, driven by a
closed loop of 24,000 simulated clients (think time 2.0, Zipf s = 1.2)
through :class:`~repro.fabric.TokenFabric`.  After a warm-up of
``WARMUP`` grants the run is timed in chunks of ``CHUNK`` grants on the
same fabric; at ``CHECK_CHUNKS`` chunks the counters, the virtual
p50/p99 and the per-lane grant CRC must equal the recorded reference.
"""

from __future__ import annotations

import gc
import time
import zlib
from typing import Any, Dict, List

from common import check, load_reference, median, metric
from passes import UNTRACED_SHARE, timed
from report import cost_table, layer_metrics

LANES = 10_000
CLIENTS = 24_000
WARMUP = 6_000
CHUNK = 6_000
CHECK_CHUNKS = 2
#: The seed argument picks one of this many recorded fabric seeds.
VARIANTS = 4
REFERENCE = "fabric_zipf.json"


def fabric_seed(seed: int) -> int:
    return 1 + seed % VARIANTS


def build(seed: int):
    from repro.core.config import ProtocolConfig
    from repro.fabric import TokenFabric
    from repro.workload.keyed import ClosedLoopKeyedWorkload

    fabric = TokenFabric(seed=fabric_seed(seed))
    config = ProtocolConfig(idle_pause=10_000.0)
    for k in range(LANES):
        fabric.add_key(f"lock/{k:05d}", protocol="binary_search", n=3,
                       config=config)
    fabric.add_workload(ClosedLoopKeyedWorkload(clients=CLIENTS,
                                                think_time=2.0, s=1.2))
    return fabric


def checkpoint(fabric) -> Dict[str, Any]:
    """The checked outputs, in the form the reference records them."""
    metrics = fabric.metrics
    lane_crc = 0
    for stat in metrics.stats:
        lane_crc = zlib.crc32(b"%d|" % stat.grants, lane_crc)
    return {
        "grants": metrics.total_grants,
        "requests": metrics.total_requests,
        "events": fabric.executed_total,
        "messages": fabric.sent_total,
        "p50": metrics.percentile(50.0),
        "p99": metrics.percentile(99.0),
        "lane_grants_crc": f"{lane_crc & 0xFFFFFFFF:08x}",
    }


def _start(seed: int) -> Dict[str, Any]:
    gc.collect()
    start = time.perf_counter()
    fabric = build(seed)
    built = time.perf_counter() - start
    fabric.run(grants=WARMUP)
    return {"fabric": fabric, "build_s": built}


def setup(seed: int) -> Dict[str, Any]:
    state = _start(seed)
    state["seed"] = seed
    state["reference"] = load_reference(REFERENCE)
    return state


def _chunks(fabric, until: float) -> Dict[str, Any]:
    """Timed chunks until ``until`` and at least the checkpoint."""
    chunks: List[Dict[str, Any]] = []
    seen = None
    target = WARMUP
    while True:
        target += CHUNK
        messages0 = fabric.sent_total
        grants0 = fabric.metrics.total_grants
        chunk = timed(lambda: fabric.run(grants=target) or {})
        chunk["ops"] = fabric.metrics.total_grants - grants0
        chunk["messages"] = fabric.sent_total - messages0
        chunks.append(chunk)
        if len(chunks) == CHECK_CHUNKS:
            seen = checkpoint(fabric)
        if seen is not None and (time.perf_counter()
                                 + median([c["wall"] for c in chunks])
                                 > until):
            return {"chunks": chunks, "checkpoint": seen}


def compare(seen: Dict[str, Any], reference: Dict[str, Any], seed: int):
    expected = reference["seeds"].get(str(fabric_seed(seed)))
    if expected is None or reference.get("chunk") != [WARMUP, CHUNK,
                                                      CHECK_CHUNKS]:
        return False, f"no reference for seed {fabric_seed(seed)}"
    diff = sorted(k for k in set(seen) | set(expected)
                  if seen.get(k) != expected.get(k))
    return not diff, (f"differs in {diff}" if diff else
                      f"{seen['grants']} grants, crc {seen['lane_grants_crc']}")


def measure(state: Dict[str, Any], seconds: float,
            trace: bool) -> Dict[str, Any]:
    from layers import install_des
    from tracing import Tracer

    seed, reference = state["seed"], state["reference"]
    start = time.perf_counter()
    budget = start + (UNTRACED_SHARE if trace else 1.0) * seconds
    fabric = state.pop("fabric")
    untraced = _chunks(fabric, budget)
    checks: List[Dict[str, Any]] = []
    ok, detail = compare(untraced["checkpoint"], reference, seed)
    check(checks, "untraced checkpoint == reference", ok, detail)
    chunks = untraced["chunks"]
    attempted = fabric.metrics.total_grants
    responsiveness = fabric.metrics.histogram.mean
    del fabric
    grants = sum(c["ops"] for c in chunks)
    result: Dict[str, Any] = {
        "checks": checks,
        "attempted": attempted,
        "failed": 0,
        "e2e": {
            # Seconds per CHUNK grants: a chunk stops at the first bound
            # check past its target, so its grant count varies a little.
            "run_s": metric(median([c["wall_n"] / c["ops"] for c in chunks])
                            * CHUNK, "s", len(chunks)),
            "cpu_ms_per_op": metric(
                median([c["cpu_n"] * 1e3 / c["ops"] for c in chunks]), "ms",
                len(chunks)),
        },
        "extra": {
            "grants_per_s": metric(
                median([c["ops"] / c["wall"] for c in chunks]), "1/s",
                len(chunks)),
            "messages_per_grant": metric(
                sum(c["messages"] for c in chunks) / grants, "1", grants),
            "responsiveness_avg": metric(responsiveness, "hops", attempted),
            "failed_ops_ratio": metric(0.0, "ratio", attempted),
        },
    }
    if trace:
        tracer = Tracer()
        install_des(tracer)
        traced_state = _start(seed)
        tracer.reset()
        traced = _chunks(traced_state["fabric"], start + seconds)
        tracer.uninstall()
        ok, detail = compare(traced["checkpoint"], reference, seed)
        check(checks, "traced checkpoint == reference", ok, detail)
        tchunks = traced["chunks"]
        wall = sum(c["wall"] for c in tchunks)
        summary = tracer.summary()
        layers = layer_metrics(summary, len(tchunks), wall)
        tfabric = traced_state["fabric"]
        tgrants = sum(c["ops"] for c in tchunks)
        layers["fabric.setup.ms_per_lane"] = state["build_s"] * 1e3 / LANES
        layers["protocol.messages_per_grant"] = (
            sum(c["messages"] for c in tchunks) / tgrants)
        layers["protocol.responsiveness_avg"] = tfabric.metrics.histogram.mean
        # Logical events fired per kernel event: the batching ratio.
        layers["fabric.scheduling.events_per_kernel_event"] = (
            tfabric.executed_total / tfabric.kernel.executed_total)
        layers["trace.overhead_ratio"] = (
            median([c["wall_n"] / c["ops"] for c in tchunks])
            / median([c["wall_n"] / c["ops"] for c in chunks]))
        result["layers"] = layers
        result["cost_table"] = cost_table(layers, tgrants / len(tchunks))
        result["tracer"] = tracer
    return result
