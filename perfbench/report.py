"""Metric catalogue and the arithmetic that turns spans into metrics.

``E2E`` and ``PER_LAYER`` are the names ``BENCHMARK.json`` declares; a
run prints every one of them (a layer a workload bypasses reads 0).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from layers import REPORTED_LAYERS

#: (name, unit) of the end-to-end metrics, measured with tracing off.
E2E: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
]

_SELF_LAYERS = sorted(set(REPORTED_LAYERS.values()))

#: (name, unit) of the per-layer metrics, measured in the traced run.
PER_LAYER: List[Tuple[str, str]] = (
    [(f"{layer}.self_s", "s") for layer in _SELF_LAYERS]
    + [
        ("sim.kernel.events", "count"),
        ("core.calls", "count"),
        ("core.ns_per_call", "ns"),
        ("sim.network.sends", "count"),
        ("lint.sanitizer.checks", "count"),
        ("fabric.scheduling.events_per_kernel_event", "ratio"),
        ("fabric.setup.ms_per_lane", "ms"),
        ("wire.codec.frames", "count"),
        ("wire.codec.encode_s", "s"),
        ("wire.codec.decode_s", "s"),
        ("wire.codec.bytes_per_frame", "B"),
        ("wire.transport.frames_per_grant", "1"),
        ("wire.transport.data_frames_per_grant", "1"),
        ("wire.transport.ack_frames_per_grant", "1"),
        ("wire.transport.heartbeat_frames_per_grant", "1"),
        ("wire.transport.backpressure_drops", "count"),
        ("wire.transport.reconnects", "count"),
        ("aio.reliability.retransmits_per_grant", "1"),
        ("aio.reliability.dedup_drops_per_grant", "1"),
        ("aio.reliability.useful_ratio", "ratio"),
        ("aio.supervisor.heartbeats_per_s", "1/s"),
        ("wire.server.wait_p50_ms", "ms"),
        ("wire.server.cpu_busy_ratio", "ratio"),
        ("loadgen.late_p99_ms", "ms"),
        ("loadgen.cpu_busy_ratio", "ratio"),
        ("loadgen.acquire_p50_ms", "ms"),
        ("loadgen.acquire_p99_ms", "ms"),
        ("trs.engine.calls", "count"),
        ("specs.modelcheck.states", "count"),
        ("specs.modelcheck.transitions", "count"),
        ("verify.dpor.executed", "count"),
        ("verify.dpor.reduction_ratio", "ratio"),
        ("verify.independence.diamond_checks", "count"),
        ("protocol.messages_per_grant", "1"),
        ("protocol.responsiveness_avg", "hops"),
        ("bench.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def layer_metrics(summary: Dict[str, Any], units: float,
                  wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from a tracer summary covering ``units`` repeats
    of the workload's unit of work (passes or chunks) over ``wall_s``
    traced seconds.  Times and counts are per unit."""
    per = 1.0 / units
    out: Dict[str, float] = {}
    covered = 0.0
    for fine, seconds in summary["self_s"].items():
        reported = REPORTED_LAYERS.get(fine)
        if reported is None:
            continue
        key = f"{reported}.self_s"
        out[key] = out.get(key, 0.0) + seconds * per
        covered += seconds
    calls = summary["calls"]
    counts = summary["counts"]
    core_calls = calls.get("core", 0)
    out["core.calls"] = core_calls * per
    if core_calls:
        out["core.ns_per_call"] = summary["self_s"]["core"] * 1e9 / core_calls
    out["lint.sanitizer.checks"] = calls.get("lint.sanitizer", 0) * per
    out["trs.engine.calls"] = calls.get("trs.engine", 0) * per
    for name in ("sim.kernel.events", "sim.network.sends",
                 "specs.modelcheck.states", "specs.modelcheck.transitions",
                 "verify.dpor.executed",
                 "verify.independence.diamond_checks"):
        out[name] = counts.get(name, 0) * per
    executed = counts.get("verify.dpor.executed", 0)
    if executed:
        out["verify.dpor.reduction_ratio"] = (
            counts.get("specs.modelcheck.transitions", 0) / executed)
    out["wire.codec.encode_s"] = summary["self_s"].get(
        "wire.codec.encode", 0.0) * per
    out["wire.codec.decode_s"] = summary["self_s"].get(
        "wire.codec.decode", 0.0) * per
    frames = counts.get("wire.codec.frames", 0)
    out["wire.codec.frames"] = frames * per
    if frames:
        out["wire.codec.bytes_per_frame"] = (
            counts.get("wire.codec.bytes", 0) / frames)
    out["trace.wall_s"] = wall_s * per
    out["bench.self_s"] = (wall_s - covered) * per
    return out


def cost_table(layers: Dict[str, float], ops: float,
               extra: Optional[Dict[str, float]] = None
               ) -> List[Dict[str, Any]]:
    """Split one op's traced host time across the layers (``bench`` is
    the benchmark's own, unattributed remainder), from per-unit layer
    metrics and ``ops`` per unit; ``extra`` adds rows of other seconds."""
    wall = layers["trace.wall_s"]
    seconds = {name[:-len(".self_s")]: value
               for name, value in layers.items() if name.endswith(".self_s")}
    seconds.update(extra or {})
    rows = [{"layer": layer, "us_per_op": value * 1e6 / ops,
             "share": value / wall}
            for layer, value in seconds.items() if value > 0]
    rows.sort(key=lambda row: -row["us_per_op"])
    return rows
