"""Helpers shared by the benchmark's processes: paths, statistics, the
worker's line protocol and readings taken from ``/proc``."""

from __future__ import annotations

import json
import os
import resource
import sys
from typing import Any, Dict, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
#: Span dumps of traced runs (listed in the root .gitignore).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, "
                         f"not from {SRC}")


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of raw samples."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def proc_cpu_s(pid: int) -> float:
    """CPU seconds another process has run, read from /proc: the
    nanosecond on-CPU time of each of its threads (``schedstat``), or
    user + system clock ticks (``stat``) where schedstat is missing."""
    total = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat", "rb") as handle:
                total += int(handle.read().split()[0])
        return total / 1e9
    except FileNotFoundError:
        pass
    with open(f"/proc/{pid}/stat", "rb") as handle:
        stat = handle.read()
    # The command name may hold spaces; fields resume after its ')'.
    fields = stat[stat.rindex(b")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def load_reference(name: str) -> Dict[str, Any]:
    with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as handle:
        return json.load(handle)


def metric(value: float, unit: str, samples: int) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "samples": samples}


def announce_ready() -> None:
    """Tell the parent that set-up is over: the next thing is timed.

    Protocol lines go to the process's original stdout; workers point
    ``sys.stdout`` at stderr so nothing else can land between them."""
    sys.__stdout__.write(READY + "\n")
    sys.__stdout__.flush()


def emit_result(result: Dict[str, Any]) -> None:
    sys.__stdout__.write(RESULT + json.dumps(result, sort_keys=True) + "\n")
    sys.__stdout__.flush()


def check(checks: List[Dict[str, Any]], name: str, ok: bool,
          detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})
