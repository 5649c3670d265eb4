"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh worker
process started here; set-up time, peak RSS and CPU are read from
outside that process.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
carries the per-layer metrics of a traced run, and the lines before it
hold the per-op layer cost table.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import BENCH_DIR, READY, RESULT, ROOT, median
from worker import WORKLOADS

WORKER = os.path.join(BENCH_DIR, "worker.py")
#: Extra set-up-only processes per untraced run; ``setup_s`` is the
#: median over these and the measuring process.
SETUP_PROBES = 2
#: Wall-clock cap on the whole invocation.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_env() -> Dict[str, str]:
    """The caller's environment without the program's tuning switches
    (the sanitizer stays at its default, on) and with a fixed hash seed
    so set and dict layouts repeat from run to run."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    return env


def _read_line(proc: subprocess.Popen, selector: selectors.BaseSelector,
               buffer: List[bytes], deadline: float) -> Optional[str]:
    """Next stdout line of ``proc`` (None at EOF), bounded by deadline."""
    while True:
        data = b"".join(buffer)
        if b"\n" in data:
            line, rest = data.split(b"\n", 1)
            buffer[:] = [rest]
            return line.decode("utf-8", "replace")
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("worker exceeded the time limit")
        if not selector.select(remaining):
            continue
        chunk = os.read(proc.stdout.fileno(), 65536)
        if not chunk:
            buffer[:] = []
            return data.decode("utf-8", "replace") if data else None
        buffer.append(chunk)


def run_worker(args: List[str], deadline: float
               ) -> Tuple[float, Optional[Dict[str, Any]], int, Any]:
    """Start one worker; returns (set-up seconds, result, exit code,
    rusage of the reaped process)."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, env=_worker_env())
    setup_s = None
    result = None
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    buffer: List[bytes] = []
    try:
        while True:
            line = _read_line(proc, selector, buffer, deadline)
            if line is None:
                break
            if line == READY and setup_s is None:
                setup_s = time.monotonic() - started
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            elif line:
                print(line, file=sys.stderr)
    except BaseException:
        proc.kill()
        raise
    finally:
        selector.close()
        # Reap it here rather than through Popen: wait4 returns the
        # child's own rusage (peak RSS, CPU).
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if setup_s is None:
        raise BenchError(f"worker exited ({proc.returncode}) before set-up "
                         "finished")
    return setup_s, result, proc.returncode, usage


def _declared() -> Dict[str, List[Tuple[str, str]]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    return {kind: [(m["name"], m["unit"]) for m in doc[kind]]
            for kind in ("end_to_end", "per_layer")}


def _print_table(workload: str, seed: int, trace: bool,
                 metrics: Dict[str, Dict[str, Any]],
                 result: Dict[str, Any]) -> None:
    mode = "traced" if trace else "untraced"
    print(f"perfbench {workload} seed={seed} ({mode})")
    for name, doc in metrics.items():
        samples = doc.get("samples")
        count = f"  n={samples}" if samples is not None else ""
        print(f"  {name:<46} {doc['value']:>16.6g} {doc['unit']:<6}{count}")
    checks = result.get("checks", [])
    bad = [c for c in checks if not c["ok"]]
    print(f"  checks: {len(checks) - len(bad)}/{len(checks)} passed")
    for failure in bad[:10]:
        print(f"    FAILED {failure['name']}: {failure['detail'][:300]}")
    table = result.get("cost_table")
    if table:
        print("  per-op host time by layer (traced):")
        for row in table:
            print(f"    {row['layer']:<28} {row['us_per_op']:>12.3f} us/op"
                  f" {100 * row['share']:>6.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    declared = _declared()
    deadline = time.monotonic() + DEADLINE_S
    trace = bool(args.trace)
    common = [args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_PROBES):
                setup_s, _, code, _ = run_worker(
                    common + ["--seconds", "0", "--setup-only"], deadline)
                if code != 0:
                    raise BenchError(f"set-up probe exited with {code}")
                setups.append(setup_s)
        setup_s, result, code, usage = run_worker(
            common + ["--seconds", str(args.seconds)]
            + (["--trace"] if trace else []), deadline)
        setups.append(setup_s)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if result is None or code != 0:
        print(f"perfbench: worker exited with {code} and no result",
              file=sys.stderr)
        return 1
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        layers = result.get("layers", {})
        for name, unit in declared["per_layer"]:
            value = layers.get(name)
            metrics[name] = {"value": float(value or 0.0), "unit": unit}
    else:
        peak_kb = usage.ru_maxrss + result.get("child_maxrss_kb", 0)
        measured = dict(result["e2e"])
        measured["setup_s"] = {"value": median(setups), "unit": "s",
                               "samples": len(setups)}
        measured["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB",
                                   "samples": 1}
        for name, unit in declared["end_to_end"]:
            doc = measured[name]
            if doc["unit"] != unit:
                raise SystemExit(f"perfbench: {name} measured in "
                                 f"{doc['unit']}, declared in {unit}")
            metrics[name] = doc
    display = dict(metrics)
    if not trace:
        display.update(result.get("extra", {}))
    _print_table(args.workload, args.seed, trace, display, result)
    correct = all(c["ok"] for c in result.get("checks", [])) and bool(
        result.get("checks"))
    line = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": doc["value"], "unit": doc["unit"]}
                    for name, doc in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
