"""Workload ``spec_verify``: ``repro verify`` for every ring system in
:mod:`repro.verify.systems`.

Per system the CLI builds the independence relation, diamond-validates
it, runs the sleep-set DPOR self-check and ``certify``s every property.
A unit of work is one pass over all ring systems, each in its own
process as a user runs the CLI (``verify_one.py``), timed inside that
process around the CLI call.  State, transition and DPOR counts must
equal the committed ``benchmarks/verdicts/*.json`` where a verdict
exists and the recorded reference elsewhere.

One system per process is also what keeps the passes correct:
``repro.verify.independence`` caches footprints per ``id()`` of a rule
set, so in a process that verifies several systems a new rule set can
reuse a dead one's id and get its footprints (seen as ``KeyError: "4'"``
and as false diamond violations).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from common import (BENCH_DIR, READY, RESULT, ROOT, check, load_reference,
                    median, metric)
from passes import overhead_ratio, repeat_units, traced_wall
from report import cost_table, layer_metrics

REFERENCE = "spec_verify.json"
VERDICT_DIR = os.path.join(ROOT, "benchmarks", "verdicts")
_RUN_KEYS = ("n", "states", "transitions", "executed", "complete", "exact",
             "holds")
_DPOR_KEYS = ("exact", "full_states", "full_transitions", "dpor_states",
              "dpor_executed")


def ring_systems() -> List[str]:
    from repro.verify.systems import SYSTEMS

    return [key for key, system in SYSTEMS.items() if system.ring]


def checked_outputs(report: Dict[str, Any]) -> Dict[str, Any]:
    """The parts of a ``repro verify --json`` report the checks compare."""
    return {
        "independence": report["independence"],
        "diamond": report["diamond"],
        "dpor_self_check": {k: report["dpor_self_check"][k]
                            for k in _DPOR_KEYS},
        "certified": {
            verdict["property"]: {
                "result": verdict["result"],
                "runs": [{k: run[k] for k in _RUN_KEYS}
                         for run in verdict["runs"]],
                "diamond_checks": verdict["independence"]["diamond_checks"],
            } for verdict in report["verdicts"]},
    }


def verify_system(key: str, trace: bool) -> Dict[str, Any]:
    """Run ``verify_one.py key``; returns its result plus its peak RSS."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "verify_one.py"), key]
        + (["--trace"] if trace else []),
        stdout=subprocess.PIPE, text=True)
    result: Optional[Dict[str, Any]] = None
    try:
        for line in proc.stdout:
            if line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            elif line.strip() != READY:
                print(line, end="", file=sys.stderr)
    finally:
        proc.stdout.close()
        # Reaped here, not through Popen: wait4 gives its own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if result is None or proc.returncode != 0:
        raise RuntimeError(f"verify_one {key} exited with {proc.returncode}")
    result["maxrss_kb"] = usage.ru_maxrss
    return result


def _merge(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the span summaries of several processes."""
    merged: Dict[str, Dict[str, float]] = {"self_s": {}, "calls": {},
                                           "counts": {}}
    for summary in summaries:
        for part, table in merged.items():
            for name, value in summary[part].items():
                table[name] = table.get(name, 0) + value
    return merged


def one_pass(systems: List[str], trace: bool) -> Dict[str, Any]:
    results = {key: verify_system(key, trace) for key in systems}
    outputs = {key: checked_outputs(r["report"]) for key, r in results.items()}
    states = 0
    for out in outputs.values():
        states += out["dpor_self_check"]["full_states"]
        for cert in out["certified"].values():
            states += sum(run["states"] for run in cert["runs"])
    unit: Dict[str, Any] = {
        "outputs": outputs, "ops": states,
        "codes": {key: r["code"] for key, r in results.items()},
        "maxrss_kb": max(r["maxrss_kb"] for r in results.values()),
    }
    for field in ("wall", "cpu", "wall_n", "cpu_n"):
        unit[field] = sum(r[field] for r in results.values())
    if trace:
        unit["trace"] = _merge([r["trace"] for r in results.values()])
    return unit


def load_verdicts() -> Dict[str, Dict[str, Any]]:
    """Committed verdicts keyed ``system/property``."""
    out = {}
    for name in sorted(os.listdir(VERDICT_DIR)):
        if name.endswith(".json"):
            with open(os.path.join(VERDICT_DIR, name), encoding="utf-8") as f:
                doc = json.load(f)
            out[f"{doc['system']}/{doc['property']}"] = doc
    return out


def compare(outputs: Dict[str, Any], reference: Dict[str, Any],
            verdicts: Dict[str, Dict[str, Any]]) -> List[Tuple[str, bool, str]]:
    """(check name, ok, detail) for every system and property."""
    results = []
    expected_systems = reference["systems"]
    for key, out in sorted(outputs.items()):
        ref = expected_systems.get(key)
        if ref is None:
            results.append((f"{key}: reference", False, "no reference"))
            continue
        for part in ("independence", "diamond", "dpor_self_check"):
            results.append((f"{key}: {part}", out[part] == ref[part],
                            f"{out[part]} vs {ref[part]}"))
        for prop, cert in sorted(out["certified"].items()):
            verdict = verdicts.get(f"{key}/{prop}")
            if verdict is not None:
                source = "verdict"
                want = {
                    "result": verdict["result"],
                    "runs": [{k: run[k] for k in _RUN_KEYS}
                             for run in verdict["runs"]],
                    "diamond_checks":
                        verdict["independence"]["diamond_checks"],
                }
            else:
                source = "reference"
                want = ref["certified"].get(prop)
            ok = cert == want and cert["result"] == "verified"
            results.append((f"{key}/{prop} == {source}", ok,
                            "equal" if ok else f"{cert} vs {want}"))
    missing = sorted(set(expected_systems) - set(outputs))
    if missing:
        results.append(("ring systems", False, f"missing {missing}"))
    return results


def setup(seed: int) -> Dict[str, Any]:
    from repro.verify.systems import get_system

    systems = ring_systems()
    for key in systems:  # the rule sets the passes will build
        system = get_system(key)
        system.bounded(system.default_n)
    # Systems carry no randomness; the seed rotates their order.
    shift = seed % len(systems)
    return {"systems": systems[shift:] + systems[:shift],
            "reference": load_reference(REFERENCE),
            "verdicts": load_verdicts()}


def measure(state: Dict[str, Any], seconds: float,
            trace: bool) -> Dict[str, Any]:
    systems = state["systems"]
    runs = repeat_units(lambda traced: one_pass(systems, traced), seconds,
                        trace, None, measure=lambda run: run())
    units = runs["untraced"] + runs["traced"]
    checks: List[Dict[str, Any]] = []
    attempted = failed = 0
    for index, done in enumerate(units):
        for name, ok, detail in compare(done["outputs"], state["reference"],
                                        state["verdicts"]):
            attempted += 1
            failed += 0 if ok else 1
            check(checks, f"pass {index} {name}", ok, detail)
        check(checks, f"pass {index} CLI exit codes",
              not any(done["codes"].values()), str(done["codes"]))
    untraced = runs["untraced"]
    result: Dict[str, Any] = {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "child_maxrss_kb": max(u["maxrss_kb"] for u in units),
        "e2e": {
            "run_s": metric(median([u["wall_n"] for u in untraced]), "s",
                            len(untraced)),
            "cpu_ms_per_op": metric(
                median([u["cpu_n"] * 1e3 / u["ops"] for u in untraced]), "ms",
                len(untraced)),
        },
        "extra": {},
    }
    if trace:
        traced = runs["traced"]
        summary = _merge([u["trace"] for u in traced])
        layers = layer_metrics(summary, len(traced), traced_wall(traced))
        layers["trace.overhead_ratio"] = overhead_ratio(untraced, traced)
        result["layers"] = layers
        result["cost_table"] = cost_table(layers, units[0]["ops"])
    return result
