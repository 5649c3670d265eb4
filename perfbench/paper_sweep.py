"""Workload ``paper_sweep``: every Figure 9 and Figure 10 cell.

Figure 9 is n = 8 ... 256 at mean request interval 10; Figure 10 is
n = 100 at interval 1 ... 500; both for ``ring`` and ``binary_search``.
Each cell is one ``run_protocol_once`` at ``ROUNDS`` token circulations
with the sanitizer at its default (on), run one after another in this
process.  A unit of work is the whole sweep; every sweep's rows must
equal the recorded reference rows exactly.

Every cell keeps the figure runners' seed 2001, so the rows are the
paper experiment's.  The seed argument shuffles the order the cells run
in: cell seeds change the sweep's work by up to 15%, more than the
bound a regression is judged by.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from common import check, load_reference, median, metric
from passes import overhead_ratio, repeat_units, traced_wall
from report import cost_table, layer_metrics

#: Token circulations per cell (the paper ran 1000; the heavy
#: binary_search cells dominate the sweep at any count).
ROUNDS = 3
CELL_SEED = 2001
REFERENCE = "paper_sweep.json"

Cell = Tuple[str, int, float]


def cells() -> List[Cell]:
    from repro.analysis.experiments import (DEFAULT_FIG9_SIZES,
                                            DEFAULT_FIG10_INTERVALS)

    out: List[Cell] = []
    for protocol in ("ring", "binary_search"):
        out += [(protocol, n, 10.0) for n in DEFAULT_FIG9_SIZES]
        out += [(protocol, 100, float(i)) for i in DEFAULT_FIG10_INTERVALS]
    return out


def sweep(seed: int) -> List[Dict[str, Any]]:
    """Every cell's row, in figure order, run in the seed's order."""
    from repro.analysis import experiments

    grid = cells()
    order = list(range(len(grid)))
    random.Random(seed).shuffle(order)
    rows: List[Dict[str, Any]] = [{} for _ in grid]
    for index in order:
        protocol, n, interval = grid[index]
        rows[index] = experiments.run_protocol_once(protocol, n, interval,
                                                    ROUNDS, CELL_SEED)
    return rows


def setup(seed: int) -> Dict[str, Any]:
    from repro.analysis import experiments

    reference = load_reference(REFERENCE)
    # Warm the import-time and first-call paths of both protocols.
    for protocol in ("ring", "binary_search"):
        experiments.run_protocol_once(protocol, 8, 10.0, 1, CELL_SEED)
    return {"seed": seed, "reference": reference}


def compare_rows(rows: List[Dict[str, Any]],
                 reference: Dict[str, Any]) -> Tuple[bool, str]:
    """Every row equal to the recorded one, field by field."""
    expected = reference["rows"]
    if (reference.get("rounds"), reference.get("seed")) != (ROUNDS,
                                                            CELL_SEED):
        return False, f"no reference for rounds={ROUNDS} seed={CELL_SEED}"
    if len(rows) != len(expected):
        return False, f"{len(rows)} rows, reference has {len(expected)}"
    for index, (row, ref) in enumerate(zip(rows, expected)):
        if row != ref:
            diff = sorted(k for k in set(row) | set(ref)
                          if row.get(k) != ref.get(k))
            return False, f"row {index} differs in {diff}"
    return True, f"{len(rows)} rows equal"


def _bs_totals(rows: List[Dict[str, Any]]) -> Tuple[int, int, float]:
    grants = messages = 0
    resp = 0.0
    for row in rows:
        if row["protocol"] == "binary_search":
            grants += row["grants"]
            messages += row["messages_total"]
            resp += row["avg_responsiveness"] * row["grants"]
    return grants, messages, resp


def measure(state: Dict[str, Any], seconds: float,
            trace: bool) -> Dict[str, Any]:
    from layers import install_des

    seed, reference = state["seed"], state["reference"]
    checks: List[Dict[str, Any]] = []

    def unit(traced: bool) -> Dict[str, Any]:
        rows = sweep(seed)
        return {"rows": rows, "ops": sum(r["grants"] for r in rows)}

    runs = repeat_units(unit, seconds, trace, install_des)
    units = runs["untraced"] + runs["traced"]
    for index, done in enumerate(units):
        ok, detail = compare_rows(done["rows"], reference)
        check(checks, f"sweep {index} rows == reference", ok, detail)
    rows = units[0]["rows"]
    ops = units[0]["ops"]
    untraced = runs["untraced"]
    walls = [u["wall_n"] for u in untraced]
    bs_grants, bs_messages, bs_resp = _bs_totals(rows)
    result: Dict[str, Any] = {
        "checks": checks,
        "attempted": ops * len(units),
        "failed": 0,
        "e2e": {
            "run_s": metric(median(walls), "s", len(walls)),
            "cpu_ms_per_op": metric(
                median([u["cpu_n"] * 1e3 / u["ops"] for u in untraced]),
                "ms", len(untraced)),
        },
        "extra": {
            "grants_per_s": metric(median([u["ops"] / u["wall"]
                                           for u in untraced]),
                                   "1/s", len(untraced)),
            "messages_per_grant": metric(bs_messages / bs_grants, "1",
                                         bs_grants),
            "responsiveness_avg": metric(bs_resp / bs_grants, "hops",
                                         bs_grants),
            "failed_ops_ratio": metric(0.0, "ratio", ops * len(units)),
        },
    }
    if trace:
        traced = runs["traced"]
        summary = runs["tracer"].summary()
        layers = layer_metrics(summary, len(traced), traced_wall(traced))
        layers["protocol.messages_per_grant"] = bs_messages / bs_grants
        layers["protocol.responsiveness_avg"] = bs_resp / bs_grants
        layers["trace.overhead_ratio"] = overhead_ratio(untraced, traced)
        result["layers"] = layers
        result["cost_table"] = cost_table(layers, ops)
        result["tracer"] = runs["tracer"]
    return result
