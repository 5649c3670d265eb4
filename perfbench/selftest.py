"""Show that every output check of the benchmark can fail.

    python3 perfbench/selftest.py

Feeds each workload's check the recorded good output (it must pass) and
a deliberately wrong one (it must fail): a perturbed reference row, a
changed fabric counter, a changed verdict count, overlapping grant
intervals.  Also checks that ``BENCHMARK.json``, ``report.py`` and
``rationale.json`` name the same metrics.  Exits 0 only if all hold.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from typing import Callable, List, Tuple

import fabric_zipf
import paper_sweep
import spec_verify
import wire_lock
import report
from common import BENCH_DIR, ROOT, load_reference


def _paper_sweep() -> List[Tuple[str, bool, bool]]:
    reference = load_reference(paper_sweep.REFERENCE)
    rows = copy.deepcopy(reference["rows"])
    good = paper_sweep.compare_rows(rows, reference)[0]
    rows[-1]["messages_total"] += 1
    bad = paper_sweep.compare_rows(rows, reference)[0]
    return [("paper_sweep: perturbed row", good, bad)]


def _fabric_zipf() -> List[Tuple[str, bool, bool]]:
    reference = load_reference(fabric_zipf.REFERENCE)
    seed = 0
    seen = dict(reference["seeds"][str(fabric_zipf.fabric_seed(seed))])
    good = fabric_zipf.compare(seen, reference, seed)[0]
    out = []
    for field, wrong in (("lane_grants_crc", "00000000"),
                         ("grants", seen["grants"] + 1)):
        changed = dict(seen, **{field: wrong})
        out.append((f"fabric_zipf: changed {field}", good,
                    fabric_zipf.compare(changed, reference, seed)[0]))
    return out


def _all_ok(results) -> bool:
    return all(ok for _, ok, _ in results)


def _spec_verify() -> List[Tuple[str, bool, bool]]:
    reference = load_reference(spec_verify.REFERENCE)
    verdicts = spec_verify.load_verdicts()
    outputs = copy.deepcopy(reference["systems"])
    good = _all_ok(spec_verify.compare(outputs, reference, verdicts))
    out = []
    # A verdict-backed count and a reference-backed count.
    changed = copy.deepcopy(verdicts)
    changed["binary_search/token-uniqueness"]["runs"][1]["states"] += 1
    out.append(("spec_verify: changed verdict state count", good,
                _all_ok(spec_verify.compare(outputs, reference, changed))))
    wrong = copy.deepcopy(outputs)
    wrong["search"]["dpor_self_check"]["dpor_executed"] += 1
    out.append(("spec_verify: changed DPOR count", good,
                _all_ok(spec_verify.compare(wrong, reference, verdicts))))
    return out


def _wire_lock() -> List[Tuple[str, bool, bool]]:
    apart = [(0.0, 1.0), (1.0, 2.0), (2.5, 3.0)]
    overlapping = [(0.0, 1.0), (0.9, 2.0), (2.5, 3.0)]
    return [("wire_lock: overlapping grant intervals",
             wire_lock.overlaps(apart) == 0,
             wire_lock.overlaps(overlapping) == 0)]


def _catalogues() -> List[Tuple[str, bool, bool]]:
    """The declared metrics, the computed ones and the documented ones
    are the same lists (the "wrong input" is a dropped name)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    with open(os.path.join(BENCH_DIR, "rationale.json"),
              encoding="utf-8") as f:
        rationale = json.load(f)
    per_layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    e2e = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    documented = sorted(rationale["per_layer"])
    names = sorted(name for name, _ in report.PER_LAYER)
    return [
        ("catalogue: per_layer", per_layer == report.PER_LAYER,
         per_layer[1:] == report.PER_LAYER),
        ("catalogue: end_to_end", e2e == report.E2E, e2e[1:] == report.E2E),
        ("catalogue: rationale", documented == names,
         documented[1:] == names),
    ]


CASES: List[Callable[[], List[Tuple[str, bool, bool]]]] = [
    _paper_sweep, _fabric_zipf, _spec_verify, _wire_lock, _catalogues]


def main() -> int:
    failures = 0
    for case in CASES:
        for name, good_passes, bad_passes in case():
            behaves = good_passes and not bad_passes
            failures += 0 if behaves else 1
            print(f"{'ok  ' if behaves else 'FAIL'} {name}: good input "
                  f"{'passes' if good_passes else 'FAILS'}, wrong input "
                  f"{'passes' if bad_passes else 'fails'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
