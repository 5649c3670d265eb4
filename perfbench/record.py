"""Re-record the reference outputs the workloads are checked against.

    python3 perfbench/record.py [paper_sweep] [fabric_zipf] [spec_verify]

Run from the root of a checkout, only when a change is *meant* to alter
behaviour (and say so in its description): a perf or cleanup change
must reproduce the recorded references unchanged.  ``wire_lock`` has no
reference; its checks are invariants of each run.
"""

from __future__ import annotations

import json
import os
import sys

from common import REFERENCE_DIR, use_checkout_source


def _write(name: str, doc) -> None:
    path = os.path.join(REFERENCE_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path)}")


def record_paper_sweep() -> None:
    import paper_sweep as ps

    _write(ps.REFERENCE, {"rounds": ps.ROUNDS, "seed": ps.CELL_SEED,
                          "rows": ps.sweep(0)})


def record_fabric_zipf() -> None:
    import fabric_zipf as fz

    seeds = {}
    for variant in range(fz.VARIANTS):
        fabric = fz.build(variant)
        for step in range(fz.CHECK_CHUNKS + 1):  # the run's stop points
            fabric.run(grants=fz.WARMUP + step * fz.CHUNK)
        seeds[str(fz.fabric_seed(variant))] = fz.checkpoint(fabric)
        del fabric
    _write(fz.REFERENCE, {"chunk": [fz.WARMUP, fz.CHUNK, fz.CHECK_CHUNKS],
                          "seeds": seeds})


def record_spec_verify() -> None:
    import spec_verify as sv

    _write(sv.REFERENCE,
           {"systems": sv.one_pass(sv.ring_systems(), False)["outputs"]})


RECORDERS = {
    "paper_sweep": record_paper_sweep,
    "fabric_zipf": record_fabric_zipf,
    "spec_verify": record_spec_verify,
}


def main(argv) -> int:
    names = argv or sorted(RECORDERS)
    unknown = [n for n in names if n not in RECORDERS]
    if unknown:
        print(f"unknown workloads {unknown}; choose from {sorted(RECORDERS)}",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Record under the hash seed the workers run with.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    use_checkout_source()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names:
        RECORDERS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
