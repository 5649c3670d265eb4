"""One workload in one fresh process.

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S [--trace]
                                [--setup-only]

Sets up the workload (imports, building clusters, lanes, rule sets or
the lock service), prints the ready line, measures for ``--seconds``
and prints one result line.  ``run.py`` starts it and reads its peak
RSS and CPU from outside; nothing here is meant to be run by hand
except for debugging.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from common import OUT_DIR, announce_ready, emit_result, use_checkout_source

WORKLOADS = ("paper_sweep", "fabric_zipf", "wire_lock", "spec_verify")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.stdout = sys.stderr
    use_checkout_source()
    module = importlib.import_module(args.workload)
    state = module.setup(args.seed)
    announce_ready()
    if args.setup_only:
        teardown = getattr(module, "teardown", None)
        if teardown is not None:
            teardown(state)
        return 0
    result = module.measure(state, args.seconds, args.trace)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl")
        tracer.dump(path)
        result["spans_file"] = os.path.relpath(path)
    emit_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
