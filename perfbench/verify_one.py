"""One ``repro verify --system KEY --json`` in its own process.

    python3 perfbench/verify_one.py KEY [--trace]

Run by the ``spec_verify`` workload, once per ring system and pass, the
way a user runs the CLI: one system per process.  Prints the ready line
once imports are done, then one result line with the CLI's exit code and
report, the call's wall and CPU seconds (raw and scaled to the reference
host speed) and, with ``--trace``, the span summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

from calibrate import SpeedSampler
from common import (OUT_DIR, announce_ready, emit_result, self_cpu_s,
                    use_checkout_source)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("system")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.stdout = sys.stderr
    use_checkout_source()
    from repro import cli

    tracer = None
    if args.trace:
        from layers import install_verify
        from tracing import Tracer

        tracer = Tracer()
        install_verify(tracer)
    announce_ready()
    captured = io.StringIO()
    sampler = SpeedSampler()
    sampler.start()
    try:
        cpu0, wall0 = self_cpu_s(), time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = cli.main(["verify", "--system", args.system, "--json"])
        wall, cpu = time.perf_counter() - wall0, self_cpu_s() - cpu0
    finally:
        sampler.stop()
    result = {"code": code, "report": json.loads(captured.getvalue()),
              "wall": wall, "cpu": cpu, "wall_n": sampler.normalize(wall),
              "cpu_n": sampler.normalize(cpu)}
    if tracer is not None:
        result["trace"] = tracer.summary()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR,
                                 f"spec_verify.{args.system}.spans.jsonl"))
    emit_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
