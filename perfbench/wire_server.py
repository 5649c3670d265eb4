"""Lock-service process for the ``wire_lock`` workload.

    python3 perfbench/wire_server.py --seed N

Builds the stack ``repro serve`` builds, with the same constructors and
defaults: ``fault_tolerant`` x3 on a :class:`WireTransport` (delay
1 ms), ARQ reliability, a cluster supervisor and the lock service on an
ephemeral loopback port.  It prints ``PERFBENCH-READY <port>`` once
listening, then obeys one command per stdin line, answering each with
one JSON line on stdout:

- ``snap``   — the service's counters so far;
- ``sample`` — start sampling host speed (:mod:`calibrate`);
- ``rate``   — stop sampling; answer with the probe count, mean, total;
- ``trace``  — install the span tracer inside this process;
- ``stop``   — stop the service and answer with the final counters.

End of stdin (the load generator went away) stops the service too.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
from typing import Any, Dict, Optional

from calibrate import SpeedSampler
from common import OUT_DIR, READY, use_checkout_source

PROTOCOL = "fault_tolerant"
NODES = 3
DELAY = 0.001


class Service:
    def __init__(self, seed: int) -> None:
        from repro.aio.cluster import AioCluster
        from repro.aio.reliability import ReliabilityConfig
        from repro.aio.supervisor import ClusterSupervisor
        from repro.wire.server import LockServiceServer
        from repro.wire.smoke import service_config
        from repro.wire.transport import WireTransport

        # As repro.cli._cmd_serve builds it.
        self.transport = WireTransport(delay=DELAY, loss_rate=0.0,
                                       rng=random.Random(seed ^ 0x5EED))
        self.cluster = AioCluster(PROTOCOL, NODES, seed=seed,
                                  config=service_config(PROTOCOL),
                                  transport=self.transport,
                                  reliability=ReliabilityConfig())
        self.supervisor = ClusterSupervisor(self.cluster)
        self.server = LockServiceServer(self.cluster, host="127.0.0.1",
                                        port=0)
        self.tracer = None
        self.frames_by_type: Dict[str, int] = {}

    async def start(self) -> None:
        await self.server.start()
        await self.supervisor.start()

    async def stop(self) -> None:
        await self.supervisor.stop()
        await self.server.stop()

    def install_tracer(self) -> None:
        from layers import install_wire_server
        from tracing import Tracer

        self.tracer = Tracer()
        install_wire_server(self.tracer)
        by_type = self.frames_by_type

        def count_frame(src: int, dst: int, msg: object) -> None:
            name = type(msg).__name__
            by_type[name] = by_type.get(name, 0) + 1

        self.transport.on_send.append(count_frame)

    def snapshot(self) -> Dict[str, Any]:
        server, cluster = self.server, self.cluster
        doc: Dict[str, Any] = {
            "grants": server.grants,
            "wire": self.transport.counters.as_dict(),
            "reliability": cluster.reliability_counters.as_dict(),
            "messages": cluster.messages.as_dict(),
            "frames_by_type": dict(self.frames_by_type),
        }
        if self.tracer is not None:
            doc["trace"] = self.tracer.summary()
        return doc


async def serve(seed: int) -> None:
    service = Service(seed)
    await service.start()
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin)
    out = sys.__stdout__
    out.write(f"{READY} {service.server.port}\n")
    out.flush()
    final: Optional[Dict[str, Any]] = None
    sampler = SpeedSampler()
    try:
        while True:
            line = (await commands.readline()).decode().strip()
            if line == "snap":
                reply = service.snapshot()
            elif line == "sample":
                sampler.start()
                reply = {"ok": True}
            elif line == "rate":
                sampler.stop()
                reply = {"samples": len(sampler.samples),
                         "spent": sampler.spent}
            elif line == "trace":
                service.install_tracer()
                reply = {"ok": True}
            else:  # "stop" or end of input
                break
            out.write(json.dumps(reply) + "\n")
            out.flush()
    finally:
        await service.stop()
        final = service.snapshot()
        if service.tracer is not None:
            os.makedirs(OUT_DIR, exist_ok=True)
            service.tracer.dump(os.path.join(OUT_DIR,
                                             "wire_lock.server.spans.jsonl"))
    out.write(json.dumps(final) + "\n")
    out.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.stdout = sys.stderr
    use_checkout_source()
    asyncio.run(serve(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
