"""FastFabric: the array-compiled backend for the supported subset.

Keys in a fabric are *independent* — no message, timer, or RNG draw
crosses lanes — so executing lanes sequentially is observably identical
to multiplexing them on one kernel: per-key event streams, checksums and
metrics match :class:`~repro.fabric.fabric.TokenFabric` bit for bit (see
``tests/fabric/test_fast.py``).  That independence is exactly what lets
this variant drop the shared scheduler and run each lane on
:class:`~repro.fastsim.cluster.FastCluster`'s fused loop instead.

Open-loop keyed traffic is compiled too: a
:class:`~repro.workload.keyed.ZipfKeyedWorkload`'s arrival stream depends
only on the fabric RNG, never on grant feedback, so it is precomputed to
the run horizon in one pass (same draw order as the event-driven path —
bit-identical arrivals) and injected per lane as absolute-time requests.
Closed-loop generators need grant feedback across keys and stay on the
object fabric.

Support matrix: per :func:`repro.fastsim.state.unsupported_reason` —
``ring``/``binary_search`` lanes, constant delay, no
``hold_until_release``.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional

from repro.core.config import ProtocolConfig
from repro.errors import ConfigError, FastSimUnsupportedError, SimulationError
from repro.fabric.fabric import derive_lane_seed
from repro.fastsim.cluster import FastCluster
from repro.metrics.keyed import KeyedMetricsRegistry
from repro.sim.network import DelayModel
from repro.workload.keyed import ZipfKeyedWorkload

__all__ = ["FastFabric"]


class FastFabric:
    """Keyed collection of array-compiled lanes (open-loop subset)."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self._ids: Dict[str, int] = {}
        self._keys: List[str] = []
        self._lanes: List[FastCluster] = []
        self._workloads: List[ZipfKeyedWorkload] = []
        self._metrics: Optional[KeyedMetricsRegistry] = None
        self._ran = False

    def __len__(self) -> int:
        return len(self._lanes)

    @property
    def keys(self) -> List[str]:
        return self._keys

    def lane_seed(self, key: str) -> int:
        """Deterministic per-key seed (:func:`derive_lane_seed`)."""
        return derive_lane_seed(self.seed, key)

    def add_key(
        self,
        key: str,
        protocol: str = "binary_search",
        n: int = 4,
        seed: Optional[int] = None,
        config: Optional[ProtocolConfig] = None,
        delay: Optional[DelayModel] = None,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
        digest: bool = False,
    ) -> FastCluster:
        """Create the compiled lane for ``key``; raises
        :class:`FastSimUnsupportedError` outside the support matrix."""
        if key in self._ids:
            raise ConfigError(f"duplicate fabric key {key!r}")
        if seed is None:
            seed = self.lane_seed(key)
        lane = FastCluster(protocol, n, seed=seed, config=config, delay=delay,
                           loss_rate=loss_rate, dup_rate=dup_rate,
                           digest=digest)
        self._ids[key] = len(self._lanes)
        self._keys.append(key)
        self._lanes.append(lane)
        return lane

    def key_id(self, key: str) -> int:
        return self._ids[key]

    def lane(self, key: str) -> FastCluster:
        return self._lanes[self._ids[key]]

    def lanes(self) -> List[FastCluster]:
        return self._lanes

    def add_workload(self, workload) -> None:
        """Attach an open-loop keyed workload (realized at :meth:`run`)."""
        if not isinstance(workload, ZipfKeyedWorkload):
            raise FastSimUnsupportedError(
                f"workload {type(workload).__name__} is not compiled; "
                f"closed-loop traffic needs the object TokenFabric")
        self._workloads.append(workload)

    def run(self, until: float) -> None:
        """Realize keyed arrivals to ``until``, then run each lane.

        Only a time horizon is supported: a fabric-wide grants bound would
        need cross-lane interleaving, which is the object fabric's job.
        """
        if self._ran:
            raise SimulationError("FastFabric.run is one-shot")
        if not self._lanes:
            raise ConfigError("FastFabric has no keys")
        self._ran = True
        ns = [lane.n for lane in self._lanes]
        for workload in self._workloads:
            for time, kid, node in workload.arrivals(self.rng, ns, until):
                self._lanes[kid].request_at(time, node)
        for lane in self._lanes:
            lane.run(until=until)

    # -- metrics -------------------------------------------------------------

    @property
    def metrics(self) -> KeyedMetricsRegistry:
        """Per-key registry rebuilt from lane trackers after :meth:`run`."""
        if self._metrics is None:
            registry = KeyedMetricsRegistry()
            for key, lane in zip(self._keys, self._lanes):
                kid = registry.add_key(key)
                tracker = lane.responsiveness
                for period, waited in zip(tracker.responsiveness_samples,
                                          tracker.waiting_samples):
                    registry.on_grant(kid, period, waited)
            self._metrics = registry
        return self._metrics

    @property
    def executed_total(self) -> int:
        return sum(lane.executed_total for lane in self._lanes)

    @property
    def sent_total(self) -> int:
        return sum(lane.sent_total for lane in self._lanes)

    def checksum(self) -> str:
        """CRC32 fold of per-lane send digests in key-id order (lanes must
        be built with ``digest=True``)."""
        crc = 0
        for lane in self._lanes:
            crc = zlib.crc32(lane.send_checksum.encode("ascii"), crc)
        return f"{crc & 0xFFFFFFFF:08x}"
