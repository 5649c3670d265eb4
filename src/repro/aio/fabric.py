"""AioFabric: the multi-token fabric over the asyncio runtime.

Mirrors :class:`~repro.fabric.fabric.TokenFabric` for live deployments:
one lock key per :class:`~repro.aio.cluster.AioCluster` (its own ring,
transport and reliability stack), all sharing the caller's event loop —
which is the asyncio analogue of the DES fabric's shared kernel; no
thread or loop per key.

The fabric front-door is ``acquire``/``release``/``lock`` *by key*.
Acquire latency (request to grant, on the loop clock — virtual under
:func:`~repro.aio.virtualtime.run_virtual`) is recorded per key in a
:class:`~repro.metrics.keyed.KeyedMetricsRegistry`; the wait doubles as
the histogram's latency sample, so fabric-level p50/p99 summarize how
long callers blocked on the lock.

Supervision composes per lane: wrap any lane's cluster in a
:class:`~repro.aio.supervisor.ClusterSupervisor` via :meth:`supervise`,
and the fabric will stop the supervisors alongside the lanes.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.aio.cluster import AioCluster
from repro.aio.reliability import ReliabilityConfig
from repro.aio.supervisor import ClusterSupervisor, RestartPolicy
from repro.core.config import ProtocolConfig
from repro.errors import ConfigError
from repro.fabric.fabric import derive_lane_seed
from repro.metrics.keyed import KeyedMetricsRegistry

__all__ = ["AioFabric"]


class AioFabric:
    """Keyed collection of asyncio token clusters on one event loop."""

    def __init__(self, seed: int = 0, sanitize: Optional[bool] = None) -> None:
        self.seed = seed
        self.metrics = KeyedMetricsRegistry()
        self._sanitize = sanitize
        self._ids: Dict[str, int] = {}
        self._keys: List[str] = []
        self._lanes: List[AioCluster] = []
        self._supervisors: Dict[int, ClusterSupervisor] = {}
        self._started = False

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
        delay: float = 0.001,
        loss_rate: float = 0.0,
        dup_rate: float = 0.0,
        reliability: Optional[ReliabilityConfig] = None,
    ) -> AioCluster:
        """Create the lane for ``key``; returns its :class:`AioCluster`.

        Must be called before :meth:`start` — live lanes need their node
        tasks started, which is an async operation the synchronous
        ``add_key`` cannot perform.
        """
        if key in self._ids:
            raise ConfigError(f"duplicate fabric key {key!r}")
        if self._started:
            raise ConfigError("add keys before the fabric starts")
        if seed is None:
            seed = self.lane_seed(key)
        lane = AioCluster(protocol, n, seed=seed, config=config, delay=delay,
                          loss_rate=loss_rate, dup_rate=dup_rate,
                          sanitize=self._sanitize, reliability=reliability)
        self._ids[key] = len(self._lanes)
        self._keys.append(key)
        self._lanes.append(lane)
        self.metrics.add_key(key)
        return lane

    def supervise(self, key: str,
                  policy: Optional[RestartPolicy] = None) -> ClusterSupervisor:
        """Attach a :class:`ClusterSupervisor` to ``key``'s lane; started
        and stopped with the fabric."""
        kid = self._ids[key]
        if kid in self._supervisors:
            raise ConfigError(f"key {key!r} is already supervised")
        supervisor = ClusterSupervisor(
            self._lanes[kid],
            policy if policy is not None else RestartPolicy())
        self._supervisors[kid] = supervisor
        return supervisor

    def key_id(self, key: str) -> int:
        return self._ids[key]

    def lane(self, key: str) -> AioCluster:
        return self._lanes[self._ids[key]]

    def lanes(self) -> List[AioCluster]:
        return self._lanes

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start every lane, then every supervisor (idempotent)."""
        if self._started:
            return
        if not self._lanes:
            raise ConfigError("AioFabric has no keys")
        self._started = True
        for lane in self._lanes:
            await lane.start()
        for supervisor in self._supervisors.values():
            await supervisor.start()

    async def stop(self) -> None:
        """Stop supervisors first (so repairs do not race shutdown), then
        every lane."""
        for supervisor in self._supervisors.values():
            await supervisor.stop()
        for lane in self._lanes:
            await lane.stop()
        self._started = False

    # -- token access --------------------------------------------------------

    async def acquire(self, key: str, node: int,
                      timeout: Optional[float] = None) -> None:
        """Await the token for ``node`` on ``key``'s lane, recording the
        wait in the per-key metrics.  Timed-out acquires count as requests
        with no grant."""
        kid = self._ids[key]
        self.metrics.on_request(kid)
        loop = asyncio.get_running_loop()
        started = loop.time()
        await self._lanes[kid].acquire(node, timeout=timeout)
        waited = loop.time() - started
        self.metrics.on_grant(kid, waited, waited)

    def release(self, key: str, node: int) -> None:
        """Release the token held by ``node`` on ``key``'s lane."""
        self._lanes[self._ids[key]].release(node)

    def lock(self, key: str, node: int, timeout: Optional[float] = None):
        """``async with fabric.lock(key, node):`` critical section."""
        return _KeyedLock(self, key, node, timeout)

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Fabric-level acquire-latency roll-up (see ``metrics.summary``)."""
        return self.metrics.summary()


class _KeyedLock:
    """Async context manager pairing a metered acquire with its release."""

    def __init__(self, fabric: AioFabric, key: str, node: int,
                 timeout: Optional[float]) -> None:
        self._fabric = fabric
        self._key = key
        self._node = node
        self._timeout = timeout

    async def __aenter__(self) -> int:
        await self._fabric.acquire(self._key, self._node,
                                   timeout=self._timeout)
        return self._node

    async def __aexit__(self, exc_type, exc, tb) -> None:
        self._fabric.release(self._key, self._node)
