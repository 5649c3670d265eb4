"""Where the traced run puts its spans: one installer per process kind.

Each installer patches public entry points of the program's layers (named
after their modules) with :class:`tracing.Tracer` wrappers.  Install
before building the objects under test: a few call sites capture bound
methods at construction (``Network.attach`` keeps the driver's handler,
``SimView`` keeps the scheduler's ``post``).
"""

from __future__ import annotations

from typing import Dict

from tracing import Tracer

_CORE_HANDLERS = ("on_message", "on_timer", "on_request", "on_release")


def _install_cores(tracer: Tracer) -> None:
    from repro.core.binary_search import BinarySearchCore
    from repro.core.ring import RingCore
    from repro.faults.regeneration import FaultTolerantCore

    for cls in (RingCore, BinarySearchCore, FaultTolerantCore):
        tracer.patch_methods(cls, _CORE_HANDLERS, "core")


def install_des(tracer: Tracer) -> None:
    """Object DES stack: kernel, driver, cores, network, sanitizer,
    metrics, workloads, and the fabric's batch layer."""
    from repro.core.cluster import Cluster
    from repro.fabric.fabric import TokenFabric
    from repro.fabric.scheduling import BatchScheduler
    from repro.lint.sanitizer import ClusterSanitizer
    from repro.metrics.keyed import KeyedMetricsRegistry
    from repro.metrics.responsiveness import ResponsivenessTracker
    from repro.sim.driver import NodeDriver
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network
    from repro.workload.generators import FixedRateWorkload
    from repro.workload.keyed import ClosedLoopKeyedWorkload

    tracer.patch(Simulator, "run", "sim.kernel",
                 on_result=lambda executed: tracer.count("sim.kernel.events",
                                                         executed))
    tracer.patch_methods(NodeDriver, ("_on_network_message", "_on_timer",
                                      "request", "release", "start"),
                         "sim.driver")
    _install_cores(tracer)
    tracer.patch(Network, "send", "sim.network",
                 on_args=lambda *a: tracer.count("sim.network.sends"))
    tracer.patch(Network, "_deliver", "sim.network")
    tracer.patch(ClusterSanitizer, "after_apply", "lint.sanitizer")
    tracer.patch_methods(ResponsivenessTracker, ("on_request", "on_grant"),
                         "metrics.responsiveness")
    tracer.patch_methods(KeyedMetricsRegistry, ("on_request", "on_grant"),
                         "metrics.keyed")
    tracer.patch_methods(FixedRateWorkload, ("_fire",), "workload.generators")
    tracer.patch_methods(ClosedLoopKeyedWorkload, ("_request", "on_grant"),
                         "workload.keyed")
    tracer.patch_methods(BatchScheduler, ("_fire", "post", "schedule"),
                         "fabric.scheduling")
    tracer.patch_methods(TokenFabric, ("run", "request_id"), "fabric.fabric")
    tracer.patch(Cluster, "__init__", "core.cluster")


def install_verify(tracer: Tracer) -> None:
    """TRS engine, model checker and the verification passes."""
    from repro.specs.modelcheck import explore_graph
    from repro.trs.engine import Rewriter
    from repro.verify import cutoff, dpor, independence

    def graph_counts(graph) -> None:
        tracer.count("specs.modelcheck.states", len(graph.states))
        tracer.count("specs.modelcheck.transitions", graph.transitions)

    def dpor_counts(result) -> None:
        tracer.count("verify.dpor.executed", result.executed)

    def diamond_counts(result) -> None:
        tracer.count("verify.independence.diamond_checks", result[1])

    tracer.patch_methods(Rewriter, ("instantiations", "is_normal_form",
                                    "apply", "step", "reachable"),
                         "trs.engine")
    tracer.patch_function(explore_graph, "specs.modelcheck",
                          on_result=graph_counts)
    tracer.patch_function(dpor.explore_dpor, "verify.dpor",
                          on_result=dpor_counts)
    tracer.patch_function(dpor.validate_dpor, "verify.dpor")
    tracer.patch(independence.IndependenceRelation, "__init__",
                 "verify.independence")
    tracer.patch_function(independence.validate_relation,
                          "verify.independence", on_result=diamond_counts)
    tracer.patch_function(cutoff.certify, "verify.cutoff")


def _install_codec(tracer: Tracer) -> None:
    from repro.wire import codec

    def encoded(frame: bytes) -> None:
        tracer.count("wire.codec.frames")
        tracer.count("wire.codec.bytes", len(frame))

    def decoding(payload: bytes) -> None:
        tracer.count("wire.codec.frames")
        tracer.count("wire.codec.bytes", 4 + len(payload))

    tracer.patch_function(codec.encode_frame, "wire.codec.encode",
                          on_result=encoded)
    tracer.patch_function(codec.decode_body, "wire.codec.decode",
                          on_args=decoding)


def install_wire_server(tracer: Tracer) -> None:
    """Everything under the lock service that runs synchronously."""
    from repro.aio.driver import AioNodeDriver
    from repro.aio.reliability import ReliableChannel
    from repro.aio.supervisor import ClusterSupervisor
    from repro.aio.transport import AioTransport
    from repro.lint.sanitizer import ClusterSanitizer
    from repro.metrics.keyed import LatencyHistogram
    from repro.wire.server import LockServiceServer
    from repro.wire.transport import WireTransport

    _install_codec(tracer)
    tracer.patch(WireTransport, "_transmit", "wire.transport")
    tracer.patch_methods(AioTransport, ("send", "_deliver"), "wire.transport")
    tracer.patch_methods(ReliableChannel, ("send", "on_frame", "_on_timeout"),
                         "aio.reliability")
    tracer.patch_methods(AioNodeDriver, ("_apply", "_on_timer", "request",
                                         "release", "_consume_control"),
                         "aio.driver")
    tracer.patch_methods(ClusterSupervisor, ("_send_heartbeats",
                                             "_update_suspicions"),
                         "aio.supervisor")
    _install_cores(tracer)
    tracer.patch(ClusterSanitizer, "after_apply", "lint.sanitizer")
    tracer.patch(LatencyHistogram, "add", "metrics.keyed")
    tracer.patch_methods(LockServiceServer, ("_pick_node", "_release_held"),
                         "wire.server")


#: Fine-grained span layer -> the layer name its self time is reported
#: under (``<layer>.self_s``).
REPORTED_LAYERS: Dict[str, str] = {
    "sim.kernel": "sim.kernel",
    "sim.driver": "sim.driver",
    "core": "core",
    "core.cluster": "core.cluster",
    "sim.network": "sim.network",
    "lint.sanitizer": "lint.sanitizer",
    "metrics.responsiveness": "metrics.responsiveness",
    "metrics.keyed": "metrics.keyed",
    "workload.generators": "workload.generators",
    "workload.keyed": "workload.keyed",
    "fabric.scheduling": "fabric.scheduling",
    "fabric.fabric": "fabric.fabric",
    "wire.codec.encode": "wire.codec",
    "wire.codec.decode": "wire.codec",
    "wire.transport": "wire.transport",
    "aio.reliability": "aio.reliability",
    "aio.driver": "aio.driver",
    "aio.supervisor": "aio.supervisor",
    "wire.server": "wire.server",
    "trs.engine": "trs.engine",
    "specs.modelcheck": "specs.modelcheck",
    "verify.dpor": "verify.dpor",
    "verify.independence": "verify.independence",
    "verify.cutoff": "verify.cutoff",
}
