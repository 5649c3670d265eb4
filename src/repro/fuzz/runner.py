"""Executing fuzz cases: build, run, observe, summarize.

``run_case`` is the single entry point both the fuzz loop and replay use:
it materializes a :class:`~repro.fuzz.case.FuzzCase` into either a DES
cluster (impl-level) or a sanitized random reduction (spec-level), runs it
to its budget with the invariant oracle attached, and reports a
:class:`FuzzResult` — outcome, violation details (with a trailing event
trace for diagnosis), and a CRC32 checksum over the full send stream so
determinism is pinned end to end: two runs of the same case must produce
identical results, byte for byte.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.cluster import Cluster
from repro.core.config import ProtocolConfig
from repro.errors import ProtocolError, SimulationError
from repro.faults.corruption import corrupt_core
from repro.fuzz.case import FuzzCase, RecordedOutcome, build_delay, generate_case
from repro.fuzz.oracle import InvariantOracle, OracleViolation, check_spec_reduction
from repro.fuzz.rng import derive_seed
from repro.lint import LintViolation
from repro.lint.sanitizer import SanitizedRewriter
from repro.metrics.tracing import TraceRecorder
from repro.specs.chain import CHAIN

__all__ = ["FuzzResult", "run_case", "fuzz_run"]

#: Exceptions that count as *findings* (safety violations) rather than
#: harness errors.
_VIOLATIONS = (OracleViolation, LintViolation, ProtocolError, SimulationError)


@dataclass
class FuzzResult(RecordedOutcome):
    """Outcome of one fuzz case."""

    ok: bool
    checksum: str
    events: int = 0
    grants: int = 0
    sends: int = 0
    violation: Optional[Dict] = None
    trace_tail: List[Dict] = field(default_factory=list)
    #: Convergence-oracle metrics (stabilize runs only): episodes,
    #: stabilization_time, stabilization_p99, injections, bound.
    stabilization: Optional[Dict] = None

    def outcome(self) -> Dict:
        """The stable portion recorded in corpus files."""
        doc: Dict = {"ok": self.ok, "checksum": self.checksum,
                     "events": self.events}
        if self.violation is not None:
            doc["invariant"] = self.violation.get("invariant")
        if self.stabilization is not None:
            doc["episodes"] = self.stabilization.get("episodes")
        return doc


def _violation_dict(exc: Exception) -> Dict:
    doc: Dict = {"type": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, OracleViolation):
        doc["invariant"] = exc.invariant
        doc["context"] = {k: repr(v) for k, v in exc.context.items()}
    elif isinstance(exc, LintViolation):
        doc["invariant"] = getattr(exc, "invariant", "sanitizer")
    else:
        doc["invariant"] = type(exc).__name__
    return doc


# ---------------------------------------------------------------------------
# Impl-level execution
# ---------------------------------------------------------------------------

class _TokenLossInjector:
    """Swallows the next in-flight token per armed ``token_loss`` fault."""

    def __init__(self) -> None:
        self.armed = 0
        self.dropped = 0

    def arm(self) -> None:
        self.armed += 1

    def __call__(self, src: int, dst: int, msg: object) -> bool:
        if self.armed:
            self.armed -= 1
            self.dropped += 1
            return True
        return False


def _schedule_fault(cluster: Cluster, fault: Dict,
                    injector: Optional[_TokenLossInjector] = None,
                    inject: Optional[Callable] = None) -> None:
    """Schedule one fault of a validated plan on ``cluster`` — a
    standalone cluster or a fabric lane on the fabric's shared sim.  With
    ``inject`` (a :class:`~repro.stabilize.oracle.ConvergenceOracle`'s),
    the fault also opens a stabilization episode: crashes and token
    losses create legitimate transient illegitimacy just like corruption
    does."""
    op = fault["op"]
    args: tuple = ()
    if op in ("crash", "recover"):
        action = getattr(cluster.drivers[fault["a"]], op)
    elif op == "token_loss":
        action = injector.arm  # type: ignore[union-attr]
    elif op in ("partition", "heal"):
        action = getattr(cluster.network, op)
        args = (fault["a"], fault["b"])
    else:
        action = corrupt_core
        args = (cluster.drivers[fault["a"]].core, fault["what"],
                int(fault["arg"]), cluster.n)
    if inject is None:
        cluster.sim.schedule_at(float(fault["t"]), action, *args)
        return

    def fire() -> None:
        action(*args)
        inject(cluster.sim.now)
    cluster.sim.schedule_at(float(fault["t"]), fire)


def _run_impl(case: FuzzCase) -> FuzzResult:
    config = ProtocolConfig(**case.config)
    # A stabilize run = the stabilizing core, or any case that injects
    # arbitrary-state corruption.  The transition sanitizer and the
    # standard oracle both presume legal histories, so they are swapped
    # for the convergence verdict (closure + bounded convergence).
    stab = case.protocol == "stabilizing" or any(
        f.get("op") == "corrupt" for f in case.faults)
    if stab:
        # Imported lazily: repro.stabilize.oracle imports repro.fuzz.oracle,
        # and this module is pulled in by the repro.fuzz package init.
        from repro.stabilize.bound import convergence_bound, delay_ceiling
        from repro.stabilize.oracle import ConvergenceOracle
    cluster = Cluster.build(
        case.protocol, case.n,
        seed=derive_seed(case.seed, "net"),
        config=config,
        delay=build_delay(case.delay),
        loss_rate=case.loss_rate,
        dup_rate=case.dup_rate,
        sanitize=not stab,
    )
    if stab:
        oracle: InvariantOracle = ConvergenceOracle(
            cluster, protocol=case.protocol,
            bound=convergence_bound(config, case.n,
                                    delay_ceiling(case.delay)))
    else:
        # Fault-free schedules cannot destroy the token: demand exactly one.
        oracle = InvariantOracle(cluster, protocol=case.protocol,
                                 strict=not case.faults)
    oracle.attach()
    injector = _TokenLossInjector()
    oracle.drop_token = injector
    trace = TraceRecorder(cluster)

    checksum = 0
    sends = 0

    def _digest(src: int, dst: int, msg: object) -> None:
        nonlocal checksum, sends
        sends += 1
        record = f"{cluster.sim.now:.6f}|{src}|{dst}|{msg!r}"
        checksum = zlib.crc32(record.encode("utf-8"), checksum)

    cluster.network.on_send.append(_digest)
    for time, node in case.requests:
        cluster.sim.schedule_at(time, cluster.request, node)
    inject = oracle.inject if stab else None  # type: ignore[attr-defined]
    for fault in case.faults:
        _schedule_fault(cluster, fault, injector, inject)

    violation: Optional[Dict] = None
    try:
        cluster.run(until=case.horizon, max_events=case.max_events)
        if stab:
            oracle.finalize(cluster.sim.now)  # type: ignore[attr-defined]
    except _VIOLATIONS as exc:
        violation = _violation_dict(exc)
    return FuzzResult(
        ok=violation is None,
        checksum=f"{checksum:08x}",
        events=cluster.sim.executed_total,
        grants=cluster.responsiveness.grants(),
        sends=sends,
        violation=violation,
        trace_tail=trace.tail() if violation is not None else [],
        stabilization=(oracle.stabilization()  # type: ignore[attr-defined]
                       if stab else None),
    )


# ---------------------------------------------------------------------------
# Fabric-level execution
# ---------------------------------------------------------------------------

def _run_fabric(case: FuzzCase) -> FuzzResult:
    """Run a multi-key fabric case: every lane gets its own invariant
    oracle, faults strike individual lanes, and a final per-key token
    census rejects any duplication the delivery-time oracles missed.

    The checksum folds the *global* send stream (lane index included), so
    it also pins the cross-lane interleaving the batched scheduler
    produces — a determinism regression in the fabric itself shows up
    even when every lane is individually sound."""
    from repro.fabric import TokenFabric

    fabric = TokenFabric(seed=derive_seed(case.seed, "fabric"),
                         sanitize=True)
    checksum = 0
    sends = 0
    sim = fabric.sim

    oracles = []
    for i, spec in enumerate(case.keys):
        protocol = spec.get("protocol", "binary_search")
        lane = fabric.add_key(
            spec["key"], protocol=protocol, n=spec.get("n", 4),
            config=ProtocolConfig(**spec.get("config", {})),
            delay=build_delay(spec.get("delay",
                                       {"kind": "constant", "delay": 1.0})),
            loss_rate=spec.get("loss_rate", 0.0),
            dup_rate=spec.get("dup_rate", 0.0),
        )
        oracle = InvariantOracle(lane, protocol=protocol,
                                 strict=not case.faults)
        oracle.attach()
        oracles.append(oracle)

        def _digest(src: int, dst: int, msg: object, _lane=i) -> None:
            nonlocal checksum, sends
            sends += 1
            record = f"{sim.now:.6f}|{_lane}|{src}|{dst}|{msg!r}"
            checksum = zlib.crc32(record.encode("utf-8"), checksum)

        lane.network.on_send.append(_digest)

    for time, k, node in case.keyed_requests:
        sim.schedule_at(time, fabric.request_id, k, node)
    lanes = fabric.lanes()
    for fault in case.faults:
        _schedule_fault(lanes[fault["k"]], fault)

    violation: Optional[Dict] = None
    try:
        fabric.run(until=case.horizon, max_events=case.max_events)
        for key, count in fabric.token_census().items():
            # The census is blind to in-flight tokens, so only count > 1
            # (duplication) is a breach at the horizon cut.
            if count > 1:
                raise OracleViolation(
                    "token_census",
                    f"key {key!r} holds {count} tokens at the horizon",
                    {"key": key, "count": count})
    except _VIOLATIONS as exc:
        violation = _violation_dict(exc)
    return FuzzResult(
        ok=violation is None,
        checksum=f"{checksum:08x}",
        events=fabric.executed_total,
        grants=fabric.metrics.total_grants,
        sends=sends,
        violation=violation,
    )


# ---------------------------------------------------------------------------
# Spec-level execution
# ---------------------------------------------------------------------------

def _run_spec(case: FuzzCase, system_factory: Optional[Callable] = None) -> FuzzResult:
    if system_factory is not None:
        rewriter, initial = system_factory(case)
    else:
        module = next(system.module for system in CHAIN
                      if system.state == case.system)
        rewriter, initial = module.make_system(case.n)
    # Re-wrap so every single transition is audited, whatever the ambient
    # REPRO_SANITIZE_EVERY setting says.
    sanitized = SanitizedRewriter(rewriter.ruleset, rewriter.ctx, every=1)

    violation: Optional[Dict] = None
    checksum = 0
    steps = 0
    try:
        reduction = sanitized.random_reduction(
            initial, case.steps, seed=derive_seed(case.seed, "walk"))
        steps = len(reduction.steps)
        for step in reduction.steps:
            record = f"{step.rule_name}|{step.state}"
            checksum = zlib.crc32(record.encode("utf-8"), checksum)
        check_spec_reduction(reduction, case.n)
    except _VIOLATIONS as exc:
        violation = _violation_dict(exc)
    return FuzzResult(
        ok=violation is None,
        checksum=f"{checksum:08x}",
        events=steps,
        violation=violation,
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_case(case: FuzzCase,
             system_factory: Optional[Callable] = None) -> FuzzResult:
    """Execute one case and report its result.

    ``system_factory(case) -> (rewriter, initial)`` overrides the spec
    system under test (canary/differential experiments).
    """
    case.validate()
    if case.kind == "spec":
        return _run_spec(case, system_factory)
    if case.kind == "fabric":
        return _run_fabric(case)
    return _run_impl(case)


def fuzz_run(root_seed: int, runs: int, profile: str = "mixed",
             on_result: Optional[Callable] = None) -> List[Dict]:
    """The fuzz loop: generate and execute ``runs`` cases from a root seed.

    Returns one summary dict per case (index, label, checksum, outcome,
    violation).  ``on_result(index, case, result)`` is called after each
    case — the CLI uses it for progress output and counterexample capture.
    """
    summaries: List[Dict] = []
    for index in range(runs):
        case = generate_case(root_seed, index, profile)
        result = run_case(case)
        summary = {
            "index": index,
            "label": case.label,
            "kind": case.kind,
            "ok": result.ok,
            "checksum": result.checksum,
            "events": result.events,
        }
        if result.violation is not None:
            summary["violation"] = result.violation
        summaries.append(summary)
        if on_result is not None:
            on_result(index, case, result)
    return summaries
