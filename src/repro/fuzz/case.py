"""Fuzz cases: fully explicit, serializable schedules.

A :class:`FuzzCase` pins **everything** a run needs — node count, protocol,
delay model, loss/duplication rates, the request schedule, the fault plan,
and the event/time budget — as concrete data rather than implicit RNG
state.  Two consequences:

- replay needs no generator: loading a case file reproduces the run
  bit-for-bit (the only remaining randomness, delay sampling and
  loss/duplication draws, flows from ``derive_seed(case.seed, "net")``);
- the shrinker can minimize by editing lists (drop a request, drop a fault,
  lower the horizon, remove a node) instead of hunting for a luckier seed.

``generate_case`` derives a case from ``(root_seed, index, profile)``; the
same triple always yields the same case.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.core.cluster import PROTOCOLS as IMPL_PROTOCOLS
from repro.errors import ConfigError
from repro.faults.corruption import CORRUPTION_KINDS
from repro.faults.vocabulary import FABRIC_OPS, IMPL_OPS, check_faults
from repro.fuzz.rng import child_rng
from repro.sim.network import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    UniformDelay,
)
from repro.specs.chain import CHAIN

__all__ = [
    "SCHEMA",
    "CaseFile",
    "RecordedOutcome",
    "PROFILES",
    "IMPL_PROTOCOLS",
    "SPEC_SYSTEMS",
    "FuzzCase",
    "generate_case",
    "build_delay",
]

SCHEMA = "repro-fuzz-case/v1"

#: Spec-level systems eligible for random-reduction fuzzing: the chain's
#: state functors, in chain order.
SPEC_SYSTEMS = tuple(system.state for system in CHAIN)

#: profile -> what the generator draws.  ``mixed`` alternates per index
#: (it predates the fabric and stabilize kinds and deliberately excludes
#: them: adding a mode to the rotation would reshuffle every pinned
#: mixed-profile case).
PROFILES = ("clean", "faults", "spec", "mixed", "fabric", "stabilize")

#: Protocols accepted by validation: every fuzz-eligible core plus the
#: stabilizing variant, which is replayable but excluded from
#: IMPL_PROTOCOLS so random clean/faults draws stay pinned.
_VALID_PROTOCOLS = IMPL_PROTOCOLS + ("stabilizing",)


class CaseFile:
    """Case-file plumbing shared by :class:`FuzzCase` and
    :class:`~repro.aio.chaos.ChaosCase`: a JSON document holding the
    case's fields, its ``schema`` tag and, in replay files, the recorded
    outcome.  Subclasses are dataclasses with a ``validate()`` method and
    a :meth:`_coerce` that turns JSON lists back into schedule tuples."""

    SCHEMA: ClassVar[str]

    def to_dict(self) -> Dict:
        doc = asdict(self)
        for name in ("requests", "keyed_requests"):
            if name in doc:
                doc[name] = [list(r) for r in doc[name]]
        doc["schema"] = self.SCHEMA
        return doc

    @staticmethod
    def _coerce(doc: Dict) -> None:
        """Restore tuple-typed fields of a JSON document in place."""

    @classmethod
    def from_dict(cls, doc: Dict):
        doc = dict(doc)
        schema = doc.pop("schema", cls.SCHEMA)
        if schema != cls.SCHEMA:
            raise ConfigError(f"unsupported case schema {schema!r}")
        doc.pop("outcome", None)  # replay files carry the recorded outcome
        cls._coerce(doc)
        return cls(**doc).validate()

    def save(self, path: str, outcome: Optional[Dict] = None) -> None:
        doc = self.to_dict()
        if outcome is not None:
            doc["outcome"] = outcome
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> Tuple[Any, Optional[Dict]]:
        """Load a case file; returns ``(case, recorded_outcome_or_None)``."""
        with open(path) as handle:
            doc = json.load(handle)
        return cls.from_dict(doc), doc.get("outcome")

    def with_(self, **changes):
        return replace(self, **changes)


class RecordedOutcome:
    """``matches`` for result classes whose ``outcome()`` is the stable
    portion a case file records."""

    def matches(self, recorded: Dict) -> bool:
        """Does this run reproduce a case file's recorded outcome?"""
        mine = self.outcome()
        return all(mine.get(k) == v for k, v in recorded.items())


@dataclass
class FuzzCase(CaseFile):
    """One self-contained fuzz run (impl- or spec-level)."""

    SCHEMA = SCHEMA

    seed: int
    kind: str = "impl"                       # "impl" | "spec" | "fabric"
    # -- impl-level fields ---------------------------------------------------
    protocol: str = "binary_search"
    n: int = 5
    delay: Dict = field(default_factory=lambda: {"kind": "constant", "delay": 1.0})
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    config: Dict = field(default_factory=dict)   # ProtocolConfig overrides
    requests: List[Tuple[float, int]] = field(default_factory=list)
    faults: List[Dict] = field(default_factory=list)
    max_events: int = 20_000
    horizon: float = 2_000.0
    # -- spec-level fields ---------------------------------------------------
    system: str = "BS"
    steps: int = 150
    label: str = ""
    # -- fabric-level fields -------------------------------------------------
    #: Lane specs: ``{"key", "protocol", "n", "delay", "loss_rate",
    #: "dup_rate", "config"}`` per entry.  Lane seeds derive from the
    #: fabric seed and key string, so dropping a lane never perturbs the
    #: survivors (lanes are independent — the shrinker leans on this).
    keys: List[Dict] = field(default_factory=list)
    #: Fabric arrivals as ``(time, key_index, node)``; fabric faults carry
    #: a ``"k"`` (key index) in :attr:`faults` entries instead.
    keyed_requests: List[Tuple[float, int, int]] = field(default_factory=list)

    # -- derived -------------------------------------------------------------

    def event_count(self) -> int:
        """Schedule size (requests + faults) — the shrinker's budget."""
        return len(self.requests) + len(self.keyed_requests) + len(self.faults)

    def validate(self) -> "FuzzCase":
        if self.kind not in ("impl", "spec", "fabric"):
            raise ConfigError(f"unknown case kind {self.kind!r}")
        if self.kind == "fabric":
            if not self.keys:
                raise ConfigError("fabric case needs at least one key")
            for spec in self.keys:
                if spec.get("protocol", "binary_search") not in IMPL_PROTOCOLS:
                    raise ConfigError(f"unknown protocol in key spec {spec!r}")
                if spec.get("n", 4) < 1:
                    raise ConfigError(f"bad ring size in key spec {spec!r}")
            n_keys = len(self.keys)
            for _t, k, _node in self.keyed_requests:
                if not 0 <= k < n_keys:
                    raise ConfigError(f"keyed request names key {k} "
                                      f"of {n_keys}")
            check_faults(self.faults, [spec.get("n", 4) for spec in self.keys],
                         FABRIC_OPS)
        elif self.kind == "impl":
            if self.protocol not in _VALID_PROTOCOLS:
                raise ConfigError(f"unknown protocol {self.protocol!r}")
            if self.n < 1:
                raise ConfigError(f"n must be >= 1, got {self.n}")
            check_faults(self.faults, self.n, IMPL_OPS)
        else:
            if self.system not in SPEC_SYSTEMS:
                raise ConfigError(f"unknown spec system {self.system!r}")
        return self

    @staticmethod
    def _coerce(doc: Dict) -> None:
        doc["requests"] = [(float(t), int(node)) for t, node in
                           doc.get("requests", [])]
        doc["keyed_requests"] = [(float(t), int(k), int(node)) for t, k, node
                                 in doc.get("keyed_requests", [])]


def build_delay(spec: Dict) -> DelayModel:
    """Materialize the case's delay-model description."""
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return ConstantDelay(spec.get("delay", 1.0))
    if kind == "uniform":
        return UniformDelay(spec.get("low", 0.5), spec.get("high", 2.0))
    if kind == "exponential":
        return ExponentialDelay(spec.get("mean", 1.0),
                                spec.get("minimum", 0.01))
    raise ConfigError(f"unknown delay kind {kind!r}")


# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------

def _draw_delay(rng) -> Dict:
    kind = rng.choice(("constant", "uniform", "exponential"))
    if kind == "constant":
        return {"kind": "constant", "delay": rng.choice((0.5, 1.0, 2.0))}
    if kind == "uniform":
        low = rng.choice((0.2, 0.5, 1.0))
        return {"kind": "uniform", "low": low,
                "high": low * rng.choice((2.0, 4.0))}
    return {"kind": "exponential", "mean": rng.choice((0.5, 1.0, 3.0)),
            "minimum": 0.01}


def _draw_config(rng, protocol: str) -> Dict:
    config: Dict = {
        "trap_gc": rng.choice(("none", "rotation", "inverse")),
        "single_outstanding": rng.random() < 0.8,
        "forward_throttle": rng.random() < 0.3,
    }
    if rng.random() < 0.3:
        config["idle_pause"] = rng.choice((2.0, 10.0))
    if rng.random() < 0.3:
        config["service_time"] = rng.choice((0.5, 2.0))
    if rng.random() < 0.3:
        config["retry_timeout"] = rng.choice((20.0, 60.0))
    if protocol == "fault_tolerant":
        config["regen_timeout"] = rng.choice((40.0, 80.0))
        config["census_window"] = 5.0
        config["loan_timeout"] = rng.choice((0.0, 30.0))
    return config


def _draw_requests(rng, n: int, horizon: float, count: int) -> List[Tuple[float, int]]:
    requests = sorted(
        (round(rng.uniform(0.0, horizon * 0.6), 3), rng.randrange(n))
        for _ in range(count)
    )
    return requests


def _draw_faults(rng, n: int, horizon: float, protocol: str) -> List[Dict]:
    faults: List[Dict] = []
    # Crash/recover pairs.  For non-fault-tolerant protocols a holder crash
    # merely stalls the run (safety still holds); for fault_tolerant it
    # exercises detection + regeneration.
    for _ in range(rng.randrange(0, 3)):
        node = rng.randrange(n)
        t = round(rng.uniform(5.0, horizon * 0.5), 3)
        faults.append({"t": t, "op": "crash", "a": node})
        if rng.random() < 0.5:
            faults.append({"t": round(t + rng.uniform(20.0, 80.0), 3),
                           "op": "recover", "a": node})
    # Token loss (the in-flight token vanishes) only where regeneration can
    # recover it — elsewhere it would just freeze the run uninformatively.
    if protocol == "fault_tolerant":
        for _ in range(rng.randrange(0, 2)):
            faults.append({"t": round(rng.uniform(5.0, horizon * 0.4), 3),
                           "op": "token_loss"})
    # Transient partition with a matching heal.
    if n >= 3 and rng.random() < 0.4:
        a = rng.randrange(n)
        b = (a + rng.randrange(1, n)) % n
        t = round(rng.uniform(5.0, horizon * 0.4), 3)
        faults.append({"t": t, "op": "partition", "a": a, "b": b})
        faults.append({"t": round(t + rng.uniform(10.0, 50.0), 3),
                       "op": "heal", "a": a, "b": b})
    faults.sort(key=lambda f: f["t"])
    return faults


def _draw_fabric_faults(rng, keys: List[Dict],
                        horizon: float) -> List[Dict]:
    """Crash/recover and partition/heal faults aimed at a few lanes.

    Token loss is left out: regeneration only exists in fault_tolerant
    lanes, and a lost token elsewhere just freezes that lane silently.
    """
    faults: List[Dict] = []
    for _ in range(rng.randrange(0, 4)):
        k = rng.randrange(len(keys))
        n = keys[k]["n"]
        node = rng.randrange(n)
        t = round(rng.uniform(5.0, horizon * 0.5), 3)
        faults.append({"t": t, "op": "crash", "a": node, "k": k})
        if rng.random() < 0.5:
            faults.append({"t": round(t + rng.uniform(20.0, 80.0), 3),
                           "op": "recover", "a": node, "k": k})
        if n >= 3 and rng.random() < 0.4:
            a = rng.randrange(n)
            b = (a + rng.randrange(1, n)) % n
            t = round(rng.uniform(5.0, horizon * 0.4), 3)
            faults.append({"t": t, "op": "partition", "a": a, "b": b, "k": k})
            faults.append({"t": round(t + rng.uniform(10.0, 50.0), 3),
                           "op": "heal", "a": a, "b": b, "k": k})
    faults.sort(key=lambda f: f["t"])
    return faults


def _generate_fabric_case(root_seed: int, index: int, rng) -> FuzzCase:
    """8-32 keys of mixed protocols multiplexed on one fabric, with
    faults striking individual lanes — the isolation property under test
    is that a fault in one lane never leaks into another."""
    n_keys = rng.randrange(8, 33)
    horizon = rng.choice((400.0, 800.0))
    keys: List[Dict] = []
    for k in range(n_keys):
        protocol = rng.choice(IMPL_PROTOCOLS)
        n = rng.choice((3, 4, 5))
        spec: Dict = {"key": f"lock/{k:03d}", "protocol": protocol, "n": n}
        if rng.random() < 0.5:
            spec["delay"] = _draw_delay(rng)
        if rng.random() < 0.3:
            spec["loss_rate"] = round(rng.choice((0.05, 0.1)), 3)
        if rng.random() < 0.2:
            spec["dup_rate"] = 0.1
        if rng.random() < 0.5:
            spec["config"] = _draw_config(rng, protocol)
        keys.append(spec)
    keyed_requests = sorted(
        (round(rng.uniform(0.0, horizon * 0.6), 3),
         (k := rng.randrange(n_keys)),
         rng.randrange(keys[k]["n"]))
        for _ in range(rng.randrange(20, 80))
    )
    return FuzzCase(
        seed=root_seed + index,
        kind="fabric",
        keys=keys,
        keyed_requests=keyed_requests,
        faults=_draw_fabric_faults(rng, keys, horizon),
        max_events=60_000,
        horizon=horizon,
        label=f"fabric/k{n_keys}",
    ).validate()


def _generate_stabilize_case(root_seed: int, index: int, rng) -> FuzzCase:
    """A stabilizing-core run seeded with arbitrary-state corruption.

    Corruptions all land in the first 40% of the horizon so every case
    leaves the stabilizing machinery well over the convergence bound of
    virtual time to settle; delays stay *bounded* (constant/uniform, no
    exponential tail) because the watchdog's no-progress mint is only
    sound under bounded delays; loss/duplication stay off so the only
    illegal states are the injected ones (the convergence verdict is
    then unconditional)."""
    n = rng.choice((3, 5, 7, 9))
    horizon = rng.choice((800.0, 1200.0))
    if rng.random() < 0.5:
        delay: Dict = {"kind": "constant", "delay": rng.choice((0.5, 1.0))}
    else:
        delay = {"kind": "uniform", "low": 0.5, "high": 2.0}
    config: Dict = {
        "trap_gc": rng.choice(("rotation", "inverse")),
        "regen_timeout": rng.choice((30.0, 50.0)),
        "census_window": 5.0,
        "loan_timeout": 30.0,
        "stabilize_watch": rng.choice((15.0, 25.0)),
        "stabilize_reset": rng.random() < 0.7,
    }
    faults: List[Dict] = [
        {"t": round(rng.uniform(10.0, horizon * 0.4), 3),
         "op": "corrupt",
         "a": rng.randrange(n),
         "what": rng.choice(CORRUPTION_KINDS),
         "arg": rng.randrange(1 << 16)}
        for _ in range(rng.randrange(1, 5))
    ]
    faults.sort(key=lambda f: f["t"])
    return FuzzCase(
        seed=root_seed + index,
        kind="impl",
        protocol="stabilizing",
        n=n,
        delay=delay,
        config=config,
        requests=_draw_requests(rng, n, horizon, rng.randrange(3, 12)),
        faults=faults,
        max_events=40_000,
        horizon=horizon,
        label=f"stabilize/n{n}",
    ).validate()


def generate_case(root_seed: int, index: int, profile: str = "mixed") -> FuzzCase:
    """Derive the ``index``-th case of a run from the root seed."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; choose from {PROFILES}")
    mode = profile
    if profile == "mixed":
        mode = ("clean", "faults", "clean", "faults", "spec")[index % 5]
    rng = child_rng(root_seed, "case", index, mode)

    if mode == "fabric":
        return _generate_fabric_case(root_seed, index, rng)

    if mode == "stabilize":
        return _generate_stabilize_case(root_seed, index, rng)

    if mode == "spec":
        system = rng.choice(SPEC_SYSTEMS)
        return FuzzCase(
            seed=root_seed + index, kind="spec", system=system,
            n=rng.choice((2, 3, 4)), steps=rng.choice((80, 150, 250)),
            label=f"spec/{system}",
        ).validate()

    n = rng.choice((3, 4, 5, 6, 8))
    protocols = IMPL_PROTOCOLS if mode == "faults" else tuple(
        p for p in IMPL_PROTOCOLS if p != "fault_tolerant"
    )
    protocol = rng.choice(protocols)
    horizon = rng.choice((400.0, 800.0, 1500.0))
    case = FuzzCase(
        seed=root_seed + index,
        kind="impl",
        protocol=protocol,
        n=n,
        delay=_draw_delay(rng),
        loss_rate=round(rng.choice((0.0, 0.1, 0.3)), 3),
        dup_rate=round(rng.choice((0.0, 0.1, 0.2)), 3),
        config=_draw_config(rng, protocol),
        requests=_draw_requests(rng, n, horizon, rng.randrange(4, 25)),
        faults=_draw_faults(rng, n, horizon, protocol) if mode == "faults" else [],
        max_events=30_000,
        horizon=horizon,
        label=f"{mode}/{protocol}/n{n}",
    )
    return case.validate()
