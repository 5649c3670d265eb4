"""Cutoff-certified parameterized verification of the ring systems.

A *cutoff* for a parameterized system and a property is a size ``c``
such that the property holds for every ring size ``n`` iff it holds for
all ``n ≤ c``.  For unidirectional token-passing rings, the cutoff
results of Emerson–Namjoshi (POPL '95) and Aminof et al. (VMCAI '14)
give small cutoffs as a function of how many processes a property
indexes: ``2`` for single-indexed, ``4`` for pair-indexed, ``6`` for
triple-indexed properties.

All three properties checked here are pair-indexed — they constrain at
most two processes (or process-attributed histories/messages) at a time:

- **prefix-property** — every pair of histories is prefix-comparable;
- **token-uniqueness** — no two token carriers coexist;
- **search-direction** — a gimme's carried history is ring-comparable
  with its (single) destination's local history, span positive.

so certification explores every ring size ``n = 2 … 4`` exhaustively
(with DPOR acceleration) and checks the property on every reachable
state.  Each size is explored once however many properties are
requested (:func:`certify_system`); every verdict is derived from that
one pass.  The verdict artifact records exactly what was machine-checked:

- per-``n`` state/transition counts, completeness, and the sleep-DPOR
  exactness cross-check;
- the independence relation summary and its diamond-validation result;
- a SHA-256 signature over the canonical JSON so CI can detect tampered
  or stale artifacts.

**What a verdict does and does not certify.**  ``verified`` means: for
every ring size, *fault-free* reachability under the recorded Section-4
bounding restrictions satisfies the property.  The cutoff lifts the
result over the *ring size only* — not over the data/visit bounds (those
remain bounded-exhaustive), not over faults (see ``repro.runtime`` for
the fault-injection story), and the classical cutoff theorems are stated
for token rings whose token carries no data, so their application to the
valued-token systems here is a structured heuristic made honest by the
exhaustive per-``n`` checks, not a new theorem.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.errors import VerifyError
from repro.specs.modelcheck import explore_graph
from repro.specs.properties import (prefix_property, search_direction_sound,
                                    token_uniqueness)
from repro.trs.engine import Rewriter
from repro.trs.rules import RuleContext
from repro.trs.terms import Term
from repro.verify.dpor import exactness_report, explore_dpor
from repro.verify.independence import IndependenceRelation, validate_relation
from repro.verify.systems import VerifySystem, get_system

__all__ = [
    "SCHEMA", "TOPOLOGY", "CUTOFFS", "PROPERTIES",
    "SizeRun", "resolve_property", "explore_size", "certify_sizes",
    "certify_system", "certify", "sign", "verify_signature",
    "write_verdict", "load_verdict", "check_verdict", "check_verdicts",
]

SCHEMA = "repro-verify-verdict/v1"
TOPOLOGY = "unidirectional-token-ring"

#: Cutoff by property index arity for unidirectional token-passing rings
#: (Emerson–Namjoshi '95; Aminof et al. VMCAI '14, Table 1).
CUTOFFS: Dict[int, int] = {1: 2, 2: 4, 3: 6}

#: Signature-exempt keys: context that may differ between an artifact's
#: producer and its checker without changing what was verified.
_VOLATILE_KEYS = ("created_utc", "commit", "signature")


class _Property:
    def __init__(self, name: str, checker: Callable[[Term], bool],
                 index_arity: int, description: str) -> None:
        self.name = name
        self.checker = checker
        self.index_arity = index_arity
        self.description = description


PROPERTIES: Dict[str, _Property] = {
    p.name: p for p in (
        _Property(
            "prefix-property", prefix_property, 2,
            "every pair of histories in the state is prefix-comparable "
            "(Definition 2)"),
        _Property(
            "token-uniqueness", token_uniqueness, 2,
            "exactly one token exists: held or in flight, never two"),
        _Property(
            "search-direction", search_direction_sound, 2,
            "every in-flight gimme has positive span and a destination "
            "whose history is ring-comparable with the carried snapshot "
            "(rule 6's direction choice is decidable)"),
    )
}


def canonical_json(verdict: Dict[str, Any]) -> str:
    """The canonical serialization the signature covers (volatile keys
    excluded, keys sorted, no whitespace)."""
    body = {k: v for k, v in verdict.items() if k not in _VOLATILE_KEYS}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def sign(verdict: Dict[str, Any]) -> str:
    digest = hashlib.sha256(canonical_json(verdict).encode("utf-8"))
    return f"sha256:{digest.hexdigest()}"


def verify_signature(verdict: Dict[str, Any]) -> bool:
    return verdict.get("signature") == sign(verdict)


def resolve_property(system: VerifySystem, prop_name: str) -> _Property:
    """The property ``prop_name`` as certifiable on ``system``; raises
    :class:`VerifyError` for a non-ring system or an unknown or
    inapplicable property."""
    if not system.ring:
        raise VerifyError(
            f"system {system.key!r} is not a token-passing ring; the "
            f"cutoff table of {TOPOLOGY!r} does not apply")
    prop = PROPERTIES.get(prop_name)
    if prop is None:
        raise VerifyError(
            f"unknown property {prop_name!r}; expected one of "
            f"{sorted(PROPERTIES)}")
    if prop_name not in system.properties:
        raise VerifyError(
            f"property {prop_name!r} is not applicable to system "
            f"{system.key!r} (applicable: {list(system.properties)})")
    return prop


class SizeRun(NamedTuple):
    """What one ring size's exploration leaves behind: counts only, so the
    state graph can be dropped before the next size is explored."""

    n: int
    max_states: int                #: exploration cap the run used
    dpor: Dict[str, Any]           #: full vs sleep-DPOR exactness report
    holds: Dict[str, bool]         #: property name -> held on every state
    relation: Dict[str, int]       #: independence relation summary
    diamond_checks: int
    diamond_violations: List[Dict[str, str]]

    def entry(self, prop_name: str) -> Dict[str, Any]:
        """The verdict's ``runs`` entry for ``prop_name`` at this size."""
        dpor = self.dpor
        return {
            "n": self.n,
            "states": dpor["full_states"],
            "transitions": dpor["full_transitions"],
            "executed": dpor["dpor_executed"],
            "complete": bool(dpor["full_complete"]
                             and dpor["dpor_complete"]),
            "exact": not dpor["missing"] and not dpor["extra"],
            "holds": self.holds[prop_name],
        }


def explore_size(system: VerifySystem, n: int, props: Sequence[_Property],
                 max_states: int) -> SizeRun:
    """Explore ``system`` at ring size ``n`` once: full graph, sleep-mode
    DPOR and diamond validation of the independence relation, checking
    every property in ``props`` on every reachable state."""
    rules = system.bounded(n)
    initial = system.initial(n)
    rewriter = Rewriter(rules, RuleContext())
    relation = IndependenceRelation(rules)
    graph = explore_graph(rewriter, initial, max_states=max_states)
    reduced = explore_dpor(rewriter, initial, mode="sleep",
                           max_states=max_states, relation=relation)
    holds = {prop.name: all(prop.checker(state) for state in graph.states)
             for prop in props}
    violations, checks = validate_relation(rewriter, relation, initial)
    return SizeRun(n, max_states, exactness_report(graph, reduced), holds,
                   relation.summary(), checks, violations)


def certify_sizes(
    system: VerifySystem,
    props: Sequence[_Property],
    max_states: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Tuple[List[Dict[str, Any]], Dict[int, SizeRun]]:
    """Certify every property in ``props`` from one exploration per ring
    size up to the largest of their cutoffs.  Returns the signed verdicts
    (in ``props`` order) and the size runs they were derived from."""
    cap = max_states or system.cert_max_states
    say = log or (lambda msg: None)
    runs: Dict[int, SizeRun] = {}
    top = max((CUTOFFS[prop.index_arity] for prop in props), default=1)
    for n in range(2, top + 1):
        run = runs[n] = explore_size(system, n, props, cap)
        dpor = run.dpor
        say(f"  n={n}: states={dpor['full_states']} "
            f"transitions={dpor['full_transitions']} dpor_executed="
            f"{dpor['dpor_executed']} complete={dpor['full_complete']} "
            + " ".join(f"{name}={ok}" for name, ok in run.holds.items()))
    return [_verdict(system, prop, runs) for prop in props], runs


def certify_system(
    system_key: str,
    prop_names: Sequence[str],
    max_states: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, Any]]:
    """Certify the properties ``prop_names`` on the parameterized ring
    ``system_key``, one signed verdict each.

    Explores every ring size up to the cutoff once with sleep-set DPOR
    (cross-checked against full exploration for exactness), checks every
    property on every reachable state, diamond-validates the independence
    relation used, and derives each property's verdict from those runs."""
    system = get_system(system_key)
    props = [resolve_property(system, name) for name in prop_names]
    return certify_sizes(system, props, max_states, log)[0]


def certify(
    system_key: str,
    prop_name: str,
    max_states: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Certify one property; see :func:`certify_system`."""
    return certify_system(system_key, [prop_name], max_states, log)[0]


def _verdict(system: VerifySystem, prop: _Property,
             runs: Dict[int, SizeRun]) -> Dict[str, Any]:
    cutoff = CUTOFFS[prop.index_arity]
    sizes = [runs[n] for n in range(2, cutoff + 1)]
    entries = [run.entry(prop.name) for run in sizes]
    violations = sum(len(run.diamond_violations) for run in sizes)
    verified = (not violations
                and all(r["complete"] and r["exact"] and r["holds"]
                        for r in entries))
    verdict: Dict[str, Any] = {
        "schema": SCHEMA,
        "topology": TOPOLOGY,
        "system": system.key,
        "property": prop.name,
        "property_description": prop.description,
        "index_arity": prop.index_arity,
        "cutoff": cutoff,
        "bounds": dict(system.bounds),
        "runs": entries,
        "independence": dict(
            sizes[-1].relation,
            diamond_checks=sum(run.diamond_checks for run in sizes),
            diamond_violations=violations,
        ),
        "result": "verified" if verified else "inconclusive",
        "certifies": (
            "fault-free reachability under the recorded bounds, for every "
            "ring size (lifted from n <= cutoff); not fault tolerance, "
            "not unbounded data/visits"),
        "created_utc": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
    }
    verdict["signature"] = sign(verdict)
    return verdict


def write_verdict(verdict: Dict[str, Any], directory: str) -> str:
    """Write ``verdict`` as ``<system>__<property>.json``; returns path."""
    os.makedirs(directory, exist_ok=True)
    name = f"{verdict['system']}__{verdict['property']}.json"
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(verdict, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_verdict(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        verdict = json.load(fh)
    if not isinstance(verdict, dict) or verdict.get("schema") != SCHEMA:
        raise VerifyError(
            f"{path}: not a {SCHEMA} verdict artifact")
    return verdict


def _load_signed(path: str) -> Dict[str, Any]:
    verdict = load_verdict(path)
    if not verify_signature(verdict):
        raise VerifyError(f"{path}: signature mismatch (artifact edited "
                          f"without re-signing, or content drifted)")
    return verdict


def _compare_recomputed(path: str, verdict: Dict[str, Any],
                        fresh: Dict[str, Any]) -> None:
    for key in ("cutoff", "runs", "result", "independence", "bounds"):
        if fresh[key] != verdict[key]:
            raise VerifyError(
                f"{path}: recomputation diverged on {key!r} — committed "
                f"{verdict[key]!r}, recomputed {fresh[key]!r}")


def check_verdict(path: str, recompute: bool = False) -> Dict[str, Any]:
    """Validate a committed verdict artifact.

    Always checks schema and signature integrity; with ``recompute`` it
    re-runs the certification and requires identical per-n counts and the
    same result — the CI replay that keeps committed artifacts honest.
    Raises :class:`VerifyError` on any mismatch or unreadable artifact."""
    report = check_verdicts([path], recompute)[0]
    if "error" in report:
        raise VerifyError(report["error"])
    return report


def check_verdicts(paths: Sequence[str],
                   recompute: bool = False) -> List[Dict[str, Any]]:
    """:func:`check_verdict` over several artifacts, recomputing each
    system once for all of its artifacts' properties.

    Returns one report per path, in order; the report of an artifact that
    fails carries ``"error"`` instead of raising."""
    reports: List[Dict[str, Any]] = []
    #: system -> [(report index, verdict)] of artifacts to recompute
    pending: Dict[str, List[Tuple[int, Dict[str, Any]]]] = {}
    for path in paths:
        try:
            verdict = _load_signed(path)
            if recompute:
                resolve_property(get_system(verdict["system"]),
                                 verdict["property"])
        except (VerifyError, OSError) as exc:
            reports.append({"path": path, "error": str(exc)})
            continue
        if recompute:
            pending.setdefault(verdict["system"], []).append(
                (len(reports), verdict))
        reports.append({"path": path, "signature": "ok",
                        "result": verdict["result"]})
    for system_key, entries in pending.items():
        names = list(dict.fromkeys(v["property"] for _, v in entries))
        fresh = dict(zip(names, certify_system(system_key, names)))
        for index, verdict in entries:
            path = reports[index]["path"]
            try:
                _compare_recomputed(path, verdict, fresh[verdict["property"]])
            except VerifyError as exc:
                reports[index] = {"path": path, "error": str(exc)}
                continue
            reports[index]["recompute"] = "ok"
    return reports
