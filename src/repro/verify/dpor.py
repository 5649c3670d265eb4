"""Dynamic partial-order reduction for the bounded explorers.

Interleavings of independent transitions reach the same state in any
order, so full BFS re-executes the same diamonds over and over.  This
module prunes them with two DPOR modes layered on the machine-checked
independence relation of :mod:`repro.verify.independence`:

- ``sleep`` — sleep sets only (Godefroid).  A transition goes to sleep in
  a child when an independent sibling already explored it from the
  parent; sleeping transitions are skipped, never the states they lead
  to.  Guarantee: the *exact* reachable-state set of full exploration
  (asserted by :func:`validate_dpor` and the tier-1 tests) with fewer
  executed transitions.  Because every state must still be discovered,
  the saving is bounded by the graph's edges-per-state ratio.
- ``persistent`` — sleep sets plus persistent-set selection: at each
  state only a conflict-closed subset of the enabled transitions is
  expanded.  This prunes intermediate interleaving states too, breaking
  the edges-per-state ceiling (≥5x on BinarySearch at n=4); the visited
  set is a subset of the reachable states that still covers every
  deadlock, and the paper's safety properties are re-checked on every
  state it does visit.

Since states are cached (this is stateful DPOR), a state reached again
with a *smaller* sleep set must be re-expanded: transitions that slept on
the first visit may be live on the second.  The stored sleep set of a
state therefore shrinks monotonically (intersection on revisit), and a
visit re-enqueues whenever it wakes a previously sleeping transition.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.errors import VerifyError
from repro.specs.modelcheck import GraphResult, explore_graph
from repro.trs.engine import Rewriter
from repro.trs.terms import Term
from repro.verify.independence import (IndependenceRelation, InstanceFootprint,
                                       instance_footprint)

__all__ = ["DporResult", "explore_dpor", "exactness_report", "validate_dpor"]

_MODES = ("sleep", "persistent")


class DporResult(NamedTuple):
    """Outcome of a reduced exploration."""

    mode: str                      #: "sleep" or "persistent"
    states: int                    #: distinct states visited
    executed: int                  #: transitions actually executed
    complete: bool                 #: frontier exhausted within max_states
    state_set: FrozenSet[Term]     #: the visited states themselves


def _enabled(rewriter: Rewriter, relation: IndependenceRelation,
             state: Term) -> "Dict[Tuple[Any, ...], InstanceFootprint]":
    """Enabled transition instances of ``state``, keyed by instance key.

    Instances sharing a key differ only in rest-variable partitioning and
    denote the same transition; the key includes choice-point bindings, so
    genuinely distinct choices stay distinct."""
    bykey: Dict[Tuple[Any, ...], InstanceFootprint] = {}
    for rule, binding in rewriter.instantiations(state):
        inst = instance_footprint(relation.footprints[rule.name], binding)
        bykey.setdefault(inst.key, inst)
    return bykey


def explore_dpor(
    rewriter: Rewriter,
    initial: Term,
    mode: str = "sleep",
    max_states: int = 1_000_000,
    relation: Optional[IndependenceRelation] = None,
    invariants: Optional[List[Callable[[Term], bool]]] = None,
) -> DporResult:
    """Explore from ``initial`` with partial-order reduction.

    ``invariants`` (if given) are checked on every visited state; a
    violation raises :class:`VerifyError` naming the failing checker.
    """
    if mode not in _MODES:
        raise VerifyError(f"unknown DPOR mode {mode!r}; expected one of "
                          f"{_MODES}")
    relation = relation or IndependenceRelation(rewriter.ruleset)
    checks = list(invariants or [])

    def check(state: Term) -> None:
        for inv in checks:
            if not inv(state):
                name = getattr(inv, "__name__", repr(inv))
                raise VerifyError(
                    f"invariant {name!r} violated during {mode} DPOR")

    check(initial)
    seen = {initial}
    #: stored[s] — the sleep set s was last expanded under; shrinks
    #: monotonically as revisits intersect in smaller sets.
    stored: Dict[Term, FrozenSet[Tuple[Any, ...]]] = {}
    #: expanded[s] — (key, instance) pairs already executed from s, in
    #: execution order (later children sleep on earlier independent ones).
    expanded: Dict[Term, List[Tuple[Tuple[Any, ...], InstanceFootprint]]] = {}
    work: "deque" = deque([(initial, frozenset())])
    executed = 0
    complete = True
    while work:
        state, sleep_in = work.popleft()
        bykey = _enabled(rewriter, relation, state)
        done = expanded.setdefault(state, [])
        done_keys = {k for k, _ in done}
        if state in stored:
            stored[state] = stored[state] & sleep_in
        else:
            stored[state] = frozenset(sleep_in)
        to_expand = [k for k in bykey
                     if k not in sleep_in and k not in done_keys]
        if mode == "persistent" and to_expand:
            # Persistent set: close the first candidate over instance
            # conflicts among *all* enabled transitions, then expand only
            # candidates inside the closure.  Everything outside commutes
            # with the whole set and is covered from a successor.
            pset = {to_expand[0]}
            changed = True
            while changed:
                changed = False
                for k, inst in bykey.items():
                    if k in pset:
                        continue
                    for p in pset:
                        if not relation.instances_independent(
                                inst, bykey[p]):
                            pset.add(k)
                            changed = True
                            break
            to_expand = [k for k in to_expand if k in pset]
        for key in to_expand:
            inst = bykey[key]
            succ = rewriter.apply(
                state, rewriter.ruleset[inst.rule_name], inst.binding)
            if succ is None:        # where-clause veto: not actually enabled
                continue
            executed += 1
            child_sleep = set()
            for z in sleep_in:
                zt = bykey.get(z)
                if zt is not None and relation.instances_independent(zt, inst):
                    child_sleep.add(z)
            for pk, pt in done:
                if relation.instances_independent(pt, inst):
                    child_sleep.add(pk)
            done.append((key, inst))
            frozen = frozenset(child_sleep)
            if succ not in seen:
                check(succ)
                seen.add(succ)
                work.append((succ, frozen))
                if len(seen) >= max_states:
                    return DporResult(mode, len(seen), executed, False,
                                      frozenset(seen))
            else:
                old = stored.get(succ)
                if old is None or not (old <= frozen):
                    # The revisit wakes transitions that slept before (or
                    # the state is still queued unexpanded) — re-enqueue.
                    work.append((succ, frozen))
    return DporResult(mode, len(seen), executed, complete, frozenset(seen))


def exactness_report(graph: GraphResult,
                     reduced: DporResult) -> Dict[str, Any]:
    """Compare a full exploration with a sleep-mode DPOR run of the same
    system.  ``report["exact"]`` holds when both are complete and visit
    the same states; missing/extra counts are there for diagnosis."""
    full_set = frozenset(graph.states)
    missing = full_set - reduced.state_set
    extra = reduced.state_set - full_set
    return {
        "exact": (graph.complete and reduced.complete
                  and not missing and not extra),
        "full_states": len(full_set),
        "full_transitions": graph.transitions,
        "full_complete": graph.complete,
        "dpor_states": reduced.states,
        "dpor_executed": reduced.executed,
        "dpor_complete": reduced.complete,
        "missing": len(missing),
        "extra": len(extra),
    }


def validate_dpor(
    rewriter: Rewriter,
    initial: Term,
    max_states: int = 1_000_000,
    relation: Optional[IndependenceRelation] = None,
) -> Dict[str, Any]:
    """Self-check: sleep-set DPOR must visit *exactly* the reachable states.

    Runs full exploration and sleep-mode DPOR side by side and returns
    their :func:`exactness_report`."""
    graph = explore_graph(rewriter, initial, max_states=max_states)
    reduced = explore_dpor(rewriter, initial, mode="sleep",
                           max_states=max_states, relation=relation)
    return exactness_report(graph, reduced)
