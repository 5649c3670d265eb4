"""Bounded exhaustive model checking of the specification systems.

Random reductions (used by the refinement tests) sample behaviours; this
module *enumerates* them: breadth-first exploration of every reachable
state of a small instance, checking invariants on each.  Because rules 1
(fresh data) and 4 (circulation visits) make the state spaces infinite,
exploration uses **bounding restrictions** — each is a guard-narrowing in
the sense of Section 4, so every explored behaviour is a genuine behaviour
of the unbounded system, and within the bound the verification is
*complete* (the result reports whether the frontier was exhausted).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Mapping, NamedTuple, Optional

from repro.errors import SpecError
from repro.specs.common import next_nonce
from repro.trs.engine import Rewriter
from repro.trs.rules import RuleContext, RuleSet
from repro.trs.terms import Seq, Struct, Term

__all__ = ["CheckResult", "GraphResult", "BOUND_KEYS", "apply_bounds",
           "bound_data", "bound_requests", "bound_visits", "bound_visits_soft",
           "sample_states", "explore", "explore_graph",
           "check_goal_always_reachable"]


class CheckResult(NamedTuple):
    """Outcome of an exhaustive exploration."""

    states: int          #: distinct states visited
    transitions: int     #: transitions taken
    complete: bool       #: True when the frontier was exhausted (full
    #: verification up to the bounds); False when max_states was hit


class GraphResult(NamedTuple):
    """Outcome of a graph-building exploration (:func:`explore_graph`).

    Unlike :class:`CheckResult` this keeps the explored objects themselves:
    ``states`` is the set of reachable states and ``edges`` the adjacency
    map, with ``transitions`` the total edge count precomputed (it is what
    verdict artifacts and the pinned behaviour checksums record)."""

    states: "set"        #: the reachable states themselves
    edges: "dict"        #: ``edges[s]`` lists the successors of ``s``
    transitions: int     #: total transitions taken (== sum of edge lists)
    complete: bool       #: True when the frontier was exhausted


def bound_data(rules: RuleSet, per_node_limit: int,
               nodes: Optional[Iterable[int]] = None) -> RuleSet:
    """Restrict rule 1 so each node generates at most ``per_node_limit``
    fresh datums — optionally only at the given ``nodes`` — a guard
    narrowing, hence behaviour-preserving."""
    allowed = None if nodes is None else frozenset(nodes)

    def guard(binding, ctx):
        x = binding["x"].value
        if allowed is not None and x not in allowed:
            return False
        return next_nonce(binding, x) < per_node_limit

    return rules.replaced(rules["1"].restricted(guard=guard))


def _request_artifacts_exist(binding, x: int) -> bool:
    """True when node ``x`` still has search artifacts in the system: an
    ask/gimme on its behalf in flight, or a trap for it anywhere."""
    from repro.trs.terms import Atom, Bag

    target = Atom(x)
    for field in ("I", "O", "W"):
        bag = binding.get(field)
        if not isinstance(bag, Bag):
            continue
        for item in bag:
            if not isinstance(item, Struct):
                continue
            if item.functor == "trap" and item.args[1] == target:
                return True
            if item.functor in ("in", "out"):
                payload = item.args[2]
                if isinstance(payload, Struct):
                    if payload.functor == "ask" and payload.args[0] == target:
                        return True
                    if payload.functor == "gimme" and payload.args[2] == target:
                        return True
    return False


def bound_requests(rules: RuleSet, rule_name: str = "5") -> RuleSet:
    """Restrict the request rule to the Section 4.4 single-outstanding
    discipline: a node may not launch a new search while any artifact of
    its previous one (in-flight message or trap) survives — a guard
    narrowing that keeps exhaustive exploration tractable."""
    def guard(binding, ctx):
        return not _request_artifacts_exist(binding, binding["x"].value)

    return rules.replaced(rules[rule_name].restricted(guard=guard))


def _count_visits(term: Term) -> int:
    count = 0
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Struct):
            if t.functor == "visit":
                count += 1
            else:
                stack.extend(t.args)
        elif isinstance(t, Seq):
            stack.extend(t.items)
    return count


def bound_visits(rules: RuleSet, limit: int, rule_name: str = "4") -> RuleSet:
    """Restrict the circulation rule so the token makes at most ``limit``
    ring hops (counted as visit events in the holder's history)."""
    def guard(binding, ctx):
        return _count_visits(binding["H"]) < limit

    return rules.replaced(rules[rule_name].restricted(guard=guard))


def _pending_data(binding) -> bool:
    """Any node still has undelivered data (its own or in the rest of Q)."""
    from repro.trs.terms import Bag

    d = binding.get("d")
    if isinstance(d, Seq) and len(d) > 0:
        return True
    q = binding.get("Q")
    if isinstance(q, Bag):
        for entry in q:
            if (isinstance(entry, Struct) and entry.functor == "q"
                    and isinstance(entry.args[1], Seq)
                    and len(entry.args[1]) > 0):
                return True
    return False


def bound_visits_soft(rules: RuleSet, limit: int,
                      rule_name: str = "4") -> RuleSet:
    """Like :func:`bound_visits`, but the rotation stays enabled while any
    request is still unserved (pending data exists anywhere).  The idle
    system is bounded, yet the bound can never starve service — the right
    restriction for *liveness* checking (a hard visit bound can cut the
    rotation an in-flight request depends on)."""
    def guard(binding, ctx):
        return _count_visits(binding["H"]) < limit or _pending_data(binding)

    return rules.replaced(rules[rule_name].restricted(guard=guard))


#: The keys a bounds record may hold (see :func:`apply_bounds`).
BOUND_KEYS = ("data_per_node", "data_nodes", "single_outstanding_request",
              "visit_limit")


def apply_bounds(rules: RuleSet, bounds: Mapping[str, Any]) -> RuleSet:
    """The bounded rule set a bounds record describes:

    - ``data_per_node`` (optionally only at ``data_nodes``) —
      :func:`bound_data` on rule 1;
    - ``single_outstanding_request`` — :func:`bound_requests` on rule 5;
    - ``visit_limit`` — :func:`bound_visits` on rule 4.

    An unknown key raises :class:`SpecError`, so a record cannot carry a
    bound that is not applied."""
    unknown = sorted(set(bounds) - set(BOUND_KEYS))
    if unknown:
        raise SpecError(f"unknown bound(s) {unknown}; expected {BOUND_KEYS}")
    if "data_per_node" in bounds:
        rules = bound_data(rules, bounds["data_per_node"],
                           nodes=bounds.get("data_nodes"))
    if bounds.get("single_outstanding_request"):
        rules = bound_requests(rules, "5")
    if "visit_limit" in bounds:
        rules = bound_visits(rules, bounds["visit_limit"], "4")
    return rules


def sample_states(
    ruleset: RuleSet,
    initial: Term,
    max_states: int = 2_000,
    ctx: Optional[RuleContext] = None,
) -> List[Term]:
    """Breadth-first sample of states reachable from ``initial``, in BFS
    order, stopping at ``max_states``.

    Pass a *bounded* rule set so the sample terminates; its states are
    genuine states of the full system.
    """
    rewriter = Rewriter(ruleset, ctx or RuleContext())
    seen = {initial}
    order = [initial]
    cursor = 0  # list + cursor: pop(0) is O(n) per dequeue
    while cursor < len(order) and len(seen) < max_states:
        state = order[cursor]
        cursor += 1
        for _, succ in rewriter.successors(state):
            if succ not in seen:
                seen.add(succ)
                order.append(succ)
                if len(seen) >= max_states:
                    break
    return order


def explore(
    rewriter: Rewriter,
    initial: Term,
    invariants: Iterable[Callable[[Term], bool]],
    max_states: int = 100_000,
    names: Optional[List[str]] = None,
) -> CheckResult:
    """BFS over every reachable state, checking each invariant everywhere.

    Raises :class:`SpecError` naming the violated invariant and the rule
    that produced the offending state.
    """
    invariants = list(invariants)
    labels = names or [getattr(f, "__name__", f"inv{i}")
                       for i, f in enumerate(invariants)]

    def check(state: Term, via: str) -> None:
        for label, invariant in zip(labels, invariants):
            if not invariant(state):
                raise SpecError(
                    f"invariant {label!r} violated at a state reached via "
                    f"rule {via!r}"
                )

    check(initial, "<initial>")
    seen = {initial}
    frontier = [initial]
    cursor = 0  # list + cursor: pop(0) is O(n) per dequeue
    transitions = 0
    complete = True
    while cursor < len(frontier):
        if len(seen) >= max_states:
            complete = False
            break
        state = frontier[cursor]
        cursor += 1
        for rule_name, succ in rewriter.successors(state):
            transitions += 1
            if succ in seen:
                continue
            check(succ, rule_name)
            seen.add(succ)
            frontier.append(succ)
            if len(seen) >= max_states:
                complete = False
                break
    return CheckResult(states=len(seen), transitions=transitions,
                       complete=complete)


def explore_graph(
    rewriter: Rewriter,
    initial: Term,
    max_states: int = 100_000,
) -> GraphResult:
    """BFS like :func:`explore`, but return the full transition graph as a
    :class:`GraphResult`: the state set, the adjacency map, the transition
    count, and the completeness flag.  Used by the liveness check below and
    by the ``repro verify`` DPOR validator."""
    seen = {initial}
    edges = {initial: []}
    frontier = [initial]
    cursor = 0  # list + cursor: pop(0) is O(n) per dequeue
    transitions = 0
    complete = True
    while cursor < len(frontier):
        if len(seen) >= max_states:
            complete = False
            break
        state = frontier[cursor]
        cursor += 1
        for _, succ in rewriter.successors(state):
            edges[state].append(succ)
            transitions += 1
            if succ not in seen:
                seen.add(succ)
                edges.setdefault(succ, [])
                frontier.append(succ)
                if len(seen) >= max_states:
                    complete = False
                    break
    return GraphResult(states=seen, edges=edges, transitions=transitions,
                       complete=complete)


def check_goal_always_reachable(
    rewriter: Rewriter,
    initial: Term,
    goal: Callable[[Term], bool],
    max_states: int = 100_000,
) -> CheckResult:
    """A bounded liveness check: from *every* reachable state, some state
    satisfying ``goal`` must remain reachable (no dead ends or livelock
    traps within the bound) — the machine-checkable core of "every request
    is eventually serviceable".

    Computed by backward propagation over the explored transition graph;
    raises :class:`SpecError` naming a state from which the goal is
    unreachable.
    """
    states, edges, transitions, complete = explore_graph(
        rewriter, initial, max_states)
    if not complete:
        # A truncated frontier would produce spurious "unreachable" verdicts
        # (paths may continue past the bound), so refuse to conclude.
        return CheckResult(states=len(states), transitions=transitions,
                           complete=False)
    can_reach = {s for s in states if goal(s)}
    if not can_reach:
        raise SpecError("no reachable state satisfies the goal at all")
    changed = True
    while changed:
        changed = False
        for state in states:
            if state in can_reach:
                continue
            if any(succ in can_reach for succ in edges[state]):
                can_reach.add(state)
                changed = True
    stuck = len(states) - len(can_reach)
    if stuck:
        raise SpecError(
            f"{stuck} reachable state(s) can never reach the goal"
        )
    return CheckResult(states=len(states), transitions=transitions,
                       complete=True)
