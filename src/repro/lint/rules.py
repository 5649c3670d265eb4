"""Static lint of TRS rule sets.

Checks, per rule set (codes are stable identifiers for the JSON report):

- ``duplicate-rule-name`` (error) — two rules share a name (RuleSet
  construction enforces this; the linter re-checks plain sequences).
- ``unbound-rhs-variable`` (error) — applying the rule leaves an RHS
  variable unbound or produces a non-ground state: the where-clause or
  choice point fails to deliver what the RHS needs.  The static part of
  this check lives in the :class:`~repro.trs.rules.Rule` constructor (no
  where/choices at all); the linter closes the remaining hole — a
  where-clause that *exists* but doesn't bind — by probing every rule
  instantiation over a sample of reachable states.
- ``shadowed-rule`` (error) — an earlier rule is *unconditional* (no
  guard, no where-clause, no choice point: it fires on every match and
  never vetoes) and its LHS subsumes a later rule's LHS.  Under the
  deterministic first-applicable strategy the later rule can never fire.
- ``unused-lhs-binding`` (warning) — a variable bound by the LHS is never
  substituted into the RHS nor read by the guard/where/choices (observed
  via instrumented bindings during probing).  Dead binders are harmless
  but usually indicate a mis-written pattern; bind with ``Wildcard``
  instead.
- ``never-enabled`` (warning) — the rule produced zero instantiations
  across the entire state sample: its guard is unsatisfiable under the
  documented exploration bounds, or its LHS is unreachable.

Probing is *sampled static analysis*: guards, where-clauses, and choice
points are opaque Python callables, so where symbolic reasoning is
infeasible the linter runs them over bounded-reachable states (which are
genuine states of the unbounded system — the bounds are guard narrowings).
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.errors import RuleError
from repro.lint.findings import LintFinding, Severity
from repro.specs.modelcheck import sample_states
from repro.trs.matching import match
from repro.trs.rules import Rule, RuleContext, RuleSet
from repro.trs.terms import Term

__all__ = ["RecordingBinding", "lint_rules", "sample_states"]

#: Cap on the number of bindings probed per (rule, state) and on the
#: number of choice expansions consumed per binding — lint cost control.
MAX_PROBES_PER_STATE = 16
MAX_CHOICES = 64


class RecordingBinding(dict):
    """A binding dict that records which keys a callable reads.

    Bulk reads (iteration, ``values``, ``items``) count as reading every
    key — e.g. ``next_nonce`` scans all bound values, which legitimately
    uses every binder.  Shared with :mod:`repro.verify.footprint`.
    """

    def __init__(self, data: Dict[str, Term], accessed: Set[str]) -> None:
        super().__init__(data)
        self._accessed = accessed

    def __getitem__(self, key: str) -> Term:
        self._accessed.add(key)
        return super().__getitem__(key)

    def get(self, key: str, default: object = None) -> object:
        self._accessed.add(key)
        return super().get(key, default)

    def _touch_all(self) -> None:
        self._accessed.update(super().keys())

    def __iter__(self):
        self._touch_all()
        return super().__iter__()

    def values(self):
        self._touch_all()
        return super().values()

    def items(self):
        self._touch_all()
        return super().items()

    def copy(self) -> "RecordingBinding":
        return RecordingBinding(dict(self), self._accessed)


def lint_rules(
    system: str,
    rules: Union[RuleSet, Sequence[Rule]],
    states: Iterable[Term] = (),
) -> List[LintFinding]:
    """Run every static check on ``rules``; returns the findings.

    ``states`` feeds the sampled probes (unbound-RHS, unused-binding,
    never-enabled); without states only the purely structural checks run.
    """
    rule_list = list(rules)
    findings: List[LintFinding] = []
    findings.extend(_check_duplicate_names(system, rule_list))
    findings.extend(_check_shadowing(system, rule_list))
    findings.extend(_probe(system, rule_list, list(states)))
    return findings


# -- structural checks ------------------------------------------------------


def _check_duplicate_names(system: str, rules: List[Rule]) -> List[LintFinding]:
    seen: Dict[str, int] = {}
    findings = []
    for idx, rule in enumerate(rules):
        if rule.name in seen:
            findings.append(LintFinding(
                "duplicate-rule-name", Severity.ERROR, system, rule.name,
                f"rule name {rule.name!r} already used at position "
                f"{seen[rule.name]}",
                {"first_position": seen[rule.name], "position": idx},
            ))
        else:
            seen[rule.name] = idx
    return findings


def _check_shadowing(system: str, rules: List[Rule]) -> List[LintFinding]:
    findings = []
    for i, earlier in enumerate(rules):
        if not earlier.is_unconditional:
            continue
        for later in rules[i + 1 :]:
            if earlier.subsumes(later):
                findings.append(LintFinding(
                    "shadowed-rule", Severity.ERROR, system, later.name,
                    f"rule {later.name!r} is shadowed by the earlier "
                    f"unconditional rule {earlier.name!r}: its LHS is "
                    "subsumed, so under the first-applicable strategy it "
                    "can never fire",
                    {"shadowed_by": earlier.name},
                ))
    return findings


def overlap_pairs(rules: Sequence[Rule]) -> List[tuple]:
    """All unordered pairs of rules whose LHS patterns can both match some
    state (reported as pass statistics, not findings — overlap is the norm
    in these systems, where guards discriminate)."""
    rule_list = list(rules)
    pairs = []
    for i, a in enumerate(rule_list):
        for b in rule_list[i + 1 :]:
            if a.overlaps(b):
                pairs.append((a.name, b.name))
    return pairs


# -- sampled probes ---------------------------------------------------------


def _probe(
    system: str, rules: List[Rule], states: List[Term]
) -> List[LintFinding]:
    if not states:
        return []
    findings: List[LintFinding] = []
    enabled_count: Dict[str, int] = {r.name: 0 for r in rules}
    accessed: Dict[str, Set[str]] = {r.name: set() for r in rules}
    matched: Dict[str, bool] = {r.name: False for r in rules}
    apply_errors: Dict[str, LintFinding] = {}

    for state in states:
        for rule in rules:
            if rule.name in apply_errors:
                continue
            probes = 0
            for binding in match(rule.lhs, state):
                if probes >= MAX_PROBES_PER_STATE:
                    break
                probes += 1
                matched[rule.name] = True
                error = _probe_binding(
                    system, rule, state, binding,
                    accessed[rule.name], enabled_count,
                )
                if error is not None:
                    apply_errors[rule.name] = error
                    break

    findings.extend(apply_errors.values())
    for rule in rules:
        if enabled_count[rule.name] == 0 and rule.name not in apply_errors:
            reason = (
                "guard/choices never admitted an instantiation"
                if matched[rule.name]
                else "LHS never matched"
            )
            findings.append(LintFinding(
                "never-enabled", Severity.WARNING, system, rule.name,
                f"rule {rule.name!r} was never enabled across "
                f"{len(states)} sampled states ({reason}): its guard may "
                "be statically unsatisfiable under the documented bounds",
                {"sampled_states": len(states)},
            ))
    findings.extend(_unused_findings(system, rules, enabled_count, accessed))
    return findings


def _probe_binding(
    system: str,
    rule: Rule,
    state: Term,
    binding: Dict[str, Term],
    accessed: Set[str],
    enabled_count: Dict[str, int],
) -> Optional[LintFinding]:
    """Expand choices, evaluate the guard, and trial-apply one match.

    Returns an ``unbound-rhs-variable`` / ``rule-apply-error`` finding on
    failure, None otherwise.  All callables run against instrumented
    bindings so reads are recorded, and with throwaway contexts so probing
    is effect-free.
    """
    ctx = RuleContext()
    if rule.choices is None:
        expansions = [dict(binding)]
    else:
        expansions = []
        recorded = RecordingBinding(binding, accessed)
        for extra in islice(rule.choices(recorded, ctx), MAX_CHOICES):
            merged = dict(binding)
            merged.update(extra)
            expansions.append(merged)
    for expanded in expansions:
        if rule.guard is not None:
            if not rule.guard(RecordingBinding(expanded, accessed), ctx):
                continue
        enabled_count[rule.name] += 1
        if rule.where is not None:
            # Record the where-clause's reads on a shadow run...
            rule.where(RecordingBinding(expanded, accessed), RuleContext())
        try:
            # ...then apply for real to validate groundness/binding.
            rule.apply(state, expanded, RuleContext())
        except RuleError as err:
            code = (
                "unbound-rhs-variable"
                if "unbound" in str(err) or "non-ground" in str(err)
                else "rule-apply-error"
            )
            return LintFinding(
                code, Severity.ERROR, system, rule.name,
                str(err),
                {"binding": {k: repr(v) for k, v in sorted(expanded.items())},
                 "state": repr(state)},
            )
    return None


def _unused_findings(
    system: str,
    rules: List[Rule],
    enabled_count: Dict[str, int],
    accessed: Dict[str, Set[str]],
) -> List[LintFinding]:
    findings = []
    for rule in rules:
        if enabled_count[rule.name] == 0:
            continue  # never ran its callables; nothing to conclude
        unused = sorted(
            rule.lhs_variables - rule.rhs_variables - accessed[rule.name]
        )
        if unused:
            findings.append(LintFinding(
                "unused-lhs-binding", Severity.WARNING, system, rule.name,
                f"LHS binds {unused} but neither the RHS nor the "
                "guard/where/choices ever use them; bind with Wildcard "
                "instead",
                {"unused": unused},
            ))
    return findings
