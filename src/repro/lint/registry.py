"""The full ``repro lint`` pass schedule over the refinement chain.

The systems linted are the rows of :data:`repro.specs.chain.CHAIN` (the
paper's chain S → S1 → Token → MP → Search → BinarySearch).  Per row,
:func:`run_static` reads:

- ``lint_n`` and ``lint_bounds``: the size and the Section-4 guard
  narrowings of the state sample, so every sampled state is genuine;
- ``expected_idle``: rules provably never enabled under those bounds,
  with the justification recorded in the report instead of a
  ``never-enabled`` warning;
- ``rules(lint_n, False)``: the coarse parent over the same state space,
  for the restriction differential;
- ``edge``: the refinement mapping and the parent row whose coarse rules
  the cross-system simulation check runs against.

:func:`run_dynamic` drives each executable protocol core under a
:class:`~repro.lint.sanitizer.ClusterSanitizer` for a short sanitized
simulation.  Both append to a shared
:class:`~repro.lint.findings.LintReport` — the backing store of the
``repro lint`` CLI.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.lint.findings import LintFinding, LintReport, Severity
from repro.lint.refinement import check_restriction, check_simulation
from repro.lint.rules import lint_rules, overlap_pairs
from repro.specs.chain import CHAIN
from repro.specs.modelcheck import apply_bounds, sample_states
from repro.trs.engine import Rewriter
from repro.trs.rules import RuleContext, RuleSet
from repro.trs.terms import Term

__all__ = ["run_static", "run_dynamic", "run_all"]


def _filter_expected_idle(
    findings: List[LintFinding],
    expected: Dict[str, str],
    report: LintReport,
    system: str,
) -> List[LintFinding]:
    kept = []
    for finding in findings:
        if finding.code == "never-enabled" and finding.rule in expected:
            report.record_pass(
                "expected-idle", system,
                rule=finding.rule, justification=expected[finding.rule])
            continue
        kept.append(finding)
    return kept


def _run_independence(
    report: LintReport,
    system: str,
    rules: RuleSet,
    states: List[Term],
) -> None:
    """Independence-analysis pass: build the rule-pair independence
    relation, flag rules whose opaque callables make the static footprint
    an under-approximation (INFO — the verifier discharges the ambiguity
    dynamically via diamond validation), and record the relation summary.
    """
    from repro.errors import VerifyError
    from repro.lint.findings import Severity as _Sev
    from repro.verify.independence import IndependenceRelation

    try:
        relation = IndependenceRelation(rules, probe_states=states[:8])
    except VerifyError as exc:
        report.add(LintFinding(
            "footprint-extraction-failed", _Sev.ERROR, system, None,
            str(exc)))
        return
    for rule_name, reasons in relation.ambiguous_rules().items():
        probed = sorted(relation.callable_reads.get(rule_name, ()))
        report.add(LintFinding(
            "ambiguous-footprint", _Sev.INFO, system, rule_name,
            f"opaque {', '.join(reasons)} may read components beyond the "
            f"matched patterns; independence claims involving this rule "
            f"are discharged by diamond validation, not trusted statically",
            details={"reasons": list(reasons),
                     "probed_component_reads": probed}))
    summary = relation.summary()
    report.record_pass(
        "independence", system,
        pairs=summary["pairs"],
        independent=summary["independent"],
        conditional=summary["conditional"],
        ambiguous_rules=summary["ambiguous_rules"])


def run_static(
    report: LintReport,
    max_states: int = 300,
    only: Optional[List[str]] = None,
) -> None:
    """Rule lint + restriction differential + simulation check, per system."""
    for system in CHAIN:
        if only and system.name not in only:
            continue
        name, n = system.name, system.lint_n
        bounded = apply_bounds(system.rules(n, True), system.lint_bounds)
        states = sample_states(
            bounded, system.initial(n), max_states=max_states)
        rules = system.rules(n, True)
        findings = lint_rules(name, rules, states)
        findings = _filter_expected_idle(
            findings, system.expected_idle, report, name)
        report.extend(findings)
        report.record_pass(
            "rule-lint", name,
            rules=len(list(rules)), sampled_states=len(states),
            overlapping_pairs=len(overlap_pairs(rules)))

        _run_independence(report, name, rules, states)

        edge = system.edge
        mapping = edge.mapping if edge else None
        rest_findings, classification = check_restriction(
            name, list(rules), system.rules(n, False), states,
            mapping=mapping)
        report.extend(rest_findings)
        report.record_pass(
            "restriction", name, classification=classification)

        if edge is not None:
            fine = Rewriter(bounded, RuleContext())
            coarse_rw = Rewriter(edge.parent.rules(n, False), RuleContext())
            # The simulation walk is quadratic in sample size; a modest
            # prefix of the BFS order covers every rule.
            sim_states = states[: max(40, max_states // 4)]
            sim_findings, classification = check_simulation(
                name, fine, sim_states, edge.mapping, coarse_rw,
                max_depth=edge.depth)
            report.extend(sim_findings)
            report.record_pass(
                "simulation", name,
                sampled_states=len(sim_states),
                classification=classification)


def run_dynamic(
    report: LintReport,
    protocols: Optional[Sequence[str]] = None,
    n: int = 5,
    rounds: int = 3,
) -> None:
    """Sanitized short simulation of every executable protocol core
    (``protocols`` defaults to all of
    :data:`~repro.core.cluster.PROTOCOLS`)."""
    from repro.core.cluster import PROTOCOLS, Cluster
    from repro.lint.findings import LintViolation
    from repro.workload.generators import FixedRateWorkload

    if protocols is None:
        protocols = PROTOCOLS
    for protocol in protocols:
        cluster = Cluster.build(protocol, n=n, seed=7, sanitize=True)
        cluster.add_workload(FixedRateWorkload(mean_interval=8.0))
        try:
            cluster.run(rounds=rounds, max_events=50_000)
        except LintViolation as violation:
            report.add(LintFinding(
                "sanitizer-violation", Severity.ERROR, protocol,
                violation.rule, str(violation),
                violation.to_dict()))
            continue
        report.record_pass(
            "sanitized-sim", protocol,
            events_checked=cluster.sanitizer.checked if cluster.sanitizer else 0,
            rounds=cluster.rounds,
            grants=cluster.responsiveness.grants())


def run_all(
    max_states: int = 300,
    include_dynamic: bool = True,
    only: Optional[List[str]] = None,
) -> LintReport:
    """The full analyzer: every static pass, then the dynamic pass."""
    report = LintReport()
    run_static(report, max_states=max_states, only=only)
    if include_dynamic and not only:
        run_dynamic(report)
    return report
