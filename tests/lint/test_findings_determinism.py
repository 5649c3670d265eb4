"""Byte-determinism of the ``repro lint --json`` report."""

import os

from repro.lint.findings import LintFinding, LintReport, Severity

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_report.json")


def _finding(code, system, rule, message):
    return LintFinding(code, Severity.WARNING, system, rule, message,
                       details={"b": 2, "a": 1})


class TestReportDeterminism:
    def test_insertion_order_does_not_leak_into_json(self):
        items = [
            _finding("guard-widening", "Token", "2", "guard widened"),
            _finding("shadowed-rule", "BS", "7", "shadowed by 7s"),
            _finding("guard-widening", "BS", "1", "guard widened"),
            _finding("never-enabled", "BS", None, "rule idle"),
        ]
        forward, backward = LintReport(), LintReport()
        forward.extend(items)
        forward.record_pass("rule-lint", "Token", rules=2)
        forward.record_pass("independence", "BS", pairs=66)
        backward.extend(list(reversed(items)))
        backward.record_pass("independence", "BS", pairs=66)
        backward.record_pass("rule-lint", "Token", rules=2)
        assert forward.to_json() == backward.to_json()

    def test_findings_sorted_by_stable_key(self):
        report = LintReport()
        report.add(_finding("z-code", "B", "1", "zzz"))
        report.add(_finding("a-code", "B", None, "aaa"))
        report.add(_finding("a-code", "A", "9", "mmm"))
        ordered = report.to_dict()["findings"]
        keys = [(f["system"], f["code"], f["rule"] or "", f["message"])
                for f in ordered]
        assert keys == sorted(keys)

    def test_registry_run_is_byte_deterministic(self):
        from repro.lint.registry import run_all

        first = run_all(max_states=60, include_dynamic=False, only=["S1"])
        second = run_all(max_states=60, include_dynamic=False, only=["S1"])
        assert first.to_json() == second.to_json()

    def test_full_report_matches_golden(self):
        # The default ``repro lint --json`` report, pinned byte for byte:
        # every sampled state count, restriction and simulation verdict
        # and independence summary of the six chain systems, plus the
        # sanitized simulations.
        from repro.lint.registry import run_all

        with open(GOLDEN, encoding="utf-8") as handle:
            assert run_all().to_json() + "\n" == handle.read()
