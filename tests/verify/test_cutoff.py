"""Cutoff certification and verdict artifacts (repro.verify.cutoff)."""

import copy
import dataclasses
import glob
import json
import os

import pytest

from repro.errors import VerifyError
from repro.specs.modelcheck import explore
from repro.trs.engine import Rewriter
from repro.verify import cutoff, get_system
from repro.verify.cutoff import (CUTOFFS, SCHEMA, TOPOLOGY, certify,
                                 certify_system, check_verdict,
                                 check_verdicts, load_verdict, sign,
                                 verify_signature, write_verdict)

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
VERDICT_DIR = os.path.abspath(os.path.join(REPO_ROOT, "benchmarks",
                                           "verdicts"))


@pytest.fixture(scope="module")
def bs_prefix_verdict():
    return certify("binary_search", "prefix-property")


class TestCertify:
    def test_binary_search_prefix_property(self, bs_prefix_verdict):
        verdict = bs_prefix_verdict
        assert verdict["schema"] == SCHEMA
        assert verdict["topology"] == TOPOLOGY
        assert verdict["cutoff"] == CUTOFFS[2] == 4
        assert [r["n"] for r in verdict["runs"]] == [2, 3, 4]
        for run in verdict["runs"]:
            assert run["complete"] and run["exact"] and run["holds"]
            assert 0 < run["executed"] <= run["transitions"]
        assert verdict["result"] == "verified"
        assert verdict["independence"]["diamond_violations"] == 0
        assert verdict["independence"]["diamond_checks"] > 0

    def test_pinned_counts_binary_search(self, bs_prefix_verdict):
        # Behaviour checksum over the whole verify stack: footprints,
        # instance keys, sleep sets, and the bounded rule sets all feed
        # these numbers.
        counts = [(r["n"], r["states"], r["transitions"])
                  for r in bs_prefix_verdict["runs"]]
        assert counts == [(2, 400, 632), (3, 317, 506), (4, 874, 1479)]

    def test_signature_round_trip(self, bs_prefix_verdict):
        assert verify_signature(bs_prefix_verdict)
        assert bs_prefix_verdict["signature"] == sign(bs_prefix_verdict)

    def test_volatile_keys_do_not_affect_signature(self, bs_prefix_verdict):
        clone = dict(bs_prefix_verdict, created_utc="1970-01-01T00:00:00Z",
                     commit="deadbeef")
        assert verify_signature(clone)

    def test_tampering_breaks_signature(self, bs_prefix_verdict):
        tampered = copy.deepcopy(bs_prefix_verdict)
        tampered["runs"][0]["states"] += 1
        assert not verify_signature(tampered)

    def test_non_ring_system_rejected(self):
        with pytest.raises(VerifyError, match="ring"):
            certify("s1", "prefix-property")

    def test_unknown_property_rejected(self):
        with pytest.raises(VerifyError, match="unknown property"):
            certify("binary_search", "liveness")

    def test_inapplicable_property_rejected(self):
        with pytest.raises(VerifyError, match="not applicable"):
            certify("token", "token-uniqueness")


class TestRecordedBounds:
    def test_recorded_bounds_drive_the_exploration(self):
        # A verdict's ``bounds`` is the bound set its exploration applied:
        # lowering the recorded visit limit shrinks the explored space.
        system = get_system("binary_search")
        tighter = dataclasses.replace(
            system, bounds=dict(system.bounds, visit_limit=3))

        def reached(entry):
            rewriter = Rewriter(entry.bounded(3))
            return explore(rewriter, entry.initial(3), []).states

        assert reached(tighter) < reached(system)


def _signed_body(verdict):
    return {k: v for k, v in verdict.items() if k != "created_utc"}


class TestCertifySystem:
    def test_one_pass_per_size_for_all_properties(self, monkeypatch):
        explored = []
        real = cutoff.explore_graph

        def counting(rewriter, initial, max_states):
            graph = real(rewriter, initial, max_states=max_states)
            explored.append(len(graph.states))
            return graph

        monkeypatch.setattr(cutoff, "explore_graph", counting)
        names = ["prefix-property", "token-uniqueness"]
        together = certify_system("message_passing", names)
        assert explored == [20, 32, 44]  # n = 2, 3, 4, once each
        monkeypatch.undo()
        for name, verdict in zip(names, together):
            assert verdict["property"] == name
            alone = certify("message_passing", name)
            assert _signed_body(verdict) == _signed_body(alone)

    def test_errors_raise_before_exploring(self, monkeypatch):
        monkeypatch.setattr(cutoff, "explore_graph", None)
        with pytest.raises(VerifyError, match="unknown property"):
            certify_system("message_passing",
                           ["prefix-property", "liveness"])


class TestVerdictFiles:
    def test_write_load_check_round_trip(self, bs_prefix_verdict, tmp_path):
        path = write_verdict(bs_prefix_verdict, str(tmp_path))
        assert os.path.basename(path) == "binary_search__prefix-property.json"
        assert load_verdict(path) == bs_prefix_verdict
        report = check_verdict(path)
        assert report["signature"] == "ok"
        assert report["result"] == "verified"

    def test_check_rejects_edited_artifact(self, bs_prefix_verdict, tmp_path):
        path = write_verdict(bs_prefix_verdict, str(tmp_path))
        data = json.load(open(path))
        data["result"] = "inconclusive"
        with open(path, "w") as fh:
            json.dump(data, fh)
        with pytest.raises(VerifyError, match="signature"):
            check_verdict(path)

    def test_check_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"schema": "something/else"}')
        with pytest.raises(VerifyError, match="verdict artifact"):
            check_verdict(str(path))


class TestCheckVerdicts:
    def test_one_report_per_path_in_order(self, bs_prefix_verdict,
                                          tmp_path):
        good = write_verdict(bs_prefix_verdict, str(tmp_path / "good"))
        tampered = copy.deepcopy(bs_prefix_verdict)
        tampered["result"] = "inconclusive"
        bad = write_verdict(tampered, str(tmp_path / "bad"))
        missing = str(tmp_path / "missing.json")
        reports = check_verdicts([good, missing, bad])
        assert [r["path"] for r in reports] == [good, missing, bad]
        assert reports[0] == {"path": good, "signature": "ok",
                              "result": "verified"}
        assert "error" in reports[1]
        assert "signature" in reports[2]["error"]

    def test_recompute_once_per_system(self, monkeypatch, tmp_path):
        committed = os.path.join(VERDICT_DIR, "token__prefix-property.json")
        drifted = load_verdict(committed)
        drifted["runs"][0]["states"] += 1
        drifted["signature"] = sign(drifted)
        stale = write_verdict(drifted, str(tmp_path))
        calls = []
        real = cutoff.certify_system

        def counting(key, names, *args, **kwargs):
            calls.append((key, list(names)))
            return real(key, names, *args, **kwargs)

        monkeypatch.setattr(cutoff, "certify_system", counting)
        reports = check_verdicts([stale, committed], recompute=True)
        assert calls == [("token", ["prefix-property"])]
        assert "diverged on 'runs'" in reports[0]["error"]
        assert reports[1]["recompute"] == "ok"


class TestCommittedArtifacts:
    """The artifacts under benchmarks/verdicts/ are part of the repo's
    behaviour baseline; CI replays them with --check."""

    def test_committed_artifacts_exist(self):
        paths = glob.glob(os.path.join(VERDICT_DIR, "*.json"))
        names = {os.path.basename(p) for p in paths}
        assert "binary_search__prefix-property.json" in names
        assert "binary_search__token-uniqueness.json" in names
        assert "binary_search__search-direction.json" in names
        assert "token__prefix-property.json" in names

    def test_committed_artifacts_pass_integrity(self):
        for path in glob.glob(os.path.join(VERDICT_DIR, "*.json")):
            report = check_verdict(path)
            assert report["signature"] == "ok"
            assert report["result"] == "verified"

    def test_committed_binary_search_matches_recomputation(
            self, bs_prefix_verdict):
        path = os.path.join(VERDICT_DIR,
                            "binary_search__prefix-property.json")
        committed = load_verdict(path)
        for key in ("cutoff", "runs", "result", "independence", "bounds"):
            assert committed[key] == bs_prefix_verdict[key]
