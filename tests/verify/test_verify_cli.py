"""The ``repro verify`` command (invoked in-process through the CLI)."""

import glob
import json
import os

from repro.cli import main
from repro.verify import cutoff

VERDICT_DIR = os.path.abspath(os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "verdicts"))


def _run_json(capsys, *argv):
    code = main(["verify", *argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


class _Counted:
    """Record every call of the exploration passes ``certify`` makes."""

    def __init__(self, monkeypatch):
        self.graphs, self.dpor, self.diamonds = [], [], []
        for name, sink in (("explore_graph", self.graphs),
                           ("explore_dpor", self.dpor),
                           ("validate_relation", self.diamonds)):
            monkeypatch.setattr(cutoff, name,
                                self._wrap(getattr(cutoff, name), sink))

    @staticmethod
    def _wrap(fn, sink):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result
        return counted


class TestVerifyRun:
    def test_each_ring_size_explored_once(self, monkeypatch, capsys):
        counted = _Counted(monkeypatch)
        code, report = _run_json(capsys, "--system", "message_passing")
        assert code == 0
        verdicts = report["verdicts"]
        assert [v["property"] for v in verdicts] == [
            "prefix-property", "token-uniqueness"]
        runs = verdicts[0]["runs"]
        assert [r["n"] for r in runs] == [2, 3, 4]
        assert [len(g.states) for g in counted.graphs] == [
            r["states"] for r in runs]
        assert [d.executed for d in counted.dpor] == [
            r["executed"] for r in runs]
        assert len(counted.diamonds) == 3
        for verdict in verdicts:
            assert verdict["result"] == "verified"
            assert verdict["runs"] == [dict(r, holds=True) for r in runs]
            assert verdict["independence"]["diamond_checks"] == sum(
                checks for _, checks in counted.diamonds)

    def test_self_check_is_the_default_n_run(self, monkeypatch, capsys):
        counted = _Counted(monkeypatch)
        _, report = _run_json(capsys, "--system", "message_passing")
        n3 = report["verdicts"][0]["runs"][1]
        assert n3["n"] == 3
        dpor = report["dpor_self_check"]
        assert dpor["exact"] and dpor["missing"] == dpor["extra"] == 0
        assert (dpor["full_states"], dpor["full_transitions"],
                dpor["dpor_executed"]) == (
            n3["states"], n3["transitions"], n3["executed"])
        violations, checks = counted.diamonds[1]
        assert report["diamond"] == {"checks": checks,
                                     "violations": len(violations)}

    def test_token_matches_committed_verdict(self, capsys):
        _, report = _run_json(capsys, "--system", "token")
        with open(os.path.join(VERDICT_DIR,
                               "token__prefix-property.json")) as fh:
            committed = json.load(fh)
        (verdict,) = report["verdicts"]
        for key in ("runs", "independence", "signature"):
            assert verdict[key] == committed[key]

    def test_unusable_property_keeps_its_place(self, capsys):
        code, report = _run_json(capsys, "--system", "message_passing",
                                 "--property", "liveness",
                                 "--property", "token-uniqueness",
                                 "--strict")
        assert code == 1
        first, second = report["verdicts"]
        assert first["property"] == "liveness"
        assert "unknown property" in first["error"]
        assert second["property"] == "token-uniqueness"
        assert second["result"] == "verified"

    def test_non_ring_system_self_checks_alone(self, monkeypatch, capsys):
        counted = _Counted(monkeypatch)
        code, report = _run_json(capsys, "--system", "s1")
        assert code == 0
        assert "not a token-passing ring" in report["verdicts"][0]["error"]
        assert len(counted.graphs) == len(counted.dpor) == 1
        assert report["dpor_self_check"]["full_states"] == len(
            counted.graphs[0].states)
        assert report["dpor_self_check"]["exact"]


class TestVerifyCheck:
    def test_recompute_all_committed_verdicts(self, monkeypatch, capsys):
        calls = []
        real = cutoff.certify_system

        def counting(key, names, *args, **kwargs):
            calls.append(key)
            return real(key, names, *args, **kwargs)

        monkeypatch.setattr(cutoff, "certify_system", counting)
        paths = sorted(glob.glob(os.path.join(VERDICT_DIR, "*.json")))
        assert len(paths) == 4
        code, reports = _run_json(capsys, *[a for p in paths
                                            for a in ("--check", p)],
                                  "--recompute")
        assert code == 0
        assert sorted(calls) == ["binary_search", "token"]
        assert [r["path"] for r in reports] == paths
        assert all(r["signature"] == "ok" and r["recompute"] == "ok"
                   for r in reports)
