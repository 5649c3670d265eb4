"""Chaos harness tests: targeted fault scenarios with bounded recovery,
bit-exact determinism, case generation and serialization, CLI plumbing."""

import subprocess
import sys

import pytest

from repro.aio.chaos import (
    PROFILES,
    ChaosCase,
    ChaosResult,
    chaos_run,
    generate_chaos_case,
    run_chaos_case,
)
from repro.errors import ConfigError


def scenario(**overrides) -> ChaosCase:
    base = dict(seed=11, profile="mixed", n=4, delay=0.01, loss_rate=0.0,
                recovery_window=8.0, requests=[(0.5, 1)], faults=[],
                horizon=20.0, label="handmade")
    base.update(overrides)
    return ChaosCase(**base).validate()


class TestTargetedScenarios:
    def test_holder_crash_mid_handoff_recovers(self):
        # Crash lands at t=1.0 while the token is rotating; requests
        # issued both before and after the crash must still be granted
        # inside the recovery window via census + regeneration.
        case = scenario(
            requests=[(0.8, 1), (1.5, 3)],
            faults=[{"t": 1.0, "op": "crash", "a": 0}],
        )
        result = run_chaos_case(case)
        assert result.ok, (result.violation, result.unrecovered)
        assert result.grants == 2
        assert result.restarts >= 1  # the supervisor repaired node 0
        assert result.violation is None

    def test_partition_parks_minority_then_heals(self):
        # The minority side [3] cannot assemble a quorum: its census must
        # park rather than mint a duplicate token.  After heal_all the
        # parked request is served — zero oracle violations throughout.
        case = scenario(
            n=5,
            requests=[(1.5, 3), (2.0, 1)],
            faults=[
                {"t": 1.0, "op": "partition",
                 "group_a": [3], "group_b": [0, 1, 2, 4]},
                {"t": 3.0, "op": "heal_all"},
            ],
        )
        result = run_chaos_case(case)
        assert result.ok, (result.violation, result.unrecovered)
        assert result.grants == 2
        assert result.violation is None

    def test_unrecoverable_request_is_reported_not_hidden(self):
        # A window too short to survive the crash+regeneration dance must
        # surface as an unrecovered entry, never a silent pass.
        case = scenario(
            recovery_window=0.05,
            requests=[(1.2, 2)],
            faults=[{"t": 1.0, "op": "crash", "a": 0}],
        )
        result = run_chaos_case(case)
        assert not result.ok
        assert result.violation is None  # protocol stayed sound
        assert len(result.unrecovered) == 1
        assert result.unrecovered[0]["node"] == 2

    def test_lossy_link_recovery_with_arq(self):
        # 10 % loss on the cheap class: the ARQ layer must carry the
        # protocol through without giving up on any frame.
        case = scenario(
            loss_rate=0.10,
            requests=[(0.5, 1), (1.0, 2), (1.5, 3)],
            faults=[{"t": 1.2, "op": "crash", "a": 0}],
        )
        result = run_chaos_case(case)
        assert result.ok, (result.violation, result.unrecovered)
        assert result.grants == 3
        assert result.give_ups == 0


class TestDeterminism:
    def test_same_case_same_result(self):
        case = generate_chaos_case(0, 2, "mixed")
        first = run_chaos_case(case)
        second = run_chaos_case(case)
        assert first.checksum == second.checksum
        assert first.ok and second.ok
        assert (first.grants, first.sends, first.restarts) \
            == (second.grants, second.sends, second.restarts)

    #: Literal checksums pin the send stream across commits, not just
    #: within one run.
    PINNED = {
        ("crash", 0): "5d713cd8", ("crash", 1): "40b05acf",
        ("partition", 0): "5516b411", ("partition", 1): "d7c5add5",
        ("mixed", 0): "5d713cd8", ("mixed", 1): "d7c5add5",
        ("corrupt", 0): "5d2d371a", ("corrupt", 1): "9fb6fb7c",
    }

    @pytest.mark.parametrize("profile,index", sorted(PINNED))
    def test_checksum_is_pinned_across_commits(self, profile, index):
        result = run_chaos_case(generate_chaos_case(2001, index, profile))
        assert result.ok, (result.violation, result.unrecovered)
        assert result.checksum == self.PINNED[(profile, index)]

    def test_generation_is_a_pure_function_of_the_triple(self):
        a = generate_chaos_case(7, 3, "crash")
        b = generate_chaos_case(7, 3, "crash")
        assert a == b
        c = generate_chaos_case(7, 4, "crash")
        assert a != c  # sibling index draws a different scenario

    def test_profiles_shape_the_fault_plan(self):
        for index in range(4):
            crash = generate_chaos_case(0, index, "crash")
            assert all(f["op"] == "crash" for f in crash.faults)
            part = generate_chaos_case(0, index, "partition")
            assert {f["op"] for f in part.faults} == {"partition", "heal_all"}


class TestCaseSchema:
    def test_round_trip_through_dict(self):
        case = generate_chaos_case(5, 1, "mixed")
        assert ChaosCase.from_dict(case.to_dict()) == case

    def test_save_load_round_trip_with_outcome(self, tmp_path):
        case = generate_chaos_case(5, 0, "crash")
        outcome = {"ok": True, "checksum": "deadbeef", "grants": 3}
        path = str(tmp_path / "case.json")
        case.save(path, outcome=outcome)
        loaded, recorded = ChaosCase.load(path)
        assert loaded == case
        assert recorded == outcome

    def test_validate_rejects_bad_cases(self):
        with pytest.raises(ConfigError):
            scenario(n=1)
        with pytest.raises(ConfigError):
            scenario(recovery_window=0.0)
        with pytest.raises(ConfigError):
            scenario(requests=[(0.5, 99)])
        with pytest.raises(ConfigError):
            scenario(faults=[{"t": 1.0, "op": "meteor"}])
        with pytest.raises(ConfigError):
            scenario(faults=[{"t": 1.0, "op": "crash", "a": 99}])

    def test_unknown_profile_rejected(self):
        assert PROFILES == ("crash", "partition", "mixed", "corrupt")
        with pytest.raises(ConfigError):
            generate_chaos_case(0, 0, "volcanic")

    def test_outcome_matching(self):
        result = ChaosResult(ok=True, checksum="cafe0001", grants=4)
        assert result.matches({"ok": True, "checksum": "cafe0001"})
        assert not result.matches({"checksum": "00000000"})


class TestChaosLoop:
    def test_chaos_run_summarizes_each_case(self):
        seen = []
        summaries = chaos_run(
            0, 2, "crash",
            on_result=lambda i, case, result: seen.append((i, case.label)))
        assert len(summaries) == 2
        assert [s["index"] for s in summaries] == [0, 1]
        for summary in summaries:
            assert summary["ok"], summary
            assert len(summary["checksum"]) == 8
        assert [i for i, _ in seen] == [0, 1]


class TestCli:
    def test_cli_batch_and_replay(self, tmp_path):
        batch = subprocess.run(
            [sys.executable, "-m", "repro", "chaos",
             "--seed", "0", "--runs", "1", "--profile", "crash",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert batch.returncode == 0, batch.stderr
        assert "1/1 scenarios clean" in batch.stdout
        # Replay a saved case file and check the recorded outcome.
        case = generate_chaos_case(0, 0, "crash")
        result = run_chaos_case(case)
        path = str(tmp_path / "replay.json")
        case.save(path, outcome=result.outcome())
        replay = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--replay", path],
            capture_output=True, text=True)
        assert replay.returncode == 0, replay.stderr
        assert result.checksum in replay.stdout

    def test_replay_reports_an_unrecovered_case(self, tmp_path, capsys):
        # Unrecovered acquires without an oracle violation: the replay
        # line names them instead of reading a missing violation.
        from repro.cli import main

        case = generate_chaos_case(0, 0, "partition").with_(
            recovery_window=0.05)
        result = run_chaos_case(case)
        assert result.violation is None and result.unrecovered
        path = str(tmp_path / "unrecovered.json")
        case.save(path, outcome=result.outcome())
        assert main(["chaos", "--replay", path]) == 0
        out = capsys.readouterr().out
        assert f"FAILED unrecovered={len(result.unrecovered)}" in out
        assert "recorded outcome reproduced exactly" in out
