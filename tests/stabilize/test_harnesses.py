"""Corruption across the real-time surfaces: the asyncio chaos harness's
``corrupt`` profile and the wire smoke's fault validation."""

import pytest

from repro.aio.chaos import ChaosCase, generate_chaos_case, run_chaos_case
from repro.errors import ConfigError, FuzzCaseError
from repro.faults.vocabulary import check_faults, wire_ops
from repro.wire.smoke import run_wire_smoke


def _validate_faults(faults, n, protocol):
    check_faults(faults, n, wire_ops(protocol))


class TestChaosCorrupt:
    def test_generated_corrupt_case_targets_the_stabilizing_core(self):
        case = generate_chaos_case(3, 0, "corrupt")
        assert case.protocol == "stabilizing"
        assert any(f["op"] == "corrupt" for f in case.faults)

    def test_corrupt_scenario_converges(self):
        case = ChaosCase(
            seed=5, profile="corrupt", n=4, delay=0.01, loss_rate=0.0,
            recovery_window=8.0, protocol="stabilizing",
            requests=[(0.5, 1), (1.5, 3), (3.0, 2)],
            faults=[{"t": 1.0, "op": "corrupt", "a": 2,
                     "what": "duplicate_token", "arg": 11},
                    {"t": 2.0, "op": "corrupt", "a": 0,
                     "what": "scramble_stamp", "arg": 4}],
            horizon=12.0, label="handmade-corrupt").validate()
        result = run_chaos_case(case)
        assert result.ok, (result.violation, result.unrecovered)
        assert result.grants == 3
        assert result.violation is None

    def test_corrupt_fault_demands_the_stabilizing_protocol(self):
        with pytest.raises(ConfigError):
            ChaosCase(
                seed=5, profile="corrupt", n=4, delay=0.01, loss_rate=0.0,
                recovery_window=8.0, protocol="fault_tolerant",
                requests=[(0.5, 1)],
                faults=[{"t": 1.0, "op": "corrupt", "a": 2,
                         "what": "duplicate_token", "arg": 11}],
                horizon=10.0, label="bad").validate()

    @pytest.mark.parametrize("fault", [
        {"t": 1.0, "op": "partition", "group_a": [0], "group_b": [9]},
        {"t": 1.0, "op": "heal", "a": 0},
    ], ids=["partition-node-out-of-range", "heal-missing-b"])
    def test_malformed_fault_rejected_with_a_type(self, fault):
        with pytest.raises(FuzzCaseError):
            ChaosCase(
                seed=5, profile="mixed", n=4, delay=0.01, loss_rate=0.0,
                recovery_window=8.0, requests=[(0.5, 1)], faults=[fault],
                horizon=10.0, label="bad").validate()

    def test_unknown_corruption_kind_rejected(self):
        with pytest.raises(ConfigError):
            ChaosCase(
                seed=5, profile="corrupt", n=4, delay=0.01, loss_rate=0.0,
                recovery_window=8.0, protocol="stabilizing",
                requests=[(0.5, 1)],
                faults=[{"t": 1.0, "op": "corrupt", "a": 2,
                         "what": "bit_rot", "arg": 11}],
                horizon=10.0, label="bad").validate()


class TestWireValidation:
    def test_corrupt_fault_accepted_on_stabilizing(self):
        _validate_faults(
            [{"t": 1.0, "op": "corrupt", "a": 0,
              "what": "delete_token", "arg": 3}],
            n=3, protocol="stabilizing")

    def test_corrupt_fault_rejected_elsewhere(self):
        with pytest.raises(ConfigError):
            _validate_faults(
                [{"t": 1.0, "op": "corrupt", "a": 0,
                  "what": "delete_token", "arg": 3}],
                n=3, protocol="fault_tolerant")

    def test_bad_victim_rejected(self):
        with pytest.raises(ConfigError):
            _validate_faults(
                [{"t": 1.0, "op": "corrupt", "a": 9,
                  "what": "delete_token", "arg": 3}],
                n=3, protocol="stabilizing")

    def test_heal_missing_b_rejected_before_any_socket(self, monkeypatch):
        monkeypatch.setattr("repro.wire.smoke._run", None)  # never reached
        with pytest.raises(FuzzCaseError):
            run_wire_smoke(n=3, ops=10,
                           faults=[{"t": 0.01, "op": "heal", "a": 0}])
