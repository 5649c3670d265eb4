"""CLI tests (invoked in-process through ``repro.cli.main``)."""

import pytest

from repro.cli import main


class TestSimulate:
    def test_default_run(self, capsys):
        assert main(["simulate", "-n", "16", "--rounds", "30"]) == 0
        out = capsys.readouterr().out
        assert "binary_search" in out
        assert "avg_responsiveness" in out

    def test_protocol_choice(self, capsys):
        assert main(["simulate", "--protocol", "ring", "-n", "8",
                     "--rounds", "20"]) == 0
        assert "ring" in capsys.readouterr().out

    def test_gc_and_pause_flags(self, capsys):
        assert main(["simulate", "-n", "8", "--rounds", "20",
                     "--trap-gc", "none", "--idle-pause", "2.0"]) == 0

    def test_invalid_protocol_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--protocol", "bogus"])


class TestCompare:
    def test_prints_both_protocols(self, capsys):
        assert main(["compare", "-n", "32", "--mean-interval", "50",
                     "--rounds", "40"]) == 0
        out = capsys.readouterr().out
        assert "ring" in out and "binary_search" in out
        assert "log2(n)" in out


class TestFigures:
    def test_figure9_runs_small(self, capsys, monkeypatch):
        import repro.cli as cli

        def tiny(rounds, seed, jobs=None):
            from repro.analysis.experiments import run_figure9
            return run_figure9(sizes=(8, 16), rounds=20, seed=seed,
                               jobs=jobs)

        monkeypatch.setattr(cli, "run_figure9", tiny)
        assert main(["figure9", "--rounds", "20"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out

    def test_figure10_runs_small(self, capsys, monkeypatch):
        import repro.cli as cli

        def tiny(n, rounds, seed, jobs=None):
            from repro.analysis.experiments import run_figure10
            return run_figure10(intervals=(5, 50), n=16, rounds=20,
                                seed=seed, jobs=jobs)

        monkeypatch.setattr(cli, "run_figure10", tiny)
        assert main(["figure10", "-n", "16", "--rounds", "20"]) == 0
        assert "Figure 10" in capsys.readouterr().out


class TestRefinement:
    def test_chain_verifies(self, capsys):
        assert main(["refinement", "-n", "3", "--steps", "60"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "  S1 -> S (Lemma 1)            OK (60 steps, 33 simulated)",
            "  Token -> S1 (Lemma 2)        OK (60 steps, 51 simulated)",
            "  MP -> S1 (Lemma 3)           OK (60 steps, 53 simulated)",
            "  Search -> S1                 OK (60 steps, 18 simulated)",
            "  BinarySearch -> S1 (Thm 1)   OK (60 steps, 46 simulated)",
            "refinement chain verified",
        ]

    def test_module_entry_point_exists(self):
        import repro.__main__  # noqa: F401 — importable means runnable


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestReport:
    def test_report_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert main(["report", "--rounds", "20", "--seeds", "1", "2",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "# repro" in text
        assert "Figure 9" in text and "Figure 10" in text
        assert "±" in text
        assert "wrote" in capsys.readouterr().out


@pytest.fixture(scope="module")
def bench_doc():
    """One ``bench.collect(rounds=2)`` shared by the tests that run the
    whole suite through the CLI."""
    from repro.analysis import bench

    return bench.collect(rounds=2)


@pytest.fixture
def memo_collect(bench_doc, monkeypatch):
    import copy

    from repro.analysis import bench

    def collect(rounds=40, trace_memory=False):
        assert (rounds, trace_memory) == (2, False)
        return copy.deepcopy(bench_doc)

    monkeypatch.setattr(bench, "collect", collect)


class TestBench:
    @pytest.mark.usefixtures("memo_collect")
    def test_bench_writes_and_validates_baseline(self, tmp_path, capsys):
        assert main(["bench", "--rounds", "2", "--out", str(tmp_path)]) == 0
        baselines = list(tmp_path.glob("BENCH_*.json"))
        assert len(baselines) == 1
        out = capsys.readouterr().out
        assert "des_cluster_64" in out

        assert main(["bench", "--validate", str(baselines[0])]) == 0
        assert "valid" in capsys.readouterr().out

    @pytest.mark.usefixtures("memo_collect")
    def test_bench_json_mode(self, tmp_path, capsys):
        import json

        assert main(["bench", "--rounds", "2", "--out", str(tmp_path),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-bench/1"
        assert {r["name"] for r in doc["results"]} >= {
            "des_cluster_64", "kernel_timer_churn"}

    def test_validate_rejects_schema_drift(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text('{"schema": "repro-bench/999", "results": []}')
        assert main(["bench", "--validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err
