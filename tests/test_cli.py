"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.datasets import running_example
from repro.ontology import turtle


@pytest.fixture()
def query_file(tmp_path):
    path = tmp_path / "query.oql"
    path.write_text(running_example.FRAGMENT_QUERY)
    return str(path)


@pytest.fixture()
def ontology_file(tmp_path):
    ontology = running_example.build_ontology()
    path = tmp_path / "onto.ttl"
    turtle.dump(ontology, path)
    return str(path)


class TestParseCommand:
    def test_parse_pretty_prints(self, query_file, capsys):
        assert main(["parse", query_file]) == 0
        out = capsys.readouterr().out
        assert "SELECT FACT-SETS" in out
        assert "WITH SUPPORT" in out

    def test_parse_with_ontology_ok(self, query_file, ontology_file, capsys):
        assert main(["parse", query_file, "--ontology", ontology_file]) == 0

    def test_parse_reports_problems(self, tmp_path, ontology_file, capsys):
        bad = tmp_path / "bad.oql"
        bad.write_text(
            "SELECT FACT-SETS WHERE $x inside Paris "
            "SATISFYING $x doAt NYC WITH SUPPORT = 0.3"
        )
        assert main(["parse", str(bad), "--ontology", ontology_file]) == 1
        assert "Paris" in capsys.readouterr().err


class TestDomainsCommand:
    def test_lists_domains(self, capsys):
        assert main(["domains"]) == 0
        out = capsys.readouterr().out
        assert "travel" in out
        assert "culinary" in out
        assert "health" in out
        assert "demo" in out


class TestRunCommand:
    def test_run_requires_target(self, capsys):
        assert main(["run"]) == 2

    def test_run_domain(self, capsys):
        code = main(
            ["run", "--domain", "health", "--crowd-size", "10",
             "--threshold", "0.3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "question(s) asked" in out

    def test_run_demo_domain(self, capsys):
        assert main(["run", "--domain", "demo"]) == 0
        assert "question(s) asked" in capsys.readouterr().out

    def test_counters_independent_of_hash_seed(self, tmp_path):
        src = str(Path(repro.__file__).resolve().parents[1])
        counters = []
        for hash_seed in ("0", "1"):
            stats = tmp_path / f"stats-{hash_seed}.json"
            subprocess.run(
                [sys.executable, "-m", "repro", "run", "--domain", "travel",
                 "--threshold", "0.5", "--crowd-size", "6",
                 "--stats-json", str(stats)],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
                capture_output=True,
                check=True,
            )
            counters.append(json.loads(stats.read_text())["counters"])
        assert counters[0]["tid_index.witness.hits"] > 0
        assert counters[0] == counters[1]

    def test_run_custom_single_user(self, tmp_path, ontology_file, capsys):
        query = tmp_path / "q.oql"
        query.write_text(running_example.FRAGMENT_QUERY)
        history = tmp_path / "history.txt"
        history.write_text(
            "# my outings\n"
            "Biking doAt Central Park\n"
            "Biking doAt Central Park. Basketball doAt Central Park\n"
            "Basketball doAt Central Park\n"
        )
        code = main(
            ["run", "--ontology", ontology_file, "--query", str(query),
             "--history", str(history)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Biking doAt Central Park" in out

    def test_run_custom_without_history_fails(self, tmp_path, ontology_file, capsys):
        query = tmp_path / "q.oql"
        query.write_text(running_example.FRAGMENT_QUERY)
        assert main(
            ["run", "--ontology", ontology_file, "--query", str(query)]
        ) == 2


class TestServeSimCommand:
    ARGS = [
        "serve-sim", "--sessions", "2",
        "--crowd-size", "3", "--drop-every", "0", "--departures", "0",
    ]

    def test_serve_sim_text_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "2 session(s), in-process loop" in out
        assert "serial MSP check: identical" in out

    def test_serve_sim_json_report(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is True
        assert report["timed_out"] is False
        assert len(report["sessions"]) == 2

    def test_serve_sim_no_verify_skips_oracle(self, capsys):
        assert main(self.ARGS + ["--no-verify", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "verified" not in report

    def test_serve_sim_unknown_domain_errors(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGS + ["--domain", "bogus"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_serve_sim_shards_runs_the_fleet(self, capsys):
        assert main(["serve-sim", "--shards", "1", "--sessions", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["shards"] == 1
        assert report["verified"] is True


class TestChaosCommand:
    def test_one_campaign_runs_every_scenario(self, capsys):
        assert main(["chaos", "--seeds", "0", "--sessions", "2", "--json"]) == 0
        campaign = json.loads(capsys.readouterr().out)
        assert campaign["ok"] is True
        (run,) = campaign["runs"]
        assert set(run["scenarios"]) == {
            "session", "gateway", "client", "shard", "coordinator",
        }

    @pytest.mark.parametrize(
        "retired", [["--shards", "3"], ["--total"], ["--after-nodes", "5"]]
    )
    def test_retired_flags_are_usage_errors(self, retired, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--seeds", "0"] + retired)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["run", "chaos", "gateway"])
    def test_unknown_domain_is_a_usage_error(self, command, capsys):
        # serve-sim's case is TestServeSimCommand's
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--domain", "bogus"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve-sim", "chaos"])
    def test_config_file_is_a_usage_error(self, command, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"v": 1}')
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--sessions", "1", "--config", str(config)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "--domain", "demo", "--crowd-size", "4"],
             "--crowd-size must be at least 5"),
            (["serve-sim", "--crowd-size", "2", "--sample-size", "3"],
             "need 1 <= sample_size <= crowd_size"),
            (["gateway", "--crowd-size", "2", "--sample-size", "3"],
             "need 1 <= sample_size <= crowd_size"),
            # the chaos harness quarantines one member and loses another
            (["chaos", "--crowd-size", "4", "--sample-size", "3"],
             "crowd_size - 2 must be >= sample_size"),
        ],
        ids=["run", "serve-sim", "gateway", "chaos"],
    )
    def test_sample_larger_than_the_crowd_is_a_usage_error(self, argv, message, capsys):
        # such a run asks questions that can never settle a node
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestLintCommand:
    @pytest.fixture()
    def dirty(self, tmp_path):
        # a wall-clock read in a module the determinism rules police
        target = tmp_path / "repro" / "mining" / "dirty.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\nt = time.time()\n")
        return str(target)

    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_dirty_file_exits_one(self, dirty, capsys):
        assert main(["lint", dirty]) == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out

    def test_lint_json_output(self, dirty, capsys):
        assert main(["lint", dirty, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == 1
        assert report["findings"][0]["rule"] == "wall-clock"

    def test_lint_rule_selection(self, dirty, capsys):
        assert main(["lint", dirty, "--rules", "unseeded-random"]) == 0

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "tracer-name" in out
        assert "version-stamp" in out

    def test_lint_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent")]) == 2

    def test_lint_help_is_the_lint_parsers_help(self, capsys):
        from repro.analysis.lint import main as lint_main

        with pytest.raises(SystemExit) as exited:
            main(["lint", "--help"])
        assert exited.value.code == 0
        via_cli = capsys.readouterr().out
        with pytest.raises(SystemExit):
            lint_main(["--help"])
        assert via_cli == capsys.readouterr().out
        assert "--explain" in via_cli
