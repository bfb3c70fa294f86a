"""Fixture-based tests for the project-invariant linter.

Each rule gets a seeded violation (written under ``tmp_path`` with a
path that mimics the real ``repro/...`` layout, since the project rules
key on module suffixes) and a clean counterpart that must stay silent.
The merged source tree itself is also linted and must be clean.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import lint_file, main, run_lint
from repro.analysis.rules import ALL_RULES, RULES_BY_ID

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: a one-finding "dirty file" once written under ``repro/mining/``
WALL_CLOCK = "import time\nt = time.time()\n"


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def lint(tmp_path, *rules):
    return run_lint([str(tmp_path)], rule_ids=sorted(rules) or None)


def rule_ids(result):
    return [finding.rule for finding in result.findings]


class TestVersionStampRule:
    HEADER = "class PartialOrder:\n"

    def test_mutation_without_stamp_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/vocabulary/orders.py",
            self.HEADER
            + "    def add_edge(self, a, b):\n"
            "        self._children[a].add(b)\n",
        )
        result = lint(tmp_path, "version-stamp")
        assert rule_ids(result) == ["version-stamp"]
        assert "add_edge" in result.findings[0].message

    def test_touch_call_silences(self, tmp_path):
        write(
            tmp_path,
            "repro/vocabulary/orders.py",
            self.HEADER
            + "    def add_edge(self, a, b):\n"
            "        self._children[a].add(b)\n"
            "        self._invalidate()\n",
        )
        assert lint(tmp_path, "version-stamp").findings == []

    def test_version_assignment_silences(self, tmp_path):
        write(
            tmp_path,
            "repro/ontology/graph.py",
            "class Ontology:\n"
            "    def add(self, fact):\n"
            "        self._facts.add(fact)\n"
            "        self.version += 1\n",
        )
        assert lint(tmp_path, "version-stamp").findings == []

    def test_ontology_mutation_without_stamp_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/ontology/graph.py",
            "class Ontology:\n"
            "    def add(self, fact):\n"
            "        self._facts.add(fact)\n",
        )
        assert rule_ids(lint(tmp_path, "version-stamp")) == ["version-stamp"]

    def test_copy_into_fresh_object_is_silent(self, tmp_path):
        write(
            tmp_path,
            "repro/vocabulary/orders.py",
            self.HEADER
            + "    def copy(self):\n"
            "        dup = PartialOrder()\n"
            "        dup._children.update(self._children)\n"
            "        return dup\n",
        )
        assert lint(tmp_path, "version-stamp").findings == []


class TestCacheGuardRule:
    def test_public_method_without_guard_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/sparql/engine.py",
            "class SparqlEngine:\n"
            "    def solutions(self, query):\n"
            "        return self._memo[query]\n",
        )
        result = lint(tmp_path, "cache-guard")
        assert rule_ids(result) == ["cache-guard"]
        assert "solutions" in result.findings[0].message

    def test_guard_call_silences(self, tmp_path):
        write(
            tmp_path,
            "repro/sparql/engine.py",
            "class SparqlEngine:\n"
            "    def solutions(self, query):\n"
            "        self._check_caches()\n"
            "        return self._memo[query]\n",
        )
        assert lint(tmp_path, "cache-guard").findings == []

    def test_private_methods_are_exempt(self, tmp_path):
        write(
            tmp_path,
            "repro/sparql/engine.py",
            "class SparqlEngine:\n"
            "    def _lookup(self, query):\n"
            "        return self._memo[query]\n",
        )
        assert lint(tmp_path, "cache-guard").findings == []


class TestTracerNameRule:
    def test_unregistered_counter_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/mining/mod.py",
            "from repro.observability import count\n"
            "count('mining.not.a.registered.name')\n",
        )
        result = lint(tmp_path, "tracer-name")
        assert rule_ids(result) == ["tracer-name"]

    def test_registered_names_are_silent(self, tmp_path):
        write(
            tmp_path,
            "repro/mining/mod.py",
            "from repro.observability import count, span\n"
            "count('cache.hits')\n"
            "with span('mine.vertical'):\n"
            "    pass\n",
        )
        assert lint(tmp_path, "tracer-name").findings == []

    def test_str_count_is_not_an_instrumentation_call(self, tmp_path):
        write(tmp_path, "mod.py", "n = 'a.b.c'.count('.')\n")
        assert lint(tmp_path, "tracer-name").findings == []

    def test_unregistered_span_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/engine/mod.py",
            "from repro.observability import span\n"
            "with span('engine.bogus.phase'):\n"
            "    pass\n",
        )
        assert rule_ids(lint(tmp_path, "tracer-name")) == ["tracer-name"]

    def test_unregistered_histogram_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/gateway/mod.py",
            "from repro.observability import observe\n"
            "observe('gateway.latency.bogus', 0.1)\n",
        )
        assert rule_ids(lint(tmp_path, "tracer-name")) == ["tracer-name"]

    def test_registered_histogram_is_silent(self, tmp_path):
        write(
            tmp_path,
            "repro/gateway/mod.py",
            "from repro.observability import observe\n"
            "observe('gateway.latency.next', 0.1)\n",
        )
        assert lint(tmp_path, "tracer-name").findings == []

    def test_bucket_observe_with_float_arg_is_silent(self, tmp_path):
        # Histogram.observe(seconds) takes a float, not a name
        write(tmp_path, "mod.py", "histogram.observe(0.25)\n")
        assert lint(tmp_path, "tracer-name").findings == []


class TestAsyncBlockingRule:
    def test_time_sleep_in_async_gateway_fires(self, tmp_path):
        # every import form names the same call
        for number, (imports, call) in enumerate(
            [
                ("import time", "time.sleep(0.1)"),
                ("from time import sleep", "sleep(1)"),
                ("import time as t", "t.sleep(1)"),
            ]
        ):
            root = tmp_path / str(number)
            write(
                root,
                "repro/gateway/mod.py",
                f"{imports}\nasync def handler():\n    {call}\n",
            )
            result = lint(root, "async-blocking-io")
            assert rule_ids(result) == ["async-blocking-io"], imports
            assert "time.sleep" in result.findings[0].message

    def test_open_in_async_gateway_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/gateway/mod.py",
            "async def handler(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n",
        )
        assert rule_ids(lint(tmp_path, "async-blocking-io")) == [
            "async-blocking-io"
        ]

    def test_asyncio_sleep_is_silent(self, tmp_path):
        write(
            tmp_path,
            "repro/gateway/mod.py",
            "import asyncio\n"
            "async def handler():\n"
            "    await asyncio.sleep(0.1)\n",
        )
        assert lint(tmp_path, "async-blocking-io").findings == []

    def test_sync_function_in_gateway_is_silent(self, tmp_path):
        # client threads are allowed to block; only async defs share
        # the event loop
        write(
            tmp_path,
            "repro/gateway/mod.py",
            "import time\n"
            "def poll():\n"
            "    time.sleep(0.1)\n",
        )
        assert lint(tmp_path, "async-blocking-io").findings == []

    def test_async_def_outside_gateway_is_silent(self, tmp_path):
        write(
            tmp_path,
            "repro/mining/mod.py",
            "import time\n"
            "async def handler():\n"
            "    time.sleep(0.1)\n",
        )
        assert lint(tmp_path, "async-blocking-io").findings == []

    def test_nested_async_defs_report_once(self, tmp_path):
        write(
            tmp_path,
            "repro/gateway/mod.py",
            "import time\n"
            "async def outer():\n"
            "    async def inner():\n"
            "        time.sleep(0.1)\n"
            "    await inner()\n",
        )
        assert rule_ids(lint(tmp_path, "async-blocking-io")) == [
            "async-blocking-io"
        ]


class TestDeterminismRules:
    def test_global_random_fires_in_mining(self, tmp_path):
        for number, source in enumerate(
            [
                "import random\nx = random.random()\n",
                "import random as r\ndef pick():\n    return r.random()\n",
            ]
        ):
            root = tmp_path / str(number)
            write(root, "repro/mining/mod.py", source)
            result = lint(root, "unseeded-random")
            assert rule_ids(result) == ["unseeded-random"], source

    def test_from_import_of_global_rng_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/crowd/simulation.py",
            "from random import shuffle\n",
        )
        assert rule_ids(lint(tmp_path, "unseeded-random")) == ["unseeded-random"]

    def test_seeded_instance_is_silent(self, tmp_path):
        write(
            tmp_path,
            "repro/mining/mod.py",
            "import random\nrng = random.Random(0)\nx = rng.random()\n",
        )
        assert lint(tmp_path, "unseeded-random").findings == []

    def test_global_random_fires_outside_the_core(self, tmp_path):
        # the rules police every module: a helper anywhere can feed a
        # mining verdict
        write(tmp_path, "repro/cli.py", "import random\nx = random.random()\n")
        assert rule_ids(lint(tmp_path, "unseeded-random")) == ["unseeded-random"]

    def test_wall_clock_fires_in_mining(self, tmp_path):
        for number, source in enumerate(
            [
                "import time\nt = time.time()\n",
                "from time import time\ndef stamp():\n    return time()\n",
                "import time as t\ndef stamp():\n    return t.time()\n",
                "from datetime import datetime\nnow = datetime.now()\n",
            ]
        ):
            root = tmp_path / str(number)
            write(root, "repro/mining/mod.py", source)
            assert rule_ids(lint(root, "wall-clock")) == ["wall-clock"], source

    def test_wall_clock_fires_outside_the_core(self, tmp_path):
        write(tmp_path, "repro/service/mod.py", "import time\nt = time.time()\n")
        assert rule_ids(lint(tmp_path, "wall-clock")) == ["wall-clock"]

    def test_other_clocks_are_silent(self, tmp_path):
        # a monotonic clock measures durations; it is not the wall clock
        write(
            tmp_path,
            "repro/service/mod.py",
            "from time import monotonic as time\n"
            "import time as clock\n"
            "t = time() + clock.perf_counter()\n",
        )
        assert lint(tmp_path, "wall-clock").findings == []


class TestForkUnsafeStateRule:
    def test_module_level_lock_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/service/shard/mod.py",
            "import threading\n_LOCK = threading.Lock()\n",
        )
        result = lint(tmp_path, "fork-unsafe-state")
        assert rule_ids(result) == ["fork-unsafe-state"]
        assert "Lock()" in result.findings[0].message

    def test_module_level_rng_and_thread_local_fire(self, tmp_path):
        write(
            tmp_path,
            "repro/crowd/mod.py",
            "import random\nimport threading\n"
            "RNG = random.Random(0)\n"
            "_STATE = threading.local()\n",
        )
        result = lint(tmp_path, "fork-unsafe-state")
        assert rule_ids(result) == ["fork-unsafe-state"] * 2

    def test_annotated_assignment_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/service/mod.py",
            "import threading\n_LOCK: threading.Lock = threading.Lock()\n",
        )
        assert rule_ids(lint(tmp_path, "fork-unsafe-state")) == [
            "fork-unsafe-state"
        ]

    def test_class_level_lock_fires(self, tmp_path):
        write(
            tmp_path,
            "repro/service/mod.py",
            "import threading\n"
            "class Registry:\n"
            "    lock = threading.Lock()\n",
        )
        result = lint(tmp_path, "fork-unsafe-state")
        assert rule_ids(result) == ["fork-unsafe-state"]
        assert "__getstate__" in result.findings[0].message

    def test_getstate_class_is_exempt(self, tmp_path):
        write(
            tmp_path,
            "repro/service/mod.py",
            "import threading\n"
            "class Cache:\n"
            "    lock = threading.Lock()\n"
            "    def __getstate__(self):\n"
            "        return {}\n",
        )
        assert lint(tmp_path, "fork-unsafe-state").findings == []

    def test_instance_state_in_init_is_silent(self, tmp_path):
        write(
            tmp_path,
            "repro/service/mod.py",
            "import threading\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n",
        )
        assert lint(tmp_path, "fork-unsafe-state").findings == []

    def test_factory_function_is_silent(self, tmp_path):
        write(
            tmp_path,
            "repro/crowd/mod.py",
            "import random\n"
            "def fresh_rng(seed):\n"
            "    return random.Random(seed)\n",
        )
        assert lint(tmp_path, "fork-unsafe-state").findings == []

    def test_outside_shard_imported_prefixes_is_silent(self, tmp_path):
        write(
            tmp_path,
            "repro/analysis/mod.py",
            "import threading\n_LOCK = threading.Lock()\n",
        )
        assert lint(tmp_path, "fork-unsafe-state").findings == []


class TestDriver:
    def test_parse_error_is_reported_not_raised(self, tmp_path):
        path = write(tmp_path, "mod.py", "def broken(:\n")
        findings = lint_file(path, ALL_RULES)
        assert [f.rule for f in findings] == ["parse-error"]

    def test_unknown_rule_id_raises(self, tmp_path):
        write(tmp_path, "mod.py", "x = 1\n")
        with pytest.raises(KeyError):
            run_lint([str(tmp_path)], rule_ids=["no-such-rule"])

    def test_every_rule_has_id_and_summary(self):
        for rule in ALL_RULES:
            assert rule.id and rule.summary
        assert len(RULES_BY_ID) == len(ALL_RULES)

    def test_real_tree_is_clean(self):
        result = run_lint([str(REPO_SRC)])
        assert result.ok, [f.render() for f in result.errors]


class TestMainExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "mod.py", "x = 1\n")
        assert main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_errors_exit_one(self, tmp_path, capsys):
        write(tmp_path, "repro/mining/mod.py", WALL_CLOCK)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        write(tmp_path, "mod.py", "x = 1\n")
        assert main([str(tmp_path), "--rules", "bogus"]) == 2

    def test_json_report(self, tmp_path, capsys):
        write(tmp_path, "repro/mining/mod.py", WALL_CLOCK)
        assert main([str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "wall-clock"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == len(ALL_RULES) == 8
        for rule in ALL_RULES:
            assert rule.id in out

    def test_rule_selection(self, tmp_path, capsys):
        write(
            tmp_path,
            "repro/mining/mod.py",
            WALL_CLOCK + "import random\nx = random.random()\n",
        )
        assert main([str(tmp_path), "--rules", "unseeded-random"]) == 1
        out = capsys.readouterr().out
        assert "unseeded-random" in out
        assert "wall-clock" not in out
