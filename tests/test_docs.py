"""Documentation consistency: the examples in the docs must stay runnable."""

import pathlib
import re

import pytest

from repro.oassisql import parse_query

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"
ROOT = DOCS.parent


def _full_queries(text: str):
    """Complete OASSIS-QL queries from ```sparql blocks (skip grammar BNF)."""
    for block in re.findall(r"```sparql\n(.*?)```", text, re.S):
        if "SELECT" not in block or "WITH SUPPORT" not in block:
            continue
        if "(" in block:
            continue  # the grammar skeleton, not a concrete query
        if "--" in block:
            block = "\n".join(line.split("--")[0] for line in block.splitlines())
        yield block


class TestLanguageGuide:
    def test_worked_examples_parse(self):
        text = (DOCS / "LANGUAGE.md").read_text()
        queries = list(_full_queries(text))
        assert len(queries) >= 3
        for query in queries:
            parse_query(query)

    def test_readme_query_parses(self):
        text = (ROOT / "README.md").read_text()
        queries = list(_full_queries(text))
        assert queries, "README should contain the Figure 2 query"
        for query in queries:
            parse_query(query)


def _python_blocks(doc_name):
    text = (DOCS / doc_name).read_text()
    return re.findall(r"```python\n(.*?)```", text, re.S)


def _execute_blocks(doc_name, monkeypatch, capsys):
    """Run a doc's ```python blocks cumulatively in one namespace, top to
    bottom, like a reader following the guide in a REPL, from the
    repository root (a guide may read committed files relatively)."""
    monkeypatch.chdir(ROOT)
    namespace = {}
    for index, block in enumerate(_python_blocks(doc_name)):
        code = compile(block, f"{doc_name}[block {index}]", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own docs


class TestObservabilityGuide:
    def test_has_worked_examples(self):
        assert len(_python_blocks("OBSERVABILITY.md")) >= 2

    def test_python_blocks_execute(self, monkeypatch, capsys):
        _execute_blocks("OBSERVABILITY.md", monkeypatch, capsys)

    def test_documented_counters_match_the_code(self):
        """Counter names in the doc's table exist in the source (and the
        engine-layer ones actually fire on a traced run)."""
        text = (DOCS / "OBSERVABILITY.md").read_text()
        documented = set(
            re.findall(
                r"`((?:crowd|cache|aggregator|mining|lattice|sparql|replay)"
                r"\.[a-z_.]+[a-z_])`",
                text,
            )
        )
        self._assert_counters_recorded(documented)

    @staticmethod
    def _assert_counters_recorded(documented):
        assert documented, "the naming-scheme table went missing"
        src = ROOT / "src" / "repro"
        source_text = "\n".join(p.read_text() for p in src.rglob("*.py"))
        missing = {
            name for name in documented if f'"{name}"' not in source_text
        }
        assert not missing, f"documented but never recorded: {sorted(missing)}"


class TestPerformanceGuide:
    """docs/PERFORMANCE.md: the profiling handbook stays executable."""

    def test_has_worked_examples(self):
        assert len(_python_blocks("PERFORMANCE.md")) >= 1

    def test_python_blocks_execute(self, monkeypatch, capsys):
        _execute_blocks("PERFORMANCE.md", monkeypatch, capsys)


class TestTuningGuide:
    """docs/TUNING.md: every operator recipe must execute as written."""

    def test_has_worked_examples(self):
        assert len(_python_blocks("TUNING.md")) >= 2

    def test_python_blocks_execute(self, monkeypatch, capsys):
        _execute_blocks("TUNING.md", monkeypatch, capsys)

    def test_documented_backend_counters_match_the_code(self):
        text = (DOCS / "TUNING.md").read_text()
        documented = set(
            re.findall(r"`((?:backend|support\.count|tid_index)\.[a-z_.]+)`", text)
        )
        assert documented, "the support-counter table went missing"
        TestObservabilityGuide._assert_counters_recorded(documented)


class TestGatewayGuide:
    """docs/GATEWAY.md: the serving recipes execute, and every counter
    the doc names is actually recorded by the gateway."""

    def test_has_worked_examples(self):
        assert len(_python_blocks("GATEWAY.md")) >= 2

    def test_python_blocks_execute(self, monkeypatch, capsys):
        _execute_blocks("GATEWAY.md", monkeypatch, capsys)

    def test_documented_gateway_counters_match_the_code(self):
        text = (DOCS / "GATEWAY.md").read_text()
        documented = set(
            re.findall(r"`(gateway\.[a-z_.]+[a-z_])`", text)
        )
        assert documented, "the observability section went missing"
        TestObservabilityGuide._assert_counters_recorded(documented)


class TestExampleData:
    def test_shipped_ontology_loads(self):
        from repro.ontology import turtle

        ontology = turtle.load(ROOT / "examples" / "data" / "nyc.ttl")
        assert len(ontology) > 10
        assert ontology.vocabulary.has_relation("doAt")

    def test_shipped_query_validates_against_shipped_ontology(self):
        from repro.oassisql import validate
        from repro.ontology import turtle

        ontology = turtle.load(ROOT / "examples" / "data" / "nyc.ttl")
        query = parse_query(
            (ROOT / "examples" / "data" / "activities.oql").read_text()
        )
        assert validate(query, ontology) == []

    def test_shipped_history_parses(self):
        from repro.crowd import PersonalDatabase

        lines = [
            line.strip()
            for line in (ROOT / "examples" / "data" / "history.txt")
            .read_text()
            .splitlines()
            if line.strip() and not line.startswith("#")
        ]
        database = PersonalDatabase.parse(lines)
        assert len(database) == 6

    def test_documented_files_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "docs/LANGUAGE.md", "docs/ARCHITECTURE.md",
                     "docs/PERFORMANCE.md", "docs/TUNING.md",
                     "docs/GATEWAY.md", "docs/MIGRATION.md",
                     "BENCHMARK.json", "perfbench/README.md", "Makefile"):
            assert (ROOT / name).exists(), name
