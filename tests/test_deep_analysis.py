"""The whole-program pass: effect inference, deep rules, explain.

Fixture tests write a miniature ``repro`` package under ``tmp_path``
(the deep rules key on ``repro/...`` path prefixes) and assert each rule
fires with a witness call chain — and stays silent on the sanitized
counterpart.  The real source tree must come out clean.
"""

import io
from pathlib import Path

import pytest

from repro.analysis.deep import (
    RULE_ANNOTATION,
    RULE_ASYNC_BLOCKING,
    RULE_DETERMINISM,
    RULE_WIRE_TAINT,
    analyze,
    explain_function,
    run_deep,
)
from repro.analysis.effects import EFFECT_BLOCKING_IO, EFFECT_WALL_CLOCK

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

GATEWAY_HTTP = """\
import time


def slow_helper():
    time.sleep(0.1)


async def handler():
    slow_helper()


async def direct():
    time.sleep(0.1)


class GatewayApp:
    def submit_answer(self, payload):
        return payload


class Message:
    @classmethod
    def from_wire(cls, payload):
        return cls()


def route(app: GatewayApp, message):
    return app.submit_answer(message)


def clean_route(app: GatewayApp, message):
    decoded = Message.from_wire(message)
    return app.submit_answer(decoded)
"""

MINING_ALGO = """\
import time


def _stamp():
    return time.time()


def mine(data):
    return _stamp()
"""


def write_fixture(tmp_path, files):
    """A miniature ``repro`` package; returns its root directory."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        for parent in path.relative_to(root).parents:
            init = root / parent / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
    return root


@pytest.fixture()
def violating_tree(tmp_path):
    return write_fixture(
        tmp_path,
        {
            "gateway/http.py": GATEWAY_HTTP,
            "mining/algo.py": MINING_ALGO,
        },
    )


@pytest.fixture(scope="session")
def real_analysis():
    """One effect analysis of the real tree, shared across the module."""
    return analyze(REPO_SRC / "repro")


@pytest.fixture(scope="session")
def real_result():
    return run_deep([str(REPO_SRC / "repro")])


def by_rule(result, rule):
    return [f for f in result.findings if f.rule == rule]


class TestEffectInference:
    def test_transitive_blocking_io_with_witness_chain(self, violating_tree):
        analysis = analyze(violating_tree)
        handler = "repro.gateway.http.handler"
        assert EFFECT_BLOCKING_IO in analysis.effects_of(handler)
        chain = analysis.render_chain(
            analysis.witness_chain(handler, EFFECT_BLOCKING_IO)
        )
        # caller -> callee:line [primitive@line]
        assert chain == (
            "gateway.http.handler -> gateway.http.slow_helper:9 "
            "[time.sleep@5]"
        )

    def test_allow_annotation_masks_the_visible_effect(self, tmp_path):
        root = write_fixture(
            tmp_path,
            {
                "service/wal.py": (
                    "import os\n\n\n"
                    "def flush(handle):  # repro-effects: allow=fsync\n"
                    "    os.fsync(handle.fileno())\n\n\n"
                    "def caller(handle):\n"
                    "    flush(handle)\n"
                )
            },
        )
        analysis = analyze(root)
        assert analysis.effects_of("repro.service.wal.flush") == frozenset()
        assert analysis.direct_of("repro.service.wal.flush") == {"fsync"}
        # masked at the source: nothing propagates to the caller either
        assert analysis.effects_of("repro.service.wal.caller") == frozenset()

    def test_unknown_allow_token_is_a_finding(self, tmp_path):
        root = write_fixture(
            tmp_path,
            {
                "service/wal.py": (
                    "def f():  # repro-effects: allow=flurble\n"
                    "    return 0\n"
                )
            },
        )
        result = run_deep([str(root)])
        (finding,) = by_rule(result, RULE_ANNOTATION)
        assert "flurble" in finding.message

    def test_fixpoint_terminates_on_recursion(self, tmp_path):
        root = write_fixture(
            tmp_path,
            {
                "mining/rec.py": (
                    "import time\n\n\n"
                    "def ping(n):\n"
                    "    return pong(n - 1) if n else time.time()\n\n\n"
                    "def pong(n):\n"
                    "    return ping(n)\n"
                )
            },
        )
        analysis = analyze(root)
        for name in ("ping", "pong"):
            assert EFFECT_WALL_CLOCK in analysis.effects_of(
                f"repro.mining.rec.{name}"
            )


class TestDeepRules:
    def test_async_blocking_transitive_fires_with_chain(self, violating_tree):
        result = run_deep([str(violating_tree)])
        findings = by_rule(result, RULE_ASYNC_BLOCKING)
        assert [f.line for f in findings] == [8]  # handler, not direct
        assert "slow_helper" in findings[0].message
        assert "time.sleep@5" in findings[0].message

    def test_direct_blocking_call_is_left_to_the_local_rule(
        self, violating_tree
    ):
        # `async def direct()` calls time.sleep itself: the per-file
        # async-blocking-io rule owns length-1 chains
        result = run_deep([str(violating_tree)])
        assert all(
            f.line != 13 for f in by_rule(result, RULE_ASYNC_BLOCKING)
        )

    def test_determinism_transitive_fires_on_public_entry(
        self, violating_tree
    ):
        result = run_deep([str(violating_tree)])
        (finding,) = by_rule(result, RULE_DETERMINISM)
        assert finding.line == 8  # mine(), not the private _stamp helper
        assert "wall-clock" in finding.message
        assert "time.time@5" in finding.message

    def test_wire_taint_fires_only_on_the_undecoded_path(
        self, violating_tree
    ):
        result = run_deep([str(violating_tree)])
        (finding,) = by_rule(result, RULE_WIRE_TAINT)
        assert finding.line == 28  # route()'s sink; clean_route is silent
        assert "GatewayApp.submit_answer" in finding.message
        assert "wire parameter 'message'" in finding.message


class TestRealTree:
    def test_real_tree_is_clean(self, real_result):
        assert real_result.findings == []

    def test_explain_renders_effects_and_callers(self, real_analysis):
        stream = io.StringIO()
        code = explain_function(
            [str(REPO_SRC / "repro")], "GatewayClient.next_questions", stream
        )
        assert code == 0
        text = stream.getvalue()
        assert "blocking-io" in text
        assert "->" in text  # at least one witness chain rendered

    def test_explain_unknown_function_fails(self):
        stream = io.StringIO()
        assert (
            explain_function(
                [str(REPO_SRC / "repro")], "no.such.function", stream
            )
            == 2
        )
