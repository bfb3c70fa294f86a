"""The interactive demo's typed path: answers, pruning clicks, quitting."""

import importlib.util
from pathlib import Path

from repro.engine import QueueManager
from repro.vocabulary import Element

DEMO = Path(__file__).resolve().parent.parent / "examples" / "interactive_demo.py"


def _load_demo():
    spec = importlib.util.spec_from_file_location("interactive_demo", DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_typed_prune_drops_every_later_question_on_the_value(monkeypatch, capsys):
    # one answer, a mistyped prune (re-prompted), the prune, then ten
    # answers that descend: unpruned, three of those ten questions
    # involve Ball Game
    lines = iter(
        ["sometimes", "prune ball game", "prune Ball Game"]
        + ["very often"] * 10
        + ["quit"]
    )
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    handed = []
    next_batch = QueueManager.next_batch

    def recording(self, member_id, k=1, **options):
        batch = next_batch(self, member_id, k, **options)
        handed.extend(batch)
        return batch

    monkeypatch.setattr(QueueManager, "next_batch", recording)
    queue = _load_demo().main([])
    out = capsys.readouterr().out
    assert "unknown value 'ball game'" in out
    assert "pruned everything involving 'Ball Game'" in out
    # the questions after the pruned one: the ten answered and the one
    # left open by quit
    later = handed[2:]
    assert len(later) == 11
    token = Element("Ball Game")
    vocabulary = queue.space.vocabulary
    assert not any(node.involves(token, vocabulary) for node in later)
