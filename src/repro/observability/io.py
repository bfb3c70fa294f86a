"""Atomic artifact writes: a torn benchmark is worse than no benchmark.

Every JSON artifact the project emits (``stats_report.json``,
``--stats-json`` reports, session checkpoints) goes through
:func:`atomic_write_json`: the payload is serialized to a sibling tmp
file and swapped into place with ``os.replace``, which is atomic on
POSIX and Windows.  A reader therefore sees either the previous
artifact or the complete new one — never a truncated JSON document from
an interrupted run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Union

__all__ = ["atomic_write_json", "atomic_write_text"]


def atomic_write_text(path: Union[str, "os.PathLike[str]"], text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    return target


def atomic_write_json(
    path: Union[str, "os.PathLike[str]"],
    payload: Any,
    *,
    indent: int = 2,
    sort_keys: bool = True,
) -> Path:
    """Serialize ``payload`` and write it atomically; returns the path."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text)
