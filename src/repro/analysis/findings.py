"""Finding and Severity: what a lint rule reports.

A :class:`Finding` pins one rule violation to a ``file:line:col``
location.  Findings are plain data — reporting and exit-code policy
live in :mod:`repro.analysis.lint`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict


class Severity(enum.Enum):
    """How bad a finding is; only errors fail the lint run."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str

    def render(self) -> str:
        """The classic compiler-style one-liner."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} [{self.rule}] {self.message}"
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (``--json`` output)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
        }
