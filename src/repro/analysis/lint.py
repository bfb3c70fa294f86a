"""The lint driver: walk files, run rules, report.

Runnable as ``python -m repro.analysis [paths...]`` and as ``repro lint``
(see :mod:`repro.cli`, which hands its arguments straight to
:func:`main`).  Exit status is 0 when no error-severity finding is
reported, 1 otherwise, and 2 on usage errors — ``make lint`` and CI
gate on it.

Every finding counts: there are no suppression comments and no
baselines.  A false positive is fixed in the rule or in its
configuration (:mod:`repro.analysis.project`).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, TextIO

from .findings import Finding, Severity
from .rules import ALL_RULES, RULES_BY_ID, ModuleInfo, Rule

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".pytest_cache", ".benchmarks"})


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    found: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            found.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    found.add(candidate)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(found)


def _parse_rule_list(raw: str) -> Set[str]:
    return {token.strip() for token in raw.split(",") if token.strip()}


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was reported."""
        return not self.errors

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [f.as_dict() for f in self.findings],
        }


def _parse_error(shown: str, line: int, col: int, message: str) -> Finding:
    return Finding(
        path=shown,
        line=line,
        col=col,
        rule="parse-error",
        severity=Severity.ERROR,
        message=message,
    )


def lint_file(
    path: Path,
    rules: Sequence[Rule],
    display: Optional[str] = None,
) -> List[Finding]:
    """Lint one file; an unreadable or unparsable file is one finding."""
    shown = display if display is not None else str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        return [_parse_error(shown, 1, 0, f"cannot read file: {error}")]
    try:
        tree = ast.parse(source, filename=shown)
    except SyntaxError as error:
        return [
            _parse_error(
                shown,
                error.lineno or 1,
                error.offset or 0,
                f"syntax error: {error.msg}",
            )
        ]
    module = ModuleInfo(path=path, display=shown, tree=tree)
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(module))
    return findings


def run_lint(
    paths: Sequence[str],
    rule_ids: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint every Python file under ``paths`` with the selected rules."""
    if rule_ids is None:
        rules: Sequence[Rule] = ALL_RULES
    else:
        unknown = set(rule_ids) - set(RULES_BY_ID)
        if unknown:
            raise KeyError(f"unknown rule ids: {sorted(unknown)}")
        rules = [RULES_BY_ID[rule_id] for rule_id in rule_ids]
    result = LintResult()
    for path in iter_python_files(paths):
        result.findings.extend(lint_file(path, rules))
        result.files_checked += 1
    result.findings.sort()
    return result


# -------------------------------------------------------------------- main


def _print_rule_table(stream: TextIO) -> None:
    width = max(len(rule.id) for rule in ALL_RULES)
    for rule in ALL_RULES:
        stream.write(
            f"{rule.id:<{width}}  {rule.severity}  {rule.summary}\n"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="project-invariant linter for the OASSIS reproduction "
        "(see docs/ANALYSIS.md for the rule catalogue)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of text",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        _print_rule_table(sys.stdout)
        return 0
    rule_ids = sorted(_parse_rule_list(args.rules)) if args.rules else None
    try:
        result = run_lint(args.paths, rule_ids)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        for finding in result.findings:
            print(finding.render())
        print(
            f"{result.files_checked} file(s) checked: "
            f"{len(result.errors)} error(s), "
            f"{len(result.warnings)} warning(s)"
        )
    return 0 if result.ok else 1
