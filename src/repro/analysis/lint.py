"""The lint driver: walk files, run rules, honor suppressions, report.

Runnable as ``python -m repro.analysis [paths...]`` and as ``repro lint``
(see :mod:`repro.cli`).  Exit status is 0 when no error-severity finding
survives suppression filtering, 1 otherwise, and 2 on usage errors —
``make lint`` and CI gate on it.

Suppressions are line-scoped comments on the offending line (the
examples below are prose, not live suppressions — only real ``#``
comment tokens count, which is why the scanner is tokenize-based)::

    eval(user_input)  # repro-lint: disable=RULE-ID
    something()       # repro-lint: disable=rule-a,rule-b
    anything()        # repro-lint: disable=all

or file-scoped, anywhere in the file::

    # repro-lint: disable-file=RULE-ID

A suppression that stops suppressing anything is itself reported
(``stale-suppression``, error severity): dead suppressions hide future
regressions on the lines they squat on.  Staleness is only assessed
when the full rule set runs, and suppressions naming deep rules are
only assessed under ``--deep``.

``--deep`` runs the whole-program rules from
:mod:`repro.analysis.deep` (call-graph effect inference, async
blocking, determinism, wire taint) after the per-file pass; ``--explain FUNC``
prints a function's inferred effects and witness chains.
``--baseline``/``--write-baseline`` let known findings ride while new
code is held to zero.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, TextIO, Tuple

from .findings import Finding, Severity
from .rules import ALL_RULES, RULES_BY_ID, ModuleInfo, Rule

_SUPPRESS_LINE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")
_SUPPRESS_FILE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\- ]+)")

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".pytest_cache", ".benchmarks"})

#: finding rules that are not in RULES_BY_ID but are still legitimate
#: suppression targets
_SYNTHETIC_RULE_IDS = frozenset({"parse-error", "stale-suppression"})

BASELINE_VERSION = 1


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
class SuppressionComment:
    """One ``repro-lint: disable[-file]=`` token from a real comment."""

    lineno: int
    token: str
    scope: str  # "line" | "file"
    used: bool = False


def collect_suppression_comments(source: str) -> List[SuppressionComment]:
    """Parse suppressions from actual COMMENT tokens.

    Tokenize-based so suppression-shaped text inside docstrings and
    string literals (this module's own docstring, test fixtures) is
    *not* treated as a live suppression; falls back to a line scan when
    the source does not tokenize.
    """
    comments: List[SuppressionComment] = []

    def parse(lineno: int, text: str) -> None:
        match = _SUPPRESS_FILE.search(text)
        if match:
            for token in _parse_rule_list(match.group(1)):
                comments.append(SuppressionComment(lineno, token, "file"))
            return
        match = _SUPPRESS_LINE.search(text)
        if match:
            for token in _parse_rule_list(match.group(1)):
                comments.append(SuppressionComment(lineno, token, "line"))

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "repro-lint" in line:
                parse(lineno, line)
        return comments
    for token_info in tokens:
        if token_info.type == tokenize.COMMENT and "repro-lint" in token_info.string:
            parse(token_info.start[0], token_info.string)
    return comments


class SuppressionIndex:
    """Lookup + usage tracking over one file's suppression comments."""

    def __init__(self, comments: List[SuppressionComment]) -> None:
        self.comments = comments
        self._by_line: Dict[int, List[SuppressionComment]] = {}
        self._file_scope: List[SuppressionComment] = []
        for comment in comments:
            if comment.scope == "file":
                self._file_scope.append(comment)
            else:
                self._by_line.setdefault(comment.lineno, []).append(comment)

    def suppresses(self, finding: Finding) -> bool:
        """True when a comment covers ``finding`` (marks it as used)."""
        hit = False
        for comment in self._file_scope:
            if comment.token == "all" or comment.token == finding.rule:
                comment.used = True
                hit = True
        for comment in self._by_line.get(finding.line, []):
            if comment.token == "all" or comment.token == finding.rule:
                comment.used = True
                hit = True
        return hit

    def filter(self, findings: Iterable[Finding]) -> Tuple[List[Finding], int]:
        kept: List[Finding] = []
        suppressed = 0
        for finding in findings:
            if self.suppresses(finding):
                suppressed += 1
            else:
                kept.append(finding)
        return kept, suppressed


def collect_suppressions(
    source: str,
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Per-line and per-file suppression sets (compatibility view)."""
    by_line: Dict[int, Set[str]] = {}
    whole_file: Set[str] = set()
    for comment in collect_suppression_comments(source):
        if comment.scope == "file":
            whole_file.add(comment.token)
        else:
            by_line.setdefault(comment.lineno, set()).add(comment.token)
    return by_line, whole_file


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    baselined: int = 0
    deep_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding survived suppression."""
        return not self.errors

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "findings": [f.as_dict() for f in self.findings],
        }


def _parse_module(
    path: Path, shown: str
) -> Tuple[Optional[ModuleInfo], Optional[Finding]]:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        return None, Finding(
            path=shown,
            line=1,
            col=0,
            rule="parse-error",
            severity=Severity.ERROR,
            message=f"cannot read file: {error}",
        )
    try:
        tree = ast.parse(source, filename=shown)
    except SyntaxError as error:
        return None, Finding(
            path=shown,
            line=error.lineno or 1,
            col=error.offset or 0,
            rule="parse-error",
            severity=Severity.ERROR,
            message=f"syntax error: {error.msg}",
        )
    return ModuleInfo(path=path, display=shown, tree=tree, source=source), None


def _lint_file_indexed(
    path: Path,
    rules: Sequence[Rule],
    display: Optional[str] = None,
) -> Tuple[List[Finding], int, Optional[SuppressionIndex]]:
    shown = display if display is not None else str(path)
    module, parse_finding = _parse_module(path, shown)
    if module is None:
        failure = parse_finding if parse_finding is not None else Finding(
            path=shown,
            line=1,
            col=0,
            rule="parse-error",
            severity=Severity.ERROR,
            message="cannot parse file",
        )
        return [failure], 0, None
    index = SuppressionIndex(collect_suppression_comments(module.source))
    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.check(module))
    kept, suppressed = index.filter(raw)
    return kept, suppressed, index


def lint_file(
    path: Path,
    rules: Sequence[Rule],
    display: Optional[str] = None,
) -> Tuple[List[Finding], int]:
    """Lint one file; returns (surviving findings, suppressed count)."""
    kept, suppressed, _ = _lint_file_indexed(path, rules, display)
    return kept, suppressed


def _stale_findings(
    indexes: Dict[str, SuppressionIndex],
    deep_ran: bool,
) -> List[Finding]:
    """Unused suppression comments -> ``stale-suppression`` findings.

    Only called when the full shallow rule set ran.  Tokens naming deep
    rules (and the catch-``all`` token, which might exist for one) are
    only assessed when the deep pass also ran.
    """
    from .deep import DEEP_RULE_IDS

    findings: List[Finding] = []
    known = set(RULES_BY_ID) | _SYNTHETIC_RULE_IDS
    for path, index in sorted(indexes.items()):
        for comment in index.comments:
            if comment.used:
                continue
            token = comment.token
            if token in DEEP_RULE_IDS or token == "all":
                if not deep_ran:
                    continue
                message = (
                    f"suppression 'disable={token}' no longer suppresses "
                    "any finding; remove it"
                )
            elif token in known:
                message = (
                    f"suppression 'disable={token}' no longer suppresses "
                    "any finding; remove it"
                )
            else:
                message = (
                    f"suppression 'disable={token}' references an unknown "
                    "rule; fix the rule id or remove it"
                )
            if comment.scope == "file":
                message = message.replace("disable=", "disable-file=", 1)
            findings.append(
                Finding(
                    path=path,
                    line=comment.lineno,
                    col=0,
                    rule="stale-suppression",
                    severity=Severity.ERROR,
                    message=message,
                )
            )
    return findings


def run_lint(
    paths: Sequence[str],
    rule_ids: Optional[Iterable[str]] = None,
    *,
    deep: bool = False,
    deep_cache: Optional[Path] = None,
) -> LintResult:
    """Lint every Python file under ``paths`` with the selected rules.

    With ``deep=True`` the whole-program pass from
    :mod:`repro.analysis.deep` runs as well; its findings honor the
    same per-line/per-file suppression comments.
    """
    if rule_ids is None:
        rules: Sequence[Rule] = ALL_RULES
    else:
        unknown = set(rule_ids) - set(RULES_BY_ID)
        if unknown:
            raise KeyError(f"unknown rule ids: {sorted(unknown)}")
        rules = [RULES_BY_ID[rule_id] for rule_id in rule_ids]
    result = LintResult()
    indexes: Dict[str, SuppressionIndex] = {}
    for path in iter_python_files(paths):
        findings, suppressed, index = _lint_file_indexed(path, rules)
        if index is not None:
            indexes[str(path)] = index
        result.findings.extend(findings)
        result.suppressed += suppressed
        result.files_checked += 1
    if deep:
        from .deep import run_deep

        deep_result = run_deep([str(p) for p in paths], cache_path=deep_cache)
        result.deep_stats = dict(deep_result.stats)
        extra_indexes: Dict[str, SuppressionIndex] = {}
        for finding in deep_result.findings:
            index = indexes.get(finding.path)
            if index is None:
                index = extra_indexes.get(finding.path)
            if index is None:
                try:
                    source = Path(finding.path).read_text(encoding="utf-8")
                except OSError:
                    source = ""
                index = SuppressionIndex(
                    collect_suppression_comments(source)
                )
                extra_indexes[finding.path] = index
            if index.suppresses(finding):
                result.suppressed += 1
            else:
                result.findings.append(finding)
    if rule_ids is None:
        result.findings.extend(_stale_findings(indexes, deep_ran=deep))
    result.findings.sort()
    return result


# ---------------------------------------------------------------- baseline


def finding_fingerprint(finding: Finding) -> str:
    """A stable id for baselining: path + rule + message (line-free, so
    unrelated edits shifting line numbers don't un-baseline a finding —
    but witness chains embed line numbers, so any change to the chain
    itself does)."""
    blob = f"{finding.path}|{finding.rule}|{finding.message}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Record the current findings as the accepted baseline."""
    payload = {
        "version": BASELINE_VERSION,
        "findings": [
            {
                "fingerprint": finding_fingerprint(finding),
                "path": finding.path,
                "rule": finding.rule,
                "line": finding.line,
                "message": finding.message,
            }
            for finding in sorted(findings)
        ],
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_baseline(path: Path) -> Set[str]:
    """The fingerprint set from a baseline file written above."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("version") != BASELINE_VERSION:
        raise ValueError(f"{path}: not a lint baseline file")
    entries = payload.get("findings")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: malformed baseline")
    fingerprints: Set[str] = set()
    for entry in entries:
        if isinstance(entry, dict) and isinstance(entry.get("fingerprint"), str):
            fingerprints.add(entry["fingerprint"])
    return fingerprints


def apply_baseline(result: LintResult, fingerprints: Set[str]) -> None:
    """Drop baselined findings from ``result`` (counts them instead)."""
    kept: List[Finding] = []
    for finding in result.findings:
        if finding_fingerprint(finding) in fingerprints:
            result.baselined += 1
        else:
            kept.append(finding)
    result.findings = kept


# -------------------------------------------------------------------- main


def _print_rule_table(stream: TextIO) -> None:
    from .deep import DEEP_RULES

    width = max(
        max(len(rule.id) for rule in ALL_RULES),
        max(len(rule.id) for rule in DEEP_RULES),
    )
    for rule in ALL_RULES:
        stream.write(
            f"{rule.id:<{width}}  {rule.severity}  {rule.summary}\n"
        )
    for deep_rule in DEEP_RULES:
        stream.write(
            f"{deep_rule.id:<{width}}  {deep_rule.severity}  "
            f"(deep) {deep_rule.summary}\n"
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
    parser.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program rules (call-graph effects, "
        "determinism, wire taint; docs/ANALYSIS.md)",
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        help="hash-keyed cache file for --deep results "
        "(e.g. .deep-analysis-cache.json)",
    )
    parser.add_argument(
        "--explain",
        metavar="FUNC",
        help="print inferred effects and witness chains for a function "
        "(qualname or suffix, e.g. SessionManager.submit) and exit",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="suppress findings recorded in this baseline JSON; only new "
        "findings affect the exit code",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="record the current findings as the accepted baseline and exit",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        _print_rule_table(sys.stdout)
        return 0
    if args.explain:
        from .deep import explain_function

        return explain_function(args.paths, args.explain)
    rule_ids = sorted(_parse_rule_list(args.rules)) if args.rules else None
    try:
        result = run_lint(
            args.paths,
            rule_ids,
            deep=args.deep,
            deep_cache=Path(args.cache) if args.cache else None,
        )
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if args.write_baseline:
        write_baseline(Path(args.write_baseline), result.findings)
        print(
            f"wrote baseline with {len(result.findings)} finding(s) to "
            f"{args.write_baseline}"
        )
        return 0
    if args.baseline:
        try:
            fingerprints = load_baseline(Path(args.baseline))
        except (OSError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2
        apply_baseline(result, fingerprints)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        for finding in result.findings:
            print(finding.render())
        summary = (
            f"{result.files_checked} file(s) checked: "
            f"{len(result.errors)} error(s), "
            f"{len(result.warnings)} warning(s)"
        )
        if result.suppressed:
            summary += f", {result.suppressed} suppressed"
        if result.baselined:
            summary += f", {result.baselined} baselined"
        if result.deep_stats:
            summary += (
                f" [deep: {result.deep_stats.get('functions', 0)} functions, "
                f"{result.deep_stats.get('edges', 0)} edges]"
            )
        print(summary)
    return 0 if result.ok else 1
