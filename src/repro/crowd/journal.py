"""Write-ahead-logged crowd answers: no acknowledged answer is ever lost.

The in-memory :class:`~repro.crowd.cache.CrowdCache` loses everything on
a process crash — every answer the crowd was paid for.  This module adds
the durability layer:

* **append-only JSONL journal** — :class:`DurableCrowdCache` appends one
  self-describing record per answer *before* applying it in memory, and
  flushes the line to the OS before :meth:`~DurableCrowdCache.record`
  returns.  An answer is acknowledged only once it is journaled, so a
  crash can lose at most an answer that was never acknowledged.
* **replay on open** — :func:`replay_journal` reads a journal back,
  skipping a torn final line (the partial write of the crash itself)
  and counting corrupt lines instead of failing the whole recovery.  A
  record the live path would have rejected (a support outside [0, 1])
  counts as corrupt too, so a damaged journal cannot decide a node.
* **idempotent application** — records are keyed by
  ``(assignment key, member, question kind)``; duplicate deliveries
  (service retries, replay of a compacted+uncompacted pair, a crashed
  writer that reopened) apply exactly once.
* **atomic snapshot compaction** — :meth:`~DurableCrowdCache.compact`
  rewrites the deduplicated journal via tmp-file + ``os.replace``; a
  crash mid-compaction leaves the old journal intact.

The record format (one JSON object per line)::

    {"v": 1, "k": "<assignment key>", "m": "<member>", "s": 0.5, "q": "concrete"}

Assignment keys are the stable ``repr`` of
:class:`~repro.assignments.assignment.Assignment` (sorted variables and
values — deterministic across processes).  Mapping keys back to live
``Assignment`` objects on recovery is the session-restore protocol of
:mod:`repro.service.recovery`; see ``docs/RELIABILITY.md``.

The file-format mechanics (torn-tail healing, tolerant line replay,
atomic rewrite) live in :class:`AppendLog` / :func:`replay_log`, which
know nothing about crowd answers — the gateway's session WAL
(:mod:`repro.gateway.journal`) reuses them for a completely different
record vocabulary.  Observability stays with the *callers*: ``AppendLog``
emits no counters of its own, so each journal family (``recovery.wal.*``,
``gateway.journal.*``) counts under its own registered names.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    IO,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..observability import count as _obs_count
from .cache import CrowdCache

#: journal record schema version (bump on breaking changes)
RECORD_VERSION = 1


# --------------------------------------------------------- generic machinery


def _heal_torn_tail(path: Path) -> None:
    """Terminate a torn final line before appending resumes.

    A crash mid-write can leave the log without a trailing newline.
    Appending straight after would glue the next record onto the torn
    line, turning an *acknowledged* record into one more corrupt line on
    the next replay.  Writing the missing newline confines the damage to
    the torn (never-acknowledged) line itself.
    """
    if not path.exists():
        return
    with path.open("rb+") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell() == 0:
            return
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            handle.write(b"\n")


def replay_log(path: "os.PathLike[str] | str") -> Tuple[List[Dict[str, Any]], int]:
    """Read a JSONL log back; returns ``(payloads, corrupt_lines_skipped)``.

    A line that does not decode — torn or garbled (the typical crash
    artifact), not UTF-8, or nested past the parser's recursion limit —
    is skipped and counted, never fatal.  This is the one decoding rule
    for every record vocabulary (:func:`replay_journal`, the gateway
    journal).  Lines that decode to something other than a JSON object
    count as corrupt too.
    """
    payloads: List[Dict[str, Any]] = []
    corrupt = 0
    log = Path(path)
    if not log.exists():
        return payloads, corrupt
    with log.open("rb") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            try:
                payload = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):
                corrupt += 1
                continue
            if not isinstance(payload, dict):
                corrupt += 1
                continue
            payloads.append(payload)
    return payloads, corrupt


class AppendLog:
    """An append-only JSONL file with WAL discipline.

    The mechanical core shared by :class:`DurableCrowdCache` and the
    gateway journal: every :meth:`append` is flushed (optionally fsynced)
    before it returns, a torn final line is healed on open, and
    :meth:`rewrite` swaps in a compacted snapshot atomically (tmp file +
    ``os.replace`` — readers see the old log or the new one, never a
    truncated hybrid).

    Not thread-safe on its own: callers serialize access under their own
    lock (the cache lock here, the journal lock in the gateway).
    """

    def __init__(
        self, path: "os.PathLike[str] | str", *, fsync: bool = False
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _heal_torn_tail(self.path)
        self._handle: Optional[IO[str]] = self.path.open("a", encoding="utf-8")

    @property
    def closed(self) -> bool:
        return self._handle is None

    def append_line(self, line: str) -> None:
        """Append one pre-serialized record line, flush, optionally fsync."""
        if self._handle is None:
            raise RuntimeError(f"log {self.path} is closed")
        self._handle.write(line + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def append(self, payload: Mapping[str, Any]) -> None:
        """Append one record as a sorted-key JSON line."""
        self.append_line(json.dumps(payload, sort_keys=True))

    def rewrite(self, lines: Iterable[str]) -> int:
        """Atomically replace the log's contents; returns the line count.

        The append handle is reopened on the new file, so a live writer
        keeps appending after the swap.  A crash mid-rewrite leaves the
        old log intact (the tmp file is simply orphaned).
        """
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        written = 0
        with tmp.open("w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
                written += 1
            handle.flush()
            os.fsync(handle.fileno())
        if self._handle is not None:
            self._handle.close()
        os.replace(tmp, self.path)
        self._handle = self.path.open("a", encoding="utf-8")
        return written

    def close(self) -> None:
        """Flush and close the handle (idempotent)."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"AppendLog({str(self.path)!r})"


def valid_support(value: Any) -> bool:
    """Would the live path accept ``value`` as a support answer?

    A finite number in [0, 1]; a bool is not a number here, and NaN and
    the infinities fail the range check.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0.0 <= value <= 1.0
    )


class JournalRecord:
    """One journaled answer: ``(key, member, support, question kind)``."""

    __slots__ = ("key", "member", "support", "kind")

    def __init__(
        self, key: str, member: str, support: float, kind: str = "concrete"
    ) -> None:
        self.key = key
        self.member = member
        self.support = support
        self.kind = kind

    @property
    def identity(self) -> Tuple[str, str, str]:
        """The idempotence key: ``(assignment key, member, kind)``."""
        return (self.key, self.member, self.kind)

    def as_line(self) -> str:
        return json.dumps(
            {
                "v": RECORD_VERSION,
                "k": self.key,
                "m": self.member,
                "s": self.support,
                "q": self.kind,
            },
            sort_keys=True,
        )

    def __repr__(self) -> str:
        return f"JournalRecord({self.key!r}, {self.member!r}, {self.support})"


def replay_journal(path: "os.PathLike[str] | str") -> Tuple[List[JournalRecord], int]:
    """Read a journal back; returns ``(records, corrupt_lines_skipped)``.

    Records are returned in arrival order with duplicates (same
    idempotence key) dropped — replay is idempotent by construction.
    Lines are decoded by :func:`replay_log`.  A line it cannot decode, or
    a record without a key or member or whose support the live path
    would reject, is skipped and counted, never fatal: losing one
    unacknowledged answer beats losing the whole journal.
    """
    records: List[JournalRecord] = []
    seen: Set[Tuple[str, str, str]] = set()
    payloads, corrupt = replay_log(path)
    for payload in payloads:
        support = payload.get("s")
        if "k" not in payload or "m" not in payload or not valid_support(support):
            corrupt += 1
            continue
        record = JournalRecord(
            key=str(payload["k"]),
            member=str(payload["m"]),
            support=float(support),
            kind=str(payload.get("q", "concrete")),
        )
        if record.identity in seen:
            _obs_count("recovery.wal.duplicates_skipped")
            continue
        seen.add(record.identity)
        records.append(record)
        _obs_count("recovery.wal.replayed")
    if corrupt:
        _obs_count("recovery.wal.corrupt_skipped", corrupt)
    return records, corrupt


class DurableCrowdCache(CrowdCache):
    """A :class:`~repro.crowd.cache.CrowdCache` backed by a WAL journal.

    A drop-in cache whose :meth:`record` journals before applying; the
    whole read surface (lookup, snapshot, statistics) is inherited
    unchanged.  Two ways to open one:

    * ``DurableCrowdCache(path)`` on a fresh or existing journal —
      existing records are replayed into memory keyed by their *string*
      assignment keys (audit/inspection mode: journal keys, not live
      ``Assignment`` objects);
    * ``DurableCrowdCache(path, preload=resolved)`` — the recovery path:
      ``preload`` maps *live* assignments to their answer lists (produced
      by :func:`repro.service.recovery.resolve_journal`), existing
      journal identities are remembered for idempotence, and new answers
      keep appending to the same journal.

    The override never calls ``super().record()`` while holding the
    cache lock — the base lock is a plain (non-reentrant) ``Lock``.
    """

    def __init__(
        self,
        journal_path: "os.PathLike[str] | str",
        *,
        fsync: bool = False,
        key_fn: Callable[[Hashable], str] = repr,
        preload: Optional[Mapping[Hashable, Sequence[Tuple[str, float]]]] = None,
    ) -> None:
        super().__init__()
        self.journal_path = Path(journal_path)
        self.fsync = fsync
        self.key_fn = key_fn
        self._seen: Set[Tuple[str, str, str]] = set()
        records, self.corrupt_lines = replay_journal(self.journal_path)
        for record in records:
            self._seen.add(record.identity)
        if preload is not None:
            for assignment, answers in preload.items():
                for member_id, support in answers:
                    self._answers[assignment].append((member_id, support))
        else:
            for record in records:
                self._answers[record.key].append((record.member, record.support))
        self._log = AppendLog(self.journal_path, fsync=fsync)

    def record(self, assignment: Hashable, member_id: str, support: float) -> None:
        """Journal, flush, then apply — the write-ahead discipline.

        Idempotent on ``(assignment key, member, kind)``: re-recording a
        journaled answer is a no-op (counted, not an error), so duplicate
        deliveries and resumed sessions never double-apply.
        """
        record = JournalRecord(self.key_fn(assignment), member_id, support)
        with self._lock:
            if record.identity in self._seen:
                _obs_count("recovery.wal.duplicates_skipped")
                return
            self._log.append_line(record.as_line())
            self._seen.add(record.identity)
            self._answers[assignment].append((member_id, support))
        _obs_count("cache.answers.recorded")
        _obs_count("recovery.wal.appends")

    # ------------------------------------------------------------- durability

    def compact(self) -> int:
        """Atomically rewrite the journal as a deduplicated snapshot.

        The snapshot is written to a sibling tmp file and swapped in with
        ``os.replace`` — readers either see the old journal or the new
        one, never a truncated hybrid.  Returns the record count.
        """
        with self._lock:
            records = [
                JournalRecord(self.key_fn(assignment), member, support)
                for assignment, answers in self._answers.items()
                for member, support in answers
            ]
            self._log.rewrite(record.as_line() for record in records)
            self._seen = {record.identity for record in records}
        _obs_count("recovery.wal.compactions")
        return len(records)

    def close(self) -> None:
        """Flush and close the journal handle (idempotent)."""
        with self._lock:
            self._log.close()

    def __enter__(self) -> "DurableCrowdCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DurableCrowdCache({str(self.journal_path)!r}, "
            f"answers={self.total_answers()})"
        )
