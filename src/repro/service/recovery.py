"""Crash recovery: rebuild a killed session from journal + checkpoint.

The restore protocol (see ``docs/RELIABILITY.md``):

1. the **checkpoint** (tiny JSON written atomically by
   :meth:`~repro.service.session.QuerySession.enable_checkpoints`) names
   the query text, sample size and session id — everything needed to
   rebuild the assignment space;
2. the **journal** (:mod:`repro.crowd.journal`) holds every acknowledged
   answer as ``(assignment repr, member, support)`` records in arrival
   order;
3. :func:`resolve_journal` maps the string keys back to live
   :class:`~repro.assignments.assignment.Assignment` objects by walking
   the lattice from its roots, expanding successors whenever a replayed
   support reaches the query threshold.  This terminates with every
   record resolved because the :class:`~repro.engine.queue_manager.
   QueueManager` journals a parent's qualifying answer *before* pushing
   its successors — a child record can never precede its parent's in the
   journal;
4. :func:`restore_session` reopens the journal as a preloaded
   :class:`~repro.crowd.journal.DurableCrowdCache` and resumes through
   the ordinary ``create_session(..., resume=True)`` path, so the
   aggregator verdicts, classification state and per-member frontiers
   are reconstructed exactly as a snapshot resume would.

Because the resumed session re-collects only the answers that were never
acknowledged, an interrupted run reaches the same MSP set as an
uninterrupted one (the recovery identity tested in
``tests/test_recovery.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..assignments.assignment import Assignment
from ..assignments.generator import QueryAssignmentSpace
from ..crowd.cache import CrowdCache
from ..crowd.journal import DurableCrowdCache, JournalRecord, replay_journal
from ..observability import count as _obs_count, span as _obs_span
from .manager import SessionManager
from .session import CHECKPOINT_VERSION, QuerySession

PathLike = Union[str, Path]


def read_checkpoint(path: PathLike) -> Dict[str, object]:
    """Load and validate a session checkpoint; raises on wrong schema."""
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path} has version {version!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    if not isinstance(payload.get("query"), str):
        raise ValueError(f"checkpoint {path} lacks the query text")
    return payload


def resolve_journal(
    space: QueryAssignmentSpace,
    threshold: float,
    records: Sequence[JournalRecord],
) -> Tuple[Dict[Assignment, List[Tuple[str, float]]], int]:
    """Map journal keys back to live assignments by walking the lattice.

    Starts from the space's roots and registers each reachable node under
    its deterministic ``repr``; whenever a resolved record's support
    reaches ``threshold`` the node's successors become reachable too —
    mirroring exactly how the traversal that *wrote* the journal explored
    the lattice.  Returns ``(assignment -> [(member, support), ...] in
    arrival order, unresolved record count)``.  Unresolved records (a
    truncated journal whose parent record was lost) are counted, not
    fatal.
    """
    known: Dict[str, Assignment] = {}
    for root in space.roots():
        known[repr(root)] = root
    resolved: Dict[Assignment, List[Tuple[str, float]]] = {}
    consumed = [False] * len(records)
    remaining = len(records)
    progress = True
    while progress and remaining:
        progress = False
        for index, record in enumerate(records):
            if consumed[index]:
                continue
            node = known.get(record.key)
            if node is None:
                continue
            consumed[index] = True
            remaining -= 1
            progress = True
            resolved.setdefault(node, []).append((record.member, record.support))
            if record.support >= threshold:
                for successor in space.successors(node):
                    known.setdefault(repr(successor), successor)
    if len(records) > remaining:
        _obs_count("recovery.answers.resolved", len(records) - remaining)
    return resolved, remaining


def resume_session(
    manager: SessionManager,
    query_text: str,
    records: Sequence[JournalRecord],
    make_cache: Callable[[Dict[Assignment, List[Tuple[str, float]]]], CrowdCache],
    *,
    session_id: str,
    sample_size: Optional[int] = None,
    include_invalid: bool = False,
) -> Tuple[QuerySession, int]:
    """Re-create a session from its journaled answers.

    Builds the query's assignment space, resolves ``records`` onto it
    (:func:`resolve_journal`), hands the resolved answers to ``make_cache``
    and resumes through ``create_session(..., resume=True)``, so
    acknowledged answers are never asked again.  Returns the session and
    the number of answers restored.  Both :func:`restore_session` and the
    gateway's journal restore come here.
    """
    parsed = manager.engine._as_query(query_text)
    space = manager.engine.build_space(parsed)
    resolved, unresolved = resolve_journal(space, parsed.threshold, records)
    if unresolved:
        _obs_count("recovery.answers.unresolved", unresolved)
    session = manager.create_session(
        query_text,
        session_id=session_id,
        cache=make_cache(resolved),
        resume=True,
        sample_size=sample_size,
        include_invalid=include_invalid,
    )
    return session, sum(len(answers) for answers in resolved.values())


def restore_session(
    manager: SessionManager,
    *,
    checkpoint_path: PathLike,
    journal_path: PathLike,
    session_id: Optional[str] = None,
    checkpoint_every: int = 0,
    fsync: bool = False,
) -> QuerySession:
    """Resume a killed session from its checkpoint + WAL journal.

    Rebuilds the assignment space from the checkpointed query, resolves
    the journal's string keys to live assignments, reopens the journal as
    a preloaded :class:`~repro.crowd.journal.DurableCrowdCache` (new
    answers keep appending; replayed identities stay idempotent) and
    resumes through ``create_session(..., resume=True)``
    (:func:`resume_session`).  With ``checkpoint_every > 0`` the restored
    session continues writing checkpoints to the same path.
    """
    with _obs_span("recovery.restore"):
        payload = read_checkpoint(checkpoint_path)
        raw_sample = payload.get("sample_size")
        records, _corrupt = replay_journal(journal_path)
        session, _restored = resume_session(
            manager,
            str(payload["query"]),
            records,
            lambda resolved: DurableCrowdCache(
                journal_path, preload=resolved, fsync=fsync
            ),
            session_id=(
                session_id if session_id is not None else str(payload["session_id"])
            ),
            sample_size=int(raw_sample) if isinstance(raw_sample, int) else None,
            include_invalid=bool(payload.get("include_invalid", False)),
        )
        if checkpoint_every > 0:
            session.enable_checkpoints(checkpoint_path, every=checkpoint_every)
    _obs_count("recovery.sessions.restored")
    return session
