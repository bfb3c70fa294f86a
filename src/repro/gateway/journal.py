"""The gateway's session WAL: durable joins, queries, mints and answers.

PR 8 left every token, active dataset, open session and minted qid in
:class:`~repro.gateway.app.GatewayApp` memory — one process restart
stranded every connected member.  This module journals the gateway's
state transitions to an append-only JSONL log (the
:class:`~repro.crowd.journal.AppendLog` machinery: flush-before-ack,
torn-tail healing, atomic compaction) so a crashed gateway restores to
the same externally visible state and clients resume with their
*existing* bearer tokens.

Record vocabulary (the ``t`` field; one JSON object per line)::

    {"v": 1, "t": "activate", "name": "demo"}
    {"v": 1, "t": "join",     "member": "w1", "token": "..."}
    {"v": 1, "t": "query",    "session": "g1", "query": "...", "sample_size": 3}
    {"v": 1, "t": "mint",     "qids": [["q7", "g1", "<key>", "w1"], ...]}
    {"v": 1, "t": "answer",   "qid": "q7", "session": "g1", "key": "<key>",
                              "member": "w1", "support": 0.5,
                              "outcome": "recorded", "ik": "<idempotency key>"}

Ordering discipline (who journals when is the whole durability story):
every mutation follows **apply → journal → acknowledge** on the one
thread that drives the app, so record order matches state-change order.

* ``join`` / ``query`` / ``activate`` are journaled right after the
  in-memory state mutates and before the response is sent — journal and
  memory die together in a crash, so anything acknowledged is journaled
  and anything unjournaled was never acknowledged; the client retries.
* ``mint`` is journaled when a batch of questions is handed out, so a
  restored gateway still *recognizes* pre-crash qids: an answer for one
  maps to the stale-not-404 path (the session layer re-dispatches the
  node; the member is never locked out).
* ``answer`` is journaled **after** the session layer applied it but
  **before** the HTTP response — an acknowledged answer is always in the
  journal, an unacknowledged one is retried by the client under the same
  idempotency key and applies exactly once in whichever incarnation of
  the gateway receives the retry.

Replay folds the records into a :class:`GatewayLogState`; a later
``activate`` resets everything after it, mirroring the live
``activate_dataset`` teardown.  Answers are deduplicated by
``(session, key, member)`` — the same idempotence identity the crowd
journal uses — so a compacted+uncompacted pair or a duplicated delivery
replays once.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..crowd.journal import AppendLog, replay_log, valid_support
from ..observability import count as _obs_count

#: gateway journal record schema version (bump on breaking changes)
JOURNAL_VERSION = 1

#: one minted qid: (qid, session_id, assignment key, member_id)
MintEntry = Tuple[str, str, str, str]


class GatewayLogState:
    """The folded state of a gateway journal (what replay reconstructs)."""

    def __init__(self) -> None:
        self.dataset: Optional[str] = None
        #: member_id -> bearer token, in join order
        self.members: Dict[str, str] = {}
        #: session_id -> (query text, sample_size), in pose order
        self.sessions: Dict[str, Tuple[str, int]] = {}
        #: qid -> (session_id, assignment key, member_id)
        self.mints: Dict[str, Tuple[str, str, str]] = {}
        #: answer records in arrival order, deduped by (session, key, member)
        self.answers: List[Dict[str, Any]] = []
        #: qid -> first journaled outcome
        self.answered: Dict[str, str] = {}
        #: idempotency key -> (qid, outcome)
        self.idempotency: Dict[str, Tuple[str, str]] = {}
        self.replayed = 0
        self.corrupt = 0
        self._answer_identities: Set[Tuple[str, str, str]] = set()

    def _reset(self) -> None:
        self.members.clear()
        self.sessions.clear()
        self.mints.clear()
        self.answers.clear()
        self.answered.clear()
        self.idempotency.clear()
        self._answer_identities.clear()

    # ------------------------------------------------------------- folding

    def fold(self, record: Dict[str, Any]) -> bool:
        """Apply one journal record; False when the record is malformed.

        A malformed record changes nothing.  Malformed includes a value
        the live path would have rejected: a ``sample_size`` that is not
        a positive int, or an answer whose support is neither ``None``
        (a pass) nor a number in [0, 1].
        """
        kind = record.get("t")
        try:
            if kind == "activate":
                self.dataset = str(record["name"])
                self._reset()
            elif kind == "join":
                self.members[str(record["member"])] = str(record["token"])
            elif kind == "query":
                sample_size = record["sample_size"]
                if (
                    isinstance(sample_size, bool)
                    or not isinstance(sample_size, int)
                    or sample_size < 1
                ):
                    return False
                self.sessions[str(record["session"])] = (
                    str(record["query"]),
                    sample_size,
                )
            elif kind == "mint":
                minted: Dict[str, Tuple[str, str, str]] = {}
                for entry in record["qids"]:
                    qid, session, key, member = (str(part) for part in entry)
                    minted[qid] = (session, key, member)
                self.mints.update(minted)
            elif kind == "answer":
                self._fold_answer(record)
            else:
                return False
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def _fold_answer(self, record: Dict[str, Any]) -> None:
        support = record.get("support")
        if support is not None and not valid_support(support):
            raise ValueError(f"support {support!r} is not in [0, 1]")
        qid = str(record["qid"])
        session = str(record["session"])
        key = str(record["key"])
        member = str(record["member"])
        outcome = str(record["outcome"])
        identity = (session, key, member)
        self.answered.setdefault(qid, outcome)
        ik = record.get("ik")
        if ik:
            self.idempotency.setdefault(str(ik), (qid, outcome))
        if identity in self._answer_identities:
            return
        self._answer_identities.add(identity)
        self.answers.append(
            {
                "qid": qid,
                "session": session,
                "key": key,
                "member": member,
                "support": None if support is None else float(support),
                "outcome": outcome,
                "ik": None if not ik else str(ik),
            }
        )

    # ------------------------------------------------------------ counters

    def max_qid_ordinal(self) -> int:
        """The largest ``q<N>`` ordinal seen (qid minting resumes past it)."""
        return max(
            (_ordinal(qid, "q") for qid in list(self.mints) + list(self.answered)),
            default=0,
        )

    def max_session_ordinal(self) -> int:
        """The largest auto-assigned ``g<N>`` ordinal seen."""
        return max(
            (_ordinal(sid, "g") for sid in self.sessions), default=0
        )

    def session_answers(self, session_id: str) -> List[Dict[str, Any]]:
        """The session's recorded (support-carrying) answers in order."""
        return [
            answer
            for answer in self.answers
            if answer["session"] == session_id
            and answer["outcome"] == "recorded"
            and answer["support"] is not None
        ]


def _ordinal(identifier: str, prefix: str) -> int:
    digits = identifier[len(prefix):]
    if not identifier.startswith(prefix) or not digits.isdecimal():
        return 0
    try:
        return int(digits)
    except ValueError:  # longer than int() parses from a string
        return 0


def replay_gateway_journal(
    path: "os.PathLike[str] | str",
) -> GatewayLogState:
    """Fold a gateway journal back into its :class:`GatewayLogState`.

    Corrupt lines and unknown record types are counted and skipped, never
    fatal — the same tolerance the crowd journal applies.  Unknown record
    types count as corrupt so a *newer* gateway's journal degrades loudly
    rather than silently.
    """
    state = GatewayLogState()
    payloads, corrupt = replay_log(path)
    for payload in payloads:
        if state.fold(payload):
            state.replayed += 1
        else:
            corrupt += 1
    state.corrupt = corrupt
    if state.replayed:
        _obs_count("gateway.journal.replayed", state.replayed)
    if corrupt:
        _obs_count("gateway.journal.corrupt_skipped", corrupt)
    return state


class GatewayJournal:
    """The gateway's append-side WAL handle (thread-safe).

    One instance per :class:`~repro.gateway.app.GatewayApp`; every
    ``log_*`` method appends one flushed record under the journal's own
    lock (a leaf lock — never held while calling back into the app or
    the session layer).
    """

    def __init__(
        self, path: "os.PathLike[str] | str", *, fsync: bool = False
    ) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._log = AppendLog(self.path, fsync=fsync)

    # ------------------------------------------------------------- appends

    # the barrier is opt-in (fsync=False by default) and bounded: one
    # line per acknowledged mutation, the price of crash durability
    def _append(self, record: Dict[str, Any]) -> None:  # repro-effects: allow=fsync
        record["v"] = JOURNAL_VERSION
        with self._lock:
            self._log.append(record)
        _obs_count("gateway.journal.appends")

    def log_activate(self, name: str) -> None:
        self._append({"t": "activate", "name": name})

    def log_join(self, member_id: str, token: str) -> None:
        self._append({"t": "join", "member": member_id, "token": token})

    def log_query(self, session_id: str, query: str, sample_size: int) -> None:
        self._append(
            {
                "t": "query",
                "session": session_id,
                "query": query,
                "sample_size": sample_size,
            }
        )

    def log_mint(self, entries: Sequence[MintEntry]) -> None:
        if not entries:
            return
        self._append({"t": "mint", "qids": [list(entry) for entry in entries]})

    def log_answer(
        self,
        *,
        qid: str,
        session_id: str,
        key: str,
        member_id: str,
        support: Optional[float],
        outcome: str,
        idempotency_key: Optional[str],
    ) -> None:
        self._append(
            {
                "t": "answer",
                "qid": qid,
                "session": session_id,
                "key": key,
                "member": member_id,
                "support": support,
                "outcome": outcome,
                "ik": idempotency_key,
            }
        )

    # ---------------------------------------------------------- compaction

    def compact(self) -> int:
        """Atomically rewrite the journal as its folded snapshot.

        Replays the journal from disk under the lock (appends are
        serialized with the rewrite, so no record can slip between read
        and swap) and writes back the deduplicated state: one activate,
        the joins, the queries, the mints still worth remembering and the
        deduped answers.  Returns the record count written.
        """
        with self._lock:
            state = GatewayLogState()
            payloads, _corrupt = replay_log(self.path)
            for payload in payloads:
                state.fold(payload)
            records: List[Dict[str, Any]] = []
            if state.dataset is not None:
                records.append({"t": "activate", "name": state.dataset})
            for member_id, token in state.members.items():
                records.append(
                    {"t": "join", "member": member_id, "token": token}
                )
            for session_id, (query, sample_size) in state.sessions.items():
                records.append(
                    {
                        "t": "query",
                        "session": session_id,
                        "query": query,
                        "sample_size": sample_size,
                    }
                )
            if state.mints:
                records.append(
                    {
                        "t": "mint",
                        "qids": [
                            [qid, session, key, member]
                            for qid, (session, key, member) in state.mints.items()
                        ],
                    }
                )
            for answer in state.answers:
                records.append(
                    {
                        "t": "answer",
                        "qid": answer["qid"],
                        "session": answer["session"],
                        "key": answer["key"],
                        "member": answer["member"],
                        "support": answer["support"],
                        "outcome": answer["outcome"],
                        "ik": answer["ik"],
                    }
                )
            for record in records:
                record["v"] = JOURNAL_VERSION
            written = self._log.rewrite(
                json.dumps(record, sort_keys=True) for record in records
            )
        _obs_count("gateway.journal.compactions")
        return written

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "GatewayJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"GatewayJournal({str(self.path)!r})"


__all__ = [
    "JOURNAL_VERSION",
    "GatewayJournal",
    "GatewayLogState",
    "replay_gateway_journal",
]
