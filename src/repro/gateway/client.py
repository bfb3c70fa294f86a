"""Blocking HTTP client + the simulated-member campaign replayer.

:class:`GatewayClient` is the reference consumer of the wire schema: a
small ``http.client`` wrapper whose methods return the same typed DTOs
the server encodes.  Transport failures retry under a
:class:`RetryPolicy` — jittered exponential backoff with a wall-clock
budget, seedable for determinism — which is exactly the discipline both
an injected ``DISCONNECT`` fault and a *restarting gateway* demand:
every gateway endpoint is idempotent-or-safe to retry (``/answer``
re-plays come back ``stale``, and with an ``idempotency_key`` the
exactly-once guarantee survives a gateway restart).  ``429`` responses
are honored uniformly: the client sleeps the server-advertised
``retry_after_s`` (within the retry budget) before re-issuing, so
recovering servers are never stormed.  The remaining budget is
propagated to the server as the wire ``deadline_s`` field so a long
poll never parks a client past its own deadline.

:func:`replay_campaign` drives a full simulated-member campaign over
loopback HTTP: activate a domain, pose sessions, run one answering
thread per member (each wrapping a deterministic identical
:class:`~repro.crowd.member.CrowdMember` that rebuilds the wire
fact-sets and answers them), and poll ``/result`` until every session
settles.  With ``verify=True`` the MSP sets are checked against serial
``engine.execute`` — the same oracle the in-process service layer uses —
which is the end-to-end correctness gate of ``repro gateway`` (the CI
loopback smoke, ``make gateway-smoke``).

This module is deliberately synchronous: it models *clients*, which
live on their own threads.  The gateway's own async code never imports
it.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..crowd.member import CrowdMember
from ..crowd.questions import ConcreteQuestion
from .schema import (
    ActivateRequest,
    ActivateResponse,
    AnswerRequest,
    AnswerResponse,
    DatasetList,
    JoinRequest,
    JoinResponse,
    QueryAccepted,
    QueryRequest,
    QuestionBatch,
    ResultResponse,
    SchemaError,
    facts_from_wire,
)


class GatewayClientError(RuntimeError):
    """A non-2xx gateway response."""

    def __init__(self, status: int, error: str, detail: str) -> None:
        super().__init__(f"{status} {error}: {detail}")
        self.status = status
        self.error = error
        self.detail = detail


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff with a wall-clock retry budget.

    Attempt ``n`` (0-based) sleeps ``backoff_base * 2**n`` capped at
    ``backoff_cap``, scaled down by up to ``jitter`` (a fraction in
    ``[0, 1]``) of itself — full-jitter style, so a fleet of clients
    retrying against a recovering gateway spreads out instead of
    thundering in lockstep.  ``budget_s`` bounds the *total* wall time
    spent sleeping between attempts; a 429's server-advertised
    ``retry_after_s`` is honored within the same budget.  ``seed``
    makes the jitter deterministic for tests and chaos replays.
    """

    retries: int = 4
    backoff_base: float = 0.02
    backoff_cap: float = 2.0
    jitter: float = 0.5
    budget_s: float = 30.0
    seed: Optional[int] = None

    def delay(self, attempt: int, rng: random.Random) -> float:
        """The backoff before retry ``attempt`` (0-based), jittered."""
        base = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        if self.jitter <= 0.0:
            return base
        return base * (1.0 - self.jitter * rng.random())


class GatewayClient:
    """A minimal blocking client for one gateway."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        token: Optional[str] = None,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.token = token
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random(self.retry.seed)
        self._connection: Optional[http.client.HTTPConnection] = None

    # -------------------------------------------------------------- plumbing

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        token: Optional[str] = None,
    ) -> Dict[str, Any]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers: Dict[str, str] = {"Content-Type": "application/json"}
        bearer = token if token is not None else self.token
        if bearer:
            headers["Authorization"] = f"Bearer {bearer}"
        policy = self.retry
        budget_ends = time.monotonic() + policy.budget_s
        last: Optional[Exception] = None
        for attempt in range(policy.retries + 1):
            try:
                if self._connection is None:
                    self._connection = http.client.HTTPConnection(
                        self.host, self.port, timeout=self.timeout
                    )
                self._connection.request(method, path, body=body, headers=headers)
                response = self._connection.getresponse()
                raw = response.read()
                status = response.status
            except (
                ConnectionError,
                http.client.HTTPException,
                OSError,
            ) as error:
                # dropped mid-exchange (an injected DISCONNECT, or the
                # gateway restarting): reset the connection and retry
                # idempotently under the jittered backoff
                self.close()
                last = error
                if attempt >= policy.retries or not self._backoff(
                    policy.delay(attempt, self._rng), budget_ends
                ):
                    break
                continue
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise GatewayClientError(
                    status, "undecodable", f"bad response body: {error}"
                )
            if status == 429 and attempt < policy.retries:
                # honor the server's pushback uniformly: sleep what it
                # asked for (or our own backoff), then re-issue
                advertised = decoded.get("retry_after_s")
                pause = (
                    float(advertised)
                    if isinstance(advertised, (int, float))
                    else policy.delay(attempt, self._rng)
                )
                if self._backoff(pause, budget_ends):
                    continue
            if status >= 400:
                raise GatewayClientError(
                    status,
                    str(decoded.get("error", "error")),
                    str(decoded.get("detail", "")),
                )
            return decoded
        raise GatewayClientError(
            0, "unreachable", f"gateway did not respond: {last}"
        )

    def _backoff(self, delay: float, budget_ends: float) -> bool:
        """Sleep ``delay`` within the retry budget; False = budget spent."""
        remaining = budget_ends - time.monotonic()
        if remaining <= 0.0:
            return False
        time.sleep(max(0.0, min(delay, remaining)))
        return True

    def remaining_budget(self) -> float:
        """The policy's full retry budget (propagated as ``deadline_s``)."""
        return self.retry.budget_s

    # ------------------------------------------------------------- endpoints

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def datasets(self) -> DatasetList:
        return DatasetList.from_wire(self._request("GET", "/datasets"))

    def activate(self, name: str) -> ActivateResponse:
        return ActivateResponse.from_wire(
            self._request(
                "POST", "/datasets/activate", ActivateRequest(name).to_wire()
            )
        )

    def join(self, member_id: Optional[str] = None) -> JoinResponse:
        return JoinResponse.from_wire(
            self._request("POST", "/join", JoinRequest(member_id).to_wire())
        )

    def pose_query(
        self,
        *,
        query: Optional[str] = None,
        threshold: float = 0.4,
        sample_size: int = 3,
        session_id: Optional[str] = None,
    ) -> QueryAccepted:
        request = QueryRequest(
            query=query,
            threshold=threshold,
            sample_size=sample_size,
            session_id=session_id,
        )
        return QueryAccepted.from_wire(
            self._request("POST", "/query", request.to_wire())
        )

    def next_questions(
        self,
        *,
        wait: float = 0.0,
        k: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> QuestionBatch:
        path = f"/next?wait={wait}"
        if k is not None:
            path += f"&k={k}"
        if deadline_s is None:
            deadline_s = self.remaining_budget()
        path += f"&deadline_s={deadline_s}"
        return QuestionBatch.from_wire(self._request("GET", path))

    def submit_answer(
        self,
        qid: str,
        support: Optional[float],
        *,
        idempotency_key: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> AnswerResponse:
        request = AnswerRequest(
            qid,
            support,
            idempotency_key=idempotency_key,
            deadline_s=(
                deadline_s if deadline_s is not None else self.remaining_budget()
            ),
        )
        return AnswerResponse.from_wire(
            self._request("POST", "/answer", request.to_wire())
        )

    def result(self, session_id: str) -> ResultResponse:
        return ResultResponse.from_wire(
            self._request("GET", f"/result?session={session_id}")
        )

    def mcp(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("POST", "/mcp", message)


# ----------------------------------------------------------------- campaigns


def _member_loop(
    host: str,
    port: int,
    token: str,
    member: CrowdMember,
    done: threading.Event,
    wait: float,
    errors: List[str],
) -> None:
    """One simulated member: long-poll, answer, repeat until the campaign ends."""
    # per-member deterministic jitter: the fleet must not retry in lockstep
    policy = RetryPolicy(
        retries=8, seed=sum(ord(ch) for ch in member.member_id)
    )
    client = GatewayClient(host, port, token=token, retry=policy)
    try:
        while not done.is_set():
            try:
                batch = client.next_questions(wait=wait)
            except GatewayClientError as error:
                if error.status == 429:
                    time.sleep(0.01)  # backpressure: let answers drain
                    continue
                errors.append(f"{member.member_id}: {error}")
                return
            except SchemaError as error:
                errors.append(f"{member.member_id}: undecodable batch: {error}")
                return
            for question in batch.questions:
                fact_set = facts_from_wire(question.facts)
                answer = member.answer_concrete(
                    ConcreteQuestion(question.qid, fact_set)
                )
                try:
                    client.submit_answer(
                        question.qid,
                        answer.support,
                        idempotency_key=f"{member.member_id}:{question.qid}",
                    )
                except GatewayClientError as error:
                    if error.status == 404:
                        continue  # reaped while we were answering
                    errors.append(f"{member.member_id}: {error}")
                    return
    finally:
        client.close()


def replay_campaign(
    *,
    host: str,
    port: int,
    admin_token: Optional[str] = None,
    domain: str = "demo",
    sessions: int = 2,
    crowd_size: int = 4,
    sample_size: int = 3,
    thresholds: Sequence[float] = (0.2, 0.3, 0.4, 0.5),
    seed: int = 0,
    wait: float = 0.3,
    max_runtime: float = 60.0,
    verify: bool = True,
) -> Dict[str, Any]:
    """Replay a simulated-member campaign over loopback HTTP.

    Activates ``domain``, poses ``sessions`` sessions (thresholds
    cycling through ``thresholds``), runs ``crowd_size`` member threads
    of *identical* deterministic members (the serial-identity
    precondition), and polls ``/result`` until every session settles or
    ``max_runtime`` elapses.  Returns a report with per-session MSP
    sets, question counts, elapsed wall time and — with ``verify=True``
    — the serial ``engine.execute`` comparison.
    """
    from ..service.simulation import (
        DOMAINS,
        build_identical_crowd,
        check_sample_size,
        serial_mismatches,
    )

    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}; pick from {sorted(DOMAINS)}")
    check_sample_size(crowd_size, sample_size)
    dataset = DOMAINS[domain]()
    admin = GatewayClient(host, port, token=admin_token)
    started = time.perf_counter()
    admin.activate(domain)
    session_ids: List[str] = []
    queries: Dict[str, str] = {}
    for index in range(sessions):
        threshold = thresholds[index % len(thresholds)]
        accepted = admin.pose_query(
            threshold=threshold,
            sample_size=sample_size,
            session_id=f"{domain}-{index}",
        )
        session_ids.append(accepted.session_id)
        queries[accepted.session_id] = accepted.query

    members = build_identical_crowd(dataset, crowd_size, seed=seed)
    done = threading.Event()
    errors: List[str] = []
    threads: List[threading.Thread] = []
    for member in members:
        joined = admin.join(member.member_id)
        thread = threading.Thread(
            target=_member_loop,
            args=(host, port, joined.token, member, done, wait, errors),
            name=f"member-{member.member_id}",
            daemon=True,
        )
        threads.append(thread)
        thread.start()

    results: Dict[str, ResultResponse] = {}
    deadline = time.perf_counter() + max_runtime
    timed_out = False
    try:
        while True:
            pending = [
                sid
                for sid in session_ids
                if sid not in results or not results[sid].done
            ]
            for sid in pending:
                results[sid] = admin.result(sid)
            if all(results[sid].done for sid in session_ids):
                break
            if errors:
                break
            if time.perf_counter() >= deadline:
                timed_out = True
                break
            time.sleep(0.02)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=5.0)
        admin.close()

    elapsed = time.perf_counter() - started
    questions_total = sum(r.questions_asked for r in results.values())
    report: Dict[str, Any] = {
        "domain": domain,
        "sessions": {
            sid: {
                "state": results[sid].state if sid in results else "unknown",
                "done": bool(sid in results and results[sid].done),
                "questions": results[sid].questions_asked if sid in results else 0,
                "msps": list(results[sid].msps) if sid in results else [],
            }
            for sid in session_ids
        },
        "crowd_size": crowd_size,
        "sample_size": sample_size,
        "questions_answered": questions_total,
        "elapsed_seconds": round(elapsed, 4),
        "questions_per_second": round(questions_total / elapsed, 2)
        if elapsed > 0
        else 0.0,
        "timed_out": timed_out,
        "errors": errors,
    }
    if verify:
        mismatches = serial_mismatches(
            domain,
            {
                sid: (queries[sid], results[sid].msps if sid in results else ())
                for sid in session_ids
            },
            crowd_size=crowd_size,
            sample_size=sample_size,
            seed=seed,
        )
        report["verified"] = not mismatches and not errors and not timed_out
        report["mismatches"] = mismatches
    return report
