"""FaultPlan: a seedable, deterministic schedule of injected faults.

A :class:`FaultPlan` is consulted at *named sites* inside the serving
layer (:data:`SITES`).  Each call to :meth:`FaultPlan.decide` either
returns a :class:`FaultKind` to inject right now or ``None``.  Decisions
are a pure function of ``(seed, site, member, event counter)`` — two
plans built from the same specs and seed make identical decisions in
identical order, across processes, for any single ``(site, member)``
stream.  That is what makes a chaos
campaign *replayable*: a failing seed is a bug report.

Determinism is achieved without Python's salted ``hash()``: each
decision hashes its identity with BLAKE2 and compares the digest against
the spec's rate.  No global RNG is touched.

Injection sites (the serving layer's failure surface):

``member.answer``
    consulted by :class:`~repro.service.runner.MemberScript` once per
    delivered question; can inject ``TIMEOUT`` (the member goes silent
    and the question must be reaped), ``DEPART`` (the member leaves),
    ``MALFORMED`` (an out-of-range support value the manager must
    reject) and ``DUPLICATE`` (the answer is delivered twice).
``manager.dispatch``
    consulted by :meth:`~repro.service.manager.SessionManager.next_batch`
    before assembling a batch; ``TIMEOUT`` stalls the dispatch (the
    member gets an empty batch this round).
``manager.submit``
    consulted by :meth:`~repro.service.manager.SessionManager.submit`
    after an answer arrives; ``DUPLICATE`` re-applies the same answer a
    second time (the second application must come back ``STALE``).
``gateway.request``
    consulted by the HTTP gateway (:mod:`repro.gateway`) once per parsed
    request, before dispatch; ``DISCONNECT`` drops the connection without
    a response (the client must retry idempotently) and ``SLOW_CLIENT``
    delays the response past the configured stall, probing client
    timeout handling.
"""

from __future__ import annotations

import enum
import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..observability import count as _obs_count

#: the named injection points wired through repro.service
SITES = frozenset(
    {
        "member.answer",
        "manager.dispatch",
        "manager.submit",
        "gateway.request",
    }
)


class FaultKind(enum.Enum):
    """What kind of failure to inject."""

    #: the member goes silent; the question must hit its deadline
    TIMEOUT = "timeout"
    #: the member departs abruptly mid-session
    DEPART = "departure"
    #: the same answer is delivered twice (idempotence probe)
    DUPLICATE = "duplicate"
    #: an out-of-range / NaN support value (input validation probe)
    MALFORMED = "malformed"
    #: the gateway drops the connection before writing a response
    DISCONNECT = "disconnect"
    #: the gateway stalls the response past the configured delay
    SLOW_CLIENT = "slow_client"


#: the support value malformed answers carry (far outside [0, 1])
MALFORMED_SUPPORT = 7.5


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: where, what, to whom, how often.

    ``rate`` is the per-event injection probability (1.0 = always).
    ``member`` restricts the spec to one member id (``None`` = anyone).
    ``after`` skips the first N matching events; ``limit`` caps the
    total number of injections from this spec (``None`` = unbounded).
    """

    site: str
    kind: FaultKind
    rate: float = 1.0
    member: Optional[str] = None
    after: int = 0
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; pick from {sorted(SITES)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.after < 0:
            raise ValueError("after must be non-negative")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be non-negative")


def _roll(seed: int, site: str, member: str, kind: str, event: int) -> float:
    """A deterministic pseudo-random draw in [0, 1) for one decision."""
    identity = f"{seed}:{site}:{member}:{kind}:{event}".encode("utf-8")
    digest = hashlib.blake2b(identity, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


class FaultPlan:
    """A deterministic schedule of faults, consulted at named sites.

    Thread-safe: per-``(spec, member)`` event counters are guarded by an
    internal leaf lock (never held while any other lock is acquired).
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), *, seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self._lock = threading.Lock()
        # sites at least one spec targets: decide() short-circuits the
        # rest without locking, so a dormant plan costs one set lookup
        self._active_sites = frozenset(spec.site for spec in self.specs)
        # (spec index, member) -> events seen / injections fired
        self._events: Dict[Tuple[int, str], int] = {}
        self._fired: Dict[int, int] = {}
        self._injected: Dict[str, int] = {}

    def decide(self, site: str, member: Optional[str] = None) -> Optional[FaultKind]:
        """The fault to inject at ``site`` for ``member`` right now, if any.

        The first matching spec (in declaration order) that fires wins;
        every matching spec's event counter advances regardless, so
        adding a low-rate spec never perturbs the decisions of specs
        declared before it.
        """
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}")
        if site not in self._active_sites:
            # no spec targets this site: counters would not advance anyway
            return None
        who = member if member is not None else ""
        winner: Optional[FaultKind] = None
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.site != site:
                    continue
                if spec.member is not None and spec.member != member:
                    continue
                counter_key = (index, who)
                event = self._events.get(counter_key, 0)
                self._events[counter_key] = event + 1
                if winner is not None:
                    continue
                if event < spec.after:
                    continue
                if spec.limit is not None and self._fired.get(index, 0) >= spec.limit:
                    continue
                if _roll(self.seed, site, who, spec.kind.value, event) < spec.rate:
                    self._fired[index] = self._fired.get(index, 0) + 1
                    name = spec.kind.value
                    self._injected[name] = self._injected.get(name, 0) + 1
                    winner = spec.kind
        if winner is not None:
            _obs_count(f"faults.injected.{winner.value}")
        return winner

    def injected(self) -> Dict[str, int]:
        """How many faults of each kind have been injected so far."""
        with self._lock:
            return dict(sorted(self._injected.items()))

    def total_injected(self) -> int:
        with self._lock:
            return sum(self._injected.values())

    def __repr__(self) -> str:
        kinds = [spec.kind.value for spec in self.specs]
        return f"FaultPlan(seed={self.seed}, specs={kinds})"


def chaos_plan(
    *,
    seed: int,
    bad_member: Optional[str] = None,
    departing_member: Optional[str] = None,
    timeout_rate: float = 0.1,
    duplicate_rate: float = 0.08,
    depart_after: int = 6,
) -> FaultPlan:
    """The standard chaos mix: timeouts + duplicates everywhere, one
    always-malformed member and one departure.

    Used by :mod:`repro.faults.chaos` and the ``repro chaos`` CLI; kept
    here so tests can build the same plan the campaign runs.
    """
    specs: List[FaultSpec] = []
    if bad_member is not None:
        specs.append(
            FaultSpec("member.answer", FaultKind.MALFORMED, member=bad_member)
        )
    if departing_member is not None:
        specs.append(
            FaultSpec(
                "member.answer",
                FaultKind.DEPART,
                member=departing_member,
                after=depart_after,
                limit=1,
            )
        )
    specs.append(FaultSpec("member.answer", FaultKind.TIMEOUT, rate=timeout_rate))
    specs.append(FaultSpec("member.answer", FaultKind.DUPLICATE, rate=duplicate_rate))
    return FaultPlan(specs, seed=seed)
