"""Concurrent crowd-serving sessions over the OASSIS engine.

The paper evaluates one query against one crowd; a deployed crowd miner
serves *many* queries against a *shared, flaky* crowd.  This package is
that serving layer:

* :class:`SessionManager` — hosts concurrent :class:`QuerySession`\\ s
  (each a :class:`~repro.engine.queue_manager.QueueManager` plus crowd
  cache) and multiplexes members across them: batched dispatch
  with per-member in-flight limits, question deadlines with
  retry/backoff/reassignment, member departures, and session
  create / snapshot-resume / cancel;
* :class:`ServiceRunner` — one loop serving every attached member in
  turn on a :class:`VirtualClock` until the manager settles, with
  :class:`MemberScript` behaviours injecting drops and departures;
* :func:`run_simulation` — the multi-session harness shared by
  ``repro serve-sim`` and the tests, whose oracle is MSP-identity with
  serial execution;
* :func:`restore_session` — crash recovery: rebuild a killed session
  from its WAL journal + checkpoint (``docs/RELIABILITY.md``).

Entry point: ``engine.session_manager(question_timeout=..., ...)``.
Threading model and failure semantics: ``docs/SERVICE.md``; the emitted
``service.*`` counters: ``docs/OBSERVABILITY.md``.
"""

from .config import ServiceConfig
from .manager import DispatchedQuestion, SessionManager
from .recovery import read_checkpoint, resolve_journal, restore_session
from .runner import DEPART, DROP, MemberScript, ServiceRunner, VirtualClock
from .session import CHECKPOINT_VERSION, QuerySession, SessionState
from .simulation import DOMAINS, build_identical_crowd, run_simulation
from .supervisor import ShardSupervisor, SupervisorConfig

__all__ = [
    "CHECKPOINT_VERSION",
    "DEPART",
    "DOMAINS",
    "DROP",
    "DispatchedQuestion",
    "MemberScript",
    "QuerySession",
    "ServiceConfig",
    "ServiceRunner",
    "SessionManager",
    "SessionState",
    "ShardSupervisor",
    "SupervisorConfig",
    "VirtualClock",
    "build_identical_crowd",
    "read_checkpoint",
    "resolve_journal",
    "restore_session",
    "run_simulation",
]
