"""CrowdCache: the answer store of Section 6.1/6.3.

The cache records every (assignment, member, support) triple collected from
the crowd.  Its headline use is the paper's threshold replay: answers
gathered while executing a query at threshold 0.2 are *independent of the
threshold*, so the same query can be re-evaluated at 0.3/0.4/0.5 without
asking the crowd again — the mining algorithm consults the cache first and
only "asks" when the cache misses.  The Section 6.3 statistics count, per
threshold, only the answers the algorithm actually used.

The paper backs this store with MySQL; we keep it in memory with optional
JSON persistence (the durability engine is irrelevant to the algorithms).

Thread-safety: mutations and snapshots take an internal lock, so a
snapshot may be read on another thread while the serving thread (see
:mod:`repro.service`) keeps recording.  The arrival-order answer lists double as provenance — they record
which member said what, in which order it was collected.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from ..observability import count as _obs_count


class CrowdCache:
    """In-memory store of crowd answers keyed by assignment."""

    def __init__(self) -> None:
        # assignment -> list of (member_id, support), in arrival order
        self._answers: Dict[Hashable, List[Tuple[str, float]]] = defaultdict(list)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def record(self, assignment: Hashable, member_id: str, support: float) -> None:
        """Store one collected answer."""
        with self._lock:
            self._answers[assignment].append((member_id, support))
        _obs_count("cache.answers.recorded")

    def snapshot(self) -> "CrowdCache":
        """A point-in-time copy (session snapshot/resume).

        The copy is independent: answers recorded into either cache after
        the snapshot do not leak into the other.  Hit/miss statistics
        start from zero.
        """
        copy = CrowdCache()
        with self._lock:
            for assignment, answers in self._answers.items():
                copy._answers[assignment] = list(answers)
        return copy

    def lookup(self, assignment: Hashable, member_id: str) -> Optional[float]:
        """The cached answer of ``member_id`` for ``assignment``, if any."""
        for member, support in self._answers.get(assignment, ()):
            if member == member_id:
                self.hits += 1
                _obs_count("cache.hits")
                return support
        self.misses += 1
        _obs_count("cache.misses")
        return None

    def answers_for(self, assignment: Hashable) -> List[Tuple[str, float]]:
        """All cached answers for ``assignment`` in arrival order."""
        return list(self._answers.get(assignment, ()))

    def assignments(self) -> Iterator[Hashable]:
        return iter(self._answers)

    def __len__(self) -> int:
        return len(self._answers)

    def total_answers(self) -> int:
        return sum(len(answers) for answers in self._answers.values())

    def clear_statistics(self) -> None:
        self.hits = 0
        self.misses = 0

    # ---------------------------------------------------------- persistence

    def to_json(self, key_fn=repr) -> str:
        """Serialize to JSON; ``key_fn`` renders assignment keys as strings.

        Round-tripping through JSON loses the original assignment objects
        (keys become strings); this is intended for audit logs and offline
        analysis, not as the primary store.
        """
        payload = {
            key_fn(assignment): [[member, support] for member, support in answers]
            for assignment, answers in self._answers.items()
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CrowdCache":
        """Load a cache whose keys are the serialized strings."""
        cache = cls()
        payload = json.loads(text)
        for key, answers in payload.items():
            for member, support in answers:
                cache.record(key, member, float(support))
        return cache
