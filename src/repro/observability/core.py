"""Tracer, spans and counters — the instrumentation core.

A :class:`Tracer` owns two kinds of state:

* **counters** — a flat ``name -> int`` map.  Names follow the dotted
  scheme documented in ``docs/OBSERVABILITY.md`` (``crowd.questions``,
  ``cache.hits``, ``mining.inferred.insignificant``, ...).
* **spans** — a tree of named timed sections.  Spans with the same name
  under the same parent are aggregated (invocation count + total
  monotonic wall time), so instrumenting a hot loop does not grow the
  tree per iteration.

Activation is *context-local*: a tracer becomes visible to library code
by being installed in a :mod:`contextvars` context variable, so two
threads (or two asyncio tasks) can trace independently and library
modules never need a tracer handle threaded through their signatures.
When no tracer is installed every module-level helper is a guarded
no-op: ``count()`` is a single dictionary-free function call and
``span()`` returns a shared null context manager, which keeps the
instrumented hot paths within measurement noise of uninstrumented code.
"""

from __future__ import annotations

import threading
import time
from contextlib import AbstractContextManager, contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SpanNode:
    """One named node of the span tree (aggregated over invocations)."""

    __slots__ = ("name", "count", "total_seconds", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_seconds = 0.0
        # child name -> SpanNode, in first-seen order (dicts preserve it)
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (seconds rounded to the microsecond)."""
        return {
            "name": self.name,
            "count": self.count,
            "total_s": round(self.total_seconds, 6),
            "children": [c.as_dict() for c in self.children.values()],
        }

    def __repr__(self) -> str:
        return (
            f"SpanNode({self.name!r}, count={self.count}, "
            f"total_s={self.total_seconds:.6f})"
        )


#: log-spaced histogram bucket upper bounds (seconds): five per decade
#: from 10µs to ~63s, which bounds the relative quantile error at the
#: bucket ratio (~1.58x) while keeping every histogram a fixed 36 ints
_HISTOGRAM_BOUNDS: Tuple[float, ...] = tuple(
    round(1e-5 * 10 ** (exponent / 5), 10) for exponent in range(36)
)


class Histogram:
    """A fixed-bucket latency histogram (seconds).

    Log-spaced buckets keep memory constant no matter how many requests a
    gateway serves; quantiles are interpolated inside the winning bucket
    and clamped to the observed min/max, so p50/p95/p99 are exact at the
    extremes and within one bucket ratio everywhere else.  Mutation is
    guarded by the owning :class:`Tracer`'s lock.
    """

    __slots__ = ("count", "total_seconds", "min_seconds", "max_seconds", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0
        self.buckets = [0] * (len(_HISTOGRAM_BOUNDS) + 1)

    def observe(self, seconds: float) -> None:
        value = max(0.0, seconds)
        self.count += 1
        self.total_seconds += value
        if value < self.min_seconds:
            self.min_seconds = value
        if value > self.max_seconds:
            self.max_seconds = value
        for index, bound in enumerate(_HISTOGRAM_BOUNDS):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def quantile(self, q: float) -> float:
        """The latency at quantile ``q`` in [0, 1] (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self.count
        seen = 0.0
        for index, in_bucket in enumerate(self.buckets):
            seen += in_bucket
            if seen >= rank and in_bucket:
                upper = (
                    _HISTOGRAM_BOUNDS[index]
                    if index < len(_HISTOGRAM_BOUNDS)
                    else self.max_seconds
                )
                lower = _HISTOGRAM_BOUNDS[index - 1] if index > 0 else 0.0
                # interpolate within the bucket, clamp to observed range
                fraction = 1.0 - (seen - rank) / in_bucket
                estimate = lower + (upper - lower) * fraction
                return min(self.max_seconds, max(self.min_seconds, estimate))
        return self.max_seconds

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary (seconds rounded to the microsecond)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "total_s": round(self.total_seconds, 6),
            "mean_s": round(self.total_seconds / self.count, 6),
            "min_s": round(self.min_seconds, 6),
            "max_s": round(self.max_seconds, 6),
            "p50_s": round(self.quantile(0.50), 6),
            "p95_s": round(self.quantile(0.95), 6),
            "p99_s": round(self.quantile(0.99), 6),
        }

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, total_s={self.total_seconds:.6f})"


class Tracer:
    """Collects counters and nested timed spans for one traced run.

    ``clock`` is injectable for deterministic tests; it must be a
    monotonic zero-argument callable returning seconds (the default is
    :func:`time.perf_counter`).

    One tracer may be shared by several threads (a gateway served from
    a background thread records onto its caller's tracer): counter
    increments and span-tree mutations are guarded by an internal lock,
    and the open-span stack is *per thread*, so spans recorded from
    another thread nest under that thread's own open spans (rooted at
    the shared tree root) rather than corrupting another thread's stack.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.root = SpanNode("<root>")
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def _stack(self) -> List[SpanNode]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [self.root]
        return stack

    # ------------------------------------------------------------- counters

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def value(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0)

    # ----------------------------------------------------------- histograms

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency sample into the histogram ``name``."""
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.observe(seconds)

    def histogram(self, name: str) -> Optional[Histogram]:
        """The histogram ``name``, or None when nothing was observed."""
        return self.histograms.get(name)

    # ---------------------------------------------------------------- spans

    @contextmanager
    def span(self, name: str) -> Iterator[SpanNode]:
        """A timed section nested under the currently open span."""
        stack = self._stack
        with self._lock:
            node = stack[-1].child(name)
            node.count += 1
        stack.append(node)
        start = self._clock()
        try:
            yield node
        finally:
            elapsed = self._clock() - start
            with self._lock:
                node.total_seconds += elapsed
            stack.pop()

    def span_names(self) -> List[str]:
        """Dotted paths of every recorded span, depth-first."""
        names: List[str] = []

        def walk(node: SpanNode, prefix: str) -> None:
            for child in node.children.values():
                path = f"{prefix}{child.name}" if not prefix else f"{prefix}/{child.name}"
                names.append(path)
                walk(child, path)

        walk(self.root, "")
        return names

    def find_span(self, name: str) -> Optional[SpanNode]:
        """The first span named ``name``, depth-first; None if absent."""
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop(0)
            if node.name == name:
                return node
            stack.extend(node.children.values())
        return None

    # --------------------------------------------------------------- report

    def report(self) -> Dict[str, Any]:
        """The machine-readable report (see ``docs/OBSERVABILITY.md``)."""
        from .report import build_report

        return build_report(self)

    def render(self) -> str:
        """The human-readable summary table."""
        from .report import render_report

        return render_report(self.report())


# ----------------------------------------------------------------- registry

_ACTIVE: ContextVar[Optional[Tracer]] = ContextVar("repro_tracer", default=None)


class _NullSpan(AbstractContextManager[None]):
    """The shared no-op context manager returned by disabled ``span()``."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def get_tracer() -> Optional[Tracer]:
    """The tracer active in this context, or None when tracing is off.

    Hot paths fetch this once per operation and guard every recording
    call with ``if tracer is not None`` so the disabled mode costs one
    context-variable read per operation, not per event.
    """
    return _ACTIVE.get()


def enabled() -> bool:
    """Is a tracer active in this context?"""
    return _ACTIVE.get() is not None


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) in the current context."""
    if tracer is None:
        tracer = Tracer()
    _ACTIVE.set(tracer)
    return tracer


def disable() -> Optional[Tracer]:
    """Deactivate tracing in this context; returns the removed tracer."""
    tracer = _ACTIVE.get()
    _ACTIVE.set(None)
    return tracer


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scope-local activation::

        with tracing() as tracer:
            result = engine.execute(query, crowd)
        print(tracer.render())
    """
    if tracer is None:
        tracer = Tracer()
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def span(name: str) -> AbstractContextManager[Optional[SpanNode]]:
    """A span on the active tracer, or a shared no-op when disabled."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name)


def count(name: str, amount: int = 1) -> None:
    """Increment a counter on the active tracer; no-op when disabled."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.count(name, amount)


def observe(name: str, seconds: float) -> None:
    """Record a latency sample on the active tracer; no-op when disabled."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.observe(name, seconds)
