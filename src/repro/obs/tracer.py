"""The tracer: nested spans, counters, and a zero-overhead default.

Every optimization run in this repository is a *measurement* — the
paper's headline results are enumerated-subplan counts (Table I),
optimization latencies (Fig. 9) and pruning effectiveness (§IV-E). The
tracer makes those measurements first-class: instrumented components
emit **spans** (named, nested, wall-clock-timed regions with arbitrary
attributes) and **counters** (monotonic named totals), and a finished
trace exports to JSONL for offline analysis.

Three tracer implementations share one duck type:

* :class:`Tracer` — records spans and counters in memory;
* :class:`CounterTracer` — keeps the counters only; spans and events
  are no-ops, so a long-lived process (the ``repro serve`` daemon) can
  count forever in constant memory;
* :class:`NullTracer` — the ambient default; every operation is a no-op
  and ``enabled`` is ``False`` so hot paths can skip even argument
  construction (``if tracer.enabled: ...``).

The *ambient* tracer is held in a :mod:`contextvars` variable so traces
nest correctly across threads and nested optimizer calls::

    tracer = Tracer()
    with use_tracer(tracer):
        robopt.optimize(plan)
    tracer.export("trace.jsonl")

Instrumented library code never pays for this when tracing is off: the
``NullTracer`` singleton's ``span`` returns a reusable no-op context
manager and ``count``/``event`` return immediately.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "CounterTracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
]


class Span:
    """One named, timed region of a trace.

    Spans nest: ``parent_id`` is the id of the enclosing open span (or
    ``None`` at the root). ``attrs`` holds arbitrary JSON-serializable
    metadata; more can be attached while the span is open via
    :meth:`set`.
    """

    __slots__ = ("span_id", "parent_id", "name", "start_s", "end_s", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_s: float,
        attrs: Dict[str, Any],
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attrs = attrs

    @property
    def duration_s(self) -> float:
        """Wall-clock seconds the span covered (0.0 while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (e.g. results known only at exit)."""
        self.attrs.update(attrs)

    def to_record(self) -> Dict[str, Any]:
        """The JSONL representation of the span."""
        record: Dict[str, Any] = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, {self.duration_s * 1e3:.2f}ms)"


class Tracer:
    """Records nested spans and counters for one traced run.

    Not thread-safe: use one tracer per traced run (the ambient-tracer
    mechanism is a contextvar, so concurrent runs each see their own).
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._t0 = clock()
        self._next_id = 0
        self._stack: List[Span] = []
        #: finished spans, in completion order
        self.spans: List[Span] = []
        #: monotonic named totals
        self.counters: Dict[str, float] = {}

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a nested span; closes (and records) it on exit."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self._next_id, parent, name, self._clock() - self._t0, attrs)
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_s = self._clock() - self._t0
            self._stack.pop()
            self.spans.append(span)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def event(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration span (a point-in-time marker)."""
        now = self._clock() - self._t0
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self._next_id, parent, name, now, attrs)
        self._next_id += 1
        span.end_s = now
        self.spans.append(span)

    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """All trace records (spans in completion order, then counters)."""
        out = [span.to_record() for span in self.spans]
        for name in sorted(self.counters):
            out.append(
                {"type": "counter", "name": name, "value": self.counters[name]}
            )
        return out

    def export(self, path) -> int:
        """Write the trace as JSONL; returns the number of records."""
        from repro.obs.export import write_trace

        return write_trace(self, path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(spans={len(self.spans)}, counters={len(self.counters)})"
        )


class _NullSpan:
    """The reusable no-op span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class CounterTracer:
    """Counters always, spans never: the tracer of a long-lived process.

    ``enabled`` is ``True``, so instrumented code counts exactly as it
    does under a :class:`Tracer`, but ``span`` hands out the shared no-op
    span and ``event`` returns at once. Memory stays one dict entry per
    counter name however many requests are answered.
    """

    enabled = True

    def __init__(self):
        #: monotonic named totals
        self.counters: Dict[str, float] = {}

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CounterTracer(counters={len(self.counters)})"


class NullTracer:
    """The zero-overhead default tracer: every operation is a no-op."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def records(self) -> List[Dict[str, Any]]:
        return []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: The process-wide no-op singleton (the ambient default).
NULL_TRACER = NullTracer()

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_tracer", default=NULL_TRACER
)


def current_tracer():
    """The ambient tracer (the :data:`NULL_TRACER` unless one is active)."""
    return _CURRENT.get()


@contextmanager
def use_tracer(tracer) -> Iterator[Any]:
    """Make ``tracer`` ambient for the duration of the ``with`` block."""
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)
