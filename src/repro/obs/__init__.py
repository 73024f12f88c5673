"""Observability for the optimizer: spans, counters, JSONL traces.

The paper's claims are measurements; ``repro.obs`` is the subsystem that
produces them. Instrumented components (the priority enumerator, the
object enumerator, the runtime model, the simulated executor, TDGEN)
emit nested spans and counters through the *ambient* tracer, which is a
no-op by default — tracing costs nothing unless a run opts in:

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        result = robopt.optimize(plan)
    tracer.export("trace.jsonl")

The CLI exposes the same via ``repro optimize --trace trace.jsonl``.

A long-lived process counts without keeping spans: the ``repro serve``
daemon runs every batch under a :class:`CounterTracer`, whose counters
feed its ``stats`` frame and whose ``span``/``event`` are no-ops. Spans
are recorded only when the caller hands the daemon a full ``Tracer``.
See ``docs/observability.md`` for the span taxonomy and trace format.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    CounterTracer,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)
from repro.obs.export import counters, read_trace, spans_named, write_trace

__all__ = [
    "Span",
    "Tracer",
    "CounterTracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    "write_trace",
    "read_trace",
    "counters",
    "spans_named",
]
