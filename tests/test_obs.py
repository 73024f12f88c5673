"""Tests for the observability layer (repro.obs).

Covers the tracer itself (nesting, counters, ambient installation), the
counters-only tracer the daemon runs under, the JSONL export round-trip,
the counters-vs-RunStats consistency of a traced enumeration, and the <5%
overhead requirement of the no-op and counters-only tracers on the Fig. 9
efficiency micro-benchmark.
"""

import json
import time

import numpy as np
import pytest

from conftest import build_pipeline, make_linear_cost
from repro.core.enumerator import PriorityEnumerator
from repro.core.features import FeatureSchema
from repro.obs import (
    NULL_TRACER,
    CounterTracer,
    NullTracer,
    Tracer,
    counters,
    current_tracer,
    read_trace,
    spans_named,
    use_tracer,
    write_trace,
)


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer", a=1) as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # spans are recorded in completion order: inner closes first
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert outer.duration_s >= inner.duration_s >= 0.0

    def test_span_set_attaches_attrs(self):
        tracer = Tracer()
        with tracer.span("work", phase="x") as span:
            span.set(rows=10)
        assert span.attrs == {"phase": "x", "rows": 10}

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.spans[0].name == "boom"
        assert tracer.spans[0].end_s is not None

    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.count("n")
        tracer.count("n", 4)
        tracer.count("m", 2.5)
        assert tracer.counters == {"n": 5, "m": 2.5}

    def test_event_is_zero_duration(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            tracer.event("tick", k=1)
        tick = next(s for s in tracer.spans if s.name == "tick")
        assert tick.duration_s == 0.0
        assert tick.parent_id == parent.span_id

    def test_records_spans_then_sorted_counters(self):
        tracer = Tracer()
        tracer.count("z")
        tracer.count("a")
        with tracer.span("s"):
            pass
        records = tracer.records()
        assert [r["type"] for r in records] == ["span", "counter", "counter"]
        assert [r["name"] for r in records[1:]] == ["a", "z"]


class TestAmbientTracer:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer) as active:
            assert active is tracer
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_null_tracer_is_inert(self):
        null = NullTracer()
        with null.span("anything", big=object()) as span:
            span.set(more=1)
        null.count("x", 5)
        null.event("y")
        assert null.records() == []


def _fig9_micro():
    """A Robopt and the 20-op pipeline of the Fig. 9 micro-benchmark."""
    from repro.bench.synthetic_setup import latency_setup
    from repro.core.optimizer import Robopt
    from repro.workloads import synthetic

    registry, schema, model, _ = latency_setup(2)
    return Robopt(registry, model, schema=schema), synthetic.pipeline_plan(20)


class TestCounterTracer:
    def test_counts_like_a_tracer(self):
        robopt, plan = _fig9_micro()
        full, counting = Tracer(), CounterTracer()
        for tracer in (full, counting):
            with use_tracer(tracer):
                robopt.optimize(plan)
        assert len(full.spans) > 0
        assert counting.counters == full.counters
        assert counting.counters["model.calls"] > 0
        assert counting.counters["enumerate.merges"] > 0

    def test_records_no_spans_or_events(self):
        tracer = CounterTracer()
        assert tracer.enabled
        with tracer.span("work", rows=3) as span:
            span.set(survivors=1)
            tracer.event("tick", k=1)
        tracer.count("n")
        tracer.count("n", 4)
        tracer.count("m", 2.5)
        # The counters are the tracer's only state.
        assert vars(tracer) == {"counters": {"n": 5, "m": 2.5}}


class TestExport:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", label="r"):
            tracer.event("mark")
        tracer.count("hits", 3)
        path = tmp_path / "trace.jsonl"
        n = write_trace(tracer, path)
        assert n == 3
        # every line is a standalone JSON object
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)
        records = read_trace(path)
        assert counters(records) == {"hits": 3}
        assert spans_named(records, "root")[0]["attrs"] == {"label": "r"}

    def test_sanitizes_awkward_values(self, tmp_path):
        tracer = Tracer()
        with tracer.span(
            "s",
            card=np.float64(1.5),
            count=np.int64(7),
            bad=float("inf"),
            tup=(1, 2),
        ):
            pass
        path = tmp_path / "t.jsonl"
        tracer.export(path)
        attrs = read_trace(path)[0]["attrs"]
        assert attrs["card"] == 1.5
        assert attrs["count"] == 7
        assert attrs["bad"] == "inf"
        assert attrs["tup"] == [1, 2]

    def test_tracer_export_counts_records(self, tmp_path):
        tracer = Tracer()
        tracer.count("only")
        assert tracer.export(tmp_path / "c.jsonl") == 1


class TestTracedEnumeration:
    """A traced enumeration's counters must agree with its RunStats."""

    @pytest.fixture
    def traced_run(self, reg3, tmp_path):
        schema = FeatureSchema(reg3)
        enumerator = PriorityEnumerator(
            reg3, cost_fn=make_linear_cost(schema), schema=schema
        )
        plan = build_pipeline(4)
        tracer = Tracer()
        with use_tracer(tracer):
            result = enumerator.enumerate_plan(plan)
        path = tmp_path / "run.jsonl"
        tracer.export(path)
        return result, read_trace(path)

    def test_counters_match_run_stats(self, traced_run):
        result, records = traced_run
        stats, totals = result.stats, counters(records)
        assert totals["enumerate.singleton_vectors"] == stats.singleton_vectors
        assert totals["enumerate.merges"] == stats.merges
        assert totals["enumerate.vectors_created"] == stats.vectors_created
        assert totals["enumerate.prune_calls"] == stats.prune_calls
        assert totals["enumerate.vectors_pruned"] == stats.vectors_pruned
        assert totals["enumerate.rows_predicted"] == stats.rows_predicted
        assert totals["enumerate.final_vectors"] == stats.final_vectors

    def test_span_taxonomy_and_nesting(self, traced_run):
        result, records = traced_run
        roots = spans_named(records, "enumerate")
        assert len(roots) == 1
        root = roots[0]
        assert root["parent"] is None
        # the root span carries the full RunStats dict as attributes
        assert root["attrs"]["merges"] == result.stats.merges
        merges = spans_named(records, "enumerate.merge")
        prunes = spans_named(records, "enumerate.prune")
        assert len(merges) == result.stats.merges
        assert len(prunes) == result.stats.prune_calls
        span_ids = {r["id"] for r in records if r.get("type") == "span"}
        for span in merges + prunes:
            assert span["parent"] in span_ids
        for prune in prunes:
            assert prune["attrs"]["rows"] >= prune["attrs"]["survivors"]

    def test_object_engine_emits_same_taxonomy(self, reg2, tmp_path):
        from repro.baselines.object_enumerator import ObjectEnumerator

        schema = FeatureSchema(reg2)
        vec_cost = make_linear_cost(schema)

        def batch_cost(plan, subplans, stats):
            # object-world adapter over the same linear oracle
            rows = np.vstack(
                [
                    schema.encode_partial(plan, sp.scope, sp.assignment)
                    for sp in subplans
                ]
            )

            class _E:
                features = rows

            return vec_cost(_E)

        enumerator = ObjectEnumerator(reg2, batch_cost)
        plan = build_pipeline(3)
        tracer = Tracer()
        with use_tracer(tracer):
            result = enumerator.enumerate_plan(plan)
        totals = tracer.counters
        assert totals["enumerate.merges"] == result.stats.merges
        assert totals["enumerate.prune_calls"] == result.stats.prune_calls
        root = next(s for s in tracer.spans if s.name == "enumerate")
        assert root.attrs["engine"] == "object"


class _TouchCountingTracer(NullTracer):
    """Counts how often instrumented code would touch an active tracer."""

    enabled = True

    def __init__(self):
        self.touches = 0
        self.span_touches = 0

    def span(self, name, **attrs):
        self.touches += 1
        self.span_touches += 1
        return super().span(name, **attrs)

    def count(self, name, value=1):
        self.touches += 1

    def event(self, name, **attrs):
        self.touches += 1


def _per_call_s(fn, reps):
    """Best-of-5 seconds per call of ``fn`` over ``reps`` calls."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


class TestNoOpOverhead:
    def test_null_tracer_overhead_below_5pct_of_fig9_micro(self):
        """The disabled tracer must cost <5% of a Fig. 9-style optimize.

        Flake-resistant formulation: instead of comparing two noisy
        wall-clock medians, count the tracer touchpoints of one traced
        run, measure the per-touch cost of the no-op tracer directly,
        and compare the product against the measured optimize latency.
        """
        robopt, plan = _fig9_micro()
        robopt.optimize(plan)  # warm caches
        latency = min(robopt.optimize(plan).stats.latency_s for _ in range(3))

        touch = _TouchCountingTracer()
        with use_tracer(touch):
            robopt.optimize(plan)
        touches = touch.touches
        assert touches > 0, "the hot path should be instrumented"

        reps = max(1000, touches * 10)
        null = NULL_TRACER
        t0 = time.perf_counter()
        for _ in range(reps):
            if null.enabled:  # the guard every instrumented site pays
                with null.span("x", rows=1):
                    pass
                null.count("c")
        per_touch = (time.perf_counter() - t0) / reps
        overhead = per_touch * touches
        assert overhead < 0.05 * latency, (
            f"no-op tracing cost {overhead * 1e6:.1f}us "
            f"vs latency {latency * 1e6:.1f}us"
        )

    def test_counter_tracer_overhead_below_5pct_of_fig9_micro(self):
        """The daemon's counters-only tracer must cost <5% of a Fig. 9-style
        optimize: span touches at the measured cost of an enabled
        ``span``, every other touch at the cost of a ``count``."""
        robopt, plan = _fig9_micro()
        robopt.optimize(plan)  # warm caches
        latency = min(robopt.optimize(plan).stats.latency_s for _ in range(3))

        touch = _TouchCountingTracer()
        with use_tracer(touch):
            robopt.optimize(plan)
        assert touch.span_touches > 0, "the hot path should be instrumented"

        tracer = CounterTracer()

        def span_touch():
            if tracer.enabled:  # the guard every instrumented site pays
                with tracer.span("x", rows=1) as span:
                    span.set(survivors=1)

        def count_touch():
            if tracer.enabled:
                tracer.count("c", 3)

        reps = max(1000, touch.touches * 10)
        overhead = touch.span_touches * _per_call_s(span_touch, reps) + (
            touch.touches - touch.span_touches
        ) * _per_call_s(count_touch, reps)
        assert overhead < 0.05 * latency, (
            f"counters-only tracing cost {overhead * 1e6:.1f}us "
            f"vs latency {latency * 1e6:.1f}us"
        )


class TestUnifiedApiNames:
    def test_run_stats_aliases_are_gone(self):
        from repro.api import RunStats

        stats = RunStats(vectors_created=5)
        assert stats.vectors_created == 5
        for old in (
            "subplans_created",
            "subplans_pruned",
            "singleton_subplans",
            "cost_evaluations",
        ):
            with pytest.raises(AttributeError):
                getattr(stats, old)

    def test_result_cost_alias_is_gone(self):
        from repro.api import OptimizationResult

        result = OptimizationResult(execution_plan=None, predicted_runtime=2.0)
        with pytest.raises(AttributeError):
            result.cost
        assert result.predicted_cost == 2.0
        assert result.latency_s == result.stats.latency_s
