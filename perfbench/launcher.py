"""Traced stand-in for ``repro serve``: the same daemon, with layer spans.

Builds the service and the daemon from the public constructors, as
``repro serve --workers 0`` does with its defaults, but hands the service
timing proxies around the runtime model, the plan cache, the template
cache, the simulated executor and ``FeedbackLoop.retrain``, and times
every ``optimize_batch`` call. (The model is loaded at start-up, not on
the first prediction, so that it can be wrapped.) Spans are kept in
memory and written as JSON lines when the daemon exits::

    python perfbench/launcher.py --socket S --model M --trace-out T.jsonl \
        [--template-cache P] [--feedback --retrain-after N]

Span times are ``time.perf_counter()`` seconds, the monotonic clock the
benchmark client reads too, so client round trips and daemon spans share
one time line. The program under test is not modified.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.features import FeatureSchema  # noqa: E402
from repro.ml import DriftMonitor, FeedbackLoop  # noqa: E402
from repro.ml.model import RuntimeModel  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.resilience import RetryPolicy  # noqa: E402
from repro.rheem.platforms import default_registry  # noqa: E402
from repro.serve import (  # noqa: E402
    BatchOptimizationService,
    DaemonConfig,
    FeedbackController,
    OptimizationDaemon,
    PlanCache,
    TemplateCache,
    resilient_robopt_factory,
)
from repro.simulator.executor import SimulatedExecutor  # noqa: E402

PLATFORMS = ("java", "spark", "flink")


class SpanLog:
    """Thread-aware span recorder: (name, start, end, parent, rids)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name, rids=None):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"id": span_id, "name": name, "start": start,
                               "end": end, "parent": parent, "rids": rids})

    def write(self, path):
        with open(path, "w") as f:
            for record in self.spans:
                f.write(json.dumps(record) + "\n")


LOG = SpanLog()


class TimedModel:
    """Times ``predict``/``predict_dist``; everything else forwards."""

    def __init__(self, model):
        self._model = model

    def predict(self, X):
        with LOG.span("ml.predict"):
            return self._model.predict(X)

    def predict_dist(self, X):
        with LOG.span("ml.predict"):
            return self._model.predict_dist(X)

    def __getattr__(self, name):
        return getattr(self._model, name)


class TimedExecutor:
    def __init__(self, executor):
        self._executor = executor

    def execute(self, xplan, *args, **kwargs):
        with LOG.span("serve.feedback.execute"):
            return self._executor.execute(xplan, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._executor, name)


class TimedPlanCache(PlanCache):
    def get(self, fingerprint):
        with LOG.span("serve.cache.get"):
            return super().get(fingerprint)

    def put(self, fingerprint, result):
        with LOG.span("serve.cache.put"):
            return super().put(fingerprint, result)


class TimedTemplateCache(TemplateCache):
    def get(self, fingerprint, plan, recost):
        with LOG.span("serve.template.get"):
            return super().get(fingerprint, plan, recost)

    def observe(self, fingerprint, plan, result):
        with LOG.span("serve.template.observe"):
            return super().observe(fingerprint, plan, result)


class TimedFeedbackLoop(FeedbackLoop):
    def retrain(self, dataset=None):
        with LOG.span("ml.retrain"):
            model = super().retrain(dataset)
        # Retrained models are timed like the one they replace.
        return TimedModel(model)


class TimedService(BatchOptimizationService):
    def optimize_batch(self, jobs):
        rids = [job.job_id for job in jobs]
        with LOG.span("serve.batch", rids=rids):
            return super().optimize_batch(jobs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--model", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--template-cache", default=None)
    parser.add_argument("--feedback", action="store_true")
    parser.add_argument("--retrain-after", type=int, default=50)
    args = parser.parse_args(argv)

    # The defaults of `repro serve`, spelled out.
    registry = default_registry(PLATFORMS)
    cache = TimedPlanCache(max_entries=256)
    template_cache = (
        TimedTemplateCache(max_templates=256, guardrail=1.2)
        if args.template_cache
        else None
    )
    factory = resilient_robopt_factory(
        platforms=PLATFORMS,
        model=TimedModel(RuntimeModel.load(args.model)),
    )
    feedback = None
    if args.feedback:
        feedback = FeedbackController(
            TimedFeedbackLoop(FeatureSchema(registry)),
            TimedExecutor(SimulatedExecutor.default(registry)),
            drift=DriftMonitor(warn_threshold=2.0, drift_threshold=4.0),
            retrain_after=args.retrain_after,
            background=True,
        )
    service = TimedService(
        factory,
        registry,
        workers=0,
        cache=cache,
        template_cache=template_cache,
        retry=RetryPolicy(max_retries=2),
        quarantine_after=2,
        feedback=feedback,
        model_path=args.model if feedback is not None else None,
    )
    daemon = OptimizationDaemon(
        service, DaemonConfig(unix_path=args.socket), Tracer()
    )

    def ready(addresses):
        print(f"serving on {' '.join(addresses)}", flush=True)

    try:
        code = asyncio.run(daemon.run(ready=ready))
    finally:
        if feedback is not None:
            feedback.join()
        LOG.write(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
