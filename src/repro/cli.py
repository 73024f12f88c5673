"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``workloads`` — list the built-in Table II workloads;
* ``train`` — generate TDGEN data and train a runtime model;
* ``optimize`` — optimize a workload (or a plan JSON) with a model;
* ``optimize-batch`` — drive a JSONL job file through the batch
  optimization service (process-pool parallelism + plan cache), or —
  with ``--server ADDR`` — through a running ``repro serve`` daemon;
* ``serve`` — run the persistent optimization daemon (unix socket/TCP,
  admission control, cross-client coalescing, graceful drain);
* ``simulate`` — run a workload on one platform (or all) and report
  simulated runtimes;
* ``explain`` — optimize and print the decision report (chosen plan,
  alternatives, single-platform predictions).

Sizes accept human suffixes: ``30MB``, ``6GB``, ``1TB``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.exceptions import ReproError
from repro.serve.protocol import parse_size, resolve_workload


def _registry(names: str):
    from repro.rheem.platforms import default_registry

    return default_registry(tuple(n.strip() for n in names.split(",")))


def _workers_arg(text: str) -> Optional[int]:
    """``--workers`` value: an int, or ``auto`` (None → CPU-aware sizing)."""
    if text.strip().lower() == "auto":
        return None
    return int(text)


def _workload_plan(name: str, size_bytes: Optional[float], args):
    return resolve_workload(name, size_bytes)


def _load_plan(args):
    if args.plan_json:
        from repro.rheem.serialization import plan_from_json

        with open(args.plan_json) as f:
            return plan_from_json(f.read())
    return _workload_plan(
        args.workload, parse_size(args.size) if args.size else None, args
    )


@contextmanager
def _maybe_trace(args):
    """Run the command body under an ambient tracer if ``--trace`` was given.

    The trace is exported (JSONL) after the body finishes, even when it
    raises — a partial trace of a failed run is exactly when you want one.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield None
        return
    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    try:
        with use_tracer(tracer):
            yield tracer
    finally:
        try:
            n = tracer.export(path)
        except OSError as exc:
            raise ReproError(f"cannot write trace to {path}: {exc}") from exc
        print(f"wrote {n} trace records to {path}")


def _load_runtime_model(path):
    from repro.ml.model import RuntimeModel

    try:
        return RuntimeModel.load(path)
    except OSError as exc:
        raise ReproError(f"cannot read model from {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_workloads(args) -> int:
    from repro.workloads import TABLE2

    print(f"{'workload':<12} {'#ops':>5}  dataset")
    for name, (module, n_ops, dataset) in TABLE2.items():
        print(f"{name:<12} {n_ops:>5}  {dataset}")
    return 0


def cmd_train(args) -> int:
    from repro.ml.model import RuntimeModel
    from repro.simulator.executor import SimulatedExecutor
    from repro.tdgen.generator import TrainingDataGenerator

    registry = _registry(args.platforms)
    executor = SimulatedExecutor.default(registry, seed=args.seed)
    tdgen = TrainingDataGenerator(registry, executor, seed=args.seed)
    print(f"generating {args.points} training points on {registry.names} ...")
    dataset = tdgen.generate(args.points)
    stats = tdgen.stats
    print(
        f"  executed {stats.n_executed}, interpolated {stats.n_imputed} "
        f"({stats.executed_fraction:.0%} executed)"
    )
    print(f"training a {args.algorithm} model ...")
    model = RuntimeModel.train(dataset, args.algorithm, seed=args.seed)
    print(f"  holdout: {model.metrics}")
    model.save(args.out)
    print(f"saved model to {args.out}")
    return 0


def cmd_optimize(args) -> int:
    from repro.core.optimizer import Robopt
    from repro.rheem.serialization import execution_plan_to_json

    registry = _registry(args.platforms)
    model = _load_runtime_model(args.model)
    plan = _load_plan(args)
    budget = None
    if args.deadline_ms is not None:
        from repro.resilience import Budget

        budget = Budget(deadline_s=args.deadline_ms / 1000.0)
    robopt = Robopt(registry, model, priority=args.priority, budget=budget)
    with _maybe_trace(args):
        result = robopt.optimize(plan)
    print(result.execution_plan.describe())
    print(
        f"predicted runtime: {result.predicted_runtime:.2f}s  "
        f"(optimization took {result.stats.latency_s * 1e3:.1f}ms, "
        f"{result.stats.total_vectors} plan vectors)"
    )
    if result.stats.degraded:
        print(
            f"note: degraded ({result.stats.degradation}) — budget expired "
            "before the search completed; the plan is the best complete "
            "one found in time"
        )
    if args.out:
        with open(args.out, "w") as f:
            f.write(execution_plan_to_json(result.execution_plan))
        print(f"wrote execution plan to {args.out}")
    return 0


def _load_jobs(path, registry):
    """Parse a JSONL job file into :class:`repro.serve.BatchJob` rows.

    The row vocabulary lives in :mod:`repro.serve.protocol`
    (:func:`~repro.serve.protocol.load_jobs_jsonl`); this wrapper
    resolves the parsed requests into runnable jobs. Every malformed
    row — invalid JSON, a bad size, an unknown workload, a broken plan
    document — becomes a per-row error entry instead of failing the
    whole batch. Only an unreadable file or a file with *zero* rows
    raises.
    """
    from repro.serve.protocol import ProtocolError, load_jobs_jsonl, request_to_job

    requests, error_rows = load_jobs_jsonl(path)
    jobs = []
    for request in requests:
        try:
            jobs.append(request_to_job(request))
        except ProtocolError as exc:
            error_rows.append(
                {"id": request.request_id, "ok": False, "error": f"{path}: {exc}"}
            )
    return jobs, error_rows


def _chaos_profile(args):
    """The ``--chaos-profile`` spec as a ChaosProfile (``None`` if unset).

    ``REPRO_CHAOS_SEED`` overrides the seed — the CI chaos matrix sets
    it to fan one profile out over several deterministic seeds.
    """
    spec = getattr(args, "chaos_profile", None)
    if not spec:
        return None
    from dataclasses import replace

    from repro.resilience import ChaosProfile

    profile = ChaosProfile.parse(spec)
    env_seed = os.environ.get("REPRO_CHAOS_SEED")
    if env_seed is not None:
        try:
            profile = replace(profile, seed=int(env_seed))
        except ValueError as exc:
            raise ReproError(f"bad REPRO_CHAOS_SEED {env_seed!r}: {exc}") from exc
    return profile


def _check_model_file(args) -> None:
    """Warn (resilient stack) or fail (bare stack) on an unreadable --model."""
    if os.path.isfile(args.model):
        return
    if not args.no_resilience:
        # The fallback chain turns a missing model into degraded plan
        # quality (cost-model answers) instead of a dead batch.
        print(
            f"warning: model {args.model} unreadable; serving from the "
            "fallback chain",
            file=sys.stderr,
        )
    else:
        # The factory loads the model lazily (inside each pool worker),
        # so a bad path would otherwise surface as N per-job failures.
        raise ReproError(f"cannot read model from {args.model}: no such file")


def _template_cache(args, registry):
    """The ``--template-cache`` tier, loaded when its file exists (``None``
    when the flag is unset)."""
    if not args.template_cache:
        return None
    from repro.serve import TemplateCache

    if os.path.exists(args.template_cache):
        return TemplateCache.load(
            args.template_cache,
            registry,
            max_templates=args.template_cache_size,
        )
    return TemplateCache(max_templates=args.template_cache_size)


def _optimizer_factory(args, chaos, deadline_s: Optional[float]):
    """The pool-picklable optimizer factory: the resilient Robopt stack,
    or the bare one under ``--no-resilience``."""
    from repro.serve import resilient_robopt_factory, robopt_factory

    platforms = tuple(n.strip() for n in args.platforms.split(","))
    if not args.no_resilience:
        return resilient_robopt_factory(
            platforms=platforms,
            model_path=args.model,
            priority=args.priority,
            deadline_s=deadline_s,
            chaos=chaos,
            variance_threshold=args.variance_threshold,
            risk_aversion=args.risk_aversion,
        )
    if chaos is not None:
        raise ReproError("--chaos-profile requires the resilient stack")
    if args.risk_aversion or args.variance_threshold is not None:
        raise ReproError(
            "--risk-aversion/--variance-threshold require the resilient stack"
        )
    return robopt_factory(
        platforms=platforms,
        model_path=args.model,
        priority=args.priority,
    )


def _optimize_batch_via_server(args) -> int:
    """``optimize-batch --server``: the CLI as one daemon client among many.

    Jobs are parsed with the same protocol vocabulary as local mode,
    pipelined to the daemon in one burst (so it can micro-batch and
    coalesce them), and printed in the same row format. Service knobs
    (``--workers``, ``--cache``, ``--chaos-profile`` …) belong to the
    daemon in this mode and are ignored.
    """
    import json
    import time

    from repro.serve.batch import _percentile
    from repro.serve.client import ServeClient
    from repro.serve.protocol import load_jobs_jsonl

    requests, error_rows = load_jobs_jsonl(args.jobs)
    if args.deadline_ms is not None:
        for request in requests:
            if request.deadline_ms is None:
                request.deadline_ms = args.deadline_ms
    started = time.perf_counter()
    with ServeClient(args.server, timeout_s=args.timeout or 60.0) as client:
        responses = client.optimize_many(requests) if requests else []
    wall = time.perf_counter() - started
    rows = list(error_rows)
    durations = []
    for response in responses:
        if response.ok:
            row = {
                "id": response.request_id,
                "ok": True,
                "cached": response.cached,
                "coalesced": response.coalesced,
                "duration_s": response.duration_ms / 1000.0,
                "predicted_runtime": response.predicted_runtime,
                "platforms": response.platforms,
                "assignment": response.assignment,
                "stats": response.stats,
            }
            if response.degraded:
                row["degraded"] = response.degraded
            durations.append(response.duration_ms / 1000.0)
        else:
            row = {
                "id": response.request_id,
                "ok": False,
                "error": response.error,
                "code": response.code,
            }
            if response.retry_after_ms is not None:
                row["retry_after_ms"] = response.retry_after_ms
        rows.append(row)
    if args.out:
        with open(args.out, "w") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n")
        print(f"wrote {len(rows)} result rows to {args.out}")
    else:
        for row in rows:
            shown = (
                f"{row['predicted_runtime']:.2f}s"
                if row["ok"]
                else f"error: {row['error']}"
            )
            cached = " (cached)" if row.get("cached") else ""
            degraded = f" (degraded: {row['degraded']})" if row.get("degraded") else ""
            print(f"{row['id']:>24}: {shown}{cached}{degraded}")
    n_ok = sum(1 for row in rows if row.get("ok"))
    print(
        f"batch: {n_ok}/{len(rows)} ok in {wall:.2f}s "
        f"(server={args.server})"
    )
    if durations:
        print(
            "latency: "
            f"p50={_percentile(durations, 50.0) * 1000:.1f}ms "
            f"p95={_percentile(durations, 95.0) * 1000:.1f}ms "
            f"p99={_percentile(durations, 99.0) * 1000:.1f}ms"
        )
    return 0 if n_ok == len(rows) else 1


def _feedback_controller(args, registry, background: bool):
    """Build the opt-in execution-feedback controller for --feedback runs.

    Executed plans are simulated (SimulatedExecutor — the same runtime
    oracle the training data comes from), observed outcomes feed the
    FeedbackLoop, and a DriftMonitor decides when the windowed q-error
    justifies an off-critical-path retrain.
    """
    if not getattr(args, "feedback", False):
        return None
    from repro.core.features import FeatureSchema
    from repro.ml import DriftMonitor, FeedbackLoop
    from repro.serve import FeedbackController
    from repro.simulator.executor import SimulatedExecutor

    if args.retrain_after < 0:
        raise ReproError("--retrain-after must be >= 0")
    if args.drift_threshold < 1.0:
        raise ReproError("--drift-threshold must be >= 1.0 (q-error scale)")
    drift = DriftMonitor(
        warn_threshold=min(2.0, args.drift_threshold),
        drift_threshold=args.drift_threshold,
    )
    return FeedbackController(
        FeedbackLoop(FeatureSchema(registry)),
        SimulatedExecutor.default(registry),
        drift=drift,
        retrain_after=args.retrain_after,
        background=background,
    )


def _print_feedback_stats(service) -> None:
    stats = service.feedback_stats()
    if not stats:
        return
    q = stats.get("q_error")
    q_shown = f"{q:.2f}" if isinstance(q, float) else "n/a"
    print(
        f"feedback: {stats['observations_total']} observed "
        f"({stats['rejected']} rejected), drift q-error {q_shown} "
        f"[{stats['status']}], retrains={stats['retrains']}, "
        f"model generation {stats['model_generation']}"
    )


def cmd_optimize_batch(args) -> int:
    import json

    from repro.bench import trajectory
    from repro.resilience import RetryPolicy
    from repro.serve import BatchOptimizationService, PlanCache

    if args.server:
        return _optimize_batch_via_server(args)
    if not args.model:
        raise ReproError("--model is required (unless --server is given)")
    registry = _registry(args.platforms)
    jobs, error_rows = _load_jobs(args.jobs, registry)
    chaos = _chaos_profile(args)
    _check_model_file(args)
    cache = None
    if args.cache:
        if os.path.exists(args.cache):
            if chaos is not None and chaos.cache_corrupt_rate > 0.0:
                from repro.resilience import FaultInjector, corrupt_cache_file

                if corrupt_cache_file(args.cache, FaultInjector(chaos)):
                    print(
                        f"chaos: corrupted plan cache {args.cache}",
                        file=sys.stderr,
                    )
            cache = PlanCache.load(args.cache, registry, max_entries=args.cache_size)
        else:
            cache = PlanCache(max_entries=args.cache_size)
    template_cache = _template_cache(args, registry)
    factory = _optimizer_factory(
        args,
        chaos,
        deadline_s=(
            args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
        ),
    )
    retry = RetryPolicy(max_retries=args.retries) if args.retries > 0 else None
    feedback = _feedback_controller(args, registry, background=False)
    service = BatchOptimizationService(
        factory,
        registry,
        workers=args.workers,
        timeout_s=args.timeout,
        cache=cache,
        template_cache=template_cache,
        retry=retry,
        quarantine_after=args.quarantine_after,
        feedback=feedback,
        model_path=args.model if feedback is not None else None,
    )
    try:
        with _maybe_trace(args):
            report = service.optimize_batch(jobs) if jobs else None
    finally:
        if feedback is not None:
            feedback.join()
        service.close()
    rows = list(error_rows)
    outcomes = report.outcomes if report is not None else []
    for outcome in outcomes:
        row = {
            "id": outcome.job_id,
            "ok": outcome.ok,
            "cached": outcome.cached,
            "duration_s": outcome.duration_s,
            "attempts": outcome.attempts,
        }
        if outcome.template_hit:
            row["template_hit"] = True
        if outcome.ok and outcome.result is not None:
            result = outcome.result
            row["predicted_runtime"] = result.predicted_runtime
            row["platforms"] = sorted(result.execution_plan.platforms_used())
            row["assignment"] = {
                str(k): v for k, v in sorted(result.execution_plan.assignment.items())
            }
            row["stats"] = result.stats.as_dict()
            if result.stats.degraded:
                row["degraded"] = result.stats.degradation
        else:
            row["error"] = outcome.error
            if outcome.quarantined:
                row["quarantined"] = True
        rows.append(row)
    if args.out:
        with open(args.out, "w") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n")
        print(f"wrote {len(rows)} result rows to {args.out}")
    else:
        for row in rows:
            shown = (
                f"{row['predicted_runtime']:.2f}s"
                if row["ok"]
                else f"error: {row['error']}"
            )
            cached = " (cached)" if row.get("cached") else ""
            degraded = f" (degraded: {row['degraded']})" if row.get("degraded") else ""
            print(f"{row['id']:>24}: {shown}{cached}{degraded}")
    n_bad_rows = len(error_rows)
    if report is not None:
        metrics = report.metrics()
        extras = ""
        if template_cache is not None:
            extras += f", template hit rate {report.template_hit_rate:.0%}"
        if report.n_degraded or report.n_retried or report.n_quarantined:
            extras += (
                f", degraded={report.n_degraded} retried={report.n_retried} "
                f"quarantined={report.n_quarantined}"
            )
        tails = report.latency_percentiles()
        print(
            f"batch: {report.n_ok}/{report.n_jobs} ok in {report.wall_s:.2f}s "
            f"({report.plans_per_sec:.1f} plans/s, mode={report.mode}, "
            f"workers={report.workers}/{report.workers_requested}, "
            f"cache hit rate {report.cache_hit_rate:.0%}{extras})"
        )
        print(
            "latency: "
            f"p50={tails['p50'] * 1000:.1f}ms "
            f"p95={tails['p95'] * 1000:.1f}ms "
            f"p99={tails['p99'] * 1000:.1f}ms"
        )
        _print_feedback_stats(service)
        if n_bad_rows:
            print(f"rejected {n_bad_rows} malformed job rows (see result rows)")
        if args.bench_record:
            trajectory.record(
                "serve.optimize_batch",
                metrics,
                meta={"jobs_file": args.jobs, "mode": report.mode},
            )
    else:
        print(f"batch: 0 runnable jobs; rejected {n_bad_rows} malformed rows")
    if cache is not None and args.cache:
        cache.save(args.cache)
        print(f"saved plan cache ({len(cache)} entries) to {args.cache}")
    if template_cache is not None and args.template_cache:
        template_cache.save(args.template_cache)
        print(
            f"saved template cache ({len(template_cache)} templates) "
            f"to {args.template_cache}"
        )
    failed = n_bad_rows + (report.n_failed if report is not None else 0)
    return 0 if failed == 0 else 1


def cmd_serve(args) -> int:
    """Run the persistent optimization daemon until SIGTERM or a
    ``shutdown`` frame; exits 0 after a clean drain."""
    import asyncio

    from repro.resilience import RetryPolicy
    from repro.serve import (
        BatchOptimizationService,
        DaemonConfig,
        OptimizationDaemon,
        PlanCache,
    )

    if not args.socket and not args.host:
        raise ReproError("repro serve needs --socket PATH and/or --host")
    registry = _registry(args.platforms)
    chaos = _chaos_profile(args)
    _check_model_file(args)
    # A long-lived daemon defaults to an in-memory plan cache — repeated
    # fingerprints are its whole reason to exist; --cache additionally
    # persists it across restarts.
    cache = None
    if not args.no_cache:
        if args.cache and os.path.exists(args.cache):
            cache = PlanCache.load(args.cache, registry, max_entries=args.cache_size)
        else:
            cache = PlanCache(max_entries=args.cache_size)
    # The template tier is opt-in: it serves re-costed (not bit-exact)
    # answers, so the operator enables it deliberately.
    template_cache = _template_cache(args, registry)
    factory = _optimizer_factory(args, chaos, deadline_s=None)
    retry = RetryPolicy(max_retries=args.retries) if args.retries > 0 else None
    # The daemon retrains off the event loop: observations land inline
    # per batch, the refit itself runs on a background thread.
    feedback = _feedback_controller(args, registry, background=True)
    service = BatchOptimizationService(
        factory,
        registry,
        workers=args.workers,
        timeout_s=args.timeout,
        cache=cache,
        template_cache=template_cache,
        retry=retry,
        quarantine_after=args.quarantine_after,
        feedback=feedback,
        model_path=args.model if feedback is not None else None,
    )
    config = DaemonConfig(
        unix_path=args.socket,
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        default_deadline_ms=args.deadline_ms,
        drain_grace_s=args.drain_grace,
    )
    daemon = OptimizationDaemon(service, config)

    def ready(addresses):
        # The readiness line: scripts wait for it, and with --port 0 it
        # is the only place the ephemeral port is announced.
        print(f"serving on {' '.join(addresses)}", flush=True)

    try:
        code = asyncio.run(daemon.run(ready=ready))
    except OSError as exc:
        where = args.socket or f"{args.host}:{args.port}"
        raise ReproError(f"cannot bind {where}: {exc}") from exc
    finally:
        if feedback is not None:
            feedback.join()
    _print_feedback_stats(service)
    if cache is not None and args.cache:
        cache.save(args.cache)
        print(f"saved plan cache ({len(cache)} entries) to {args.cache}")
    if template_cache is not None and args.template_cache:
        template_cache.save(args.template_cache)
        print(
            f"saved template cache ({len(template_cache)} templates) "
            f"to {args.template_cache}"
        )
    if code == 0:
        print("daemon drained cleanly", flush=True)
    else:
        print(
            f"daemon exited with {daemon.pending} unanswered jobs",
            file=sys.stderr,
            flush=True,
        )
    return code


def cmd_explain(args) -> int:
    from repro.core.optimizer import Robopt

    registry = _registry(args.platforms)
    model = _load_runtime_model(args.model)
    plan = _load_plan(args)
    with _maybe_trace(args):
        report = Robopt(registry, model).explain(plan, k=args.top_k)
    print(report.render())
    return 0


def cmd_simulate(args) -> int:
    from repro.rheem.execution_plan import single_platform_plan
    from repro.simulator.executor import SimulatedExecutor

    registry = _registry(args.platforms)
    executor = SimulatedExecutor.default(registry)
    plan = _load_plan(args)
    targets = (
        [args.platform] if args.platform else [p.name for p in registry]
    )
    with _maybe_trace(args):
        for name in targets:
            try:
                xplan = single_platform_plan(plan, name, registry)
            except ReproError as exc:
                print(f"{name:>10}: not runnable ({exc})")
                continue
            report = executor.execute(xplan)
            shown = f"{report.runtime_s:.1f}s" if report.ok else report.status
            print(f"{name:>10}: {shown}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Robopt reproduction: ML-based cross-platform query optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list built-in workloads").set_defaults(
        func=cmd_workloads
    )

    train = sub.add_parser("train", help="generate TDGEN data and train a model")
    train.add_argument("--platforms", default="java,spark,flink")
    train.add_argument("--points", type=int, default=8000)
    train.add_argument("--algorithm", default="random_forest")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", default="robopt_model.pkl")
    train.set_defaults(func=cmd_train)

    def add_plan_args(p):
        p.add_argument("--workload", default="WordCount")
        p.add_argument("--size", default=None, help="e.g. 30MB, 6GB, 1TB")
        p.add_argument("--plan-json", default=None, help="optimize a serialized plan")
        p.add_argument("--platforms", default="java,spark,flink")
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write a JSONL trace of the run (spans + counters)",
        )

    optimize = sub.add_parser("optimize", help="optimize a workload with a model")
    add_plan_args(optimize)
    optimize.add_argument("--model", required=True)
    optimize.add_argument("--priority", default="robopt")
    optimize.add_argument("--out", default=None, help="write the plan as JSON")
    optimize.add_argument(
        "--deadline-ms", type=float, default=None,
        help="optimization deadline; expiry returns the best complete "
        "plan found so far (anytime mode)",
    )
    optimize.set_defaults(func=cmd_optimize)

    # The flags `optimize-batch` and `serve` define identically.
    service = argparse.ArgumentParser(add_help=False)
    service.add_argument("--platforms", default="java,spark,flink")
    service.add_argument("--priority", default="robopt")
    service.add_argument(
        "--workers", type=_workers_arg, default=None, metavar="N|auto",
        help="process count: 'auto' (default) sizes the warm pool from the "
        "CPUs actually available to this process, 0 forces serial",
    )
    service.add_argument(
        "--timeout", type=float, default=None,
        help="per-job timeout in seconds (pool mode)",
    )
    service.add_argument("--cache-size", type=int, default=256, help="LRU bound")
    service.add_argument(
        "--template-cache-size", type=int, default=256,
        help="LRU bound on distinct templates",
    )
    service.add_argument(
        "--retries", type=int, default=2,
        help="retry failed jobs this many times with backoff (0 = off)",
    )
    service.add_argument(
        "--quarantine-after", type=int, default=2,
        help="worker deaths before a plan is quarantined",
    )
    service.add_argument(
        "--no-resilience", action="store_true",
        help="use the bare optimizer stack (no fallback chain or budget)",
    )
    service.add_argument(
        "--retrain-after", type=int, default=50, metavar="N",
        help="with --feedback: retrain after this many fresh observations "
        "(0 = only on drift)",
    )
    service.add_argument(
        "--drift-threshold", type=float, default=4.0, metavar="Q",
        help="with --feedback: windowed median q-error above this "
        "triggers an immediate retrain (>= 1.0)",
    )
    service.add_argument(
        "--risk-aversion", type=float, default=0.0, metavar="K",
        help="rank candidate plans by mean + K*std of the predicted "
        "runtime instead of the mean (0 = off, bit-identical ranking)",
    )
    service.add_argument(
        "--variance-threshold", type=float, default=None, metavar="R",
        help="treat sustained high relative prediction variance "
        "(std/mean above R over a sliding window) as a model soft "
        "failure and degrade to the fallback chain",
    )

    def add_service_variants(p, help_for, model_required=False):
        """The service flags whose help (or ``required``) differs between
        the two commands; ``help_for`` maps each flag to its text."""
        for flag, kwargs in (
            ("--model", {"required": model_required}),
            ("--cache", {"metavar": "PATH"}),
            ("--template-cache", {"metavar": "PATH"}),
            ("--deadline-ms", {"type": float}),
            ("--chaos-profile", {"metavar": "SPEC"}),
            ("--feedback", {"action": "store_true"}),
        ):
            p.add_argument(flag, help=help_for[flag], **kwargs)

    batch = sub.add_parser(
        "optimize-batch",
        parents=[service],
        help="optimize a JSONL job file through the batch service",
    )
    batch.add_argument("--jobs", required=True, help="JSONL job file (one job per line)")
    batch.add_argument(
        "--server", default=None, metavar="ADDR",
        help="send the jobs to a running 'repro serve' daemon at ADDR "
        "('unix:/path' or 'host:port') instead of optimizing locally",
    )
    add_service_variants(batch, {
        "--model": "runtime model file (required unless --server is given)",
        "--cache": "JSON plan-cache file (loaded if present, saved after the run)",
        "--template-cache": "JSON template-cache file: enables the second "
        "cache tier (cardinality-stripped template keys, re-costed "
        "candidate reuse; loaded if present, saved after the run)",
        "--deadline-ms": "per-job optimization deadline; expiry returns the "
        "best complete plan found so far (anytime mode)",
        "--chaos-profile": "inject deterministic faults: a preset name "
        "(model-outage, nan-storm, worker-deaths, cache-corruption, "
        "slow-model, everything) and/or k=v overrides, e.g. "
        "'model-flaky,seed=7' or 'model_failure_rate=0.5'",
        "--feedback": "close the loop: execute chosen plans (simulated), "
        "feed observed runtimes back, and retrain + swap the model when "
        "the drift monitor trips or --retrain-after observations "
        "accumulate (retrained models are persisted back to --model)",
    })
    batch.add_argument("--out", default=None, help="write per-job results as JSONL")
    batch.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL trace of the run (spans + counters)",
    )
    batch.add_argument(
        "--bench-record", action="store_true",
        help="append this batch's metrics as a serve.optimize_batch row "
        "to the BENCH_<date>.json trajectory (off by default)",
    )
    batch.set_defaults(func=cmd_optimize_batch)

    serve = sub.add_parser(
        "serve",
        parents=[service],
        help="run the persistent optimization daemon (unix socket/TCP)",
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH", help="unix socket to listen on"
    )
    serve.add_argument("--host", default=None, help="TCP host to listen on")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks an ephemeral one, announced on stdout)",
    )
    add_service_variants(serve, {
        "--model": None,
        "--cache": "persist the plan cache here (loaded if present, saved on exit)",
        "--template-cache": "enable the template cache tier, persisted here "
        "(loaded if present, saved on exit); parametric streams whose "
        "cardinalities never repeat reuse plans through it",
        "--deadline-ms": "default per-request deadline for requests that carry none",
        "--chaos-profile": "inject deterministic faults (see optimize-batch "
        "--chaos-profile)",
        "--feedback": "close the loop: execute chosen plans (simulated), "
        "feed observed runtimes back, and retrain + swap the model off the "
        "critical path when drift trips or --retrain-after observations "
        "accumulate (retrained models are persisted back to --model)",
    }, model_required=True)
    serve.add_argument(
        "--no-cache", action="store_true",
        help="serve without a plan cache (every request re-optimizes)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64,
        help="admission bound: accepted-but-unanswered requests beyond "
        "this are refused with a structured 'overloaded' error",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32,
        help="largest micro-batch one dispatch drains from the queue",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=30.0, metavar="SECONDS",
        help="how long a drain waits for in-flight jobs before giving up",
    )
    serve.set_defaults(func=cmd_serve)

    explain = sub.add_parser("explain", help="optimize and explain the decision")
    add_plan_args(explain)
    explain.add_argument("--model", required=True)
    explain.add_argument("--top-k", type=int, default=3)
    explain.set_defaults(func=cmd_explain)

    simulate = sub.add_parser("simulate", help="run a workload on the simulator")
    add_plan_args(simulate)
    simulate.add_argument("--platform", default=None, help="one platform (default: all)")
    simulate.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
