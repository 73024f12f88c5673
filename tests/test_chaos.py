"""The fault-injection harness and the service's behaviour under it.

Chaos is only useful if it is *deterministic*: every injected fault is a
pure function of ``(profile seed, decision token)``, so a failing chaos
run replays exactly. This suite checks the injector's determinism, each
wrapper's fault taxonomy, and the end-to-end contracts the harness
exists to demonstrate:

* a 100% model outage costs plan *fidelity*, never batch availability
  (zero failed jobs — the fallback chain absorbs every prediction);
* transient faults are retried with backoff and succeed;
* poisoned plans that keep killing workers are quarantined while
  innocent bystanders of the broken pool are exonerated and complete;
* a hanging optimizer *construction* is bounded by the per-job timeout;
* corrupt caches and malformed job rows degrade per-row, not per-batch.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.resilience import (
    ChaosProfile,
    ChaoticModel,
    ChaoticOptimizer,
    FaultInjector,
    PROFILES,
    RetryPolicy,
    corrupt_cache_file,
)
from repro.resilience.chaos import InjectedFault
from repro.rheem.platforms import synthetic_registry
from repro.serve import BatchJob, BatchOptimizationService, resilient_robopt_factory
from repro.serve.testing import slow_init_robopt_factory

from conftest import build_join_plan, build_pipeline

N_PLATFORMS = 2

#: Every optimization of a plan named ``*crash*`` kills its pool worker.
CRASHING = ChaosProfile(worker_death_rate=1.0, match="crash")
#: Plans named ``*transient*`` fail at random; with this seed the first
#: call for ``transient-blip`` fails and the second passes.
TRANSIENT = ChaosProfile(seed=4, error_rate=0.5, match="transient")


def _attempts_to_pass(profile, name):
    """How many calls the injector lets ``name`` fail before one passes
    (plus that one) — the ``attempts`` a retrying service should record."""
    injector = FaultInjector(profile)
    return next(
        i + 1 for i in range(8) if not injector.optimizer_errs(f"{name}#{i}")
    )


def _named(plan, name):
    plan.name = name
    return plan


@pytest.fixture
def registry():
    return synthetic_registry(N_PLATFORMS)


# ---------------------------------------------------------------------------
# Profiles and the injector
# ---------------------------------------------------------------------------


class TestChaosProfile:
    def test_presets_parse(self):
        for name in PROFILES:
            assert ChaosProfile.parse(name) == PROFILES[name]

    def test_preset_with_overrides(self):
        profile = ChaosProfile.parse("model-outage,seed=7,latency_ms=5")
        assert profile.model_failure_rate == 1.0
        assert profile.seed == 7
        assert profile.latency_ms == 5.0

    def test_bare_spec(self):
        profile = ChaosProfile.parse("model_failure_rate=0.5,seed=3")
        assert profile.model_failure_rate == 0.5
        assert profile.seed == 3

    def test_unknown_preset_and_field_rejected(self):
        with pytest.raises(ReproError):
            ChaosProfile.parse("tornado")
        with pytest.raises(ReproError):
            ChaosProfile.parse("gremlin_rate=1.0")

    def test_rate_validation(self):
        with pytest.raises(ReproError):
            ChaosProfile(model_failure_rate=1.5)
        with pytest.raises(ReproError):
            ChaosProfile(latency_ms=-1.0)

    def test_inert(self):
        assert ChaosProfile().inert
        assert not PROFILES["model-outage"].inert
        assert not PROFILES["slow-model"].inert

    def test_match_parses_as_a_string(self):
        profile = ChaosProfile.parse("worker-deaths,match=tpch_q3")
        assert profile == ChaosProfile(worker_death_rate=0.3, match="tpch_q3")
        assert ChaosProfile.parse("error_rate=1,match=poison") == ChaosProfile(
            error_rate=1.0, match="poison"
        )

    def test_bad_value_rejected(self):
        with pytest.raises(ReproError, match="bad chaos value"):
            ChaosProfile.parse("latency_ms=slow")

    @pytest.mark.parametrize(
        "field",
        [
            "model_failure_rate",
            "model_nan_rate",
            "error_rate",
            "worker_death_rate",
            "cache_corrupt_rate",
            "latency_ms",
        ],
    )
    def test_any_single_fault_is_not_inert(self, field):
        assert not ChaosProfile(**{field: 0.5}).inert

    def test_match_and_latency_rate_alone_are_inert(self):
        profile = ChaosProfile(match="tpch_q3", latency_rate=0.5)
        assert profile.inert
        factory = resilient_robopt_factory(platforms=N_PLATFORMS, chaos=profile)
        assert not isinstance(factory(), ChaoticOptimizer)


class TestFaultInjector:
    def test_deterministic_across_instances(self):
        a = FaultInjector(ChaosProfile(seed=5, model_failure_rate=0.4))
        b = FaultInjector(ChaosProfile(seed=5, model_failure_rate=0.4))
        tokens = [f"tok{i}" for i in range(64)]
        assert [a.model_fails(t) for t in tokens] == [b.model_fails(t) for t in tokens]

    def test_seed_changes_decisions(self):
        tokens = [f"tok{i}" for i in range(128)]
        a = FaultInjector(ChaosProfile(seed=0, model_failure_rate=0.5))
        b = FaultInjector(ChaosProfile(seed=1, model_failure_rate=0.5))
        assert [a.model_fails(t) for t in tokens] != [b.model_fails(t) for t in tokens]

    def test_rate_extremes(self):
        injector = FaultInjector(ChaosProfile(worker_death_rate=1.0))
        assert injector.worker_dies("anything")
        assert not injector.model_fails("anything")  # rate 0

    def test_partial_rate_fires_partially(self):
        injector = FaultInjector(ChaosProfile(seed=2, model_failure_rate=0.3))
        fired = sum(injector.model_fails(f"t{i}") for i in range(200))
        assert 20 < fired < 120  # ~60 expected; just not all-or-nothing

    def test_latency(self):
        quiet = FaultInjector(ChaosProfile())
        assert quiet.latency_s("x") == 0.0
        slow = FaultInjector(ChaosProfile(latency_ms=20.0))
        assert slow.latency_s("x") == pytest.approx(0.02)


# ---------------------------------------------------------------------------
# The wrappers
# ---------------------------------------------------------------------------


class _ConstantModel:
    def predict(self, X):
        return np.ones(np.asarray(X).shape[0])


class TestChaoticModel:
    def test_outage_raises_injected_fault(self):
        model = ChaoticModel(
            _ConstantModel(), FaultInjector(PROFILES["model-outage"])
        )
        with pytest.raises(InjectedFault):
            model.predict(np.ones((2, 3)))

    def test_nan_storm_poisons_output(self):
        model = ChaoticModel(_ConstantModel(), FaultInjector(PROFILES["nan-storm"]))
        out = model.predict(np.ones((3, 3)))
        assert np.all(np.isnan(out))

    def test_flaky_sequence_is_reproducible(self):
        def sequence():
            model = ChaoticModel(
                _ConstantModel(),
                FaultInjector(ChaosProfile(seed=9, model_failure_rate=0.4)),
            )
            outcomes = []
            for _ in range(32):
                try:
                    model.predict(np.ones((1, 3)))
                    outcomes.append("ok")
                except InjectedFault:
                    outcomes.append("fail")
            return outcomes

        first = sequence()
        assert first == sequence()
        assert "ok" in first and "fail" in first


class TestChaoticOptimizer:
    def test_serial_worker_death_is_a_raised_fault(self, registry):
        """In the main process an injected worker death must not actually
        exit — it surfaces as a job failure the service can retry."""
        from repro.core.features import FeatureSchema
        from repro.core.optimizer import Robopt
        from repro.serve.testing import LinearRuntimeModel

        schema = FeatureSchema(registry)
        inner = Robopt(
            registry, LinearRuntimeModel(schema.n_features), schema=schema
        )
        chaotic = ChaoticOptimizer(
            inner, FaultInjector(ChaosProfile(worker_death_rate=1.0))
        )
        with pytest.raises(InjectedFault, match="worker death"):
            chaotic.optimize(build_pipeline(2))

    def test_error_rate_raises_for_matching_plans_only(self):
        chaotic = resilient_robopt_factory(
            platforms=N_PLATFORMS, chaos=ChaosProfile(error_rate=1.0, match="poison")
        )()
        with pytest.raises(InjectedFault, match="injected failure"):
            chaotic.optimize(_named(build_pipeline(2), "poison-pill"))
        assert chaotic.optimize(build_pipeline(2)).execution_plan is not None
        assert chaotic.calls == {"poison-pill": 1}

    def test_no_faults_passes_through(self, registry):
        from repro.core.features import FeatureSchema
        from repro.core.optimizer import Robopt
        from repro.serve.testing import LinearRuntimeModel

        schema = FeatureSchema(registry)
        inner = Robopt(
            registry, LinearRuntimeModel(schema.n_features), schema=schema
        )
        chaotic = ChaoticOptimizer(inner, FaultInjector(ChaosProfile()))
        plan = build_pipeline(2)
        assert (
            chaotic.optimize(plan).execution_plan.assignment
            == inner.optimize(plan).execution_plan.assignment
        )


class TestCorruptCacheFile:
    def test_truncates_at_rate_one(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 1, "entries": []}))
        before = len(path.read_bytes())
        assert corrupt_cache_file(
            path, FaultInjector(PROFILES["cache-corruption"])
        )
        assert len(path.read_bytes()) < before

    def test_noop_at_rate_zero_or_missing_file(self, tmp_path):
        path = tmp_path / "cache.json"
        assert not corrupt_cache_file(path, FaultInjector(ChaosProfile()))
        path.write_text("{}")
        assert not corrupt_cache_file(path, FaultInjector(ChaosProfile()))
        assert path.read_text() == "{}"


# ---------------------------------------------------------------------------
# The service under chaos
# ---------------------------------------------------------------------------


def _jobs(n=6):
    jobs = [BatchJob(f"p{i}", build_pipeline(2 + i % 3)) for i in range(n - 1)]
    jobs.append(BatchJob("join", build_join_plan()))
    return jobs


class TestServiceUnderChaos:
    def test_model_outage_zero_batch_failures(self, registry):
        """The ISSUE acceptance bar: an always-failing ML model costs plan
        fidelity, never availability."""
        factory = resilient_robopt_factory(
            platforms=N_PLATFORMS, chaos=PROFILES["model-outage"]
        )
        service = BatchOptimizationService(factory, registry, workers=0)
        report = service.optimize_batch(_jobs())
        assert report.n_failed == 0
        for outcome in report.outcomes:
            assert outcome.ok, outcome.error
            assert outcome.result.execution_plan is not None

    def test_nan_storm_zero_batch_failures(self, registry):
        factory = resilient_robopt_factory(
            platforms=N_PLATFORMS, chaos=PROFILES["nan-storm"]
        )
        service = BatchOptimizationService(factory, registry, workers=0)
        assert service.optimize_batch(_jobs()).n_failed == 0

    def test_deadline_degrades_every_job_completely(self, registry):
        factory = resilient_robopt_factory(platforms=N_PLATFORMS, deadline_s=0.0)
        service = BatchOptimizationService(factory, registry, workers=0)
        report = service.optimize_batch(_jobs())
        assert report.n_failed == 0
        assert report.n_degraded == report.n_jobs
        for outcome in report.outcomes:
            plan_ops = set(outcome.result.execution_plan.plan.operators)
            assert set(outcome.result.execution_plan.assignment) == plan_ops

    def test_serial_worker_deaths_fail_jobs_not_the_service(self, registry):
        """With worker_death_rate=1.0 in serial mode every job fails (as a
        raised InjectedFault) but the batch — and the process — survive."""
        factory = resilient_robopt_factory(
            platforms=N_PLATFORMS, chaos=ChaosProfile(worker_death_rate=1.0)
        )
        service = BatchOptimizationService(factory, registry, workers=0)
        report = service.optimize_batch(_jobs(4))
        assert report.n_failed == report.n_jobs
        assert all("worker death" in o.error for o in report.outcomes)

    def test_job_deadline_holds_under_chaos(self):
        """A job's ``deadline_ms`` reaches Robopt through the chaos wrapper:
        an expired budget answers degraded, as it does without chaos."""
        factory = resilient_robopt_factory(
            platforms=3, chaos=ChaosProfile(latency_ms=1.0)
        )
        service = BatchOptimizationService(
            factory, synthetic_registry(3), workers=0
        )
        report = service.optimize_batch(
            [
                BatchJob("late", build_pipeline(12), deadline_ms=0.0),
                BatchJob("free", build_pipeline(12)),
            ]
        )
        by_id = {o.job_id: o for o in report.outcomes}
        assert by_id["late"].ok and by_id["late"].result.stats.degraded
        # No budget left before the singletons: the greedy plan answers.
        assert by_id["late"].result.stats.degradation == "greedy_fallback"
        assert by_id["free"].ok and not by_id["free"].result.stats.degraded
        assert report.n_degraded == 1

    def test_transient_failures_recover_via_retry(self, registry):
        expected = _attempts_to_pass(TRANSIENT, "transient-blip")
        assert expected == 2  # one failure, then a pass
        factory = resilient_robopt_factory(platforms=N_PLATFORMS, chaos=TRANSIENT)
        service = BatchOptimizationService(
            factory,
            registry,
            workers=0,
            retry=RetryPolicy(max_retries=2, base_backoff_s=0.0, jitter=0.0),
        )
        jobs = [
            BatchJob("stable", build_pipeline(2)),
            BatchJob("shaky", _named(build_pipeline(3), "transient-blip")),
        ]
        report = service.optimize_batch(jobs)
        by_id = {o.job_id: o for o in report.outcomes}
        assert by_id["stable"].ok and by_id["stable"].attempts == 1
        assert by_id["shaky"].ok and by_id["shaky"].attempts == expected
        assert report.n_retried == 1

    def test_no_retries_without_policy(self, registry):
        assert _attempts_to_pass(TRANSIENT, "transient-blip") > 1
        factory = resilient_robopt_factory(platforms=N_PLATFORMS, chaos=TRANSIENT)
        service = BatchOptimizationService(factory, registry, workers=0)
        report = service.optimize_batch(
            [BatchJob("shaky", _named(build_pipeline(3), "transient-blip"))]
        )
        assert report.n_failed == 1
        assert report.outcomes[0].attempts == 1

    def test_poisoned_plan_quarantined_innocents_exonerated(self, registry):
        """A plan that kills its worker on every dispatch crosses the
        quarantine threshold; jobs that merely shared its broken pool get
        isolated retries and complete."""
        factory = resilient_robopt_factory(platforms=N_PLATFORMS, chaos=CRASHING)
        service = BatchOptimizationService(
            factory,
            registry,
            workers=2,
            retry=RetryPolicy(max_retries=3, base_backoff_s=0.0, jitter=0.0),
            quarantine_after=2,
        )
        jobs = [
            BatchJob("ok1", build_pipeline(2)),
            BatchJob("bad", _named(build_pipeline(3), "crash-me")),
            BatchJob("ok2", build_pipeline(4)),
        ]
        report = service.optimize_batch(jobs)
        by_id = {o.job_id: o for o in report.outcomes}
        assert not by_id["bad"].ok
        assert by_id["bad"].quarantined
        assert by_id["ok1"].ok and by_id["ok2"].ok
        assert report.n_quarantined == 1
        # The quarantine persists into the next batch: the poisoned plan is
        # refused up front instead of being handed another worker.
        again = service.optimize_batch(
            [BatchJob("bad2", _named(build_pipeline(3), "crash-me"))]
        )
        assert again.outcomes[0].quarantined
        assert "quarantined" in again.outcomes[0].error

    def test_timeout_covers_optimizer_construction(self, registry):
        """A factory that hangs during *construction* (worker init) must be
        bounded by the per-job timeout, not stall the batch for its full
        init sleep."""
        import time

        factory = slow_init_robopt_factory(platforms=N_PLATFORMS, init_sleep_s=6.0)
        service = BatchOptimizationService(
            factory, registry, workers=2, timeout_s=1.0
        )
        t0 = time.perf_counter()
        report = service.optimize_batch([BatchJob("j", build_pipeline(2))])
        elapsed = time.perf_counter() - t0
        assert report.n_failed == 1
        assert report.outcomes[0].timed_out
        assert elapsed < 5.0  # nowhere near the 6s init sleep


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestChaosCli:
    def _write_jobs(self, tmp_path, n=3):
        path = tmp_path / "jobs.jsonl"
        rows = [
            {"id": f"wc{i}", "workload": "WordCount", "size": f"{20 * (i + 1)}MB"}
            for i in range(n)
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return path

    def test_chaos_model_outage_serves_every_job(self, tmp_path, capsys):
        from repro.cli import main

        jobs = self._write_jobs(tmp_path)
        out = tmp_path / "results.jsonl"
        rc = main(
            [
                "optimize-batch",
                "--jobs", str(jobs),
                "--model", str(tmp_path / "missing.pkl"),
                "--chaos-profile", "model-outage",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 3 and all(r["ok"] for r in rows)

    def test_chaos_requires_resilience(self, tmp_path, capsys):
        from repro.cli import main

        jobs = self._write_jobs(tmp_path)
        rc = main(
            [
                "optimize-batch",
                "--jobs", str(jobs),
                "--model", str(tmp_path / "missing.pkl"),
                "--chaos-profile", "model-outage",
                "--no-resilience",
            ]
        )
        assert rc != 0
        assert "resilience" in capsys.readouterr().err

    def test_env_seed_overrides_profile(self, monkeypatch):
        import argparse

        from repro.cli import _chaos_profile

        args = argparse.Namespace(chaos_profile="model-flaky,seed=1")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "42")
        assert _chaos_profile(args).seed == 42
        monkeypatch.setenv("REPRO_CHAOS_SEED", "not-a-seed")
        with pytest.raises(ReproError):
            _chaos_profile(args)
        monkeypatch.delenv("REPRO_CHAOS_SEED")
        assert _chaos_profile(args).seed == 1

    def test_deadline_flag_marks_degraded_rows(self, tmp_path, capsys):
        from repro.cli import main

        jobs = self._write_jobs(tmp_path, n=2)
        out = tmp_path / "results.jsonl"
        rc = main(
            [
                "optimize-batch",
                "--jobs", str(jobs),
                "--model", str(tmp_path / "missing.pkl"),
                "--deadline-ms", "0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["ok"] for r in rows)
        assert all(r["degraded"] for r in rows)


# ---------------------------------------------------------------------------
# The daemon front door (ISSUE 7): chaos contracts hold over the wire
# ---------------------------------------------------------------------------


class TestDaemonUnderChaosProfiles:
    """The network layer adds no new failure modes: chaos behind the
    daemon degrades exactly as it does behind the batch CLI."""

    def test_nan_storm_daemon_answers_every_client(self, registry, tmp_path):
        from test_serve_daemon import _plan_request, run_daemon
        from repro.serve import ServeClient

        factory = resilient_robopt_factory(
            platforms=N_PLATFORMS, chaos=PROFILES["nan-storm"]
        )
        service = BatchOptimizationService(factory, registry, workers=0)
        with run_daemon(service, unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                responses = client.optimize_many(
                    [_plan_request(build_pipeline(2 + i % 3), f"n{i}") for i in range(4)]
                )
        assert all(r.ok for r in responses)

    def test_poisoned_plan_is_quarantined_over_the_wire(self, registry, tmp_path):
        """A plan that keeps killing pool workers crosses the quarantine
        threshold; the client sees a structured ``quarantined`` error and
        other plans keep completing on the recycled pool."""
        from test_serve_daemon import _plan_request, run_daemon
        from repro.serve import ServeClient

        factory = resilient_robopt_factory(platforms=N_PLATFORMS, chaos=CRASHING)
        service = BatchOptimizationService(
            factory,
            registry,
            workers=2,
            retry=RetryPolicy(max_retries=3, base_backoff_s=0.0, jitter=0.0),
            quarantine_after=2,
        )
        with run_daemon(service, unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                bad = client.optimize(
                    _plan_request(_named(build_pipeline(3), "crash-me"), "bad")
                )
                assert not bad.ok
                assert bad.code == "quarantined"
                # the quarantine persists: refused up front next time
                again = client.optimize(
                    _plan_request(_named(build_pipeline(3), "crash-me"), "bad2")
                )
                assert not again.ok
                assert again.code == "quarantined"
                assert "quarantined" in again.error
                # an innocent plan still gets a real answer
                ok = client.optimize(_plan_request(build_pipeline(2), "ok"))
                assert ok.ok, ok


# ---------------------------------------------------------------------------
# The template cache tier under chaos
# ---------------------------------------------------------------------------


class TestTemplateCacheChaos:
    """The template tier's failure mode is wasted work, never a wrong plan.

    A corrupt persistence file loads as an empty cache (never raises); a
    multi-candidate template asked far from every observed optimum
    refuses — in every case the answer the client sees is the
    enumerated optimum.
    """

    def _optimizer(self, registry):
        from repro.core.features import FeatureSchema
        from repro.core.optimizer import Robopt
        from repro.serve.testing import LinearRuntimeModel

        schema = FeatureSchema(registry)
        return Robopt(
            registry, LinearRuntimeModel(schema.n_features, seed=5), schema=schema
        )

    def _seed_two_candidates(self, cache, tfp, plan, optimizer, registry):
        """Forge a 2-candidate template (all-platform-0 / all-platform-1)."""
        base = optimizer.optimize(plan)
        for name in registry.names:
            forged = base.copy()
            for op_id in forged.execution_plan.assignment:
                forged.execution_plan.assignment[op_id] = name
            cache.observe(tfp, plan, forged)
        assert len(cache.candidates(tfp)) == 2

    def test_corrupt_template_cache_loads_empty_never_raises(self, tmp_path):
        from repro.obs import Tracer, use_tracer
        from repro.serve import TemplateCache

        registry = synthetic_registry(N_PLATFORMS)
        optimizer = self._optimizer(registry)
        plan = build_pipeline(3)
        cache = TemplateCache()
        cache.observe("tfp", plan, optimizer.optimize(plan))
        path = cache.save(tmp_path / "templates.json")

        # The classic crash-during-write artifact: a truncated document.
        assert corrupt_cache_file(path, FaultInjector(PROFILES["cache-corruption"]))
        tracer = Tracer()
        with use_tracer(tracer):
            loaded = TemplateCache.load(path, registry)
        assert len(loaded) == 0
        assert tracer.counters["serve.template.load_corrupt"] == 1

        # Outright garbage behaves the same.
        path.write_text("\x00\x01 not json at all")
        assert len(TemplateCache.load(path, registry)) == 0

    def test_guardrail_reject_is_counted_and_falls_back(self, registry):
        from repro.obs import Tracer, use_tracer
        from repro.serve import BatchOptimizationService, TemplateCache
        from repro.serve import template_fingerprint
        from repro.serve.testing import linear_robopt_factory

        optimizer = self._optimizer(registry)
        plan = build_pipeline(3, cardinality=1e5)
        tfp = template_fingerprint(plan, registry)
        cache = TemplateCache()
        # Both candidates won at 1e5; the probe is ~44x away from it.
        self._seed_two_candidates(cache, tfp, plan, optimizer, registry)

        service = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS, seed=5),
            registry,
            workers=0,
            template_cache=cache,
        )
        probe = BatchJob("probe", build_pipeline(3, cardinality=4.4e6))
        tracer = Tracer()
        with use_tracer(tracer):
            report = service.optimize_batch([probe])
        (outcome,) = report.outcomes
        assert outcome.ok and not outcome.template_hit
        assert tracer.counters["serve.template.guardrail_rejects"] == 1
        assert cache.stats.guardrail_rejects == 1
        fresh = optimizer.optimize(probe.plan)
        assert outcome.result.predicted_runtime == fresh.predicted_runtime
        assert (
            outcome.result.execution_plan.assignment
            == fresh.execution_plan.assignment
        )
