"""Differential correctness: pruned Robopt vs exhaustive, batch vs serial.

Three guarantees the serving layer must never break:

* **Losslessness (Lemma 1).** For a merge-decomposable (linear) cost
  model, boundary pruning discards only subplans that cannot be part of
  the optimum — so Robopt's pruned search must land on exactly the same
  best cost as the pruning-free exhaustive enumeration of all ``k^n``
  plan vectors. Checked over ~50 seeded random TDGEN plans covering
  every generator shape.

* **Mode equivalence.** ``BatchOptimizationService`` must return
  bit-identical results whether it runs serially in-process or through
  the process pool — parallelism is an execution detail, never a
  semantic one. (With the fingerprint cache *disabled*; the cache's
  bucket-level equivalence is deliberately coarser and is exercised in
  ``test_serve_cache.py``.)

* **The template-cache guardrail.** The template tier deliberately
  serves plans that may not be the optimum — but *never* far from it:
  every answer it serves must have true (model-predicted) cost within
  1.2x of the exhaustive optimizer's optimum at the request's actual
  cardinalities, and any lookup the tier refused must have been
  answered by full enumeration (bit-identical to a direct optimize).
  A forest-backed suite checks the same for multi-candidate templates,
  which only a cardinality-dependent model produces.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.exhaustive import ExhaustiveOptimizer
from repro.core.features import FeatureSchema
from repro.core.optimizer import Robopt
from repro.rheem.platforms import synthetic_registry
from repro.serve import (
    BatchJob,
    BatchOptimizationService,
    PlanCache,
    TemplateCache,
    template_fingerprint,
)
from repro.serve.testing import LinearRuntimeModel, linear_robopt_factory
from repro.tdgen.jobgen import JobGenerator

N_PLATFORMS = 2  # keeps k^n exhaustive enumeration tractable
SHAPES = ("pipeline", "juncture", "replicate", "loop")


def _registry():
    return synthetic_registry(N_PLATFORMS)


def _random_plans(count, seed=1234, max_operators=9, min_operators=6):
    """Seeded random TDGEN plans, cycling generator shapes and sizes."""
    registry = _registry()
    gen = JobGenerator(registry, seed=seed)
    per_shape = -(-count // len(SHAPES))  # ceil
    templates = []
    for shape in SHAPES:
        templates.extend(
            gen.templates_for_shapes(
                (shape,),
                max_operators=max_operators,
                count=per_shape,
                min_operators=min_operators,
            )
        )
    plans = []
    for index, template in enumerate(templates[:count]):
        plans.append(template(10.0 ** (3 + index % 4)))
    assert len(plans) == count
    return plans


class TestPrunedMatchesExhaustive:
    """Pruned best cost == exhaustive best cost on ~50 random plans."""

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_lossless_over_random_plans(self, seed):
        registry = _registry()
        schema = FeatureSchema(registry)
        model = LinearRuntimeModel(schema.n_features, seed=seed)
        pruned = Robopt(registry, model, schema=schema)
        exhaustive = ExhaustiveOptimizer(registry, model, schema=schema)

        plans = _random_plans(17, seed=1000 + seed)
        for plan in plans:
            best = pruned.optimize(plan)
            truth = exhaustive.optimize(plan)
            # Pruning explored a subset of the full k^n space ...
            assert best.stats.total_vectors <= truth.stats.total_vectors
            # ... yet found exactly the same optimum (Lemma 1).
            assert np.isclose(
                best.predicted_runtime, truth.predicted_runtime, rtol=1e-9
            ), f"pruned optimum diverged from exhaustive on {plan.name!r}"

    def test_lossless_on_wide_boundary_plans(self):
        """Bushy plans with near-maximal boundaries (ISSUE 8).

        Juncture/replicate plans at 11-12 operators keep most operators
        adjacent to out-of-scope neighbours during enumeration, driving
        the widest pruning footprints this suite sees — the territory of
        the chunked (> 8 column) packed-word path. Lemma 1 must survive
        the packing: the pruned optimum still equals the exhaustive one.
        """
        registry = _registry()
        schema = FeatureSchema(registry)
        model = LinearRuntimeModel(schema.n_features, seed=3)
        pruned = Robopt(registry, model, schema=schema)
        exhaustive = ExhaustiveOptimizer(registry, model, schema=schema)
        gen = JobGenerator(registry, seed=77)
        templates = gen.templates_for_shapes(
            ("juncture", "replicate"),
            max_operators=12,
            count=6,
            min_operators=11,
        )
        for index, template in enumerate(templates):
            plan = template(10.0 ** (3 + index % 4))
            best = pruned.optimize(plan)
            truth = exhaustive.optimize(plan)
            assert best.stats.total_vectors <= truth.stats.total_vectors
            assert np.isclose(
                best.predicted_runtime, truth.predicted_runtime, rtol=1e-9
            ), f"pruned optimum diverged from exhaustive on {plan.name!r}"

    def test_pruning_actually_prunes(self):
        """The comparison is meaningful: pruning must shrink the space
        on at least some plans (otherwise the lossless check is vacuous)."""
        registry = _registry()
        schema = FeatureSchema(registry)
        model = LinearRuntimeModel(schema.n_features, seed=7)
        pruned = Robopt(registry, model, schema=schema)
        exhaustive = ExhaustiveOptimizer(registry, model, schema=schema)
        shrunk = 0
        for plan in _random_plans(8, seed=99):
            a = pruned.optimize(plan).stats.total_vectors
            b = exhaustive.optimize(plan).stats.total_vectors
            shrunk += a < b
        assert shrunk > 0


class TestBatchMatchesSerial:
    """Pool execution is bit-identical to serial execution."""

    def _jobs(self, count=50, seed=4321):
        return [
            BatchJob(f"job{i}", plan)
            for i, plan in enumerate(_random_plans(count, seed=seed))
        ]

    def test_pool_bit_identical_to_serial(self):
        registry = _registry()
        factory = linear_robopt_factory(platforms=N_PLATFORMS, seed=5)

        serial = BatchOptimizationService(factory, registry, workers=0)
        pooled = BatchOptimizationService(factory, registry, workers=2)

        jobs = self._jobs()
        serial_report = serial.optimize_batch(jobs)
        pooled_report = pooled.optimize_batch(self._jobs())

        assert serial_report.n_failed == 0
        assert pooled_report.n_failed == 0
        assert pooled_report.mode == "pool"
        for a, b in zip(serial_report.outcomes, pooled_report.outcomes):
            assert a.job_id == b.job_id
            # Bit-identical: same platform decisions AND the exact same
            # float predicted runtime (results cross the pool as JSON,
            # whose float round-trip is exact).
            assert (
                a.result.execution_plan.assignment
                == b.result.execution_plan.assignment
            )
            assert a.result.predicted_runtime == b.result.predicted_runtime
            assert a.result.execution_plan.plan.signature() == \
                b.result.execution_plan.plan.signature()

        # A second batch rides the *warm* pool (workers initialized by the
        # first batch): still bit-identical — warmth is an execution
        # detail too.
        warm_report = pooled.optimize_batch(self._jobs())
        pooled.close()
        assert warm_report.n_failed == 0
        for a, b in zip(serial_report.outcomes, warm_report.outcomes):
            assert a.job_id == b.job_id
            assert (
                a.result.execution_plan.assignment
                == b.result.execution_plan.assignment
            )
            assert a.result.predicted_runtime == b.result.predicted_runtime

    def test_cached_results_equal_fresh_results_for_identical_plans(self):
        """For *identical* plans (not just same-bucket ones) a cache hit
        returns the same decisions a fresh optimization would."""
        registry = _registry()
        factory = linear_robopt_factory(platforms=N_PLATFORMS, seed=5)
        jobs = self._jobs(12, seed=777)
        fresh = BatchOptimizationService(factory, registry, workers=0)
        cached = BatchOptimizationService(
            factory, registry, workers=0, cache=PlanCache(max_entries=64)
        )
        baseline = fresh.optimize_batch(jobs)
        cached.optimize_batch(self._jobs(12, seed=777))  # warm the cache
        warm = cached.optimize_batch(self._jobs(12, seed=777))
        assert warm.cache_hit_rate == 1.0
        for x, y in zip(baseline.outcomes, warm.outcomes):
            assert y.cached
            assert x.result.predicted_runtime == y.result.predicted_runtime
            assert (
                x.result.execution_plan.assignment
                == y.result.execution_plan.assignment
            )


class TestTemplateGuardrail:
    """Template-tier answers stay within the guardrail of the true optimum.

    ~50 TDGEN plans: a dozen parametric templates, each instantiated
    several times with cardinalities *resampled from a log-uniform
    distribution* (the workload the exact-fingerprint tier misses on).
    Served answers are checked against a pruning-free exhaustive
    enumeration at the request's actual cardinalities.
    """

    GUARDRAIL = 1.2

    def _templates(self, count=12, seed=501):
        registry = _registry()
        gen = JobGenerator(registry, seed=seed)
        per_shape = -(-count // len(SHAPES))
        templates = []
        for shape in SHAPES:
            templates.extend(
                gen.templates_for_shapes(
                    (shape,), max_operators=8, count=per_shape, min_operators=5
                )
            )
        return registry, templates[:count]

    def test_every_served_answer_is_within_the_guardrail(self):
        registry, templates = self._templates()
        schema = FeatureSchema(registry)
        model = LinearRuntimeModel(schema.n_features, seed=5)
        exhaustive = ExhaustiveOptimizer(registry, model, schema=schema)
        direct = Robopt(registry, model, schema=schema)
        cache = TemplateCache()
        service = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS, seed=5),
            registry,
            workers=0,
            template_cache=cache,
        )
        rng = np.random.default_rng(99)

        def draw_jobs(tag, per_template):
            jobs = []
            for t_index, template in enumerate(templates):
                for rep in range(per_template):
                    cardinality = 10.0 ** rng.uniform(3.0, 8.0)
                    jobs.append(
                        BatchJob(f"{tag}-{t_index}-{rep}", template(cardinality))
                    )
            return jobs

        # Warm phase: first sight of every template misses and folds the
        # fresh optimum back into its candidate set.
        warm_jobs = draw_jobs("warm", 3)
        warm = service.optimize_batch(warm_jobs)
        assert warm.n_failed == 0

        # Eval phase: fresh cardinality draws — never seen before.
        eval_jobs = draw_jobs("eval", 2)
        report = service.optimize_batch(eval_jobs)
        assert report.n_failed == 0
        assert len(warm_jobs) + len(eval_jobs) >= 50

        served = 0
        for job, outcome in zip(eval_jobs, report.outcomes):
            truth = exhaustive.optimize(job.plan)
            if outcome.template_hit:
                served += 1
                # The guardrail bound, against the *exhaustive* optimum
                # at this job's actual cardinalities.
                assert outcome.result.predicted_runtime <= (
                    self.GUARDRAIL * truth.predicted_runtime * (1.0 + 1e-9)
                ), f"guardrail breached on {job.job_id}"
            else:
                # A refused lookup fell back to full enumeration:
                # bit-identical to optimizing directly.
                fresh = direct.optimize(job.plan)
                assert (
                    outcome.result.predicted_runtime == fresh.predicted_runtime
                )
                assert (
                    outcome.result.execution_plan.assignment
                    == fresh.execution_plan.assignment
                )
        # Non-vacuous: the tier actually served most of the eval phase.
        assert served >= len(eval_jobs) // 2
        assert report.template_hit_rate >= 0.5

    def test_uncovered_request_falls_back_to_enumeration(self):
        """A multi-candidate template asked more than one bucket away from
        every candidate's cardinalities must answer via full enumeration
        — bit-identical to a direct optimize — and count the refusal."""
        registry, templates = self._templates(count=4, seed=77)
        schema = FeatureSchema(registry)
        model = LinearRuntimeModel(schema.n_features, seed=5)
        direct = Robopt(registry, model, schema=schema)
        cache = TemplateCache()
        service = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS, seed=5),
            registry,
            workers=0,
            template_cache=cache,
        )
        plan = templates[0](1e5)
        tfp = template_fingerprint(plan, registry)
        base = direct.optimize(plan)
        # Forge a second candidate so the template is multi-candidate.
        names = list(registry.names)
        for name in names:
            forged = base.copy()
            for op_id in forged.execution_plan.assignment:
                forged.execution_plan.assignment[op_id] = name
            cache.observe(tfp, plan, forged)
        assert len(cache.candidates(tfp)) >= 2

        probe = BatchJob("probe", templates[0](3.3e6))
        report = service.optimize_batch([probe])
        (outcome,) = report.outcomes
        assert not outcome.template_hit  # fell back ...
        assert cache.stats.guardrail_rejects == 1  # ... for the right reason
        fresh = direct.optimize(probe.plan)
        assert outcome.result.predicted_runtime == fresh.predicted_runtime
        assert (
            outcome.result.execution_plan.assignment
            == fresh.execution_plan.assignment
        )


class TestTemplateCoverageForest:
    """Multi-candidate templates under a forest model.

    The linear model above ranks plans the same at every cardinality,
    so its templates never gain a second candidate. The session forest
    does: replaying parametric traffic makes most templates
    multi-candidate, and those serve the re-costed argmin only within
    one cardinality bucket of an observed optimum. Every such lookup is
    compared with a direct ``Robopt`` call on the same model.
    """

    SEEDS = (0, 1)

    def _replay(self, ctx):
        """Served/direct cost ratios and the refusal count over the
        multi-candidate lookups of a seeded parametric replay: per seed,
        16 templates of 6-14 operators, one warm batch of 5 requests per
        template, then four eval batches of 3, cardinalities log-uniform
        over 1e3-1e9."""
        from repro.serve import robopt_factory

        registry, model = ctx["registry"], ctx["model"]
        direct = Robopt(registry, model, schema=ctx["schema"])
        lookups = []

        class RecordingCache(TemplateCache):
            def get(self, fingerprint, plan, recost):
                n = len(self.candidates(fingerprint))
                served = super().get(fingerprint, plan, recost)
                lookups.append((n, served))
                return served

        ratios, refused = [], 0
        for seed in self.SEEDS:
            templates = JobGenerator(registry, seed=seed).templates_for_shapes(
                SHAPES, max_operators=14, count=16, min_operators=6
            )
            rng = np.random.default_rng(1000 + seed)
            service = BatchOptimizationService(
                robopt_factory(platforms=registry.names, model=model),
                registry,
                workers=0,
                template_cache=RecordingCache(),
            )

            def draw(tag, per_template):
                return [
                    BatchJob(f"{tag}-{t}-{r}", template(10.0 ** rng.uniform(3.0, 9.0)))
                    for t, template in enumerate(templates)
                    for r in range(per_template)
                ]

            service.optimize_batch(draw("warm", 5))
            for round_ in range(4):
                lookups.clear()
                jobs = draw(f"eval{round_}", 3)
                report = service.optimize_batch(jobs)
                assert report.n_failed == 0
                for (n, served), job, outcome in zip(lookups, jobs, report.outcomes):
                    if n < 2:
                        continue
                    truth = direct.optimize(job.plan)
                    if served is None:
                        refused += 1
                        # A refusal is full enumeration, bit for bit.
                        assert not outcome.template_hit
                        assert (
                            outcome.result.predicted_runtime
                            == truth.predicted_runtime
                        )
                        assert (
                            outcome.result.execution_plan.assignment
                            == truth.execution_plan.assignment
                        )
                    else:
                        assert outcome.template_hit
                        ratios.append(
                            served.predicted_runtime / truth.predicted_runtime
                        )
        return np.asarray(ratios), refused

    def test_multi_candidate_lookups(self, tiny_context, monkeypatch):
        from repro.serve import template

        ratios, refused = self._replay(tiny_context)
        # Not vacuous: multi-candidate templates both served and refused.
        assert ratios.size and refused
        # The same replay with coverage off serves every lookup: the
        # bare argmin. Coverage must refuse where the argmin goes wrong.
        monkeypatch.setattr(template, "COVERAGE_FACTOR", math.inf)
        bare, bare_refused = self._replay(tiny_context)
        assert bare_refused == 0
        summary = (
            f"coverage: {ratios.size} served, {int((ratios > 1.2).sum())} "
            f"above 1.2x, worst {ratios.max():.2f}x; bare argmin: "
            f"{bare.size} served, {int((bare > 1.2).sum())} above 1.2x, "
            f"worst {bare.max():.2f}x"
        )
        assert (ratios > 1.2).mean() < (bare > 1.2).mean(), summary
        assert ratios.max() <= bare.max(), summary


class TestRiskAndFeedbackAreOptIn:
    """ISSUE 10 acceptance: risk_aversion=0 and a disabled feedback loop
    are *bit-identical* to the pre-feedback optimizer — the new
    machinery costs nothing until explicitly turned on.
    """

    def test_k_zero_is_bit_identical_and_never_asks_for_dist(self, tiny_context):
        ctx = tiny_context
        registry = ctx["registry"]

        calls = []
        model = ctx["model"]
        original = model.predict_dist

        class SpyModel:
            """Delegates everything, records predict_dist calls."""

            def __getattr__(self, name):
                return getattr(model, name)

            def predict_dist(self, X):
                calls.append(np.shape(X))
                return original(X)

        plain = Robopt(registry, model, schema=ctx["schema"])
        k_zero = Robopt(registry, SpyModel(), schema=ctx["schema"], risk_aversion=0.0)
        from repro.tdgen.jobgen import JobGenerator

        gen = JobGenerator(registry, seed=11)
        plans = [
            t(10.0 ** (4 + i % 3))
            for i, t in enumerate(
                gen.templates_for_shapes(("pipeline", "juncture"), max_operators=7, count=6)
            )
        ]
        for plan in plans:
            a = plain.optimize(plan)
            b = k_zero.optimize(plan)
            assert a.execution_plan.assignment == b.execution_plan.assignment
            assert a.predicted_runtime == b.predicted_runtime  # bit-identical
            assert b.stats.predicted_std == 0.0
        assert calls == []  # k=0 never even asks for a distribution

    def test_positive_k_minimizes_the_risk_score(self, tiny_context):
        """The risk choice is argmin(mean + k*std) over the final
        survivors, the reported runtime stays the mean, and the std is
        surfaced in the stats."""
        ctx = tiny_context
        k = 2.0
        risky = Robopt(ctx["registry"], ctx["model"], schema=ctx["schema"], risk_aversion=k)
        from repro.tdgen.jobgen import JobGenerator

        gen = JobGenerator(ctx["registry"], seed=23)
        checked = 0
        for i, template in enumerate(
            gen.templates_for_shapes(("pipeline", "juncture"), max_operators=7, count=6)
        ):
            plan = template(10.0 ** (4 + i % 3))
            result = risky.optimize(plan)
            final = result.final_enumeration
            if final is None:
                continue
            mean, std = ctx["model"].predict_dist(final.features)
            scores = mean + k * std
            assert result.predicted_runtime + k * result.stats.predicted_std \
                == pytest.approx(float(scores.min()))
            assert result.stats.predicted_std >= 0.0
            checked += 1
        assert checked >= 4

    def test_invalid_risk_aversion_rejected(self, tiny_context):
        from repro.exceptions import EnumerationError

        ctx = tiny_context
        with pytest.raises(EnumerationError):
            Robopt(ctx["registry"], ctx["model"], schema=ctx["schema"], risk_aversion=-0.5)

    def test_service_with_inert_feedback_is_bit_identical(self):
        """A service carrying a feedback controller that never retrains
        must answer exactly like a service with feedback disabled —
        observation is a pure tap off the result stream."""
        from repro.core.features import FeatureSchema as FS
        from repro.ml import FeedbackLoop
        from repro.serve.feedback import FeedbackController

        registry = _registry()

        class _Exec:
            def execute(self, xplan, timeout_s=3600.0):
                class R:
                    ok = True
                    status = "success"
                    runtime_s = 3.0
                    detail = ""

                return R()

        ctrl = FeedbackController(
            FeedbackLoop(FS(registry)),
            _Exec(),
            min_observations=10**9,  # retraining unreachable
        )
        plans = _random_plans(12, seed=808)
        with_feedback = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS, seed=3),
            registry,
            workers=0,
            feedback=ctrl,
        )
        without = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS, seed=3),
            _registry(),
            workers=0,
        )
        try:
            a = with_feedback.optimize_batch([p.clone() for p in plans])
            b = without.optimize_batch([p.clone() for p in plans])
        finally:
            with_feedback.close()
            without.close()
        assert ctrl.loop.n_observations == len(plans)  # the tap did run
        for left, right in zip(a.outcomes, b.outcomes):
            assert left.ok and right.ok
            assert left.result.predicted_runtime == right.result.predicted_runtime
            assert (
                left.result.execution_plan.assignment
                == right.result.execution_plan.assignment
            )
