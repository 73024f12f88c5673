"""Tests for TDGEN: shapes, job generation, profiles, and the facade."""

import numpy as np
import pytest

from repro.exceptions import GenerationError
from repro.rheem.platforms import default_registry
from repro.simulator.executor import SimulatedExecutor
from repro.tdgen.generator import TrainingDataGenerator
from repro.tdgen.jobgen import JobGenerator, sample_execution_plans
from repro.tdgen.profiles import (
    ALL_LEVELS,
    ConfigurationProfile,
    default_cardinality_grid,
)
from repro.tdgen.shapes import _EXTRA_OPERATORS, SHAPES, Template, build_template

from conftest import build_join_plan, build_loop_plan, build_pipeline


@pytest.fixture
def reg():
    return default_registry(("java", "spark", "flink"))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestShapes:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_shape_builds_valid_plans(self, shape, rng):
        # Every size from the smallest build_template accepts up to 12.
        for n_operators in range(_EXTRA_OPERATORS[shape] + 1, 13):
            template = build_template(shape, n_operators, rng=rng)
            plan = template(1e6, level=2)
            plan.validate()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_shape_topology_present(self, shape, rng):
        template = build_template(shape, 12, rng=rng)
        topo = template(1e5, level=1).topology_counts()
        if shape == "pipeline":
            assert topo.as_tuple() == (1, 0, 0, 0)
        elif shape in ("juncture", "relational"):
            assert topo.juncture >= 1
        elif shape == "replicate":
            assert topo.replicate >= 1
        else:
            assert topo.loop >= 1

    def test_same_template_same_structure_across_cardinalities(self, rng):
        template = build_template("pipeline", 10, rng=rng)
        a, b = template(1e4, 2), template(1e7, 2)
        assert a.signature()[0] == b.signature()[0]  # same ops
        assert a.signature()[1] == b.signature()[1]  # same edges

    def test_complexity_level_changes_udfs(self, rng):
        template = build_template("pipeline", 8, rng=rng)
        low = template(1e5, level=1)
        high = template(1e5, level=4)
        low_sum = sum(int(op.udf_complexity) for op in low.operators.values())
        high_sum = sum(int(op.udf_complexity) for op in high.operators.values())
        assert high_sum > low_sum

    def test_sgd_loop_has_cache_before_sample(self, rng):
        template = build_template("sgd_loop", 10, rng=rng)
        plan = template(1e6, 2)
        sample_id = next(
            i
            for i, op in plan.operators.items()
            if op.kind_name == "ShufflePartitionSample"
        )
        parents = [plan.operators[p].kind_name for p in plan.parents(sample_id)]
        assert parents == ["Cache"]
        assert plan.in_loop(sample_id)

    def test_graph_loop_has_iterative_pagerank(self, rng):
        template = build_template("graph_loop", 12, rng=rng)
        plan = template(1e6, 2)
        pr_id = next(
            i for i, op in plan.operators.items() if op.kind_name == "PageRank"
        )
        assert plan.in_loop(pr_id)

    def test_unknown_shape_rejected(self, rng):
        with pytest.raises(GenerationError):
            build_template("spiral", 10, rng=rng)

    def test_too_few_operators_rejected(self, rng):
        with pytest.raises(GenerationError):
            build_template("juncture", 3, rng=rng)


class TestProfiles:
    def test_default_grid_is_log_spaced(self):
        grid = default_cardinality_grid(1e2, 1e6, 5)
        ratios = [grid[i + 1] / grid[i] for i in range(4)]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)

    def test_grid_validation(self):
        with pytest.raises(GenerationError):
            default_cardinality_grid(0, 10)
        with pytest.raises(GenerationError):
            default_cardinality_grid(10, 5)
        with pytest.raises(GenerationError):
            default_cardinality_grid(1, 10, points=1)

    def test_executed_subset_covers_small_and_last(self):
        profile = ConfigurationProfile(cardinalities=tuple(range(1, 9)))
        executed = profile.executed_cardinalities()
        n = 8
        assert set(range((n + 1) // 2)) <= set(executed)  # all small
        assert n - 1 in executed  # right anchor
        assert len(executed) < n  # something is left to interpolate

    def test_level_validation(self):
        with pytest.raises(GenerationError):
            ConfigurationProfile(levels=(1, 9))
        with pytest.raises(GenerationError):
            ConfigurationProfile(cardinalities=())

    def test_jobs_per_assignment(self):
        profile = ConfigurationProfile(cardinalities=(1, 2, 3), levels=(1, 4))
        assert profile.n_jobs_per_assignment == 6


class TestJobGenerator:
    def test_templates_for_shapes(self, reg):
        gen = JobGenerator(reg, seed=1)
        templates = gen.templates_for_shapes(("pipeline", "loop"), 20, 10)
        assert len(templates) == 10
        assert {t.shape for t in templates} <= {"pipeline", "loop"}
        assert all(6 <= t.n_operators <= 20 for t in templates)

    def test_templates_like_workload(self, reg):
        gen = JobGenerator(reg, seed=2)
        workload = [build_pipeline(4), build_join_plan(), build_loop_plan()]
        templates = gen.templates_like(workload, 9)
        assert len(templates) == 9
        assert {t.shape for t in templates} <= {"pipeline", "juncture", "loop"}

    def test_templates_like_empty_workload_rejected(self, reg):
        with pytest.raises(GenerationError):
            JobGenerator(reg).templates_like([], 3)

    def test_templates_exhaustive_covers_all_shapes(self, reg):
        templates = JobGenerator(reg, seed=0).templates_exhaustive(14)
        assert {t.shape for t in templates} == set(SHAPES)

    def test_unknown_shape_rejected(self, reg):
        with pytest.raises(GenerationError):
            JobGenerator(reg).templates_for_shapes(("moebius",), 20, 5)

    def test_reproducible_with_seed(self, reg):
        a = JobGenerator(reg, seed=5).templates_for_shapes(("pipeline",), 15, 4)
        b = JobGenerator(reg, seed=5).templates_for_shapes(("pipeline",), 15, 4)
        assert [t.kinds for t in a] == [t.kinds for t in b]


class TestSampleExecutionPlans:
    def test_assignments_cover_plan_and_respect_beta(self, reg):
        plan = build_pipeline(5)
        rng = np.random.default_rng(3)
        assignments = sample_execution_plans(plan, reg, 10, beta=2, rng=rng)
        assert 1 <= len(assignments) <= 10
        from repro.rheem.execution_plan import ExecutionPlan

        for assignment in assignments:
            assert set(assignment) == set(plan.operators)
            xp = ExecutionPlan(plan, assignment, reg)
            assert xp.num_platform_switches() <= 2

    def test_beta_zero_yields_single_platform_plans(self, reg):
        plan = build_pipeline(4)
        assignments = sample_execution_plans(
            plan, reg, 10, beta=0, rng=np.random.default_rng(0)
        )
        for assignment in assignments:
            assert len(set(assignment.values())) == 1

    def test_n_plans_validation(self, reg):
        with pytest.raises(GenerationError):
            sample_execution_plans(build_pipeline(3), reg, 0)


class TestGeneratorFacade:
    @pytest.fixture(scope="class")
    def generated(self):
        registry = default_registry(("java", "spark", "flink"))
        executor = SimulatedExecutor.default(registry)
        gen = TrainingDataGenerator(registry, executor, seed=3)
        profile = ConfigurationProfile(
            cardinalities=tuple(default_cardinality_grid(1e4, 1e7, 5))
        )
        dataset = gen.generate(400, assignments_per_plan=2, profile=profile)
        return gen, dataset

    def test_returns_requested_points(self, generated):
        gen, dataset = generated
        assert len(dataset) == 400
        assert dataset.X.shape[1] == gen.schema.n_features

    def test_labels_are_positive_and_capped(self, generated):
        _, dataset = generated
        assert np.all(dataset.y >= 0)
        assert np.all(dataset.y <= 7200.0)

    def test_meta_recorded(self, generated):
        _, dataset = generated
        assert len(dataset.meta) == len(dataset)
        statuses = {m["status"] for m in dataset.meta}
        assert "ok" in statuses
        assert "interpolated" in statuses

    def test_stats_accounting(self, generated):
        gen, _ = generated
        s = gen.stats
        assert s.n_templates > 0
        assert s.n_executed > 0
        assert s.n_imputed > 0
        # The whole point of TDGEN: most labels are NOT executed.
        assert s.executed_fraction < 0.6

    def test_include_xplans(self):
        registry = default_registry(("java", "spark"))
        executor = SimulatedExecutor.default(registry)
        gen = TrainingDataGenerator(registry, executor, seed=4)
        profile = ConfigurationProfile(
            cardinalities=tuple(default_cardinality_grid(1e4, 1e6, 3)),
            levels=(1, 4),
        )
        dataset = gen.generate(
            30, assignments_per_plan=1, profile=profile, include_xplans=True
        )
        assert all("xplan" in m for m in dataset.meta)

    def test_workload_mode(self):
        registry = default_registry(("java", "spark"))
        executor = SimulatedExecutor.default(registry)
        gen = TrainingDataGenerator(registry, executor, seed=5)
        profile = ConfigurationProfile(
            cardinalities=tuple(default_cardinality_grid(1e4, 1e6, 3)),
            levels=(2,),
        )
        dataset = gen.generate(
            20,
            workload=[build_loop_plan()],
            assignments_per_plan=1,
            profile=profile,
        )
        assert len(dataset) == 20
        assert all(m["shape"] == "loop" for m in dataset.meta)

    def test_invalid_n_points(self):
        registry = default_registry(("java",))
        executor = SimulatedExecutor.default(registry)
        with pytest.raises(GenerationError):
            TrainingDataGenerator(registry, executor).generate(0)
