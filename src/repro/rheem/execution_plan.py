"""Execution plans: logical plans with a platform per operator.

An :class:`ExecutionPlan` pins every logical operator to a platform and
derives the conversion operators implied by cross-platform edges
(§III-A). It is the object the optimizer ultimately outputs
(``unvectorize``) and the object the simulated executor runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.exceptions import PlanError, PlatformError
from repro.rheem.cardinality import edge_cardinality
from repro.rheem.conversion import ConversionStep, conversion_path
from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.platforms import PlatformRegistry


@dataclass(frozen=True)
class ConversionInstance:
    """One conversion operator materialized on a specific plan edge."""

    step: ConversionStep
    edge: Tuple[int, int]
    cardinality: float
    in_loop: bool
    iterations: int

    @property
    def kind(self) -> str:
        return self.step.kind

    @property
    def platform(self) -> str:
        return self.step.platform


class ExecutionPlan:
    """A fully platform-instantiated plan.

    Parameters
    ----------
    plan:
        The logical plan.
    assignment:
        Mapping from operator id to platform name; must cover every
        operator of ``plan``, and every platform must support the operator
        kind it receives.
    registry:
        The platform registry the assignment refers to.
    """

    def __init__(
        self,
        plan: LogicalPlan,
        assignment: Mapping[int, str],
        registry: PlatformRegistry,
    ):
        missing = set(plan.operators) - set(assignment)
        if missing:
            raise PlanError(f"assignment misses operators {sorted(missing)}")
        extra = set(assignment) - set(plan.operators)
        if extra:
            raise PlanError(f"assignment references unknown operators {sorted(extra)}")
        for op_id, platform_name in assignment.items():
            platform = registry[platform_name]
            kind = plan.operators[op_id].kind_name
            if not platform.supports(kind):
                raise PlatformError(
                    f"platform {platform_name!r} does not support operator "
                    f"kind {kind!r} (operator {op_id})"
                )
        self.plan = plan
        self.assignment: Dict[int, str] = dict(assignment)
        self.registry = registry
        self._conversions: List[ConversionInstance] = None

    # ------------------------------------------------------------------
    def platforms_used(self) -> Tuple[str, ...]:
        """Distinct platforms, in registry order."""
        used = set(self.assignment.values())
        return tuple(name for name in self.registry.names if name in used)

    def conversions(self) -> List[ConversionInstance]:
        """Conversion operators implied by cross-platform edges (cached)."""
        if self._conversions is None:
            self._conversions = self._derive_conversions()
        return self._conversions

    def _derive_conversions(self) -> List[ConversionInstance]:
        out: List[ConversionInstance] = []
        for u, v in self.plan.edges:
            src = self.registry[self.assignment[u]]
            dst = self.registry[self.assignment[v]]
            if src.name == dst.name:
                continue
            in_loop = self.plan.in_loop(u) and self.plan.in_loop(v)
            # Iterations: a conversion on an edge inside a loop repeats.
            iterations = min(
                self.plan.loop_iterations(u), self.plan.loop_iterations(v)
            )
            card = edge_cardinality(self.plan, u, v)
            for step in conversion_path(src, dst, in_loop=in_loop):
                out.append(
                    ConversionInstance(
                        step=step,
                        edge=(u, v),
                        cardinality=card,
                        in_loop=in_loop,
                        iterations=iterations,
                    )
                )
        return out

    def num_platform_switches(self) -> int:
        """Number of edges whose endpoints run on different platforms.

        This is the quantity bounded by TDGEN's β-switch pruning (§VI-A).
        """
        return sum(
            1
            for u, v in self.plan.edges
            if self.assignment[u] != self.assignment[v]
        )

    def signature(self) -> Tuple:
        """Hashable identity: plan structure + platform assignment."""
        return (
            self.plan.signature(),
            tuple(sorted(self.assignment.items())),
        )

    def describe(self) -> str:
        """A human-readable, one-line-per-operator rendering."""
        lines = [f"ExecutionPlan for {self.plan.name!r}:"]
        for op_id in self.plan.topological_order():
            op = self.plan.operators[op_id]
            lines.append(f"  o{op_id} {op.label} @ {self.assignment[op_id]}")
        for conv in self.conversions():
            u, v = conv.edge
            lines.append(f"  [{conv.platform}.{conv.kind}] on edge o{u} -> o{v}")
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExecutionPlan) and self.signature() == other.signature()
        )

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionPlan({self.plan.name!r}, "
            f"platforms={'+'.join(self.platforms_used())})"
        )


def single_platform_plan(
    plan: LogicalPlan, platform_name: str, registry: PlatformRegistry
) -> ExecutionPlan:
    """The execution plan that runs everything on one platform."""
    assignment = {op_id: platform_name for op_id in plan.operators}
    return ExecutionPlan(plan, assignment, registry)


def feasible_platforms(
    plan: LogicalPlan, registry: PlatformRegistry, op_id: int
) -> List[str]:
    """Names of the platforms that can execute one operator of the plan."""
    kind = plan.operators[op_id].kind_name
    names = [p.name for p in registry.supporting(kind)]
    if not names:
        raise PlatformError(
            f"no platform in {registry!r} supports operator kind {kind!r}"
        )
    return names
