"""Template-keyed parametric plan cache with re-costed candidate choice.

The exact fingerprint cache (:mod:`repro.serve.cache`) reuses a decision
only when log-bucketed cardinalities collide — a parametric workload
whose cardinalities are *drawn from a distribution* misses almost every
time. Kepler (Doshi et al., VLDB 2023) shows the right shape: key the
cache by plan **template** (structure with cardinalities stripped) and
remember the small set of plans that were optimal anywhere in the
observed parameter range.

Serving a cached candidate is only safe because candidates are
**re-costed with the live runtime model at the request's actual
cardinalities** before anything is returned, and the cheapest re-costed
candidate is the one served — the runtime model decides, as it does
inside the enumerator (Robopt §IV). One rule limits where that holds:

* a template with a **single** candidate serves it at any cardinality;
* a template that has produced **two or more** optima depends on
  cardinality, so it serves only a request within one exact-cache
  bucket (a factor of 2 on every source, the base
  :func:`~repro.serve.fingerprint.cardinality_bucket` uses) of some
  candidate's stored ``cardinalities`` — a point where an optimum was
  actually observed. Farther out it refuses (``guardrail_rejects``).

A refusal, a re-cost failure or a NaN cost returns ``None`` and the
caller falls back to full enumeration, whose result is folded back into
the template's candidate set via :meth:`TemplateCache.observe`. The
failure mode of this cache is therefore *wasted work*, never a wrong
plan.

The LRU over templates, the counters (``serve.template.*`` in the
ambient tracer) and the versioned JSON persistence are the store the
exact cache uses (:class:`repro.serve.cache._Store`): a corrupt file
loads empty (never raises), a foreign fingerprint version drops
entries, only an explicit unsupported format version is an error.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import OptimizationResult, RunStats
from repro.exceptions import ReproError
from repro.obs import current_tracer
from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.platforms import PlatformRegistry
from repro.serve.cache import DEFAULT_BOUND, CacheStats, _Store

__all__ = [
    "TEMPLATE_FINGERPRINT_VERSION",
    "TemplateCache",
    "TemplateCacheStats",
    "TemplateCandidate",
    "template_fingerprint",
]

#: Bump when the canonical template document below changes shape.
TEMPLATE_FINGERPRINT_VERSION = 1

#: Version of the JSON persistence format of :class:`TemplateCache`.
TEMPLATE_CACHE_FORMAT_VERSION = 1

#: A multi-candidate template serves a request only within this factor,
#: on every source, of some candidate's stored cardinalities: one bucket
#: of the exact cache's log2 :func:`~repro.serve.fingerprint.cardinality_bucket`.
COVERAGE_FACTOR = 2.0


def _template_document(
    plan: LogicalPlan, registry: Optional[PlatformRegistry]
) -> dict:
    """The JSON-stable document the template fingerprint hashes.

    Mirrors :func:`repro.serve.fingerprint._canonical_document` with the
    cardinality information *stripped*: dataset profiles reduce to the
    set of source operator ids (which operators are fed, not how much),
    and a fixed output cardinality reduces to its presence — the value
    itself is a parameter, but whether an operator pins its output
    changes the shape of the cost landscape.
    """
    operators = []
    for op_id, op in sorted(plan.operators.items()):
        operators.append(
            [
                op_id,
                op.kind_name,
                int(op.udf_complexity),
                None if op.selectivity is None else round(float(op.selectivity), 9),
                op.fixed_output_cardinality is not None,
            ]
        )
    doc = {
        "v": TEMPLATE_FINGERPRINT_VERSION,
        "operators": operators,
        "edges": sorted(plan.edges),
        "loops": sorted(
            (sorted(spec.body), spec.iterations) for spec in plan.loops
        ),
        "sources": sorted(plan.datasets),
    }
    if registry is not None:
        doc["platforms"] = list(registry.names)
    return doc


def template_fingerprint(
    plan: LogicalPlan, registry: Optional[PlatformRegistry] = None
) -> str:
    """The template key of a logical plan: structure minus cardinalities.

    Two instantiations of the same parametric query — identical operator
    kinds/parameters/selectivities, edges, loops and platform alphabet,
    *any* input cardinalities — share a template fingerprint. Everything
    structural still enters the hash exactly, so this is strictly coarser
    than :func:`repro.serve.fingerprint.plan_fingerprint` and never
    conflates structurally different plans it would distinguish.
    """
    doc = _template_document(plan, registry)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cardinality_vector(plan: LogicalPlan) -> List[float]:
    return [
        float(profile.cardinality)
        for _op_id, profile in sorted(plan.datasets.items())
    ]


def _covers(stored: List[float], request: List[float]) -> bool:
    """Is ``request`` within :data:`COVERAGE_FACTOR` of ``stored`` on
    every source? An empty, mismatched, non-finite or non-positive
    vector (nothing to measure a distance in) never covers."""
    if not stored or len(stored) != len(request):
        return False
    for a, b in zip(stored, request):
        if not (math.isfinite(a) and math.isfinite(b) and a > 0.0 and b > 0.0):
            return False
        if max(a, b) > COVERAGE_FACTOR * min(a, b):
            return False
    return True


@dataclass
class TemplateCandidate:
    """One plan that was optimal somewhere in a template's parameter range.

    ``assignment`` (operator id → platform name) is the decision itself.
    ``cardinalities`` is the source-cardinality vector (sorted source
    ids) of the most recent instantiation this assignment won at; it is
    an input to serving, because a multi-candidate template answers only
    requests near one of these points (see :class:`TemplateCache`).
    ``predicted_runtime`` — the model cost it won with — is provenance
    only: serving always re-costs at the live request's cardinalities.
    """

    assignment: Dict[int, str]
    cardinalities: List[float]
    predicted_runtime: float
    optimizer: str = ""

    @property
    def key(self) -> Tuple[Tuple[int, str], ...]:
        """Identity of the decision: the sorted assignment items."""
        return tuple(sorted(self.assignment.items()))


@dataclass
class TemplateCacheStats(CacheStats):
    """Monotonic counters of one template cache's lifetime.

    ``misses`` counts *every* lookup that did not serve from the cache,
    including the refused ones — so ``hit_rate`` is the fraction of
    lookups the template tier actually answered. The refusal reasons are
    broken out separately: ``guardrail_rejects`` (a multi-candidate
    template asked outside its coverage) and ``recost_errors``.
    """

    guardrail_rejects: int = 0
    recost_errors: int = 0


#: ``recost(plan, assignment) -> (model cost, execution plan)`` — supplied
#: by the caller because re-costing needs the live model + feature schema.
Recoster = Callable[[LogicalPlan, Dict[int, str]], Tuple[float, object]]


class TemplateCache(_Store):
    """Per-template candidate sets served by re-costed argmin.

    Parameters
    ----------
    max_templates:
        LRU bound on distinct templates (hits and observations refresh
        recency).
    max_candidates:
        Candidates kept per template; inserting beyond it evicts the
        oldest candidates, and :meth:`load` keeps the newest ones.
    guardrail:
        Unused: the served candidate is always the cheapest re-costed
        one, so there is no regret left to bound. Still accepted and
        validated (``>= 1.0``) because the benchmark's daemon launcher
        (``perfbench/launcher.py``) passes it.

    :meth:`get` needs no defensive copy: the served result wraps the
    execution plan the re-coster built from a fresh copy of the
    candidate's assignment, and the cache keeps no reference to it. (The
    batch service's promotion of a hit into the exact cache copies on
    ``put``.)
    """

    PREFIX = "serve.template."
    STATS = TemplateCacheStats
    FORMAT_VERSION = TEMPLATE_CACHE_FORMAT_VERSION
    FINGERPRINT_VERSION = TEMPLATE_FINGERPRINT_VERSION
    BOUND_KEY = "max_templates"
    ENTRIES_KEY = "templates"

    def __init__(
        self,
        max_templates: int = DEFAULT_BOUND,
        max_candidates: int = 8,
        guardrail: float = 1.2,
    ):
        super().__init__(max_templates)
        if max_candidates < 1:
            raise ReproError(
                f"template cache needs max_candidates >= 1, got {max_candidates}"
            )
        if guardrail < 1.0:
            raise ReproError(f"guardrail must be >= 1.0, got {guardrail}")
        self.max_candidates = max_candidates

    @property
    def max_templates(self) -> int:
        return self._bound

    def candidates(self, fingerprint: str) -> List[TemplateCandidate]:
        """The candidate set of one template (empty list if absent)."""
        return list(self._entries.get(fingerprint, []))

    # ------------------------------------------------------------------
    def _miss(self, tracer) -> None:
        self._count("misses", tracer)
        return None

    def get(
        self,
        fingerprint: str,
        plan: LogicalPlan,
        recost: Recoster,
    ) -> Optional[OptimizationResult]:
        """The cheapest re-costed candidate for ``plan``, or ``None``.

        A multi-candidate template first checks coverage: the request's
        source cardinalities must lie within :data:`COVERAGE_FACTOR` of
        some candidate's stored ``cardinalities``. Every candidate is
        then re-costed via ``recost`` at the plan's actual cardinalities
        and the argmin is served. Any refusal — no entry, no coverage,
        re-cost failure — returns ``None`` and counts as a miss; the
        caller must then enumerate and :meth:`observe` the fresh result.
        """
        tracer = current_tracer()
        candidates = self._touch(fingerprint)
        if not candidates:
            return self._miss(tracer)

        if len(candidates) > 1:
            request = _cardinality_vector(plan)
            if not any(_covers(c.cardinalities, request) for c in candidates):
                self._count("guardrail_rejects", tracer)
                return self._miss(tracer)

        costs: List[float] = []
        xplans: List[object] = []
        for candidate in candidates:
            try:
                cost, xplan = recost(plan, dict(candidate.assignment))
                cost = float(cost)
                if not math.isfinite(cost):
                    raise ValueError(f"non-finite re-cost {cost!r}")
            except Exception:
                self._count("recost_errors", tracer)
                return self._miss(tracer)
            costs.append(cost)
            xplans.append(xplan)

        pick = costs.index(min(costs))
        self._count("hits", tracer)
        return OptimizationResult(
            execution_plan=xplans[pick],
            predicted_runtime=costs[pick],
            stats=RunStats(),
            optimizer=candidates[pick].optimizer,
        )

    # ------------------------------------------------------------------
    def observe(
        self,
        fingerprint: str,
        plan: LogicalPlan,
        result: OptimizationResult,
    ) -> None:
        """Fold a fresh enumeration result back into the template's set.

        A result whose assignment matches an existing candidate refreshes
        that candidate's cardinalities and cost in place; a new
        assignment appends a candidate; the oldest candidates beyond
        ``max_candidates`` are evicted.
        """
        candidates = self._entries.get(fingerprint, [])
        candidate = TemplateCandidate(
            assignment=dict(result.execution_plan.assignment),
            cardinalities=_cardinality_vector(plan),
            predicted_runtime=float(result.predicted_runtime),
            optimizer=result.optimizer,
        )
        for index, existing in enumerate(candidates):
            if existing.key == candidate.key:
                candidates[index] = candidate
                break
        else:
            candidates.append(candidate)
        del candidates[: -self.max_candidates]
        self._admit(fingerprint, candidates, current_tracer())

    # ------------------------------------------------------------------
    # JSON persistence: candidates persist as assignments (operator id →
    # platform name) plus their cardinalities and cost — no serialized
    # plans, since serving always re-instantiates against the *live*
    # request's plan.
    # ------------------------------------------------------------------
    def _encode(self, candidates: List[TemplateCandidate]) -> Dict[str, object]:
        return {
            "candidates": [
                {
                    "assignment": {
                        str(op_id): name
                        for op_id, name in candidate.assignment.items()
                    },
                    "cardinalities": candidate.cardinalities,
                    "predicted_runtime": candidate.predicted_runtime,
                    "optimizer": candidate.optimizer,
                }
                for candidate in candidates
            ]
        }

    def _decode(
        self, item: Dict[str, object], registry: Optional[PlatformRegistry]
    ) -> Optional[List[TemplateCandidate]]:
        known = set(registry.names) if registry is not None else None
        candidates = []
        for raw in item.get("candidates", []):
            assignment = {
                int(op_id): str(name) for op_id, name in raw["assignment"].items()
            }
            if known is not None and not set(assignment.values()) <= known:
                continue
            candidates.append(
                TemplateCandidate(
                    assignment=assignment,
                    cardinalities=[float(c) for c in raw.get("cardinalities", [])],
                    predicted_runtime=float(raw["predicted_runtime"]),
                    optimizer=str(raw.get("optimizer", "")),
                )
            )
        # Candidates persist oldest first: keep the newest, as eviction would.
        return candidates[-self.max_candidates :] or None

    @classmethod
    def load(
        cls,
        path,
        registry: Optional[PlatformRegistry] = None,
        max_templates: Optional[int] = None,
        **kwargs,
    ) -> "TemplateCache":
        """Rebuild a cache from :meth:`save` output.

        Same failure contract as :meth:`PlanCache.load`, counted as
        ``serve.template.load_corrupt``. When a ``registry`` is given,
        candidates naming platforms outside it are dropped (they could
        never be instantiated), and a template left without candidates
        is dropped with them. A template saved with more candidates than
        ``max_candidates`` keeps its newest ones. A ``guardrail`` field
        or per-template ``observations`` in older files are ignored.
        ``kwargs`` go to the constructor.
        """
        return cls._load(path, registry, max_templates, **kwargs)
