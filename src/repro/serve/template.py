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

Counters (``serve.template.*``) mirror into the ambient tracer like the
exact cache's, and JSON persistence carries the same versioned
invalidation: a corrupt file loads empty (never raises), a foreign
fingerprint version drops entries, only an explicit unsupported format
version is an error.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import OptimizationResult, RunStats
from repro.exceptions import ReproError
from repro.obs import current_tracer
from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.platforms import PlatformRegistry

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
class TemplateCacheStats:
    """Monotonic counters of one template cache's lifetime.

    ``misses`` counts *every* lookup that did not serve from the cache,
    including the refused ones — so ``hit_rate`` is the fraction of
    lookups the template tier actually answered. The refusal reasons are
    broken out separately: ``guardrail_rejects`` (a multi-candidate
    template asked outside its coverage) and ``recost_errors``.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    guardrail_rejects: int = 0
    recost_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "guardrail_rejects": self.guardrail_rejects,
            "recost_errors": self.recost_errors,
            "hit_rate": self.hit_rate,
        }


#: ``recost(plan, assignment) -> (model cost, execution plan)`` — supplied
#: by the caller because re-costing needs the live model + feature schema.
Recoster = Callable[[LogicalPlan, Dict[int, str]], Tuple[float, object]]


class TemplateCache:
    """Per-template candidate sets served by re-costed argmin.

    Parameters
    ----------
    max_templates:
        LRU bound on distinct templates (hits and observations refresh
        recency).
    max_candidates:
        Candidates kept per template; inserting beyond it evicts the
        oldest candidate.
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

    def __init__(
        self,
        max_templates: int = 256,
        max_candidates: int = 8,
        guardrail: float = 1.2,
    ):
        if max_templates < 1:
            raise ReproError(
                f"template cache needs max_templates >= 1, got {max_templates}"
            )
        if max_candidates < 1:
            raise ReproError(
                f"template cache needs max_candidates >= 1, got {max_candidates}"
            )
        if guardrail < 1.0:
            raise ReproError(f"guardrail must be >= 1.0, got {guardrail}")
        self.max_templates = max_templates
        self.max_candidates = max_candidates
        self.stats = TemplateCacheStats()
        self._entries: "OrderedDict[str, List[TemplateCandidate]]" = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def fingerprints(self):
        """The cached template fingerprints, least recently used first."""
        return list(self._entries)

    def candidates(self, fingerprint: str) -> List[TemplateCandidate]:
        """The candidate set of one template (empty list if absent)."""
        return list(self._entries.get(fingerprint, []))

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------
    def _miss(self, tracer) -> None:
        self.stats.misses += 1
        if tracer.enabled:
            tracer.count("serve.template.misses")
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
        candidates = self._entries.get(fingerprint)
        if not candidates:
            return self._miss(tracer)
        self._entries.move_to_end(fingerprint)

        if len(candidates) > 1:
            request = _cardinality_vector(plan)
            if not any(_covers(c.cardinalities, request) for c in candidates):
                self.stats.guardrail_rejects += 1
                if tracer.enabled:
                    tracer.count("serve.template.guardrail_rejects")
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
                self.stats.recost_errors += 1
                if tracer.enabled:
                    tracer.count("serve.template.recost_errors")
                return self._miss(tracer)
            costs.append(cost)
            xplans.append(xplan)

        pick = costs.index(min(costs))
        self.stats.hits += 1
        if tracer.enabled:
            tracer.count("serve.template.hits")
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
        assignment appends a candidate (evicting the oldest beyond
        ``max_candidates``).
        """
        tracer = current_tracer()
        candidates = self._entries.setdefault(fingerprint, [])
        self._entries.move_to_end(fingerprint)

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
            if len(candidates) > self.max_candidates:
                del candidates[0]

        self.stats.puts += 1
        if tracer.enabled:
            tracer.count("serve.template.puts")
        while len(self._entries) > self.max_templates:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if tracer.enabled:
                tracer.count("serve.template.evictions")

    # ------------------------------------------------------------------
    # JSON persistence
    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        """Write the cache as one JSON document (LRU order preserved).

        Candidates persist as assignments (operator id → platform name)
        plus their cardinalities and cost — no serialized plans, since
        serving always re-instantiates against the *live* request's plan.
        """
        doc = {
            "version": TEMPLATE_CACHE_FORMAT_VERSION,
            "fingerprint_version": TEMPLATE_FINGERPRINT_VERSION,
            "max_templates": self.max_templates,
            "templates": [
                {
                    "fingerprint": fingerprint,
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
                    ],
                }
                for fingerprint, candidates in self._entries.items()
            ],
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(doc, indent=2) + "\n")
        tmp.replace(path)
        return path

    @classmethod
    def load(
        cls,
        path,
        registry: Optional[PlatformRegistry] = None,
        max_templates: Optional[int] = None,
        **kwargs,
    ) -> "TemplateCache":
        """Rebuild a cache from :meth:`save` output.

        Same failure contract as :meth:`PlanCache.load`: a corrupt file
        (unreadable/truncated/not-an-object/missing version) yields an
        **empty** cache and bumps ``serve.template.load_corrupt``; a
        foreign fingerprint version drops all templates silently; only an
        explicit unsupported format version raises. Individually
        malformed templates are skipped while the rest load. When a
        ``registry`` is given, candidates naming platforms outside it are
        dropped (they could never be instantiated). A ``guardrail`` field
        or per-template ``observations`` in older files are ignored.
        """
        tracer = current_tracer()

        def corrupt(detail: str) -> "TemplateCache":
            if tracer.enabled:
                tracer.count("serve.template.load_corrupt")
                tracer.event(
                    "serve.template.corrupt", path=str(path), detail=detail
                )
            return cls(
                max_templates=max_templates if max_templates is not None else 256,
                **kwargs,
            )

        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            return corrupt(f"{type(exc).__name__}: {exc}")
        if not isinstance(doc, dict):
            return corrupt(f"expected a JSON object, got {type(doc).__name__}")
        if "version" in doc and doc["version"] != TEMPLATE_CACHE_FORMAT_VERSION:
            raise ReproError(
                f"unsupported template cache format version "
                f"{doc.get('version')!r} (expected {TEMPLATE_CACHE_FORMAT_VERSION})"
            )
        if "version" not in doc:
            return corrupt("missing version field")
        try:
            declared_max = int(doc.get("max_templates", 256))
        except (TypeError, ValueError):
            declared_max = 256
        cache = cls(
            max_templates=max_templates if max_templates is not None else declared_max,
            **kwargs,
        )
        if doc.get("fingerprint_version") != TEMPLATE_FINGERPRINT_VERSION:
            return cache
        templates = doc.get("templates", [])
        if not isinstance(templates, list):
            return corrupt(f"templates is {type(templates).__name__}, not a list")
        known = set(registry.names) if registry is not None else None
        for item in templates:
            try:
                fingerprint = item["fingerprint"]
                if not isinstance(fingerprint, str):
                    raise TypeError("fingerprint is not a string")
                candidates = []
                for raw in item.get("candidates", []):
                    assignment = {
                        int(op_id): str(name)
                        for op_id, name in raw["assignment"].items()
                    }
                    if known is not None and not set(assignment.values()) <= known:
                        continue
                    candidates.append(
                        TemplateCandidate(
                            assignment=assignment,
                            cardinalities=[
                                float(c) for c in raw.get("cardinalities", [])
                            ],
                            predicted_runtime=float(raw["predicted_runtime"]),
                            optimizer=str(raw.get("optimizer", "")),
                        )
                    )
                if not candidates:
                    continue
            except Exception as exc:
                if tracer.enabled:
                    tracer.count("serve.template.load_corrupt")
                    tracer.event(
                        "serve.template.corrupt",
                        path=str(path),
                        detail=f"template: {type(exc).__name__}: {exc}",
                    )
                continue
            # Bypass observe(): loading must not inflate put/eviction stats.
            cache._entries[fingerprint] = candidates
            while len(cache._entries) > cache.max_templates:
                cache._entries.popitem(last=False)
        return cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemplateCache(templates={len(self)}/{self.max_templates}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
