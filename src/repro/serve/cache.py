"""The fingerprint-keyed plan cache: LRU, observable, persistable.

Caches :class:`~repro.api.OptimizationResult` objects under plan
fingerprints (:func:`repro.serve.fingerprint.plan_fingerprint`). A hit
returns a **defensive copy** — the cached execution plan, assignment and
stats are cloned so one caller mutating its result can never corrupt
what the next caller receives (the cache equivalent of
:meth:`PlanVectorEnumeration.select` never aliasing its source rows).
``put`` stores a copy too, so the caller keeps its own result. The
copies are structural (:meth:`repro.rheem.logical_plan.LogicalPlan.clone`):
operators and containers are new, frozen values such as operator kinds
and dataset profiles are shared, which keeps a hit far cheaper than the
enumeration it saves.

Hit/miss/eviction counts are kept on the cache *and* mirrored into the
ambient tracer (``serve.cache.*`` counters), so a traced batch run shows
its cache behaviour next to its enumeration spans.

Persistence is plain JSON: execution plans serialize through
:mod:`repro.rheem.serialization`, so a cache written by one process is
readable by any other with a compatible platform registry. Cached stats
are *not* persisted — a reloaded hit reports zeroed RunStats, since the
enumeration work it saved happened in another process.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.api import OptimizationResult, RunStats
from repro.exceptions import ReproError
from repro.obs import current_tracer
from repro.rheem.platforms import PlatformRegistry
from repro.serve.fingerprint import FINGERPRINT_VERSION

__all__ = ["PlanCache", "CacheStats", "copy_result"]

#: Version of the JSON persistence format.
CACHE_FORMAT_VERSION = 1


def copy_result(result: OptimizationResult) -> OptimizationResult:
    """An independent copy of an optimization result.

    Alias of :meth:`repro.api.OptimizationResult.copy`: the logical plan
    is cloned structurally (frozen values shared), the assignment
    rebuilt, and ``final_enumeration`` — which aliases enumeration
    matrices — dropped.
    """
    return result.copy()


@dataclass
class CacheStats:
    """Monotonic counters of one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

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
            "hit_rate": self.hit_rate,
        }


class PlanCache:
    """An LRU mapping from plan fingerprint to optimization result.

    Parameters
    ----------
    max_entries:
        The LRU bound; inserting beyond it evicts the least recently
        *used* entry (both ``get`` hits and ``put`` refresh recency).

    ``get`` and ``put`` always copy (see the module docstring).
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ReproError(f"cache needs max_entries >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, OptimizationResult]" = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def fingerprints(self):
        """The cached fingerprints, least recently used first."""
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[OptimizationResult]:
        """The cached result for a fingerprint (``None`` on miss)."""
        tracer = current_tracer()
        hit = self._entries.get(fingerprint)
        if hit is None:
            self.stats.misses += 1
            if tracer.enabled:
                tracer.count("serve.cache.misses")
            return None
        self._entries.move_to_end(fingerprint)
        self.stats.hits += 1
        if tracer.enabled:
            tracer.count("serve.cache.hits")
        return copy_result(hit)

    def put(self, fingerprint: str, result: OptimizationResult) -> None:
        """Insert (or refresh) a result under its fingerprint."""
        self._entries[fingerprint] = copy_result(result)
        self._entries.move_to_end(fingerprint)
        self.stats.puts += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("serve.cache.puts")
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if tracer.enabled:
                tracer.count("serve.cache.evictions")

    # ------------------------------------------------------------------
    # JSON persistence
    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        """Write the cache as one JSON document (LRU order preserved)."""
        from repro.rheem.serialization import execution_plan_to_dict

        doc = {
            "version": CACHE_FORMAT_VERSION,
            "fingerprint_version": FINGERPRINT_VERSION,
            "max_entries": self.max_entries,
            "entries": [
                {
                    "fingerprint": fingerprint,
                    "predicted_runtime": result.predicted_runtime,
                    "optimizer": result.optimizer,
                    "execution_plan": execution_plan_to_dict(
                        result.execution_plan
                    ),
                }
                for fingerprint, result in self._entries.items()
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
        registry: PlatformRegistry,
        max_entries: Optional[int] = None,
    ) -> "PlanCache":
        """Rebuild a cache from :meth:`save` output.

        Entries persisted under a different fingerprint scheme version are
        dropped (they would never match a freshly computed key anyway).

        A cache file is an *optimization*, never a point of failure: an
        unreadable, truncated or otherwise corrupt document (the classic
        crash-during-write artifact) yields an **empty** cache and bumps
        the ``serve.cache.load_corrupt`` counter; individually malformed
        entries are skipped the same way while the rest load. Only an
        explicit, well-formed version field we do not support still
        raises — silently discarding a future format would hide a real
        deployment error.
        """
        from repro.rheem.serialization import execution_plan_from_dict

        tracer = current_tracer()

        def corrupt(detail: str) -> "PlanCache":
            if tracer.enabled:
                tracer.count("serve.cache.load_corrupt")
                tracer.event("serve.cache.corrupt", path=str(path), detail=detail)
            return cls(max_entries=max_entries if max_entries is not None else 256)

        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            return corrupt(f"{type(exc).__name__}: {exc}")
        if not isinstance(doc, dict):
            return corrupt(f"expected a JSON object, got {type(doc).__name__}")
        if "version" in doc and doc["version"] != CACHE_FORMAT_VERSION:
            raise ReproError(
                f"unsupported cache format version {doc.get('version')!r} "
                f"(expected {CACHE_FORMAT_VERSION})"
            )
        if "version" not in doc:
            return corrupt("missing version field")
        try:
            declared_max = int(doc.get("max_entries", 256))
        except (TypeError, ValueError):
            declared_max = 256
        cache = cls(
            max_entries=max_entries if max_entries is not None else declared_max
        )
        if doc.get("fingerprint_version") != FINGERPRINT_VERSION:
            return cache
        entries = doc.get("entries", [])
        if not isinstance(entries, list):
            return corrupt(f"entries is {type(entries).__name__}, not a list")
        for entry in entries:
            try:
                fingerprint = entry["fingerprint"]
                result = OptimizationResult(
                    execution_plan=execution_plan_from_dict(
                        entry["execution_plan"], registry
                    ),
                    predicted_runtime=float(entry["predicted_runtime"]),
                    stats=RunStats(),
                    optimizer=entry.get("optimizer", ""),
                )
            except Exception as exc:
                if tracer.enabled:
                    tracer.count("serve.cache.load_corrupt")
                    tracer.event(
                        "serve.cache.corrupt",
                        path=str(path),
                        detail=f"entry: {type(exc).__name__}: {exc}",
                    )
                continue
            # Bypass put(): loading must not inflate the put/eviction
            # stats of the new cache's lifetime.
            cache._entries[fingerprint] = result
            while len(cache._entries) > cache.max_entries:
                cache._entries.popitem(last=False)
        return cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
