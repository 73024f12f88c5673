"""The fingerprint-keyed plan cache, and the store both cache tiers share.

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

The store machinery lives in :class:`_Store`, which this cache and the
template tier (:class:`repro.serve.template.TemplateCache`) both build
on: the LRU and its bound, one :class:`CacheStats` whose counters are
mirrored into the ambient tracer under the tier's prefix
(``serve.cache.*`` here), and versioned JSON persistence that never
makes a cache file a point of failure. A tier supplies its entry type,
its ``get`` semantics, how it inserts, and how one entry encodes and
decodes.

Execution plans serialize through :mod:`repro.rheem.serialization`, so
a cache written by one process is readable by any other with a
compatible platform registry. Cached stats are *not* persisted — a
reloaded hit reports zeroed RunStats, since the enumeration work it
saved happened in another process.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Optional

from repro.api import OptimizationResult, RunStats
from repro.exceptions import ReproError
from repro.obs import current_tracer
from repro.rheem.platforms import PlatformRegistry
from repro.serve.fingerprint import FINGERPRINT_VERSION

__all__ = ["PlanCache", "CacheStats"]

#: Version of the JSON persistence format.
CACHE_FORMAT_VERSION = 1

#: The LRU bound a cache file falls back to when it declares no usable one.
DEFAULT_BOUND = 256


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
        doc: Dict[str, float] = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["hit_rate"] = self.hit_rate
        return doc


def _positive_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


class _Store:
    """An LRU of fingerprint-keyed entries with counters and JSON persistence.

    A tier sets the class constants below and implements ``_encode`` and
    ``_decode`` for one entry; its public lookup and insert methods use
    :meth:`_touch`, :meth:`_admit` and :meth:`_count`. Both ``get`` hits
    and inserts refresh recency; inserting beyond the bound evicts the
    least recently used entry.
    """

    #: Tracer counter prefix (``<PREFIX>hits``, ``<PREFIX>load_corrupt`` …).
    PREFIX = ""
    STATS = CacheStats
    FORMAT_VERSION = 0
    FINGERPRINT_VERSION = 0
    #: JSON keys of the declared bound and of the entry list.
    BOUND_KEY = ""
    ENTRIES_KEY = ""

    def __init__(self, bound: int):
        if bound < 1:
            raise ReproError(
                f"{type(self).__name__} needs {self.BOUND_KEY} >= 1, got {bound}"
            )
        self._bound = bound
        self.stats = self.STATS()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def fingerprints(self):
        """The cached fingerprints, least recently used first."""
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.ENTRIES_KEY}={len(self)}/{self._bound}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )

    # ------------------------------------------------------------------
    def _count(self, name: str, tracer, n: int = 1) -> None:
        """Bump one stats field and mirror it into the tracer."""
        setattr(self.stats, name, getattr(self.stats, name) + n)
        if tracer.enabled:
            tracer.count(self.PREFIX + name, n)

    def _touch(self, fingerprint: str):
        """The entry under ``fingerprint`` (``None`` if absent), refreshed
        to most recently used."""
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self._entries.move_to_end(fingerprint)
        return entry

    def _store(self, fingerprint: str, entry) -> int:
        """Insert (or refresh) an entry as most recently used and evict
        beyond the bound; returns how many entries were evicted."""
        entries = self._entries
        entries[fingerprint] = entry
        entries.move_to_end(fingerprint)
        evicted = 0
        while len(entries) > self._bound:
            entries.popitem(last=False)
            evicted += 1
        return evicted

    def _admit(self, fingerprint: str, entry, tracer) -> None:
        """:meth:`_store` as a lifetime event: counts a put and any evictions."""
        evicted = self._store(fingerprint, entry)
        self._count("puts", tracer)
        if evicted:
            self._count("evictions", tracer, evicted)

    def _encode(self, entry) -> Dict[str, Any]:  # pragma: no cover - overridden
        raise NotImplementedError

    def _decode(self, item: Dict[str, Any], registry):  # pragma: no cover - overridden
        """One persisted entry back to a live one; ``None`` drops it
        silently, an exception counts it as corrupt."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # JSON persistence
    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        """Write the cache as one JSON document (LRU order preserved)."""
        doc = {
            "version": self.FORMAT_VERSION,
            "fingerprint_version": self.FINGERPRINT_VERSION,
            self.BOUND_KEY: self._bound,
            self.ENTRIES_KEY: [
                {"fingerprint": fingerprint, **self._encode(entry)}
                for fingerprint, entry in self._entries.items()
            ],
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(doc, indent=2) + "\n")
        tmp.replace(path)
        return path

    @classmethod
    def _load(cls, path, registry, bound: Optional[int], **kwargs):
        """Rebuild a cache from :meth:`save` output.

        A cache file is an *optimization*, never a point of failure: an
        unreadable, truncated or otherwise corrupt document (the classic
        crash-during-write artifact) yields an **empty** cache and bumps
        the ``<PREFIX>load_corrupt`` counter; individually malformed
        entries are skipped the same way while the rest load. Entries
        persisted under a different fingerprint scheme version are
        dropped (they would never match a freshly computed key). A
        declared bound that is not a positive integer falls back to
        :data:`DEFAULT_BOUND`; an explicit ``bound`` overrides it. Only
        an explicit, well-formed version field we do not support still
        raises — silently discarding a future format would hide a real
        deployment error.
        """
        tracer = current_tracer()

        def corrupt(detail: str) -> None:
            if tracer.enabled:
                tracer.count(cls.PREFIX + "load_corrupt")
                tracer.event(cls.PREFIX + "corrupt", path=str(path), detail=detail)

        def empty():
            return cls(bound if bound is not None else DEFAULT_BOUND, **kwargs)

        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            corrupt(f"{type(exc).__name__}: {exc}")
            return empty()
        if not isinstance(doc, dict):
            corrupt(f"expected a JSON object, got {type(doc).__name__}")
            return empty()
        if "version" not in doc:
            corrupt("missing version field")
            return empty()
        if doc["version"] != cls.FORMAT_VERSION:
            raise ReproError(
                f"unsupported {cls.__name__} format version {doc['version']!r} "
                f"(expected {cls.FORMAT_VERSION})"
            )
        declared = doc.get(cls.BOUND_KEY)
        if bound is None:
            bound = declared if _positive_int(declared) else DEFAULT_BOUND
        cache = cls(bound, **kwargs)
        if doc.get("fingerprint_version") != cls.FINGERPRINT_VERSION:
            return cache
        items = doc.get(cls.ENTRIES_KEY, [])
        if not isinstance(items, list):
            corrupt(f"{cls.ENTRIES_KEY} is {type(items).__name__}, not a list")
            return empty()
        for item in items:
            try:
                fingerprint = item["fingerprint"]
                if not isinstance(fingerprint, str):
                    raise TypeError("fingerprint is not a string")
                entry = cache._decode(item, registry)
            except Exception as exc:
                corrupt(f"entry: {type(exc).__name__}: {exc}")
                continue
            # Bypass the put counters: loading is not an event of the
            # new cache's lifetime.
            if entry is not None:
                cache._store(fingerprint, entry)
        return cache


class PlanCache(_Store):
    """An LRU mapping from plan fingerprint to optimization result.

    Parameters
    ----------
    max_entries:
        The LRU bound; inserting beyond it evicts the least recently
        *used* entry (both ``get`` hits and ``put`` refresh recency).

    ``get`` and ``put`` always copy (see the module docstring).
    """

    PREFIX = "serve.cache."
    FORMAT_VERSION = CACHE_FORMAT_VERSION
    FINGERPRINT_VERSION = FINGERPRINT_VERSION
    BOUND_KEY = "max_entries"
    ENTRIES_KEY = "entries"

    def __init__(self, max_entries: int = DEFAULT_BOUND):
        super().__init__(max_entries)

    @property
    def max_entries(self) -> int:
        return self._bound

    def get(self, fingerprint: str) -> Optional[OptimizationResult]:
        """The cached result for a fingerprint (``None`` on miss)."""
        tracer = current_tracer()
        hit = self._touch(fingerprint)
        if hit is None:
            self._count("misses", tracer)
            return None
        self._count("hits", tracer)
        return hit.copy()

    def put(self, fingerprint: str, result: OptimizationResult) -> None:
        """Insert (or refresh) a result under its fingerprint."""
        self._admit(fingerprint, result.copy(), current_tracer())

    def _encode(self, result: OptimizationResult) -> Dict[str, Any]:
        from repro.rheem.serialization import execution_plan_to_dict

        return {
            "predicted_runtime": result.predicted_runtime,
            "optimizer": result.optimizer,
            "execution_plan": execution_plan_to_dict(result.execution_plan),
        }

    def _decode(self, item: Dict[str, Any], registry) -> OptimizationResult:
        from repro.rheem.serialization import execution_plan_from_dict

        return OptimizationResult(
            execution_plan=execution_plan_from_dict(item["execution_plan"], registry),
            predicted_runtime=float(item["predicted_runtime"]),
            stats=RunStats(),
            optimizer=item.get("optimizer", ""),
        )

    @classmethod
    def load(
        cls,
        path,
        registry: PlatformRegistry,
        max_entries: Optional[int] = None,
    ) -> "PlanCache":
        """Rebuild a cache from :meth:`save` output (see :meth:`_Store._load`
        for the failure contract)."""
        return cls._load(path, registry, max_entries)
