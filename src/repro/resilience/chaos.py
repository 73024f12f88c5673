"""Deterministic fault injection for the optimizer and the batch service.

A :class:`ChaosProfile` declares *rates* for a small failure taxonomy —
model exceptions, NaN predictions, optimizer errors, worker deaths,
cache corruption, artificial latency — and a :class:`FaultInjector`
turns them into reproducible decisions: every decision draws from a
generator seeded by ``(profile seed, decision token)``, so the same
profile injects the same faults regardless of process, worker, or
execution order. ``match`` narrows the optimizer-level faults to plans
whose name contains it.

Wrappers plug the injector into the existing stack without touching it:

* :class:`ChaoticModel` — wraps a runtime model; ``predict`` raises or
  returns NaNs at the configured rates (keyed by call index);
* :class:`ChaoticOptimizer` — wraps an optimizer; injects per-plan
  latency, worker death via ``os._exit`` (both keyed by plan name, so
  pool and serial agree) and raised errors (keyed by plan name and
  call index);
* :func:`corrupt_cache_file` — truncates/garbles a plan-cache JSON, the
  input the corrupt-tolerant :meth:`PlanCache.load` must survive.

CLI: ``repro optimize-batch --chaos-profile model-outage`` (named
preset) or ``--chaos-profile "model_failure_rate=0.5,seed=7"`` (spec).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional

import numpy as np

from repro.exceptions import ReproError

__all__ = [
    "ChaosProfile",
    "FaultInjector",
    "ChaoticModel",
    "ChaoticOptimizer",
    "corrupt_cache_file",
    "PROFILES",
]


class InjectedFault(RuntimeError):
    """Raised by chaos wrappers when a fault fires (never by real code)."""


@dataclass(frozen=True)
class ChaosProfile:
    """Failure rates (each in [0, 1]) plus a seed for determinism.

    ``match`` targets the optimizer-level faults (``error_rate``,
    ``worker_death_rate``, latency): they fire only for plans whose name
    contains it, and the empty default matches every plan. The
    model-level faults (``model_failure_rate``, ``model_nan_rate``) are
    injected into ``predict``, which never sees a plan name, so they
    ignore ``match``; so does ``cache_corrupt_rate``.
    """

    seed: int = 0
    model_failure_rate: float = 0.0
    model_nan_rate: float = 0.0
    error_rate: float = 0.0
    worker_death_rate: float = 0.0
    cache_corrupt_rate: float = 0.0
    latency_ms: float = 0.0
    latency_rate: float = 1.0
    match: str = ""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_rate") and not 0.0 <= value <= 1.0:
                raise ReproError(f"{f.name} must be in [0, 1], got {value}")
        if self.latency_ms < 0:
            raise ReproError(f"latency_ms must be >= 0, got {self.latency_ms}")

    @property
    def inert(self) -> bool:
        """True when this profile injects nothing.

        Every ``*_rate`` is a fault kind except ``latency_rate``, which
        only thins out ``latency_ms``.
        """
        return self.latency_ms == 0.0 and all(
            getattr(self, f.name) == 0.0
            for f in fields(self)
            if f.name.endswith("_rate") and f.name != "latency_rate"
        )

    @classmethod
    def parse(cls, spec: str) -> "ChaosProfile":
        """Build a profile from a preset name and/or ``k=v`` overrides.

        ``"model-outage"``, ``"model-outage,seed=7"`` and
        ``"model_failure_rate=1.0,latency_ms=5,match=tpch_q3"`` are all
        valid; each value is cast to its field's type.
        """
        profile = cls()
        known = {f.name: f for f in fields(cls)}
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                try:
                    preset = PROFILES[part]
                except KeyError:
                    raise ReproError(
                        f"unknown chaos preset {part!r}; known: "
                        f"{', '.join(sorted(PROFILES))}"
                    ) from None
                overrides = {
                    f.name: getattr(preset, f.name)
                    for f in fields(cls)
                    if getattr(preset, f.name) != getattr(cls, f.name, None)
                    and f.name != "seed"
                }
                profile = replace(profile, **overrides)
                continue
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in known:
                raise ReproError(
                    f"unknown chaos field {key!r}; known: {', '.join(known)}"
                )
            try:
                value = type(known[key].default)(raw.strip())
            except ValueError as exc:
                raise ReproError(f"bad chaos value {part!r}: {exc}") from None
            profile = replace(profile, **{key: value})
        return profile


#: Named presets for the CLI and the CI chaos matrix.
PROFILES: Dict[str, ChaosProfile] = {
    "model-outage": ChaosProfile(model_failure_rate=1.0),
    "model-flaky": ChaosProfile(model_failure_rate=0.3),
    "nan-storm": ChaosProfile(model_nan_rate=1.0),
    "worker-deaths": ChaosProfile(worker_death_rate=0.3),
    "cache-corruption": ChaosProfile(cache_corrupt_rate=1.0),
    "slow-model": ChaosProfile(latency_ms=20.0),
    "everything": ChaosProfile(
        model_failure_rate=0.3,
        model_nan_rate=0.2,
        worker_death_rate=0.1,
        cache_corrupt_rate=0.5,
        latency_ms=5.0,
    ),
}


def _token_seed(token: str) -> int:
    """A stable 63-bit integer for a decision token (not ``hash``: that is
    salted per process, which would break cross-worker determinism)."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class FaultInjector:
    """Seeded, token-keyed fault decisions for one chaos profile."""

    def __init__(self, profile: ChaosProfile):
        self.profile = profile

    def decide(self, token: str, rate: float) -> bool:
        """Does the fault keyed by ``token`` fire at ``rate``?

        Deterministic in ``(profile.seed, token)`` alone.
        """
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        rng = np.random.default_rng([self.profile.seed, _token_seed(token)])
        return bool(rng.uniform() < rate)

    # Convenience wrappers over the taxonomy -----------------------------
    def model_fails(self, token: str) -> bool:
        return self.decide(f"model_failure:{token}", self.profile.model_failure_rate)

    def model_nans(self, token: str) -> bool:
        return self.decide(f"model_nan:{token}", self.profile.model_nan_rate)

    def optimizer_errs(self, token: str) -> bool:
        return self.decide(f"error:{token}", self.profile.error_rate)

    def worker_dies(self, token: str) -> bool:
        return self.decide(f"worker_death:{token}", self.profile.worker_death_rate)

    def cache_corrupts(self, token: str) -> bool:
        return self.decide(f"cache_corrupt:{token}", self.profile.cache_corrupt_rate)

    def latency_s(self, token: str) -> float:
        if self.profile.latency_ms <= 0.0:
            return 0.0
        if not self.decide(f"latency:{token}", self.profile.latency_rate):
            return 0.0
        return self.profile.latency_ms / 1000.0


class ChaoticModel:
    """A runtime model that fails/poisons predictions per the injector.

    Decisions are keyed by a per-instance call counter, so a sub-1.0
    failure rate produces a deterministic pass/fail sequence within one
    optimizer (each worker builds its own instance). ``predict`` never
    sees a plan name, so ``profile.match`` does not apply here.
    """

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector
        self.calls = 0

    @property
    def n_features(self):
        return getattr(self.inner, "n_features", None)

    def predict(self, X):
        token = f"call{self.calls}"
        self.calls += 1
        if self.injector.model_fails(token):
            raise InjectedFault(f"injected model failure ({token})")
        out = np.asarray(self.inner.predict(X), dtype=np.float64)
        if self.injector.model_nans(token):
            out = out.copy()
            out[:] = np.nan
        return out


class ChaoticOptimizer:
    """An optimizer wrapper injecting latency, errors and worker deaths.

    Only plans whose name contains ``profile.match`` are touched.

    Worker death is keyed by the *plan name*, so the same plan kills its
    worker on every dispatch — the poisoned-job scenario the batch
    service's quarantine must contain. ``os._exit`` only fires inside a
    pool worker; in the main process (serial dispatch) the death is
    simulated as a raised :class:`InjectedFault`, because actually
    exiting would take the whole service down rather than exercise it.

    An injected error is a raised :class:`InjectedFault` in serial mode
    and in a pool worker alike: the job fails, the pool survives. It is
    keyed by ``(plan name, index of this call for that plan on this
    instance)``, so a sub-1.0 ``error_rate`` gives each plan a
    deterministic fail/pass sequence across retries — the transient
    fault. In pool mode every worker builds its own instance, so the
    index counts the calls that one worker made.

    A per-call ``budget`` (a job's deadline) is forwarded to the inner
    optimizer.
    """

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector
        self.calls: Dict[str, int] = {}

    @property
    def registry(self):
        return self.inner.registry

    def optimize(self, plan, budget=None):
        if self.injector.profile.match in (plan.name or ""):
            self._inject(plan.name or "unnamed")
        if budget is None:
            return self.inner.optimize(plan)
        return self.inner.optimize(plan, budget=budget)

    def _inject(self, name: str) -> None:
        if self.injector.worker_dies(name):
            import multiprocessing
            import os

            if multiprocessing.parent_process() is not None:
                os._exit(17)
            raise InjectedFault(
                f"injected worker death for plan {name!r} "
                "(serial mode: surfaced as a job failure)"
            )
        index = self.calls.get(name, 0)
        self.calls[name] = index + 1
        if self.injector.optimizer_errs(f"{name}#{index}"):
            raise InjectedFault(f"injected failure for plan {name!r} (call {index})")
        delay = self.injector.latency_s(name)
        if delay > 0.0:
            time.sleep(delay)


def corrupt_cache_file(path, injector: FaultInjector, token: str = "cache") -> bool:
    """Maybe corrupt a cache JSON in place (truncate to half its bytes).

    Returns whether corruption was injected. Used by the chaos CLI path
    and the load-tolerance tests; a truncated JSON document is the
    classic crash-during-write artifact :meth:`PlanCache.load` must
    shrug off.
    """
    from pathlib import Path

    path = Path(path)
    if not path.exists() or not injector.cache_corrupts(token):
        return False
    blob = path.read_bytes()
    path.write_bytes(blob[: max(1, len(blob) // 2)])
    return True
