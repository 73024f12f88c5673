"""Retry policy (exponential backoff + deterministic jitter) and quarantine.

Used by :class:`repro.serve.batch.BatchOptimizationService`: failed jobs
are re-dispatched up to ``max_retries`` times with exponentially growing,
jittered delays, and jobs that repeatedly *kill pool workers* (rather
than merely raise) are quarantined — one pathological plan must not
re-break the pool on every batch.

Jitter is seeded: the same service configuration produces the same delay
sequence, so chaos tests are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.exceptions import ReproError

__all__ = ["RetryPolicy", "Quarantine"]


@dataclass(frozen=True)
class RetryPolicy:
    """How failed jobs are retried.

    ``delay(attempt)`` for attempt 1, 2, … is
    ``base_backoff_s * multiplier**(attempt-1)``, capped at
    ``max_backoff_s``, times a jitter factor drawn uniformly from
    ``[1 - jitter, 1 + jitter]`` with a generator seeded by
    ``(seed, attempt)`` — deterministic and independent of call order.
    """

    max_retries: int = 2
    base_backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ReproError("backoff seconds must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ReproError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.multiplier < 1.0:
            raise ReproError(f"multiplier must be >= 1, got {self.multiplier}")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered."""
        if attempt < 1:
            raise ReproError(f"attempt must be >= 1, got {attempt}")
        base = min(
            self.base_backoff_s * self.multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter == 0.0 or base == 0.0:
            return base
        rng = np.random.default_rng([self.seed, attempt])
        return base * float(rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))


class Quarantine:
    """Tracks plans that killed pool workers; isolates repeat offenders.

    Keyed by plan fingerprint (so retries and later batches of the same
    pathological plan are recognized). A key with ``threshold`` or more
    recorded worker deaths is quarantined: the batch service fails it
    immediately instead of handing it another worker to kill.

    A broken pool fails every in-flight job, so the service records a
    death for *all* of their keys (one per key per dispatch round) —
    attribution to the one poisonous plan is impossible from the
    outside. Innocent bystanders clear their tally
    via :meth:`record_success` when their retry completes; only the plan
    whose dispatches keep coinciding with pool breakage accumulates
    deaths and crosses the threshold.
    """

    def __init__(self, threshold: int = 2):
        if threshold < 1:
            raise ReproError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self._deaths: Dict[str, int] = {}

    def record_worker_death(self, key: str) -> int:
        """Note that this key's job took a worker down; returns the tally."""
        self._deaths[key] = self._deaths.get(key, 0) + 1
        return self._deaths[key]

    def record_success(self, key: str) -> None:
        """Clear the tally: the key completed without breaking anything."""
        self._deaths.pop(key, None)

    def deaths(self, key: str) -> int:
        return self._deaths.get(key, 0)

    def is_quarantined(self, key: str) -> bool:
        return self._deaths.get(key, 0) >= self.threshold

    def __len__(self) -> int:
        """How many keys are currently quarantined."""
        return sum(1 for n in self._deaths.values() if n >= self.threshold)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Quarantine(threshold={self.threshold}, "
            f"quarantined={len(self)}, tracked={len(self._deaths)})"
        )
