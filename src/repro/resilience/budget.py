"""Optimization budgets: wall-clock deadlines and vector caps.

A :class:`Budget` is immutable configuration ("this query may spend 10ms
and/or 100k plan vectors on optimization"); :meth:`Budget.start` stamps a
:class:`BudgetClock` against the current wall clock, which the enumerator
polls between concatenations. On expiry the enumerator does **not** raise
— it returns the best *complete* plan assemblable from the partial
enumerations (see ``PriorityEnumerator._anytime_result``), records
``RunStats.degraded``/``RunStats.degradation`` and bumps the
``resilience.deadline_hit``/``resilience.degraded`` counters.

The enumerator polls :meth:`BudgetClock.check` once before it builds
the singleton enumerations and again before every concatenation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ReproError

__all__ = ["Budget", "BudgetClock"]

#: Degradation reasons a clock can report.
REASON_DEADLINE = "deadline"
REASON_MAX_VECTORS = "max_vectors"


@dataclass(frozen=True)
class Budget:
    """How much an optimization run may spend before degrading.

    Parameters
    ----------
    deadline_s:
        Wall-clock budget in seconds (``None`` = unbounded). ``0`` is
        legal and means "degrade immediately" — useful for tests and for
        forcing the greedy path.
    max_vectors:
        Cap on the total number of plan vectors materialized
        (``RunStats.total_vectors``); crossing it degrades the run
        instead of raising like the enumerator's hard ``max_vectors``
        safety valve.
    """

    deadline_s: Optional[float] = None
    max_vectors: Optional[int] = None

    def __post_init__(self):
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ReproError(f"deadline_s must be >= 0, got {self.deadline_s}")
        if self.max_vectors is not None and self.max_vectors < 0:
            raise ReproError(f"max_vectors must be >= 0, got {self.max_vectors}")

    @property
    def unbounded(self) -> bool:
        """True when the budget constrains nothing."""
        return self.deadline_s is None and self.max_vectors is None

    def start(self, clock=time.perf_counter) -> "BudgetClock":
        """Stamp this budget against the current wall clock."""
        return BudgetClock(self, started=clock(), clock=clock)


class BudgetClock:
    """One run's view of a started :class:`Budget`.

    ``clock`` is injectable for deterministic tests.
    """

    __slots__ = ("budget", "started", "_clock")

    def __init__(self, budget: Budget, started: float, clock=time.perf_counter):
        self.budget = budget
        self.started = started
        self._clock = clock

    def elapsed_s(self) -> float:
        return self._clock() - self.started

    def remaining_s(self) -> Optional[float]:
        """Seconds left under the deadline (``None`` = no deadline)."""
        if self.budget.deadline_s is None:
            return None
        return self.budget.deadline_s - self.elapsed_s()

    def check(self, vectors: int = 0) -> Optional[str]:
        """The expiry reason, or ``None`` while the budget still holds.

        The deadline is checked first: a run that is both over time and
        over its vector cap reports ``"deadline"``.
        """
        remaining = self.remaining_s()
        if remaining is not None and remaining <= 0:
            return REASON_DEADLINE
        cap = self.budget.max_vectors
        if cap is not None and vectors > cap:
            return REASON_MAX_VECTORS
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BudgetClock(deadline_s={self.budget.deadline_s}, "
            f"max_vectors={self.budget.max_vectors}, "
            f"elapsed_s={self.elapsed_s():.4f})"
        )
