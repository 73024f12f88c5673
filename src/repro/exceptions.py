"""Exception hierarchy for the Robopt reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class. Subclasses are grouped by subsystem:
plan construction, enumeration, ML, simulation, and training-data
generation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class PlanError(ReproError):
    """A logical or execution plan is malformed."""


class CycleError(PlanError):
    """A logical plan contains a cycle (plans must be DAGs)."""


class ArityError(PlanError):
    """An operator has the wrong number of inputs or outputs."""


class UnknownOperatorError(PlanError):
    """An operator kind is not present in the catalog."""


class PlatformError(ReproError):
    """A platform-related error (unknown platform, unsupported operator)."""


class EnumerationError(ReproError):
    """The plan enumeration reached an inconsistent state."""


class ScopeError(EnumerationError):
    """Two enumerations have incompatible scopes for the requested operation."""


class VectorizationError(ReproError):
    """A plan could not be (un)vectorized against the feature schema."""


class ModelError(ReproError):
    """An ML model is misconfigured or used before being fitted."""


class NotFittedError(ModelError):
    """Predict was called on a model that has not been fitted."""


class SimulationError(ReproError):
    """The simulated executor could not run a plan."""


class ExecutionFailure(SimulationError):
    """A simulated execution failed (e.g. out of memory or timeout).

    Carries the failure ``reason`` (``"oom"`` or ``"timeout"``) and the
    simulated time at which the failure occurred.
    """

    def __init__(self, reason: str, runtime: float, message: str = ""):
        self.reason = reason
        self.runtime = runtime
        super().__init__(message or f"execution failed: {reason} after {runtime:.1f}s")


class GenerationError(ReproError):
    """The training-data generator received infeasible parameters."""
