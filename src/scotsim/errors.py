"""Shared exception types.

Each maps to a distinct process exit code in the command line interface:
configuration problems exit 2, scheduling failures exit 3, capacity
failures exit 4.  Exit 1 is kept for a run or check that failed.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """A user-supplied configuration or input file is invalid."""


class LayoutError(ConfigError):
    """A spacetime layout violates a geometric invariant.

    Attributes
    ----------
    violations:
        List of dictionaries, one per violated invariant, each with a
        ``kind`` key naming the failed check and enough context to
        locate the offending events.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        kinds = ", ".join(sorted({v["kind"] for v in self.violations}))
        super().__init__(f"layout invalid: {kinds}")


class SchedulingError(RuntimeError):
    """No worldline vertex satisfies a protocol action's causal constraints."""


class CapacityError(RuntimeError):
    """A requested simulation exceeds the supported problem size."""
