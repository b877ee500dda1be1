"""Exception types shared across the library.

The CLI maps these onto exit codes: sampling budgets that run dry raise
RetryExhausted (exit 2), unmet mathematical hypotheses raise
PreconditionError (exit 3), and malformed user input raises ParseFormError
or DimensionMismatch (exit 1).

Every search counts its rejects in one `Rejects` record and gives up
through it, so each RetryExhausted carries diagnostics of one shape:
{"stage": the search, "rejects": {reason: count, a declared reason that
rejected nothing at 0}, "best_residual": the least residual seen or None},
plus the search's own context keys (`target_size`, `cap`, `needed`, ...).
"""

from __future__ import annotations


class WaringError(Exception):
    """Base class for all library errors."""


class ParseFormError(WaringError):
    """Polynomial text does not match the input grammar."""


class DimensionMismatch(WaringError):
    """Operands live in incompatible polynomial spaces."""


class PreconditionError(WaringError):
    """A documented hypothesis of the requested operation does not hold."""


class ZeroFormError(PreconditionError):
    """The zero form was supplied where a nonzero form is required."""


class RetryExhausted(WaringError):
    """A randomized search ran out of budget.

    Carries a ``diagnostics`` dict in the shape of the module docstring, so
    callers can report how close the search came before giving up.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class Rejects:
    """One search's rejected candidates, counted by reason, and the least
    residual that any of them reached."""

    __slots__ = ("stage", "counts", "best_residual")

    def __init__(self, stage: str, *reasons: str):
        self.stage, self.counts, self.best_residual = stage, dict.fromkeys(reasons, 0), None

    def count(self, reason: str, residual: float | None = None) -> None:
        """Count one reject, and lower the best residual to its own if it has one."""
        self.counts[reason] += 1
        if residual is not None and (self.best_residual is None or residual < self.best_residual):
            self.best_residual = residual

    def exhausted(self, message: str, **context) -> RetryExhausted:
        """The RetryExhausted that ends the search, for the caller to raise."""
        return RetryExhausted(message, diagnostics={"stage": self.stage, "rejects": self.counts,
                                                    "best_residual": self.best_residual, **context})


class RootFindingError(WaringError):
    """The simultaneous root iteration failed to converge."""


class DegenerateSystemError(WaringError):
    """A sampled line system turned out degenerate (wrong kernel dimension).

    Internal retry signal: the caller should resample rather than abort.
    """


class NoSmoothConic(WaringError):
    """Every conic in the relevant apolar net is singular.

    Used as a routing signal by the plane-quartic pipeline; callers fall
    back to a different decomposition route when it appears.
    """
