"""Exception taxonomy shared by all zetakit modules.

Every failure mode maps to one class so callers (and the CLI exit-code
logic) can distinguish bad inputs from numerical breakdowns.
"""

from __future__ import annotations


class ZetakitError(Exception):
    """Base class for all zetakit errors."""


class DomainError(ZetakitError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole."""


class DegeneracyError(ZetakitError, ArithmeticError):
    """A denominator or prefactor is too close to zero to divide safely."""


class AccuracyError(ZetakitError, ArithmeticError):
    """The requested tolerance could not be met within the work budget.

    ``achieved`` carries the best error bound actually reached.
    """

    def __init__(self, message: str, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class EvaluationError(ZetakitError, ArithmeticError):
    """A user-supplied callable produced a non-finite value.

    ``index`` identifies the offending series index or abscissa.
    """

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class ConfigError(ZetakitError, ValueError):
    """An algorithm parameter is outside its supported range."""


class UsageError(ZetakitError, ValueError):
    """Bad command-line arguments (CLI layer only)."""
