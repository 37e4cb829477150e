"""Exception hierarchy shared across the package.

Every error that callers are expected to catch derives from
:class:`InterOddsError`.  The CLI maps these classes onto distinct exit
codes (see ``interodds.cli``).
"""


class InterOddsError(Exception):
    """Base class for all interodds errors."""


class OrderRangeError(InterOddsError, ValueError):
    """Interaction order outside the range allowed for the measure."""


class UndefinedSynergyError(InterOddsError, ValueError):
    """Synergy index requested where its preconditions fail.

    The synergy index needs both the joint odds ratio and its lower-order
    prediction to exceed the baseline odds ratio.  When only one (or
    neither) does, we refuse rather than return a negative ratio.
    """


class TransformRangeError(InterOddsError, ValueError):
    """Measure value on the boundary of its transform's domain."""


class NegativeVarianceError(InterOddsError, ValueError):
    """Delta-method variance came out negative beyond tolerance."""


class SeparationError(InterOddsError, RuntimeError):
    """Coefficients diverging or information matrix near-singular.

    Raised when the magnitude of the intercept, a structural coefficient or
    a slope times its covariate's standard deviation exceeds the divergence
    bound during iteration, or the condition number of the information
    matrix exceeds its cap.  Usually means (quasi-)complete separation, or,
    where the message names one, a nearly collinear covariate.
    """


class SingularDesignError(InterOddsError, ValueError):
    """A design column is constant or the design is rank-deficient."""


class ConvergenceError(InterOddsError, RuntimeError):
    """Newton iteration did not converge within the iteration budget."""


class BootstrapFailureError(InterOddsError, RuntimeError):
    """Too many bootstrap replicates failed to fit or evaluate.

    ``failures`` counts the failed replicates by error class name.
    """

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = dict(failures or {})


class PrevalenceError(InterOddsError, ValueError):
    """Simulation cannot feasibly reach the requested case/control counts."""


class CsvParseError(InterOddsError, ValueError):
    """CSV rows with missing or unparseable cells.

    ``problems`` is a list of ``(row, column, reason)`` tuples using
    1-based row numbers counted from the first data row.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = ", ".join(
            f"row {r} col {c!r}: {why}" for r, c, why in self.problems[:10]
        )
        more = "" if len(self.problems) <= 10 else f" (+{len(self.problems) - 10} more)"
        super().__init__(f"unparseable cells: {lines}{more}")


class NonBinaryFactorError(InterOddsError, ValueError):
    """A risk-factor column contains a value other than 0 or 1."""


class EmptyClassError(InterOddsError, ValueError):
    """Dataset has no cases or no controls."""
