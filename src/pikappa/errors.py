"""Exception types raised by solvers and numerical kernels."""


class PikappaError(Exception):
    """Base class for all library errors."""


class DomainError(PikappaError):
    """An evaluation was requested outside its mathematical domain (e.g.
    kappa outside [0, 1], a non-finite eta, or a float overflow in the
    value function). A jump moment that diverges at kappa = 1 is not one:
    it is +inf."""


class NonConvergence(PikappaError):
    """A numerical evaluation did not converge (a series within its term
    cap)."""


class ModelValidationError(PikappaError):
    """A solver was handed inputs that fail validation."""

    def __init__(self, report):
        self.report = report
        super().__init__("model validation failed: " + "; ".join(
            f"{c.name}: {c.detail}" if c.detail else c.name
            for c in report.failures()))


class NoSolution(PikappaError):
    """No candidate policy certified after exhausting all regime branches."""


class NoThreshold(PikappaError):
    """No sign change found when bracketing a risk-aversion threshold."""


class BracketError(PikappaError):
    """A monotone inversion left the attainable range of the function."""


class CaseMismatch(PikappaError):
    """Mutual-fund endpoints landed in different regime case families."""


class CrossCheckFailed(PikappaError):
    """An independent cross-check of a solve (oracle gap, Monte Carlo z,
    mutual-fund discrepancy) fell outside its tolerance."""


class NoRoot(PikappaError):
    """The mutual-fund combination function has no sign change in delta."""


class SOCViolation(PikappaError):
    """The portfolio-premium second-order condition fails on the bracket."""


class NoInteriorSolution(PikappaError):
    """The portfolio-premium first-order condition is sign-definite on (0,1)."""
