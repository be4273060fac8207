"""Exception types shared across the package."""

from __future__ import annotations


class ProbustError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ProbustError, ValueError):
    """Invalid argument: out-of-range parameter, mismatched edge spaces, bad index."""


class UnsupportedScaleError(ProbustError):
    """The requested instance exceeds a documented exact-computation cap."""


class ModelContractError(ProbustError):
    """An edge model returned a conditional probability outside [0, 1]."""


class RobustnessViolationError(ProbustError):
    """A conditional probability fell below the coupling's base probability.

    Carries the edge index and the decided suffix at the point of violation,
    so a broken model can be debugged rather than silently clamped.
    """

    def __init__(self, message, edge=None, history=None):
        super().__init__(message)
        self.edge = edge
        self.history = history


class SamplingFailureError(ProbustError):
    """A rejection sampler exhausted its attempt budget."""

    def __init__(self, message, attempts):
        super().__init__(message)
        self.attempts = attempts

    def __reduce__(self):  # attempts is required, so the default pickling fails
        return type(self), (self.args[0], self.attempts)


class PairedViolationError(ProbustError):
    """A coupled sample had the property on the embedded layer but not on the union.

    This is impossible when the property is monotone and the union contains the
    embedded layer, so it always indicates a bug, never statistical noise.
    """

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class CertificationError(ProbustError):
    """A property was shown not to be monotone: by the random certification
    of ``certify_monotone`` or by the exhaustive lattice proof of
    ``exact_domination_check``. ``counterexample`` is (before, after, edge)."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample
