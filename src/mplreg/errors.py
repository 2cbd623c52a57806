"""Failure classes shared across the library.

Each class maps to a distinct CLI exit code so that callers can tell apart
"the point is outside the admissible domain", "the partial sums never
settled" and "the tolerance is out of reach of the working precision".
"""


class MplregError(Exception):
    """Base class; exit code 1."""

    exit_code = 1


class DomainError(MplregError):
    """Requested point lies outside the required open domain; exit code 2."""

    exit_code = 2


class NonConvergenceError(MplregError):
    """Cutoff ceiling reached before the stopping rule fired; exit code 3."""

    exit_code = 3


class PrecisionError(MplregError):
    """A tolerance below the precision floor 2^(20 - prec), or a constant
    match that failed its double-cutoff stability check; exit code 4."""

    exit_code = 4
