"""Exception types shared across the package.

The CLI maps these onto process exit codes: invalid parameters exit with 2,
accuracy/quadrature failures with 3, I/O problems with 4.
"""

import contextlib
import operator


class QrspacesError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(QrspacesError, ValueError):
    """A space/scale parameter violates its validity constraints."""


class SingularityError(QrspacesError, ZeroDivisionError):
    """Evaluation at a point where the quantity is infinite (e.g. Green pole)."""


class PoleError(QrspacesError, ZeroDivisionError):
    """Evaluation of a quotient at a zero of the denominator."""


class AccuracyError(QrspacesError, ArithmeticError):
    """A quadrature or series evaluation failed to reach the requested accuracy."""


class NonQuasiregularError(QrspacesError):
    """A map fails the quasiregularity hypothesis required by the operation."""


class HypothesisViolationError(QrspacesError):
    """A claimed pointwise bound is violated beyond tolerance.

    Carries the offending margin report in ``args[1]`` when available.
    """


class InfiniteConstantError(QrspacesError, ArithmeticError):
    """A sup-type constant or a constant base's norm is infinite (s < 0)."""


def require_index(value, name: str) -> int:
    """``value`` as an int; a bool, or a value ``operator.index`` refuses
    (a float such as 4.0), is an InvalidParameterError."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
