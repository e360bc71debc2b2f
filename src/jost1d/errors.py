"""Exception types shared across the package, and the readers of public arguments.

Two broad families: bad input (a malformed potential description, a
wavenumber in the lower half plane) and numerical trouble (a tail that
never drops below tolerance, a Magnus mesh that will not converge, an
exceptional point of the scattering data).  The command line tool maps
the first family to exit code 2 and the second to exit code 3.

Every numeric argument of the public API is read here, so this one
module decides what an input may be: _real reads a real number in an
interval, _count an integer, _wavenumber a k in the closed upper half
plane and _points the points a solution or kernel is evaluated at.  A
bool, text, None, an array or a complex number is never a real number,
though float() reads some of them.  Any argument outside its documented
range raises SpecError, whose sentence the caller gives.
"""

import cmath
import math
import operator

import numpy as np

__all__ = [
    "SpecError",
    "NumericsError",
    "AnchorError",
    "IntegrationError",
    "ExceptionalPointError",
    "RatioInconsistencyError",
]


class SpecError(ValueError):
    """A potential description or an argument violates a documented precondition."""


class NumericsError(RuntimeError):
    """A computation could not reach its requested accuracy."""


class AnchorError(NumericsError):
    """No point was found where the weighted potential tail drops below tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class IntegrationError(NumericsError):
    """The Magnus mesh did not converge (a step at the width floor failed, or too many steps)."""


class ExceptionalPointError(NumericsError):
    """The plane-wave coefficient a(k) vanished at k = i kappa, kappa > 0.

    k^2 is then an eigenvalue and reflection and transmission are
    undefined there.  At real k it cannot vanish: |a|^2 = 1 + |b|^2; nor,
    for real V, where k^2 is not real, so a failed a-test there raises
    plain NumericsError.
    """


class RatioInconsistencyError(NumericsError):
    """The two zero-energy solutions are not proportional where both are sampled.

    Raised when a potential is flagged resonant but the pointwise ratio of
    the left and right zero-energy solutions is not constant, which means
    the resonance threshold and the computed solutions disagree.
    """


def _number(value, cast, kinds):
    """cast(value) for one number whose numpy dtype kind is in kinds, else None.

    np.asarray sorts out what float(), complex() or operator.index()
    would read too: a bool ("b"), text ("U"), an array (ndim > 0) and,
    for a real, a complex number ("c"); any other object ("O") is a
    number if cast reads it.
    """
    try:
        a = np.asarray(value)
        return cast(value) if a.ndim == 0 and a.dtype.kind in kinds else None
    except (TypeError, ValueError, OverflowError):
        return None


def _real(value, what, lo=-math.inf, hi=math.inf, closed=False):
    """value as a float x with lo < x < hi, or x = hi when closed; else SpecError "what, got value"."""
    x = float(value) if isinstance(value, float) else _number(value, float, "iufO")
    if x is not None and (lo < x < hi or closed and x == hi):
        return x
    raise SpecError(f"{what}, got {value!r}")


def _count(value, what, least):
    """value as an int n >= least; else SpecError "what, got value".  A bool is no count."""
    n = _number(value, operator.index, "iuO")
    if n is None or n < least:
        raise SpecError(f"{what}, got {value!r}")
    return n


def _wavenumber(k, allow_zero=False):
    """k as a complex number with Im k >= 0, and k != 0 unless allow_zero; else SpecError."""
    z = complex(k) if isinstance(k, (complex, float)) else _number(k, complex, "iufcO")
    if z is None:
        raise SpecError(f"wavenumber must be a complex number, got {k!r}")
    if not cmath.isfinite(z):
        raise SpecError(f"wavenumber must be finite, got {z}")
    if z.imag < 0:
        raise SpecError(f"wavenumber must satisfy Im k >= 0, got {z}")
    if z == 0 and not allow_zero:
        raise SpecError("k = 0 is not allowed here")
    return z


def _points(x):
    """x as a float array of finite points; else SpecError naming the first that is not."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise SpecError(f"evaluation points must be real numbers, got {x!r}") from None
    if not np.isfinite(x).all():
        raise SpecError(f"evaluation points must be finite, got {x[~np.isfinite(x)][0]}")
    return x
