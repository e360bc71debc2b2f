"""Exception types shared across the package.

Two broad families: bad input (a malformed potential description, a
wavenumber in the lower half plane) and numerical trouble (a tail that
never drops below tolerance, a Magnus mesh that will not converge, an
exceptional point of the scattering data).  The command line tool maps
the first family to exit code 2 and the second to exit code 3.
"""


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
    """The plane-wave coefficient a(k) vanished at a k with Im k > 0.

    k^2 is then an eigenvalue and reflection and transmission are
    undefined there.  At real k it cannot vanish: |a|^2 = 1 + |b|^2.
    """


class RatioInconsistencyError(NumericsError):
    """The two zero-energy solutions are not proportional where both are sampled.

    Raised when a potential is flagged resonant but the pointwise ratio of
    the left and right zero-energy solutions is not constant, which means
    the resonance threshold and the computed solutions disagree.
    """
