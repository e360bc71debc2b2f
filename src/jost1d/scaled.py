"""The squeezed-and-windowed operator family and its Green kernel.

For a potential V and small eps > 0 the operator of interest is

    -d^2/dx^2 + eps^-2 V(x/eps) restricted to the window |x| <= x_eps,

with the window half-width x_eps = eps * xi_eps chosen by the splitting
scale so that the window both shrinks to a point and, after unsqueezing,
swallows ever more of V.  Its right Jost solution is assembled from
three regions:

    x >  x_eps :  e^{ikx}                       (free, outgoing)
    |x| < x_eps:  c+ f_+(x/eps, eps k) + c- f_-(x/eps, eps k)
    x < -x_eps :  a+ e^{ikx} + b+ e^{-ikx}      (free)

where f_+/f_- are the Jost solutions of the *unsqueezed* V at the small
wavenumber eps*k, and the constants come from matching value and slope
at +-x_eps.  The left solution is built the same way from the other
side, and the resolvent kernel is f~_+(max) f~_-(min) / W with
W = -2ik a+.  Whether a+ blows up like 1/eps (generic case) or stays
bounded (zero-energy resonance) decides the limiting operator.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ExceptionalPointError, NumericsError, SpecError
from .jost import ScatteringData, check_wavenumber, jost_evaluator
from .potential import Potential, splitting_scale

__all__ = [
    "TruncatedScaledCoefficients",
    "TruncatedScaledOperator",
    "truncated_operator",
]


class TruncatedScaledCoefficients(NamedTuple):
    c_plus: complex
    c_minus: complex
    a_plus: complex
    b_plus: complex


class TruncatedScaledOperator:
    """Jost solutions and Green kernel of the windowed squeezed operator.

    Builds both matching systems once; evaluating either solution or the
    kernel afterwards is vectorized and cheap, which is what the
    Hilbert-Schmidt lattice sums need.
    """

    def __init__(self, p: Potential, eps, k, tol=1e-10, alpha_weight=0.5):
        k = check_wavenumber(k, allow_zero=False)
        if eps <= 0:
            raise SpecError(f"eps must be positive, got {eps}")
        self.p = p
        self.eps = float(eps)
        self.k = k
        ss = splitting_scale(p, eps, alpha_weight)
        self.xi_eps = ss.xi_eps
        self.x_eps = ss.x_eps

        kk = eps * k  # wavenumber seen by the unsqueezed potential
        self._fp = jost_evaluator(p, kk, "+", tol)
        self._fm = jost_evaluator(p, kk, "-", tol)

        xi = self.xi_eps
        fp_hi, dfp_hi = self._fp.eval(xi)
        fm_hi, dfm_hi = self._fm.eval(xi)
        fp_lo, dfp_lo = self._fp.eval(-xi)
        fm_lo, dfm_lo = self._fm.eval(-xi)

        # the Wronskian of the pair, constant in x; computed where both
        # evaluators are most accurate
        w_hi = fp_hi * dfm_hi - dfp_hi * fm_hi
        scale_ref = abs(fp_hi * dfm_hi) + abs(dfp_hi * fm_hi)
        if abs(w_hi) <= 1e-13 * max(scale_ref, 1e-300):
            raise NumericsError(
                f"W(eps*k) is numerically zero at eps*k = {kk}; (eps*k)^2 sits on "
                "an eigenvalue and the matching system is singular"
            )
        self.wronskian_unit = w_hi

        ik = 1j * k
        ikk = 1j * kk
        e_hi = np.exp(ik * self.x_eps)
        e_lo = np.exp(-ik * self.x_eps)

        # right solution: match e^{ikx} across x = +x_eps
        self.c_plus = e_hi * (dfm_hi - ikk * fm_hi) / w_hi
        self.c_minus = e_hi * (ikk * fp_hi - dfp_hi) / w_hi
        val_lo = self.c_plus * fp_lo + self.c_minus * fm_lo
        slope_lo = (self.c_plus * dfp_lo + self.c_minus * dfm_lo) / eps
        self.a_plus = e_hi * (ik * val_lo + slope_lo) / (2.0 * ik)
        self.b_plus = e_lo * (ik * val_lo - slope_lo) / (2.0 * ik)

        # left solution: match e^{-ikx} across x = -x_eps
        self.d_plus = e_hi * (dfm_lo + ikk * fm_lo) / w_hi
        self.d_minus = -e_hi * (ikk * fp_lo + dfp_lo) / w_hi
        val_hi = self.d_plus * fp_hi + self.d_minus * fm_hi
        slope_hi = (self.d_plus * dfp_hi + self.d_minus * dfm_hi) / eps
        self.a_minus = e_hi * (ik * val_hi - slope_hi) / (2.0 * ik)
        self.b_minus = e_lo * (ik * val_hi + slope_hi) / (2.0 * ik)

        if abs(self.a_plus) <= 1e-12 * (1.0 + abs(self.b_plus)):
            raise ExceptionalPointError(
                f"the windowed operator at eps = {eps:g} has k^2 = {k * k} as an "
                "eigenvalue (leading plane-wave coefficient vanishes); move k off "
                "the discrete spectrum"
            )
        self.d_tilde = -2j * k * self.a_plus

    @property
    def coefficients(self) -> TruncatedScaledCoefficients:
        return TruncatedScaledCoefficients(
            complex(self.c_plus), complex(self.c_minus),
            complex(self.a_plus), complex(self.b_plus),
        )

    def wronskian_mismatch(self) -> float:
        """Relative gap between the two one-sided Wronskian evaluations.

        The Wronskian of the assembled pair equals -2ik a+ computed left
        of the window and -2ik a- computed right of it; consistency of
        the whole construction shows up as a+ = a-.
        """
        return abs(self.a_plus - self.a_minus) / max(abs(self.a_plus), 1e-300)

    def f_plus(self, x):
        """Vectorized (f~_+, f~_+') of the windowed operator."""
        return self._solution(x, 1.0, (self.a_plus, self.b_plus), (self.c_plus, self.c_minus))

    def f_minus(self, x):
        """Vectorized (f~_-, f~_-') of the windowed operator."""
        return self._solution(x, -1.0, (self.a_minus, self.b_minus), (self.d_plus, self.d_minus))

    def _solution(self, x, s, far, inner):
        """(f, f') of the solution that is e^{iksx} for s x >= x_eps.

        For s x <= -x_eps it is far[0] e^{iksx} + far[1] e^{-iksx}; in the
        window it is inner[0] f_+(x/eps) + inner[1] f_-(x/eps) of the
        unsqueezed potential at eps k.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x).astype(float)
        f = np.empty(x.shape, dtype=complex)
        fp = np.empty(x.shape, dtype=complex)
        ks, xe, eps = s * self.k, self.x_eps, self.eps
        t = s * x
        anchored = t >= xe
        beyond = t <= -xe
        mid = ~(anchored | beyond)
        wave = np.exp(1j * ks * x[anchored])
        f[anchored] = wave
        fp[anchored] = 1j * ks * wave
        up = np.exp(1j * ks * x[beyond])
        dn = np.exp(-1j * ks * x[beyond])
        f[beyond] = far[0] * up + far[1] * dn
        fp[beyond] = 1j * ks * (far[0] * up - far[1] * dn)
        if mid.any():
            g_p, dg_p = self._fp.eval(x[mid] / eps)
            g_m, dg_m = self._fm.eval(x[mid] / eps)
            f[mid] = inner[0] * g_p + inner[1] * g_m
            fp[mid] = (inner[0] * dg_p + inner[1] * dg_m) / eps
        if scalar:
            return f[0], fp[0]
        return f, fp

    def green(self, x, y):
        """Resolvent kernel f~_+(max(x,y)) f~_-(min(x,y)) / (-2ik a+), vectorized."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        scalar = x.ndim == 0 and y.ndim == 0
        xb, yb = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
        upper = np.maximum(xb, yb)
        lower = np.minimum(xb, yb)
        val = self.f_plus(upper)[0] * self.f_minus(lower)[0] / self.d_tilde
        if scalar:
            return complex(val[0])
        return val

    def scattering(self) -> ScatteringData:
        a, b = complex(self.a_plus), complex(self.b_plus)
        return ScatteringData(
            k=self.k, a=a, b=b, r=b / a, t=1.0 / a,
            wronskian_gap=float(self.wronskian_mismatch()),
        )


def truncated_operator(p, eps, k, tol=1e-10, alpha_weight=0.5):
    return TruncatedScaledOperator(p, eps, k, tol, alpha_weight)
