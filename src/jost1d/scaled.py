"""The squeezed-and-windowed operator family and its Green kernel.

For a potential V and small eps > 0 the operator of interest is

    -d^2/dx^2 + eps^-2 V(x/eps) restricted to the window |x| <= x_eps,

with the window half-width x_eps = eps * xi_eps chosen by the splitting
scale so that the window both shrinks to a point and, after unsqueezing,
swallows ever more of V.  That operator is -d^2/dx^2 plus the potential
scale(truncate(V, xi_eps), eps), so its Jost solutions f~_+- are that
potential's, and jost_evaluator builds them by dilation: f~_+ at (x, k)
is f_+ of V cut to |s| <= xi_eps at (x/eps, eps k), solved on the
unsqueezed axis at the small wavenumber eps k, and its error_bound is
that of the cut V (zero: the cut is compact).  The resolvent kernel is
f~_+(max) f~_-(min) / W with W = W{f~_+, f~_-} = -2ik a.  Whether a
blows up like 1/eps (generic case) or stays bounded (zero-energy
resonance) decides the limiting operator.
"""

from __future__ import annotations

import numpy as np

from .jost import ScatteringData, _jost_pair, _scattering_from, check_wavenumber
from .potential import Potential, scale, splitting_scale, truncate

__all__ = [
    "TruncatedScaledOperator",
    "truncated_operator",
]


class TruncatedScaledOperator:
    """Jost solutions and Green kernel of the windowed squeezed operator.

    window is the potential scale(truncate(p, xi_eps), eps), and plus and
    minus are its Jost evaluators, built once: evaluating either solution
    or the kernel afterwards is vectorized and cheap, which is what the
    Hilbert-Schmidt lattice sums need.  d_tilde is their Wronskian.
    """

    def __init__(self, p: Potential, eps, k, tol=1e-10, alpha_weight=0.5):
        self.k = k = check_wavenumber(k, allow_zero=False)
        ss = splitting_scale(p, eps, alpha_weight)
        self.p, self.eps, self.xi_eps, self.x_eps = p, ss.eps, ss.xi_eps, ss.x_eps
        self.window = scale(truncate(p, ss.xi_eps), ss.eps)
        self.plus, self.minus = _jost_pair(self.window, k, tol)
        # W at the window's right edge, where both solutions are plane waves:
        # it is -2ik a of f_-, so the Wronskian gap checks reciprocity a_+ = a_-
        (f, fp), (g, gp) = self.plus.eval(self.x_eps), self.minus.eval(self.x_eps)
        self.d_tilde = complex(f * gp - fp * g)
        self._scattering = _scattering_from(k, self.plus, self.d_tilde)

    def f_plus(self, x):
        """Vectorized (f~_+, f~_+') of the windowed operator."""
        return self.plus.eval(x)

    def f_minus(self, x):
        """Vectorized (f~_-, f~_-') of the windowed operator."""
        return self.minus.eval(x)

    def green(self, x, y):
        """Resolvent kernel f~_+(max(x,y)) f~_-(min(x,y)) / W, vectorized."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        val = self.f_plus(np.maximum(x, y))[0] * self.f_minus(np.minimum(x, y))[0] / self.d_tilde
        return complex(val) if val.ndim == 0 else val

    def scattering(self) -> ScatteringData:
        return self._scattering


def truncated_operator(p, eps, k, tol=1e-10, alpha_weight=0.5):
    return TruncatedScaledOperator(p, eps, k, tol, alpha_weight)
