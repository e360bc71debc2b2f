"""Closed-form 2x2 propagators: constant layers and 6th-order Magnus steps.

On a layer where V is the constant h, solutions of -y'' + V y = k^2 y
satisfy y'' = mu2 * y with mu2 = h - k^2, and the map sending (y, y')
across the layer is a 2x2 matrix built from cosh and sinh of
sqrt(mu2) * width.  Everything here is even in that square root, so no
branch of the complex sqrt ever matters, and a short series handles the
nearly-free regime where sqrt(mu2)*width underflows.  V is real, so the
maps are real wherever k^2 is (real k, k = 0, k = i kappa); with a pairwise
defect max, that cut the README exp well's scattering time at k = 1 by 39-48%.

This path is exact up to rounding, which makes it both the production
route for piecewise-constant models and the reference the Magnus route
of jost1d.jost is tested against.  The 6th-order Magnus step for smooth
potentials samples V at three Gauss points; its exponent, commutators
included, is again a traceless 2x2 matrix, so the step is the same
closed-form exponential, and it reduces to the constant-layer
propagator when V is constant over the step.  This module holds only
these kernels and the plane-wave decomposition; the Jost evaluator that
chains them lives in jost1d.jost.
"""

from __future__ import annotations

import numpy as np

__all__ = ["propagator_entries", "magnus_entries", "plane_pair"]


def propagator_entries(mu2, w):
    """Entries (A, B, C) of the transfer matrix for y'' = mu2 * y over width w.

    (y, y') at x+w equals (A y + B y', C y + A y') at x.  Accepts arrays
    in either argument (broadcast).  A = cosh(z), B = w sinh(z)/z,
    C = mu2 w sinh(z)/z with z^2 = mu2 w^2; the series branch keeps the
    z -> 0 limit exact.
    """
    w = np.asarray(w, dtype=float)
    a, s = _cosh_sinhc(mu2 * w * w)
    with np.errstate(invalid="ignore"):  # an overflowed layer is inf or nan, which products catch
        return a, w * s, mu2 * w * s


def _cosh_sinhc(z2):
    """(cosh z, sinh(z)/z) from z^2, real where z^2 is; both are even in z, so no branch matters."""
    z2 = np.asarray(z2)
    small = (mag := np.abs(z2)) < 1e-10
    series = small.any()  # most calls have no small entry and skip the series
    with np.errstate(over="ignore", invalid="ignore"):
        if z2.dtype.kind == "c":
            z = np.sqrt(np.where(small, 1.0, z2) if series else z2)
            a_full, s_full = np.cosh(z), np.sinh(z) / z
        else:  # one ufunc pair per one-signed batch; sin(r) * (1/r) is numpy's complex division
            r = np.sqrt(np.where(small, 1.0, mag) if series else mag)
            if np.maximum.reduce(z2, None, initial=0.0) == 0.0:  # z2 = 0 is a series entry
                a_full, s_full = np.cos(r), np.sin(r) * (1.0 / r)
            elif np.minimum.reduce(z2, None, initial=0.0) == 0.0:
                a_full, s_full = np.cosh(r), np.sinh(r) * (1.0 / r)
            else:
                a_full = np.where(z2 < 0.0, np.cos(r), np.cosh(r))
                s_full = np.where(z2 < 0.0, np.sin(r), np.sinh(r)) * (1.0 / r)
    if not series:
        return a_full, s_full
    a_series = 1.0 + z2 / 2.0 + z2 * z2 / 24.0
    s_series = 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    return np.where(small, a_series, a_full), np.where(small, s_series, s_full)


_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * (np.sqrt(15.0) / 10.0)  # 3-point Gauss on [0, 1]
_ROOT15_3 = np.sqrt(15.0) / 3.0


def magnus_entries(v, k, x0, x1):
    """The 6th-order Magnus step of (y, y')' = [[0, 1], [V - k^2, 0]] (y, y').

    Returns the entries (m00, m01, m10, m11) of the map sending (y, y')
    at x0 to (y, y') at x1; x0 and x1 broadcast and x1 < x0 is allowed.
    V is sampled once at the three Gauss points of every step, v_i =
    V(x0 + c_i h) with h = x1 - x0 and c = 1/2 -+ sqrt(15)/10, 1/2.  With
    A_i = A(x_i), the exponent
        Omega = a1 + a3/12 + [-20 a1 - a3 + [a1, a2], a2 - [a1, 2 a3 + [a1, a2]]/60]/240,
        a1 = h A_2, a2 = (sqrt(15) h/3)(A_3 - A_1), a3 = (10 h/3)(A_3 - 2 A_2 + A_1),
    is a traceless 2x2 matrix [[d, u], [l, -d]], as every commutator of
    traceless matrices is: a2 and a3 are [[0, 0], [s2, 0]] and [[0, 0],
    [s3, 0]] with s2 = (sqrt(15)/3) h (v3 - v1) and s3 = (10/3) h (v1 + v3
    - 2 v2).  Its exponential is cosh(z) I + sinh(z)/z Omega with z^2 =
    d^2 + u l.  Trading the outer Gauss points (the mirror t = -x) flips
    the sign of s2 and so of d alone, which swaps m00 and m11.  When V is
    constant over the step s2 = s3 = 0 and this is propagator_entries.
    Overflow at large |k| h gives inf or nan entries without a warning.
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009, after Iserles &
    Norsett, Phil. Trans. R. Soc. A 357, 1999.)
    """
    x0 = np.asarray(x0, dtype=float)
    h = np.asarray(x1, dtype=float) - x0
    k2 = complex(k) ** 2
    k2 = k2.real if k2.imag == 0 else k2  # real maps wherever k^2 is real
    v1, v2, v3 = v(np.multiply.outer(_GAUSS, h) + x0)  # one call for every Gauss point
    with np.errstate(over="ignore", invalid="ignore"):
        hq = h * (v2 - k2)
        s2 = _ROOT15_3 * h * (v3 - v1)
        s3 = (10.0 / 3.0) * h * ((v1 + v3) - 2.0 * v2)
        s22 = s2 * s2
        # the commutator sum expanded, its 1/240 folded into the constants
        diag = h * s2 * (h * hq / 180.0 + h * s3 / 7200.0 - 1.0 / 12.0)
        upper = h + h * h * (h * s22 / 3600.0 - s3 / 180.0)
        lower = hq + s3 / 12.0 + h * (hq * s3 / 180.0 + s3 * s3 / 3600.0 - s22 / 120.0
                                      + h * hq * s22 / 3600.0)
        a, s = _cosh_sinhc(diag * diag + upper * lower)
        return a + diag * s, upper * s, lower * s, a - diag * s


def plane_pair(f0, fp0, k, x0):
    """Coefficients (c_plus, c_minus) with f = c_plus e^{ikx} + c_minus e^{-ikx}.

    Valid on any interval where V vanishes, given the state (f0, fp0) at a
    point x0 of that interval.  Requires k != 0.
    """
    ik = 1j * k
    c_plus = (ik * f0 + fp0) * np.exp(-ik * x0) / (2.0 * ik)
    c_minus = (ik * f0 - fp0) * np.exp(ik * x0) / (2.0 * ik)
    return c_plus, c_minus
