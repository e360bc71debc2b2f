"""Closed-form 2x2 propagators: constant layers and 4th-order Magnus steps.

On a layer where V is the constant h, solutions of -y'' + V y = k^2 y
satisfy y'' = mu2 * y with mu2 = h - k^2, and the map sending (y, y')
across the layer is a 2x2 matrix built from cosh and sinh of
sqrt(mu2) * width.  Everything here is even in that square root, so no
branch of the complex sqrt ever matters, and a short series handles the
nearly-free regime where sqrt(mu2)*width underflows.

This path is exact up to rounding, which makes it both the production
route for piecewise-constant models and the reference the Magnus route
of jost1d.jost is tested against.  The 4th-order Magnus step for smooth
potentials is the same closed-form exponential of a traceless 2x2
matrix, with a diagonal correction, and reduces to the constant-layer
propagator when V is constant over the step.  Both routes store their
Jost solution as states at nodes and share one evaluator base.
"""

from __future__ import annotations

import numpy as np

__all__ = ["propagator_entries", "magnus_entries", "plane_pair", "NodalJost", "PiecewiseJost"]


def propagator_entries(mu2, w):
    """Entries (A, B, C) of the transfer matrix for y'' = mu2 * y over width w.

    (y, y') at x+w equals (A y + B y', C y + A y') at x.  Accepts arrays
    in either argument (broadcast).  A = cosh(z), B = w sinh(z)/z,
    C = mu2 w sinh(z)/z with z^2 = mu2 w^2; the series branch keeps the
    z -> 0 limit exact.
    """
    w = np.asarray(w, dtype=float)
    a, s = _cosh_sinhc(mu2 * w * w)
    return a, w * s, mu2 * w * s


def _cosh_sinhc(z2):
    """(cosh z, sinh(z)/z) from z^2; both are even in z, so no branch matters."""
    z2 = np.asarray(z2, dtype=complex)
    small = np.abs(z2) < 1e-10
    a_series = 1.0 + z2 / 2.0 + z2 * z2 / 24.0
    s_series = 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    z = np.sqrt(np.where(small, 1.0, z2))
    with np.errstate(over="ignore", invalid="ignore"):
        a_full = np.cosh(z)
        s_full = np.sinh(z) / z
    return np.where(small, a_series, a_full), np.where(small, s_series, s_full)


_GAUSS = np.sqrt(3.0) / 6.0


def magnus_entries(v, k, x0, x1):
    """The 4th-order Magnus step of (y, y')' = [[0, 1], [V - k^2, 0]] (y, y').

    Returns the entries (m00, m01, m10, m11) of the map sending (y, y')
    at x0 to (y, y') at x1; x0 and x1 broadcast and x1 < x0 is allowed.
    V is sampled at the two Gauss points, q_i = V(x_i) - k^2, and the
    exponent [[c, h], [h qbar, -c]] with h = x1 - x0, qbar the mean of q
    and c = (sqrt(3)/12) h^2 (q1 - q2) is traceless, so its exponential
    is cosh(z) I + sinh(z)/z times itself, z^2 = c^2 + h^2 qbar.  When V
    is constant over the step c vanishes and this is propagator_entries.
    (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999.)
    """
    x0 = np.asarray(x0, dtype=float)
    h = np.asarray(x1, dtype=float) - x0
    k2 = complex(k) ** 2
    q1 = v(x0 + (0.5 - _GAUSS) * h) - k2
    q2 = v(x0 + (0.5 + _GAUSS) * h) - k2
    qbar = 0.5 * (q1 + q2)
    c = (0.5 * _GAUSS) * h * h * (q1 - q2)
    a, s = _cosh_sinhc(c * c + h * h * qbar)
    return a + c * s, h * s, h * qbar * s, a - c * s


def plane_pair(f0, fp0, k, x0):
    """Coefficients (c_plus, c_minus) with f = c_plus e^{ikx} + c_minus e^{-ikx}.

    Valid on any interval where V vanishes, given the state (f0, fp0) at a
    point x0 of that interval.  Requires k != 0.
    """
    ik = 1j * k
    c_plus = (ik * f0 + fp0) * np.exp(-ik * x0) / (2.0 * ik)
    c_minus = (ik * f0 - fp0) * np.exp(ik * x0) / (2.0 * ik)
    return c_plus, c_minus


class NodalJost:
    """A Jost solution stored as its states (f, f') at increasing nodes.

    A subclass sets k, side, nodes, states (shape (len(nodes), 2)),
    anchor, far_edge and error_bound, provides _inside(x) for points
    strictly between the first and last node, and calls _finish().  The
    anchor side is the plane wave e^{+-ikx}; beyond the far edge the
    solution is the plane-wave pair of the far state.
    """

    def _finish(self):
        f0, fp0 = self.states[0] if self.side == "+" else self.states[-1]
        if self.k != 0:
            self._pair = plane_pair(f0, fp0, self.k, self.far_edge)
        else:
            # zero energy: the outside solution is the straight line A + B x
            self._pair = (f0 - fp0 * self.far_edge, fp0)

    def plane_pair(self):
        """(c_plus, c_minus) of f on the vacuum side opposite the anchor.

        For side "+" these are the scattering coefficients (a, b).  Only
        meaningful for k != 0.
        """
        return self._pair

    def eval(self, x):
        """Vectorized (f, f') at arbitrary points."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x).astype(float)
        f = np.empty(x.shape, dtype=complex)
        fp = np.empty(x.shape, dtype=complex)
        k_ = self.k
        lo, hi = self.nodes[0], self.nodes[-1]
        if self.side == "+":
            on_anchor_side = x >= hi
            beyond = x < lo
            wave = np.exp(1j * k_ * x[on_anchor_side])
            f[on_anchor_side] = wave
            fp[on_anchor_side] = 1j * k_ * wave
        else:
            on_anchor_side = x <= lo
            beyond = x > hi
            wave = np.exp(-1j * k_ * x[on_anchor_side])
            f[on_anchor_side] = wave
            fp[on_anchor_side] = -1j * k_ * wave
        if beyond.any():
            f[beyond], fp[beyond] = self._vacuum(x[beyond])
        inside = ~(on_anchor_side | beyond)
        if inside.any():
            f[inside], fp[inside] = self._inside(x[inside])
        if scalar:
            return f[0], fp[0]
        return f, fp

    def _panel(self, x):
        """Index i of the panel [nodes[i], nodes[i+1]] holding each x."""
        return np.clip(np.searchsorted(self.nodes, x, side="right") - 1, 0, len(self.nodes) - 2)

    def _vacuum(self, x):
        if self.k == 0:
            a_lin, b_lin = self._pair
            return a_lin + b_lin * x, np.full(x.shape, b_lin, dtype=complex)
        c_plus, c_minus = self._pair
        up = np.exp(1j * self.k * x)
        dn = np.exp(-1j * self.k * x)
        return c_plus * up + c_minus * dn, 1j * self.k * (c_plus * up - c_minus * dn)


class PiecewiseJost(NodalJost):
    """Jost solution of a compactly supported piecewise-constant potential.

    layers is the contiguous tiling [(x0, x1, h1), (x1, x2, h2), ...]
    produced by potential.piecewise_segments; side "+" carries the
    boundary condition f ~ e^{ikx} as x -> +inf, side "-" the condition
    f ~ e^{-ikx} as x -> -inf.  States at every node are precomputed, so
    evaluation anywhere costs one layer propagation.
    """

    def __init__(self, layers, k, side):
        self.k = complex(k)
        self.side = side
        self.error_bound = 0.0
        if layers:
            self.nodes = np.array([layers[0][0]] + [seg[1] for seg in layers], dtype=float)
            heights = np.array([seg[2] for seg in layers], dtype=float)
        else:
            self.nodes = np.array([0.0])
            heights = np.zeros(0)
        self.mu2 = heights - self.k**2
        n = len(heights)
        states = np.zeros((n + 1, 2), dtype=complex)
        k_ = self.k
        if side == "+":
            x_hi = self.nodes[-1]
            states[n] = (np.exp(1j * k_ * x_hi), 1j * k_ * np.exp(1j * k_ * x_hi))
            for i in range(n - 1, -1, -1):
                a, b, c = propagator_entries(self.mu2[i], self.nodes[i] - self.nodes[i + 1])
                f, fp = states[i + 1]
                states[i] = (a * f + b * fp, c * f + a * fp)
            self.anchor = float(x_hi)
            self.far_edge = float(self.nodes[0])
        elif side == "-":
            x_lo = self.nodes[0]
            states[0] = (np.exp(-1j * k_ * x_lo), -1j * k_ * np.exp(-1j * k_ * x_lo))
            for i in range(n):
                a, b, c = propagator_entries(self.mu2[i], self.nodes[i + 1] - self.nodes[i])
                f, fp = states[i]
                states[i + 1] = (a * f + b * fp, c * f + a * fp)
            self.anchor = float(x_lo)
            self.far_edge = float(self.nodes[-1])
        else:
            raise ValueError(f"side must be '+' or '-', got {side!r}")
        self.states = states
        self._finish()

    # each evaluator class binds eval itself, where bench/spans.py finds it per route
    eval = NodalJost.eval

    def _inside(self, x):
        idx = self._panel(x)
        a, b, c = propagator_entries(self.mu2[idx], x - self.nodes[idx])
        f0 = self.states[idx, 0]
        fp0 = self.states[idx, 1]
        return a * f0 + b * fp0, c * f0 + a * fp0
