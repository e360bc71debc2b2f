"""Potential models for the half-line-integrable scattering problem.

A potential here is a real function V on the line with finite weighted
norm  int (1+|x|) |V(x)| dx  (the natural class for Jost theory).  The
module provides a few concrete shapes (piecewise-constant profiles, of
which a square well or barrier is the one-layer case, tabulated samples
with linear interpolation, exponentially decaying tails), exact
rescaling x -> eps^-2 V(x/eps), truncation to a window, and the integral
functionals the scattering code needs: moments, the weighted norm,
one-sided tails, and the splitting scale that separates a shrinking
potential core from the surrounding free region.

Squeezing and truncation build one shape, eps^-2 V(x/eps) cut to
|x/eps| <= w around an unscaled base V, so every chain of scale and
truncate lands on that one form.

Every integral is closed form.  Each shape gives its own integrals of
V, x V, |V| and (1+|x|) |V| over any interval [lo, hi]: exact per-layer
sums for piecewise-constant shapes (each layer clipped to [lo, hi] and
split at x = 0, the kink of 1 + |x|), half-line sums for exp_decay
(folded at 0, as V is even), and for tables a 2-point Gauss-Legendre
rule on the panels between nodes, sign changes and 0, where |V| and x
are linear, so every integrand is at most quadratic and the rule is
exact.  A squeezed window maps the integrals of its base over the window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SpecError

__all__ = [
    "Potential",
    "TailData",
    "SplittingScale",
    "square",
    "piecewise_constant",
    "tabulated",
    "exp_decay",
    "zero",
    "load_potential",
    "potential_from_dict",
    "moments",
    "fm_norm",
    "tails",
    "splitting_scale",
    "scale",
    "truncate",
    "tail_weight_norm",
]


# ---------------------------------------------------------------------------
# shapes


class _Shape:
    """What every shape shares: layers, and composable squeezing and truncation."""

    def layers(self):
        """Contiguous (left, right, height) layers, left to right, or None if not piecewise constant.

        A gap between segments is a zero-height layer; heights leave out the coupling.
        """
        return None

    def scaled(self, eps):
        return ScaledShape(self, eps)

    def truncated(self, half_width):
        return ScaledShape(self, 1.0, half_width)

    def dilation(self):
        """(base, eps) with self = eps^-2 base(x / eps); eps = 1 unless squeezed."""
        return self, 1.0


@dataclass(frozen=True)
class PiecewiseShape(_Shape):
    """Disjoint constant segments (left, right, height); zero elsewhere."""

    segments: tuple[tuple[float, float, float], ...]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for lo, hi, h in self.segments:
            out = np.where((x >= lo) & (x <= hi), h, out)
        return out

    def support(self):
        live = [(lo, hi) for lo, hi, h in self.segments if h != 0.0]
        if not live:
            return (0.0, 0.0)
        return (min(lo for lo, _ in live), max(hi for _, hi in live))

    def breakpoints(self):
        pts = []
        for lo, hi, _ in self.segments:
            pts.extend((lo, hi))
        return tuple(sorted(set(pts)))

    def layers(self):
        segs = sorted(self.segments)
        gaps = [(hi, lo, 0.0) for (_, hi, _), (lo, _, _) in zip(segs, segs[1:]) if lo > hi]
        return sorted(segs + gaps)

    def integrals(self, lo, hi, coupling):
        """(int V, int x V, int |V|, int (1+|x|) |V|) over [lo, hi] of coupling * self.

        Each layer is clipped to [lo, hi] and split at 0.  On a piece that
        does not cross 0, |x| is linear, so the integral of h * w(x) for
        w = 1, x, |x| or 1 + |x| is h * width * (mean of w); the sums are exact.
        """
        pieces = []
        for a, b, h in self.segments:
            a, b, h = max(a, lo), min(b, hi), coupling * h
            for a2, b2 in ((a, min(b, 0.0)), (max(a, 0.0), b)):
                if a2 < b2:
                    pieces.append((b2 - a2, 0.5 * (a2 + b2), 0.5 * (abs(a2) + abs(b2)), h))
        return (math.fsum(h * w for w, _, _, h in pieces),
                math.fsum(h * w * m for w, m, _, h in pieces),
                math.fsum(abs(h) * w for w, _, _, h in pieces),
                math.fsum(abs(h) * w * (1.0 + m) for w, _, m, h in pieces))


_GAUSS = 1.0 / math.sqrt(3.0)  # 2-point Gauss-Legendre nodes on [-1, 1] are -+ this


@dataclass(frozen=True)
class TableShape(_Shape):
    """Samples connected by straight lines; zero outside the sampled hull."""

    x: tuple[float, ...]
    v: tuple[float, ...]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.x, self.v, left=0.0, right=0.0)

    def support(self):
        return (self.x[0], self.x[-1])

    def breakpoints(self):
        # kinks sit at the nodes and, for |V|, at interior sign changes
        pts = list(self.x)
        xv = np.asarray(self.x)
        vv = np.asarray(self.v)
        sign_flip = vv[:-1] * vv[1:] < 0.0
        for i in np.nonzero(sign_flip)[0]:
            t = vv[i] / (vv[i] - vv[i + 1])
            pts.append(float(xv[i] + t * (xv[i + 1] - xv[i])))
        return tuple(sorted(set(pts)))

    def integrals(self, lo, hi, coupling):
        """2-point Gauss-Legendre on the panels between breakpoints and 0.

        On each panel V, |V| and x are linear (no node, sign change or 0
        inside it), so V, x V, |V| and (1+|x|) |V| are at most quadratic
        and the rule, exact for cubics, gives their integrals exactly.
        """
        lo, hi = max(lo, self.x[0]), min(hi, self.x[-1])
        if not lo < hi:
            return 0.0, 0.0, 0.0, 0.0
        edges = np.array([lo, *sorted({b for b in (*self.breakpoints(), 0.0) if lo < b < hi}), hi])
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        x = np.concatenate([mid - _GAUSS * half, mid + _GAUSS * half])
        w = np.concatenate([half, half])
        v = coupling * self.value(x)
        return tuple(math.fsum(w * f) for f in (v, x * v, np.abs(v), (1.0 + np.abs(x)) * np.abs(v)))


@dataclass(frozen=True)
class ExpDecayShape(_Shape):
    """amplitude * exp(-rate * |x|); the only built-in with infinite support."""

    rate: float = 1.0
    amplitude: float = 1.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-self.rate * np.abs(x))

    def support(self):
        return None

    def breakpoints(self):
        return (0.0,)

    def integrals(self, lo, hi, coupling):
        """(int V, int x V, int |V|, int (1+|x|) |V|) over [lo, hi], folded at 0.

        V is even, so [lo, hi] splits at 0 and its left part is read as
        [-hi, -lo] with t V negated.  _window sums each part, finite or
        not, without cancelling, so only int t V over an interval around 0
        is a difference (of its two parts).
        """
        a = coupling * self.amplitude
        s_r, m_r, t_r = self._window(max(lo, 0.0), max(hi, 0.0))
        s_l, m_l, t_l = self._window(max(-hi, 0.0), max(-lo, 0.0))
        return a * (s_r + s_l), a * (m_r - m_l), abs(a) * (s_r + s_l), abs(a) * (t_r + t_l)

    def _window(self, a, b):
        """int_a^b (1, t, 1 + t) e^{-rate t} dt for 0 <= a <= b <= inf.

        With x = rate (b - a), int e^{-rt} = e^{-ra} (-expm1(-x)) / r and
        int t e^{-rt} = a int e^{-rt} + e^{-ra} g(x) / r^2, where
        g(x) = 1 - (1 + x) e^{-x} >= 0.  Both terms are nonnegative, and
        for x < 1/2, where g would cancel, it is summed as e^{-x} times the
        positive series sum_{n >= 2} x^n / n!.
        """
        if a == b:  # the empty half of a one-sided interval: skip the series
            return 0.0, 0.0, 0.0
        r = self.rate
        x = r * (b - a)
        e = math.exp(-r * a)
        s = -e * math.expm1(-x) / r
        if x < 0.5:
            g = math.exp(-x) * math.fsum(x**n / math.factorial(n) for n in range(2, 20))
        elif x == math.inf:
            g = 1.0  # x e^{-x} -> 0, but inf * 0 is nan
        else:
            g = -math.expm1(-x) - x * math.exp(-x)
        m = a * s + e * g / (r * r)
        return s, m, s + m

    def second_tail(self, y, coupling):
        """int |t| (1 + |t|) |V| over |t| >= |y|, on one side (V is even)."""
        r, y = self.rate, abs(y)
        poly = (y * y + y) / r + (2.0 * y + 1.0) / r**2 + 2.0 / r**3
        return abs(coupling * self.amplitude) * math.exp(-r * y) * poly


@dataclass(frozen=True)
class ScaledShape(_Shape):
    """eps^-2 * base(x / eps) where |x / eps| <= half_width, zero elsewhere.

    Squeezing and truncation both build this one form around an unscaled
    base: squeezing multiplies eps, and the window |x| <= w of the
    squeezed shape is |s| <= w / eps on the base's axis, so the form is
    canonical whatever order the transforms come in.
    """

    base: object
    eps: float
    half_width: float = math.inf

    def value(self, x):
        s = np.asarray(x, dtype=float) / self.eps
        return np.where(np.abs(s) <= self.half_width, self.base.value(s), 0.0) / self.eps**2

    def support(self):
        w = self.half_width
        lo, hi = self.base.support() or (-math.inf, math.inf)
        lo, hi = max(lo, -w), min(hi, w)
        # a window that holds none of V leaves a point, not an inverted interval
        return None if hi == math.inf else (self.eps * lo, self.eps * max(lo, hi))

    def breakpoints(self):
        w = self.half_width
        pts = {b for b in self.base.breakpoints() if -w <= b <= w}
        if w < math.inf:
            pts |= {-w, w}
        return tuple(self.eps * b for b in sorted(pts))

    def layers(self):
        inner = self.base.layers()
        if inner is None:
            return None
        e, w = self.eps, self.half_width
        return [(e * max(lo, -w), e * min(hi, w), h / e**2)
                for lo, hi, h in inner if max(lo, -w) < min(hi, w)]

    def integrals(self, lo, hi, coupling):
        """The base's integrals over [lo/eps, hi/eps] clipped to the window, mapped.

        Substituting x = eps s, int V and int |V| divide by eps, int x V is
        unchanged, and int (1+|x|) |V| becomes (1/eps - 1) int |V| + int (1+|s|) |V|.
        """
        e, w = self.eps, self.half_width
        lo, hi = max(lo / e, -w), min(hi / e, w)
        if not lo < hi:
            return 0.0, 0.0, 0.0, 0.0
        m0, m1, s, t = self.base.integrals(lo, hi, coupling)
        return m0 / e, m1, s / e, (1.0 / e - 1.0) * s + t

    def scaled(self, eps):
        return replace(self, eps=self.eps * eps)

    def truncated(self, half_width):
        return replace(self, half_width=min(self.half_width, half_width / self.eps))

    def dilation(self):
        window = self.base if self.half_width == math.inf else replace(self, eps=1.0)
        return window, self.eps


# ---------------------------------------------------------------------------
# the user-facing wrapper


@dataclass(frozen=True)
class Potential:
    """A shape together with a real coupling multiplier.

    A shape needs value, support and breakpoints to be solved; moments,
    fm_norm and tails also need its integrals, which every built-in shape
    has, and d_dot_zero on infinite support its second_tail.
    """

    shape: object
    coupling: float = 1.0

    def __call__(self, x):
        out = self.coupling * self.shape.value(x)
        if np.ndim(x) == 0:
            return float(out)
        return out

    def support(self):
        """Hull (lo, hi) outside of which V vanishes, or None when infinite."""
        return self.shape.support()

    def is_compact(self):
        return self.shape.support() is not None

    def breakpoints(self):
        return self.shape.breakpoints()

    def with_coupling(self, coupling):
        return replace(self, coupling=float(coupling))


def _finite(kind, *values):
    """values as floats; SpecError if any is not a number, NaN or infinite (json reads both).

    A bool or a string is no number, though float() reads one; potential_from_dict
    wraps the TypeError of None or a list.
    """
    text = [t for t in values if isinstance(t, (bool, str))]
    if text:
        raise SpecError(f"{kind} potential parameters must be numbers, got {text[0]!r}")
    out = [float(t) for t in values]
    if not all(map(math.isfinite, out)):
        raise SpecError(f"{kind} potential parameters and coupling must be finite")
    return out


def square(left, right, height, coupling=1.0):
    """Square well (height < 0) or barrier (height > 0) on [left, right]."""
    left, right, height, coupling = _finite("square", left, right, height, coupling)
    if not left < right:
        raise SpecError(f"square potential needs left < right, got [{left}, {right}]")
    return Potential(PiecewiseShape(((left, right, height),)), coupling)


def piecewise_constant(segments, coupling=1.0):
    segs = sorted(tuple(_finite("piecewise", lo, hi, h)) for lo, hi, h in segments)
    for lo, hi, _ in segs:
        if not lo < hi:
            raise SpecError(f"piecewise segment needs left < right, got [{lo}, {hi}]")
    for (_, hi, _), (lo2, _, _) in zip(segs, segs[1:]):
        if lo2 < hi:
            raise SpecError(f"piecewise segments overlap near x = {lo2}")
    return Potential(PiecewiseShape(tuple(segs)), *_finite("piecewise", coupling))


def tabulated(x, v, coupling=1.0):
    x, v = tuple(_finite("tabulated", *x)), tuple(_finite("tabulated", *v))
    if len(x) != len(v):
        raise SpecError("tabulated potential needs matching x and v lengths")
    if len(x) < 2:
        raise SpecError("tabulated potential needs at least two samples")
    if any(b <= a for a, b in zip(x, x[1:])):
        raise SpecError("tabulated grid must be strictly increasing")
    return Potential(TableShape(x, v), *_finite("tabulated", coupling))


def exp_decay(rate=1.0, amplitude=1.0, coupling=1.0):
    rate, amplitude, coupling = _finite("exp_decay", rate, amplitude, coupling)
    if rate <= 0:
        raise SpecError(f"exp_decay rate must be positive, got {rate}")
    return Potential(ExpDecayShape(rate, amplitude), coupling)


def zero():
    """The free line, V = 0."""
    return Potential(PiecewiseShape(()))


# ---------------------------------------------------------------------------
# transforms


def scale(p: Potential, eps: float) -> Potential:
    """The squeezed family V_eps(x) = eps^-2 V(x/eps).

    Composes exactly: scale(scale(p, e1), e2) is the same object tree as
    scale(p, e1*e2), so repeated rescaling never accumulates error.
    """
    if not 0 < eps < math.inf:
        raise SpecError(f"scale factor must be positive and finite, got {eps}")
    return replace(p, shape=p.shape.scaled(float(eps)))


def truncate(p: Potential, half_width: float) -> Potential:
    """Restrict V to the window [-half_width, half_width]."""
    if not half_width > 0:  # NaN fails this too; an infinite window keeps all of V
        raise SpecError(f"truncation half-width must be positive, got {half_width}")
    return replace(p, shape=p.shape.truncated(float(half_width)))


# ---------------------------------------------------------------------------
# integrals


def moments(p: Potential):
    """(m0, m1) = (int V dx, int x V dx), in closed form."""
    m0, m1, _, _ = p.shape.integrals(-math.inf, math.inf, p.coupling)
    return m0, m1


def fm_norm(p: Potential) -> float:
    """The weighted norm int (1+|x|) |V(x)| dx, in closed form."""
    return p.shape.integrals(-math.inf, math.inf, p.coupling)[3]


@dataclass(frozen=True)
class TailData:
    """One-sided tail integrals of |V| at a point x.

    sigma_minus = int_{-inf}^x |V|,     sigma_plus = int_x^{inf} |V|,
    tau_minus   = int_{-inf}^x (1+|t|) |V|,  tau_plus likewise to the right.
    """

    x: float
    sigma_minus: float
    sigma_plus: float
    tau_minus: float
    tau_plus: float


def tails(p: Potential, x: float) -> TailData:
    """Tail integrals of |V| and (1+|t|) |V| on each side of x, in closed form."""
    _, _, sm, tm = p.shape.integrals(-math.inf, x, p.coupling)
    _, _, sp, tp = p.shape.integrals(x, math.inf, p.coupling)
    return TailData(float(x), sm, sp, tm, tp)


# ---------------------------------------------------------------------------
# the splitting scale


@dataclass(frozen=True)
class SplittingScale:
    """Window radius for the squeezed potential at a given eps.

    xi_eps solves rho(xi) = 1/eps on the unscaled axis; x_eps = eps*xi_eps
    is the corresponding window half-width after squeezing.  The window
    shrinks (x_eps -> 0) while growing on the unscaled axis (xi_eps -> inf),
    so the windowed potential contracts to a point while keeping ever
    more of V.
    """

    eps: float
    xi_eps: float
    x_eps: float


def _rho(p: Potential, x: float) -> float:
    x = abs(x)
    tau = p.shape.integrals(x, math.inf, p.coupling)[3] + p.shape.integrals(-math.inf, -x, p.coupling)[3]
    if tau <= 0.0:
        return math.inf
    return (1.0 + abs(x)) / tau**0.5


def splitting_scale(p: Potential, eps: float) -> SplittingScale:
    """Solve rho(xi) = 1/eps for the window radius xi_eps.

    For compact support rho(x) = 1 + x^2, so xi_eps = sqrt(1/eps - 1).
    Otherwise rho(x) = (1+|x|) / tau(x)^(1/2) with tau the two-sided
    weighted tail mass; any fixed exponent in (0, 1) keeps rho divergent
    and monotone for integrable tails, and this one is 1/2.  Its root is
    found by bracket doubling plus bisection to 1e-12 relative width.
    """
    if not eps > 0:  # NaN fails this too
        raise SpecError(f"eps must be positive, got {eps}")
    target = 1.0 / eps
    compact = p.is_compact()
    rho0 = 1.0 if compact else _rho(p, 0.0)
    if rho0 >= target:
        eps0 = 1.0 / rho0
        raise SpecError(
            f"eps = {eps:g} is too large for this potential; the splitting scale "
            f"exists only for eps < {eps0:g}"
        )
    if compact:
        xi = math.sqrt(target - 1.0)
        return SplittingScale(float(eps), xi, eps * xi)
    hi = 1.0
    for _ in range(80):
        if _rho(p, hi) > target:
            break
        hi *= 2.0
    else:
        raise SpecError("splitting scale bracket search ran away; tail mass may not decay")
    lo = 0.0
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if _rho(p, mid) > target:
            hi = mid
        else:
            lo = mid
    xi = 0.5 * (lo + hi)
    return SplittingScale(float(eps), xi, eps * xi)


def tail_weight_norm(p: Potential, eps: float) -> float:
    """eps^-1 * int_{|s| > xi_eps} |V(s)| ds, with xi_eps from splitting_scale.

    This is the squared norm of the off-window part of the squeezed
    potential seen as a perturbation; it must vanish as eps -> 0 for the
    window construction to be consistent.  Identically zero once xi_eps
    clears a compact support.
    """
    xi = splitting_scale(p, eps).xi_eps
    return (p.shape.integrals(xi, math.inf, p.coupling)[2]
            + p.shape.integrals(-math.inf, -xi, p.coupling)[2]) / eps


# ---------------------------------------------------------------------------
# JSON descriptions


def potential_from_dict(spec: dict) -> Potential:
    """Build a Potential from {"kind": ..., "params": ..., "coupling": ...}."""
    if not isinstance(spec, dict):
        raise SpecError("potential description must be a JSON object")
    try:
        kind = spec["kind"]
    except KeyError:
        raise SpecError('potential description is missing "kind"') from None
    params = spec.get("params", {})
    coupling = spec.get("coupling", 1.0)
    if not isinstance(coupling, (int, float)) or isinstance(coupling, bool):
        raise SpecError(f'"coupling" must be a number, got {coupling!r}')
    try:
        if kind == "square":
            return square(params["left"], params["right"], params["height"], coupling)
        if kind == "piecewise":
            if not isinstance(params, list):
                raise SpecError('"piecewise" params must be an array of segments')
            segs = [(s["left"], s["right"], s["height"]) for s in params]
            return piecewise_constant(segs, coupling)
        if kind == "table":
            return tabulated(params["x"], params["v"], coupling)
        if kind == "exp_decay":
            if not isinstance(params, dict):
                raise SpecError('"exp_decay" params must be an object')
            return exp_decay(params.get("rate", 1.0), params.get("amplitude", 1.0), coupling)
    except (KeyError, TypeError) as exc:
        raise SpecError(f"malformed parameters for kind {kind!r}: {exc}") from None
    raise SpecError(f"unknown potential kind {kind!r}")


def load_potential(path) -> Potential:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read potential file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"potential file is not valid JSON: {exc}") from None
    return potential_from_dict(spec)
