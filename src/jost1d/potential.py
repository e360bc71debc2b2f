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
from functools import cached_property

import numpy as np

from .errors import SpecError, _points, _real

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
        return np.interp(x, *self._samples, left=0.0, right=0.0)

    def support(self):
        return (self.x[0], self.x[-1])

    def breakpoints(self):
        return self._breakpoints

    # read once per shape: cached in the instance, outside the fields, so ==, hash
    # and repr see only x and v, and replace() builds a shape with no caches
    @cached_property
    def _samples(self):
        return np.asarray(self.x, dtype=float), np.asarray(self.v, dtype=float)

    @cached_property
    def _breakpoints(self):
        # kinks sit at the nodes and, for |V|, at interior sign changes
        xv, vv = self._samples
        i = np.nonzero(vv[:-1] * vv[1:] < 0.0)[0]
        t = vv[i] / (vv[i] - vv[i + 1])
        return tuple(sorted({*self.x, *(xv[i] + t * (xv[i + 1] - xv[i])).tolist()}))

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

    def __post_init__(self):
        object.__setattr__(self, "coupling", _real(self.coupling, "coupling must be a finite real number"))

    def __call__(self, x):
        out = self.coupling * self.shape.value(_points(x))
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
        return replace(self, coupling=coupling)


def _numbers(kind, values, count=None):
    """values, a sequence of count (any number if None) finite reals, as a tuple of floats.

    json reads NaN and Infinity, so a description can carry them.
    """
    what = f"{kind} potential parameters must be numbers, real and finite"
    row = tuple(values) if np.iterable(values) else None
    if row is None or count not in (None, len(row)):
        length = "" if count is None else f" of length {count}"
        raise SpecError(f"{kind} potential needs a sequence of numbers{length}, got {values!r}")
    return tuple(_real(t, what) for t in row)


def square(left, right, height, coupling=1.0):
    """Square well (height < 0) or barrier (height > 0) on [left, right]."""
    left, right, height = _numbers("square", (left, right, height))
    if not left < right:
        raise SpecError(f"square potential needs left < right, got [{left}, {right}]")
    return Potential(PiecewiseShape(((left, right, height),)), coupling)


def piecewise_constant(segments, coupling=1.0):
    # a lone number is read, and rejected, as a segment
    segs = sorted(_numbers("piecewise", seg, 3)
                  for seg in (segments if np.iterable(segments) else [segments]))
    for lo, hi, _ in segs:
        if not lo < hi:
            raise SpecError(f"piecewise segment needs left < right, got [{lo}, {hi}]")
    for (_, hi, _), (lo2, _, _) in zip(segs, segs[1:]):
        if lo2 < hi:
            raise SpecError(f"piecewise segments overlap near x = {lo2}")
    return Potential(PiecewiseShape(tuple(segs)), coupling)


def tabulated(x, v, coupling=1.0):
    x, v = _numbers("tabulated", x), _numbers("tabulated", v)
    if len(x) != len(v):
        raise SpecError("tabulated potential needs matching x and v lengths")
    if len(x) < 2:
        raise SpecError("tabulated potential needs at least two samples")
    if any(b <= a for a, b in zip(x, x[1:])):
        raise SpecError("tabulated grid must be strictly increasing")
    return Potential(TableShape(x, v), coupling)


def exp_decay(rate=1.0, amplitude=1.0, coupling=1.0):
    rate, amplitude = _numbers("exp_decay", (rate, amplitude))
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
    factor = _real(eps, "scale factor must be positive and finite", 0.0)
    return replace(p, shape=p.shape.scaled(factor))


def truncate(p: Potential, half_width: float) -> Potential:
    """Restrict V to the window [-half_width, half_width]."""
    # an infinite window keeps all of V
    width = _real(half_width, "truncation half-width must be positive", 0.0, closed=True)
    return replace(p, shape=p.shape.truncated(width))


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
    """Tail integrals of |V| and (1+|t|) |V| on each side of a finite point x, in closed form."""
    x = _real(x, "tail point must be a finite real number")
    _, _, sm, tm = p.shape.integrals(-math.inf, x, p.coupling)
    _, _, sp, tp = p.shape.integrals(x, math.inf, p.coupling)
    return TailData(x, sm, sp, tm, tp)


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


def _tau(p: Potential, x: float) -> float:
    """The two-sided weighted tail mass int_{|t| > |x|} (1 + |t|) |V|."""
    x = abs(x)
    return p.shape.integrals(x, math.inf, p.coupling)[3] + p.shape.integrals(-math.inf, -x, p.coupling)[3]


def _gap(p: Potential, x: float, log_eps: float) -> float:
    """log(rho(x) eps), read from the tail mass alone; +inf where the mass underflows to 0."""
    tau = _tau(p, x)
    return math.inf if tau <= 0.0 else math.log1p(x) - 0.5 * math.log(tau) + log_eps


def splitting_scale(p: Potential, eps: float) -> SplittingScale:
    """Solve rho(xi) = 1/eps for the window radius xi_eps.

    For compact support rho(x) = 1 + x^2, so xi_eps = sqrt(1/eps - 1).
    Otherwise rho(x) = (1+|x|) / tau(x)^(1/2) with tau the two-sided
    weighted tail mass; any fixed exponent in (0, 1) keeps rho divergent
    and monotone for integrable tails, and this one is 1/2.  The root of
    g = log(rho eps) = log1p(x) - log(tau)/2 + log(eps) is bracketed by
    doubling from [0, 1], g(0) >= 0 meaning eps is too large, and the last
    two points of the doubling are the bracket of an Illinois secant
    (regula falsi that halves the g of an end kept twice running; Dowell
    and Jarratt, BIT 11, 1971).  It reads tau's closed form alone, never
    V, and a point whose tau underflows to 0 (g = +inf) bisects.  It stops
    once |g| <= 1e-14, or once the bracket is below 1e-12 relative, at
    that bracket's secant point.
    """
    # eps = inf is too large, as is any eps >= 1 / rho(0), and says so below
    eps = _real(eps, "eps must be positive", 0.0, closed=True)
    log_eps, compact = math.log(eps), p.is_compact()
    lo, g_lo = 0.0, (log_eps if compact else _gap(p, 0.0, log_eps))  # rho(0) = 1 when compact
    if g_lo >= 0.0:
        eps0 = 1.0 if compact else math.sqrt(_tau(p, 0.0))  # 1 / rho(0)
        raise SpecError(f"eps = {eps:g} is too large for this potential; the splitting scale "
                        f"exists only for eps < {eps0:g}")
    if compact:
        xi = math.sqrt(1.0 / eps - 1.0)
        return SplittingScale(eps, xi, eps * xi)
    hi, kept = 1.0, 0  # kept: 1 after a secant step that moved hi, -1 after one that moved lo
    for _ in range(80):
        g_hi = _gap(p, hi, log_eps)
        if g_hi > 0.0:
            break
        lo, g_lo, hi = hi, g_hi, 2.0 * hi
    else:
        raise SpecError("splitting scale bracket search ran away; tail mass may not decay")
    for _ in range(200):  # g(lo) <= 0 < g(hi)
        x = 0.5 * (lo + hi) if g_hi == math.inf else hi - g_hi * (hi - lo) / (g_hi - g_lo)
        # a bracket this narrow returns its secant point x without reading g there
        if hi - lo <= 1e-12 * hi or abs(g := _gap(p, x, log_eps)) <= 1e-14:
            break
        if g > 0.0:
            hi, g_hi, g_lo, kept = x, g, g_lo * (0.5 if kept > 0 else 1.0), 1
        else:
            lo, g_lo, g_hi, kept = x, g, g_hi * (0.5 if kept < 0 else 1.0), -1
    return SplittingScale(eps, x, eps * x)


def tail_weight_norm(p: Potential, eps: float) -> float:
    """eps^-1 * int_{|s| > xi_eps} |V(s)| ds, with xi_eps from splitting_scale.

    This is the squared norm of the off-window part of the squeezed
    potential seen as a perturbation; it must vanish as eps -> 0 for the
    window construction to be consistent.  Identically zero once xi_eps
    clears a compact support.
    """
    ss = splitting_scale(p, eps)
    return (p.shape.integrals(ss.xi_eps, math.inf, p.coupling)[2]
            + p.shape.integrals(-math.inf, -ss.xi_eps, p.coupling)[2]) / ss.eps


# ---------------------------------------------------------------------------
# JSON descriptions


def potential_from_dict(spec: dict) -> Potential:
    """Build a Potential from {"kind": ..., "params": ..., "coupling": ...}.

    A key the description does not read, at the top or in params (per
    segment for piecewise), raises SpecError rather than leaving its
    parameter at the default.
    """
    if not isinstance(spec, dict):
        raise SpecError("potential description must be a JSON object")
    _known(spec, "the potential description", "kind", "params", "coupling")
    try:
        kind = spec["kind"]
    except KeyError:
        raise SpecError('potential description is missing "kind"') from None
    params = spec.get("params", {})
    coupling = spec.get("coupling", 1.0)  # read, as every parameter, by the constructor
    edges = ("left", "right", "height")
    try:
        if kind == "square":
            _known(params, "square params", *edges)
            return square(params["left"], params["right"], params["height"], coupling)
        if kind == "piecewise":
            if not isinstance(params, list):
                raise SpecError('"piecewise" params must be an array of segments')
            segs = [_known(s, "a piecewise segment", *edges) for s in params]
            return piecewise_constant([(s["left"], s["right"], s["height"]) for s in segs],
                                      coupling)
        if kind == "table":
            _known(params, "table params", "x", "v")
            return tabulated(params["x"], params["v"], coupling)
        if kind == "exp_decay":
            if not isinstance(params, dict):
                raise SpecError('"exp_decay" params must be an object')
            _known(params, "exp_decay params", "rate", "amplitude")
            return exp_decay(params.get("rate", 1.0), params.get("amplitude", 1.0), coupling)
    except (KeyError, TypeError) as exc:
        raise SpecError(f"malformed parameters for kind {kind!r}: {exc}") from None
    raise SpecError(f"unknown potential kind {kind!r}")


def _known(d, where, *allowed):
    """d, unless it is an object holding a key outside allowed: then SpecError names that key."""
    unknown = [key for key in d if key not in allowed] if isinstance(d, dict) else []
    if unknown:
        raise SpecError(f"unknown key {unknown[0]!r} in {where}; allowed keys: "
                        f"{', '.join(allowed)}")
    return d


def load_potential(path) -> Potential:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read potential file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"potential file is not valid JSON: {exc}") from None
    return potential_from_dict(spec)
