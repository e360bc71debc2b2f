"""Potential models for the half-line-integrable scattering problem.

A potential here is a real function V on the line with finite weighted
norm  int (1+|x|) |V(x)| dx  (the natural class for Jost theory).  The
module provides a few concrete shapes (square wells and barriers,
piecewise-constant profiles, tabulated samples with linear
interpolation, exponentially decaying tails), exact rescaling
x -> eps^-2 V(x/eps), truncation to a window, and the integral
functionals the scattering code needs: moments, the weighted norm,
one-sided tails, and the splitting scale that separates a shrinking
potential core from the surrounding free region.

Closed forms come first.  For a piecewise-constant potential the
moments, the weighted norm and the tails are sums of exact per-layer
integrals, with each layer split at x = 0 and at the tail point.  A
shape with a tails(x, coupling) method (exp_decay, and a squeezed shape
whose base has one) gets its one-sided tails from it.  Everything else
goes through adaptive Gauss-Kronrod quadrature (scipy's QUADPACK) with
explicit subdivision at every breakpoint of the model and at x = 0 (the
kink of the weight 1 + |x|), so integrands are smooth on each panel;
improper integrals over infinite tails use QUADPACK's own variable
transformation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

from .errors import QuadratureError, SpecError

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
    "piecewise_segments",
]


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class SquareShape:
    left: float
    right: float
    height: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.left) & (x <= self.right), self.height, 0.0)

    def support(self):
        return (self.left, self.right)

    def breakpoints(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class PiecewiseShape:
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


@dataclass(frozen=True)
class TableShape:
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


@dataclass(frozen=True)
class ExpDecayShape:
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

    def tails(self, x, coupling):
        """TailData of coupling * self at x, in closed form."""
        a, r = abs(coupling * self.amplitude), self.rate
        x = float(x)

        def sigma(y):  # int_y^inf e^{-r|t|} dt
            return math.exp(-r * y) / r if y >= 0 else (2.0 - math.exp(r * y)) / r

        def tau(y):  # int_y^inf (1+|t|) e^{-r|t|} dt
            g = math.exp(-r * abs(y)) * ((1.0 + abs(y)) / r + 1.0 / r**2)
            return g if y >= 0 else 2.0 * (1.0 / r + 1.0 / r**2) - g

        return TailData(x, a * sigma(-x), a * sigma(x), a * tau(-x), a * tau(x))


@dataclass(frozen=True)
class ScaledShape:
    """eps^-2 * base(x / eps)."""

    base: object
    eps: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.base.value(x / self.eps) / self.eps**2

    def support(self):
        s = self.base.support()
        if s is None:
            return None
        return (self.eps * s[0], self.eps * s[1])

    def breakpoints(self):
        return tuple(self.eps * b for b in self.base.breakpoints())

    def tails(self, x, coupling):
        """TailData of coupling * self at x from the base's closed form (None if it has none).

        Substituting t = eps s in the tail integrals gives
        sigma_eps(x) = sigma(x/eps)/eps and
        tau_eps(x) = (1/eps - 1) sigma(x/eps) + tau(x/eps), on both sides.
        """
        closed = getattr(self.base, "tails", None)
        if closed is None:
            return None
        e = self.eps
        td = closed(x / e, coupling)
        return TailData(float(x), td.sigma_minus / e, td.sigma_plus / e,
                        (1.0 / e - 1.0) * td.sigma_minus + td.tau_minus,
                        (1.0 / e - 1.0) * td.sigma_plus + td.tau_plus)


@dataclass(frozen=True)
class TruncatedShape:
    """base(x) restricted to the window |x| <= half_width."""

    base: object
    half_width: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= self.half_width, self.base.value(x), 0.0)

    def support(self):
        w = self.half_width
        s = self.base.support()
        if s is None:
            return (-w, w)
        return (max(s[0], -w), min(s[1], w))

    def breakpoints(self):
        w = self.half_width
        pts = [b for b in self.base.breakpoints() if -w <= b <= w]
        pts.extend((-w, w))
        return tuple(sorted(set(pts)))


# ---------------------------------------------------------------------------
# the user-facing wrapper


@dataclass(frozen=True)
class Potential:
    """A shape together with a real coupling multiplier."""

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


def square(left, right, height, coupling=1.0):
    """Square well (height < 0) or barrier (height > 0) on [left, right]."""
    if not left < right:
        raise SpecError(f"square potential needs left < right, got [{left}, {right}]")
    return Potential(SquareShape(float(left), float(right), float(height)), float(coupling))


def piecewise_constant(segments, coupling=1.0):
    segs = sorted((float(lo), float(hi), float(h)) for lo, hi, h in segments)
    for lo, hi, _ in segs:
        if not lo < hi:
            raise SpecError(f"piecewise segment needs left < right, got [{lo}, {hi}]")
    for (_, hi, _), (lo2, _, _) in zip(segs, segs[1:]):
        if lo2 < hi:
            raise SpecError(f"piecewise segments overlap near x = {lo2}")
    return Potential(PiecewiseShape(tuple(segs)), float(coupling))


def tabulated(x, v, coupling=1.0):
    x = tuple(float(t) for t in x)
    v = tuple(float(t) for t in v)
    if len(x) != len(v):
        raise SpecError("tabulated potential needs matching x and v lengths")
    if len(x) < 2:
        raise SpecError("tabulated potential needs at least two samples")
    if any(b <= a for a, b in zip(x, x[1:])):
        raise SpecError("tabulated grid must be strictly increasing")
    return Potential(TableShape(x, v), float(coupling))


def exp_decay(rate=1.0, amplitude=1.0, coupling=1.0):
    if rate <= 0:
        raise SpecError(f"exp_decay rate must be positive, got {rate}")
    return Potential(ExpDecayShape(float(rate), float(amplitude)), float(coupling))


def zero():
    """The free line, V = 0."""
    return Potential(PiecewiseShape(()))


def piecewise_segments(p: Potential):
    """Contiguous (left, right, height) layers with coupling folded in.

    Returns None when the potential is not piecewise constant.  Gaps
    between declared segments come back as explicit zero-height layers,
    so the result always tiles an interval.
    """
    segs = _raw_segments(p.shape)
    if segs is None:
        return None
    segs = [(lo, hi, p.coupling * h) for lo, hi, h in segs]
    if not segs:
        return []
    segs.sort()
    out = []
    for lo, hi, h in segs:
        if out and lo > out[-1][1]:
            out.append((out[-1][1], lo, 0.0))
        out.append((lo, hi, h))
    return out


def _raw_segments(shape):
    if isinstance(shape, SquareShape):
        return [(shape.left, shape.right, shape.height)]
    if isinstance(shape, PiecewiseShape):
        return list(shape.segments)
    if isinstance(shape, ScaledShape):
        inner = _raw_segments(shape.base)
        if inner is None:
            return None
        e = shape.eps
        return [(e * lo, e * hi, h / e**2) for lo, hi, h in inner]
    if isinstance(shape, TruncatedShape):
        inner = _raw_segments(shape.base)
        if inner is None:
            return None
        w = shape.half_width
        out = []
        for lo, hi, h in inner:
            lo2, hi2 = max(lo, -w), min(hi, w)
            if lo2 < hi2:
                out.append((lo2, hi2, h))
        return out
    return None


# ---------------------------------------------------------------------------
# transforms


def scale(p: Potential, eps: float) -> Potential:
    """The squeezed family V_eps(x) = eps^-2 V(x/eps).

    Composes exactly: scale(scale(p, e1), e2) is the same object tree as
    scale(p, e1*e2), so repeated rescaling never accumulates error.
    """
    if eps <= 0:
        raise SpecError(f"scale factor must be positive, got {eps}")
    shape = p.shape
    if isinstance(shape, ScaledShape):
        return replace(p, shape=ScaledShape(shape.base, shape.eps * eps))
    return replace(p, shape=ScaledShape(shape, float(eps)))


def truncate(p: Potential, half_width: float) -> Potential:
    """Restrict V to the window [-half_width, half_width]."""
    if half_width <= 0:
        raise SpecError(f"truncation half-width must be positive, got {half_width}")
    shape = p.shape
    if isinstance(shape, TruncatedShape):
        return replace(p, shape=TruncatedShape(shape.base, min(shape.half_width, float(half_width))))
    return replace(p, shape=TruncatedShape(shape, float(half_width)))


# ---------------------------------------------------------------------------
# quadrature plumbing


def _panels(p: Potential, lo, hi):
    # x = 0 is a cut too: it is the kink of the weight 1 + |x|
    cuts = [b for b in (*p.breakpoints(), 0.0) if lo < b < hi]
    edges = [lo] + sorted(set(cuts)) + [hi]
    return list(zip(edges, edges[1:]))


def _integrate(p: Potential, fn, lo, hi, quad_tol):
    """Integrate fn(x) over [lo, hi] splitting at model breakpoints.

    fn must vanish wherever V does; the hull clip below relies on that.
    Returns (value, relative_error): QUADPACK's summed error estimate over
    max(1, sum of |panel values|), so acceptance scales with the integral
    and a strong V is not held to an absolute tolerance.
    """
    sup = p.support()
    if sup is not None:
        lo = max(lo, sup[0])
        hi = min(hi, sup[1])
        if not lo < hi:
            return 0.0, 0.0
    panels = _panels(p, lo, hi)
    budget = quad_tol / max(len(panels), 1)
    total = 0.0
    size = 0.0
    err = 0.0
    for a, b in panels:
        val, e = quad(fn, a, b, epsabs=budget, epsrel=1e-11, limit=200)
        total += val
        size += abs(val)
        err += e
    return total, err / max(1.0, size)


def _layer_pieces(segs, lo=-math.inf, hi=math.inf):
    """(width, mean of x, mean of |x|, height) of each layer clipped to [lo, hi] and split at 0.

    On a piece that does not cross 0, |x| is linear, so the integral of
    h * w(x) for w = 1, x, |x| or 1 + |x| is h * width * (mean of w), exactly.
    """
    for a, b, h in segs:
        a, b = max(a, lo), min(b, hi)
        for a2, b2 in ((a, min(b, 0.0)), (max(a, 0.0), b)):
            if a2 < b2:
                yield b2 - a2, 0.5 * (a2 + b2), 0.5 * (abs(a2) + abs(b2)), h


def moments(p: Potential, quad_tol: float = 1e-10):
    """(m0, m1) = (int V dx, int x V dx), each to relative quad_tol.

    Sums over layers in closed form for a piecewise-constant potential.
    """
    segs = piecewise_segments(p)
    if segs is not None:
        pieces = list(_layer_pieces(segs))
        return (math.fsum(h * w for w, _, _, h in pieces),
                math.fsum(h * w * m for w, m, _, h in pieces))
    m0, e0 = _integrate(p, lambda x: p(x), -math.inf, math.inf, quad_tol)
    m1, e1 = _integrate(p, lambda x: x * p(x), -math.inf, math.inf, quad_tol)
    if e0 > quad_tol or e1 > quad_tol:
        raise QuadratureError(
            f"moment quadrature did not reach {quad_tol:g} (achieved {max(e0, e1):.3g})",
            achieved=max(e0, e1),
        )
    return m0, m1


def _weighted_mass(segs, lo=-math.inf, hi=math.inf):
    """(int |V|, int (1+|x|) |V|) over [lo, hi] for layers segs, in closed form."""
    pieces = list(_layer_pieces(segs, lo, hi))
    return (math.fsum(abs(h) * w for w, _, _, h in pieces),
            math.fsum(abs(h) * w * (1.0 + m) for w, _, m, h in pieces))


def fm_norm(p: Potential, quad_tol: float = 1e-10) -> float:
    """The weighted norm int (1+|x|) |V(x)| dx.

    Finite for every shape this module builds; returns math.inf when an
    infinite-support tail refuses to converge to relative quad_tol, as a
    flag rather than an exception.  Closed form for piecewise-constant
    potentials.
    """
    segs = piecewise_segments(p)
    if segs is not None:
        return _weighted_mass(segs)[1]
    val, err = _integrate(p, lambda x: (1.0 + abs(x)) * abs(p(x)), -math.inf, math.inf, quad_tol)
    if err > quad_tol:
        if p.support() is None:
            return math.inf
        raise QuadratureError(
            f"weighted-norm quadrature did not reach {quad_tol:g} (achieved {err:.3g})",
            achieved=err,
        )
    return val


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


def tails(p: Potential, x: float, quad_tol: float = 1e-10) -> TailData:
    """Tail integrals at x: closed form when the shape has one, else quadrature.

    Closed forms: a shape's own tails(x, coupling) (exp_decay, and a
    squeezed shape whose base has one) and sums over layers for a
    piecewise-constant potential.  Each quadrature is accepted at
    relative quad_tol (see _integrate).
    """
    closed = getattr(p.shape, "tails", None)
    td = closed(x, p.coupling) if closed is not None else None
    if td is not None:
        return td
    segs = piecewise_segments(p)
    if segs is not None:
        (sm, tm), (sp, tp) = _weighted_mass(segs, hi=x), _weighted_mass(segs, lo=x)
        return TailData(float(x), sm, sp, tm, tp)
    sm, e1 = _integrate(p, lambda t: abs(p(t)), -math.inf, x, quad_tol)
    sp, e2 = _integrate(p, lambda t: abs(p(t)), x, math.inf, quad_tol)
    tm, e3 = _integrate(p, lambda t: (1.0 + abs(t)) * abs(p(t)), -math.inf, x, quad_tol)
    tp, e4 = _integrate(p, lambda t: (1.0 + abs(t)) * abs(p(t)), x, math.inf, quad_tol)
    worst = max(e1, e2, e3, e4)
    if worst > quad_tol:
        raise QuadratureError(
            f"tail quadrature did not reach {quad_tol:g} (achieved {worst:.3g})", achieved=worst
        )
    return TailData(float(x), sm, sp, tm, tp)


# ---------------------------------------------------------------------------
# the splitting scale


@dataclass(frozen=True)
class SplittingScale:
    """Matching radius for the squeezed potential at a given eps.

    xi_eps solves rho(xi) = 1/eps on the unscaled axis; x_eps = eps*xi_eps
    is the corresponding window half-width after squeezing.  The window
    shrinks (x_eps -> 0) while growing on the unscaled axis (xi_eps -> inf),
    which is what lets plane-wave matching and the unscaled Jost solutions
    meet in the middle.
    """

    eps: float
    xi_eps: float
    x_eps: float


def _rho(p: Potential, x: float, alpha_weight: float, quad_tol: float) -> float:
    td = tails(p, abs(x), quad_tol)
    td2 = tails(p, -abs(x), quad_tol)
    tau = td.tau_plus + td2.tau_minus
    if tau <= 0.0:
        return math.inf
    return (1.0 + abs(x)) / tau**alpha_weight


def splitting_scale(
    p: Potential, eps: float, alpha_weight: float = 0.5, quad_tol: float = 1e-10
) -> SplittingScale:
    """Solve rho(xi) = 1/eps for the matching radius xi_eps.

    For compact support rho(x) = 1 + x^2, so xi_eps = sqrt(1/eps - 1).
    Otherwise rho(x) = (1+|x|) / tau(x)^alpha_weight with tau the
    two-sided weighted tail mass, which still diverges and stays monotone
    for integrable tails; its root is found by bracket doubling plus
    bisection to 1e-12 relative width.
    """
    if eps <= 0:
        raise SpecError(f"eps must be positive, got {eps}")
    if not 0.0 < alpha_weight < 1.0:
        raise SpecError(f"alpha_weight must lie in (0, 1), got {alpha_weight}")
    target = 1.0 / eps
    compact = p.is_compact()
    rho0 = 1.0 if compact else _rho(p, 0.0, alpha_weight, quad_tol)
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
        if _rho(p, hi, alpha_weight, quad_tol) > target:
            break
        hi *= 2.0
    else:
        raise SpecError("splitting scale bracket search ran away; tail mass may not decay")
    lo = 0.0
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if _rho(p, mid, alpha_weight, quad_tol) > target:
            hi = mid
        else:
            lo = mid
    xi = 0.5 * (lo + hi)
    return SplittingScale(float(eps), xi, eps * xi)


def tail_weight_norm(
    p: Potential, eps: float, alpha_weight: float = 0.5, quad_tol: float = 1e-10
) -> float:
    """eps^-1 * int_{|s| > xi_eps} |V(s)| ds.

    This is the squared norm of the off-window part of the squeezed
    potential seen as a perturbation; it must vanish as eps -> 0 for the
    window construction to be consistent.  Identically zero once xi_eps
    clears a compact support.
    """
    ss = splitting_scale(p, eps, alpha_weight, quad_tol)
    td = tails(p, ss.xi_eps, quad_tol)
    td2 = tails(p, -ss.xi_eps, quad_tol)
    return (td.sigma_plus + td2.sigma_minus) / eps


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
