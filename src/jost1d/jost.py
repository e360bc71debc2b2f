"""Jost solutions and scattering data on the line.

Conventions.  Wavenumbers live in the closed upper half plane
(Im k >= 0).  The right Jost solution f_+ solves -y'' + V y = k^2 y with
f_+ ~ e^{ikx} as x -> +inf; the left solution f_- ~ e^{-ikx} as
x -> -inf.  Their Wronskian W{f_+, f_-} = f_+ f_-' - f_+' f_- is
constant in x; for V = 0 it equals -2ik.  Writing
f_+ = a e^{ikx} + b e^{-ikx} on the far left defines the coefficients
from which reflection r = b/a and transmission t = 1/a follow, and
a = W / (-2ik).

Numerics.  Piecewise-constant potentials go through the exact transfer
route in jost1d.transfer.  Everything else goes through a 4th-order
Magnus panel propagator (transfer.magnus_entries): each step samples V
at its two Gauss points and applies the closed-form exponential of a
traceless 2x2 matrix, which is exact for the free part of the equation
at any k.  The mesh starts from the potential's breakpoints, so no step
crosses a kink, and every step whose one-step and two-half-step maps
differ by more than its share of tol is halved until none does.  The
node states come from a prefix product of the step maps taken from the
anchor; between nodes one partial step from the anchor-side node gives
(f, f').  The anchor sits at the support edge when the support is
compact, otherwise at a point where the weighted tail has dropped below
tolerance, and the achieved tail mass is recorded as error_bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AnchorError,
    ExceptionalPointError,
    IntegrationError,
    SpecError,
)
from .potential import Potential, piecewise_segments, tails
from .transfer import NodalJost, PiecewiseJost, magnus_entries

__all__ = [
    "JostSolution",
    "ScatteringData",
    "GreenKernelSample",
    "jost_right",
    "jost_left",
    "jost_evaluator",
    "jost_wronskian",
    "wronskian",
    "wronskian_variation",
    "scattering",
    "scaled_scattering_identity",
]


def check_wavenumber(k, allow_zero=False):
    k = complex(k)
    if k.imag < 0:
        raise SpecError(f"wavenumber must satisfy Im k >= 0, got {k}")
    if k == 0 and not allow_zero:
        raise SpecError("k = 0 is not allowed here")
    return k


# ---------------------------------------------------------------------------
# sampled solutions


@dataclass(frozen=True, eq=False)
class JostSolution:
    """Samples of a Jost solution and its x-derivative on a grid.

    anchor is where the plane-wave condition was imposed;  error_bound is
    the weighted tail mass beyond the anchor (zero for compact support),
    which controls how far the true solution can drift from the imposed
    plane wave there.
    """

    side: str
    k: complex
    grid: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    anchor: float
    error_bound: float


@dataclass(frozen=True)
class ScatteringData:
    """Plane-wave coefficients of f_+ and the derived reflection data.

    a and b are None for idealized limit operators that have no finite
    Jost expansion (the decoupled half-line limit).  wronskian_gap is the
    relative defect of the cross-check a = W{f_+, f_-}/(-2ik), computed
    only where both solutions were constructed.
    """

    k: complex
    a: complex | None
    b: complex | None
    r: complex
    t: complex
    wronskian_gap: float | None = None

    def unitarity_defect(self) -> float:
        """| |r|^2 + |t|^2 - 1 |, which vanishes for real k and real V."""
        return abs(abs(self.r) ** 2 + abs(self.t) ** 2 - 1.0)


@dataclass(frozen=True)
class GreenKernelSample:
    k: complex
    x: float
    y: float
    value: complex


# ---------------------------------------------------------------------------
# the Magnus evaluator


def _tail_point(p: Potential, side: str, tol: float) -> float:
    """Smallest dyadic point where the one-sided weighted tail is below tol."""
    x = 1.0
    for _ in range(60):
        td = tails(p, x if side == "+" else -x)
        mass = td.tau_plus if side == "+" else td.tau_minus
        if mass < tol:
            return x if side == "+" else -x
        x *= 2.0
    raise AnchorError(
        f"weighted tail never fell below {tol:g} (achieved {mass:.3g} at |x| = {x:g})",
        achieved=mass,
    )


def _compose(m, n):
    """Entry-wise 2x2 products m @ n of (..., 4) arrays (m00, m01, m10, m11)."""
    return np.stack([
        m[..., 0] * n[..., 0] + m[..., 1] * n[..., 2],
        m[..., 0] * n[..., 1] + m[..., 1] * n[..., 3],
        m[..., 2] * n[..., 0] + m[..., 3] * n[..., 2],
        m[..., 2] * n[..., 1] + m[..., 3] * n[..., 3],
    ], axis=-1)


class OdeJost(NodalJost):
    """Jost solution by the 4th-order Magnus panel propagator.

    Steps run from the anchor (f = e^{+-ikx}) to the far edge of the
    support or tail over a mesh that contains every breakpoint of the
    potential.  Beyond the far edge the solution continues as an
    explicit combination of plane waves.
    """

    _MIN_PANELS = 16  # uniform panels laid over the breakpoints
    _MAX_ROUNDS = 40  # halving rounds before IntegrationError
    _MAX_STEPS = 1 << 20
    _FLOOR = 1e-14  # relative step defect that rounding alone can produce

    def __init__(self, p: Potential, k, side, tol=1e-10):
        if side not in ("+", "-"):
            raise ValueError(f"side must be '+' or '-', got {side!r}")
        self.k = complex(k)
        self.side = side
        self.p = p
        sup = p.support()
        if sup is not None:
            self.anchor, self.far_edge = (sup[1], sup[0]) if side == "+" else sup
            self.error_bound = 0.0
        else:
            self.anchor = _tail_point(p, side, tol)
            self.far_edge = _tail_point(p, "-" if side == "+" else "+", tol)
            td = tails(p, self.anchor)
            self.error_bound = td.tau_plus if side == "+" else td.tau_minus

        sgn = 1.0 if side == "+" else -1.0
        wave = np.exp(sgn * 1j * self.k * self.anchor)
        start = np.array([wave, sgn * 1j * self.k * wave])
        self.nodes, steps = self._mesh(*sorted((self.far_edge, self.anchor)), tol)
        if side == "+":
            steps = steps[::-1]
        # Hillis-Steele scan: after it, steps[j] maps the anchor to node j+1 away
        shift = 1
        while shift < len(steps):
            steps[shift:] = _compose(steps[shift:], steps[:-shift])
            shift *= 2
        far = np.stack([steps[:, 0] * start[0] + steps[:, 1] * start[1],
                        steps[:, 2] * start[0] + steps[:, 3] * start[1]], axis=-1)
        states = np.concatenate([start[None, :], far])
        self.states = states[::-1] if side == "+" else states
        self._finish()

    eval = NodalJost.eval  # bound here too, see PiecewiseJost

    def _step(self, x0, x1):
        return np.stack(magnus_entries(self.p, self.k, x0, x1), axis=-1)

    def _mesh(self, lo, hi, tol):
        """Nodes from lo to hi and the step maps between them, anchor to far.

        A step is accepted once its one-step and two-half-step maps differ
        by at most tol * |h| / span relative to the map's size (or by the
        rounding floor); its two-half-step map is kept.
        """
        span = hi - lo
        cuts = [b for b in self.p.breakpoints() if lo < b < hi]
        edges = np.unique(np.concatenate([np.linspace(lo, hi, self._MIN_PANELS + 1), cuts]))
        left, right = edges[:-1], edges[1:]
        done_left, done_maps = [], []
        toward_far = self.side == "+"  # "+" steps run right to left
        x0, x1 = (right, left) if toward_far else (left, right)
        whole = self._step(x0, x1)
        for _ in range(self._MAX_ROUNDS):
            mid = 0.5 * (left + right)
            x0, x1 = (right, left) if toward_far else (left, right)
            first, second = self._step(x0, mid), self._step(mid, x1)
            halves = _compose(second, first)
            size = np.max(np.abs(halves), axis=-1)
            defect = np.max(np.abs(whole - halves), axis=-1)
            ok = defect <= np.maximum(tol * (right - left) / span, self._FLOOR) * size
            done_left.append(left[ok])
            done_maps.append(halves[ok])
            if ok.all():
                break
            bad = ~ok
            if 2 * bad.sum() + sum(len(d) for d in done_left) > self._MAX_STEPS:
                raise IntegrationError(
                    f"Magnus mesh needs more than {self._MAX_STEPS} steps on [{lo:g}, {hi:g}]"
                )
            # the halves of a rejected step are the whole steps of its children
            left, right, mid = left[bad], right[bad], mid[bad]
            left, right = np.concatenate([left, mid]), np.concatenate([mid, right])
            lower, upper = (second, first) if toward_far else (first, second)
            whole = np.concatenate([lower[bad], upper[bad]])
        else:
            raise IntegrationError(
                f"Magnus step halving did not converge in {self._MAX_ROUNDS} rounds "
                f"on [{lo:g}, {hi:g}] (tol {tol:g})"
            )
        left = np.concatenate(done_left)
        order = np.argsort(left)
        nodes = np.append(left[order], hi)
        return nodes, np.concatenate(done_maps)[order]

    def _inside(self, x):
        idx = self._panel(x)
        node = idx + 1 if self.side == "+" else idx
        m = magnus_entries(self.p, self.k, self.nodes[node], x)
        f0, fp0 = self.states[node, 0], self.states[node, 1]
        return m[0] * f0 + m[1] * fp0, m[2] * f0 + m[3] * fp0


def jost_evaluator(p: Potential, k, side, tol=1e-10, method="auto"):
    """Pick the exact transfer route or the Magnus route.

    method: "auto" (transfer when the potential is piecewise constant),
    "transfer" (require it), or "ode" (force the Magnus route; used to
    test the two routes against each other).
    """
    k = check_wavenumber(k, allow_zero=True)
    if k == 0 and p.support() is None:
        raise SpecError(
            "k = 0 needs a compactly supported potential; evaluate at k = i*delta "
            "and extrapolate instead"
        )
    if method not in ("auto", "transfer", "ode"):
        raise SpecError(f"unknown method {method!r}")
    segs = piecewise_segments(p)
    if method == "transfer" and segs is None:
        raise SpecError("transfer method requires a piecewise-constant potential")
    if segs is not None and method != "ode":
        return PiecewiseJost(segs, k, side)
    return OdeJost(p, k, side, tol)


def _default_grid(anchor: float) -> np.ndarray:
    half = max(5.0, 2.0 * abs(anchor))
    return np.linspace(-half, half, 2001)


def _as_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 2:
        raise SpecError("grid must be a 1-d array with at least two points")
    if not np.all(np.diff(g) > 0):
        raise SpecError("grid must be strictly increasing")
    return g


def jost_right(p: Potential, k, grid=None, tol=1e-10, method="auto") -> JostSolution:
    """Sample f_+(., k) and its derivative on a grid."""
    ev = jost_evaluator(p, k, "+", tol, method)
    g = _default_grid(ev.anchor) if grid is None else _as_grid(grid)
    f, fp = ev.eval(g)
    return JostSolution("+", ev.k, g, f, fp, ev.anchor, ev.error_bound)


def jost_left(p: Potential, k, grid=None, tol=1e-10, method="auto") -> JostSolution:
    """Sample f_-(., k) and its derivative on a grid."""
    ev = jost_evaluator(p, k, "-", tol, method)
    g = _default_grid(ev.anchor) if grid is None else _as_grid(grid)
    f, fp = ev.eval(g)
    return JostSolution("-", ev.k, g, f, fp, ev.anchor, ev.error_bound)


# ---------------------------------------------------------------------------
# Wronskians


def _wronskian_samples(fplus: JostSolution, fminus: JostSolution):
    if fplus.side != "+" or fminus.side != "-":
        raise SpecError("wronskian expects (right solution, left solution)")
    if fplus.k != fminus.k:
        raise SpecError(f"wavenumbers differ: {fplus.k} vs {fminus.k}")
    common, ia, ib = np.intersect1d(fplus.grid, fminus.grid, return_indices=True)
    if len(common) == 0:
        raise SpecError("the two solutions share no grid points")
    w = fplus.values[ia] * fminus.derivatives[ib] - fplus.derivatives[ia] * fminus.values[ib]
    return common, w


def wronskian(fplus: JostSolution, fminus: JostSolution) -> complex:
    """W{f_+, f_-} at a central common grid point."""
    _, w = _wronskian_samples(fplus, fminus)
    return complex(w[len(w) // 2])


def wronskian_variation(fplus: JostSolution, fminus: JostSolution) -> float:
    """Max relative drift of the sampled Wronskian from its central value.

    The exact Wronskian is x-independent, so this measures accumulated
    integration error.
    """
    _, w = _wronskian_samples(fplus, fminus)
    mid = w[len(w) // 2]
    return float(np.max(np.abs(w - mid)) / max(abs(mid), 1e-300))


def jost_wronskian(p: Potential, k, tol=1e-10, method="auto") -> complex:
    """W{f_+, f_-}(k) evaluated from freshly built solutions at one point."""
    evp = jost_evaluator(p, k, "+", tol, method)
    return _wronskian_at_mid(p, evp, jost_evaluator(p, k, "-", tol, method))


def _wronskian_at_mid(p: Potential, evp, evm) -> complex:
    """W{f_+, f_-} at the support midpoint (x = 0 for infinite support)."""
    sup = p.support()
    x_star = 0.5 * (sup[0] + sup[1]) if sup is not None else 0.0
    f, fp = evp.eval(x_star)
    g, gp = evm.eval(x_star)
    return complex(f * gp - fp * g)


# ---------------------------------------------------------------------------
# scattering


def scattering(p: Potential, k, tol=1e-10, method="auto") -> ScatteringData:
    """Reflection and transmission coefficients at wavenumber k != 0.

    Extracts a and b from (f_+, f_+') at the far (left) edge, where the
    potential has ended and f_+ is an exact combination of plane waves;
    then r = b/a, t = 1/a.  The independent identity a = W/(-2ik) is
    evaluated as well and its relative defect reported.
    """
    k = check_wavenumber(k, allow_zero=False)
    ev = jost_evaluator(p, k, "+", tol, method)
    a, b = ev.plane_pair()
    if abs(a) < 1e-12 * (1.0 + abs(b)):
        if k.imag == 0:
            raise ExceptionalPointError(
                f"a(k) vanishes at real k = {k}: exceptional point; evaluate at a "
                "nearby complex k instead"
            )
        raise ExceptionalPointError(
            f"a(k) vanishes at k = {k}: k^2 is an eigenvalue, scattering data undefined"
        )
    w = _wronskian_at_mid(p, ev, jost_evaluator(p, k, "-", tol, method))
    gap = abs(a - w / (-2j * k)) / (1.0 + abs(a))
    return ScatteringData(k=k, a=complex(a), b=complex(b), r=complex(b / a),
                          t=complex(1.0 / a), wronskian_gap=float(gap))


def scaled_scattering_identity(p: Potential, eps, k, tol=1e-10, method="auto"):
    """Scattering of the squeezed potential vs the original at eps*k.

    The two must agree in (r, t) exactly; returned as a pair
    (squeezed, reference) for the caller to compare.
    """
    from .potential import scale

    if eps <= 0:
        raise SpecError(f"eps must be positive, got {eps}")
    squeezed = scattering(scale(p, eps), k, tol, method)
    reference = scattering(p, eps * complex(k), tol, method)
    return squeezed, reference
