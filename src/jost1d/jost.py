"""Jost solutions and scattering data on the line.

Conventions.  Wavenumbers live in the closed upper half plane
(Im k >= 0).  The right Jost solution f_+ solves -y'' + V y = k^2 y with
f_+ ~ e^{ikx} as x -> +inf; the left solution f_- ~ e^{-ikx} as
x -> -inf.  Their Wronskian W{f_+, f_-} = f_+ f_-' - f_+' f_- is
constant in x; for V = 0 it equals -2ik.  Writing
f_+ = a e^{ikx} + b e^{-ikx} on the far left defines the coefficients
from which reflection r = b/a and transmission t = 1/a follow, and
a = W / (-2ik).

Numerics.  One evaluator class serves both sides and both routes, and
one builder, _jost_pair, makes every evaluator.  The potential picks the
route: the exact layer route when its shape tiles into layers (nodes at
the layer edges, steps from transfer.propagator_entries), and otherwise
a 4th-order Magnus panel propagator (transfer.magnus_entries), whose
step samples V at two Gauss points and is exact for the free equation at
any k.  The Magnus mesh starts from the potential's breakpoints, so no
step crosses a kink, and halves every step whose one-step and
two-half-step maps differ by more than its share of tol.  An accepted
step keeps its two-half-step map with the Richardson correction
M_2 + (M_2 - M_1)/15: the Gauss-point step is time-symmetric, so its
local error is odd in h.  One mesh serves both sides: nodes and step
maps are built once in x, and f_-, the right solution f_+(-x; V(-.)) of
the reflected potential, reads f_+'s maps mirrored (see JostEvaluator),
so a pair costs one mesh and two prefix scans.  Node states are a prefix
product of the step maps from the anchor, and between nodes one partial
step from the anchor-side node gives (f, f').  The anchor sits at the
support edge when the support is compact, otherwise where the weighted
tail has dropped below tol, and the cut tail mass is error_bound; this
holds at k = 0 as well.

Dilation.  The Jost solutions of a squeezed potential eps^-2 V(x/eps)
at (x, k) are those of V at (x/eps, eps k), and its plane-wave
coefficients are V's at eps k.  _jost_pair therefore builds V at
eps k on V's own nodes, by whichever route V picks, and only eval maps
back; the mesh never resolves the squeezed scale, and error_bound is
V's.  A window cut from a squeezed potential is the squeezed window of
V, so the windowed operator of the limits module is solved this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AnchorError,
    ExceptionalPointError,
    IntegrationError,
    SpecError,
)
from .potential import Potential
from .transfer import magnus_entries, plane_pair, propagator_entries

__all__ = [
    "ScatteringData",
    "check_wavenumber",
    "jost_evaluator",
    "jost_wronskian",
    "scattering",
]


def check_wavenumber(k, allow_zero=False):
    k = complex(k)
    if not np.isfinite(k):
        raise SpecError(f"wavenumber must be finite, got {k}")
    if k.imag < 0:
        raise SpecError(f"wavenumber must satisfy Im k >= 0, got {k}")
    if k == 0 and not allow_zero:
        raise SpecError("k = 0 is not allowed here")
    return k


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


# ---------------------------------------------------------------------------
# the evaluator


def _tail_point(p: Potential, s: float, tol: float, second=False):
    """(t, mass): the smallest dyadic t where the weighted tail beyond x = s*t is below tol.

    With second, mass adds the second-moment tail int |t| (1 + |t|) |V|,
    which bounds the cut for a solution growing like t.
    """
    t = 1.0
    for _ in range(60):
        lo, hi = (s * t, np.inf) if s > 0 else (-np.inf, s * t)
        mass = p.shape.integrals(lo, hi, p.coupling)[3]
        if second:
            mass += p.shape.second_tail(s * t, p.coupling)
        if mass < tol:
            return t, mass
        t *= 2.0
    raise AnchorError(
        f"weighted tail never fell below {tol:g} (achieved {mass:.3g} at |x| = {t:g})",
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


class JostEvaluator:
    """f_+ (side "+") or f_- (side "-") of V, stored as states at nodes.

    Both sides are "+" solutions in t = s x, s = +1 for f_+ and -1 for
    f_-: g solves -g'' + V(s t) g = k^2 g with g = e^{ikt} from the
    anchor, the right end of the nodes, and f(x) = g(s x), f'(x) =
    s g'(s x).  nodes and states are in t; anchor and far_edge are in x.
    Beyond the far edge the solution is the plane-wave pair of the far
    state.  maps are the (nodes, steps, mu2, tails) of _x_maps, which
    _jost_pair builds once in x for both sides: layer steps when the
    shape has layers, else the Magnus mesh.  f_- reads them mirrored.
    t = -x reverses the nodes and the maps, and f_-'s Gauss-Magnus step
    over a panel is f_+'s with the two Gauss points traded, which swaps
    m00 and m11 (a layer step has m00 = m11).  The swap M -> J M^T J
    reverses products, so it carries the composed halves and the
    Richardson-corrected maps over exactly.  Each side scans its own
    copy of the maps.

    The layer route takes a batch: heights of shape (n, L) and/or k of
    shape (n,) give n solutions on the same edges from one build, and
    then steps, states, mu2, eval and plane_pair carry a leading axis of
    length n (batch == (n,)).  k within a batch is either all zero or all
    nonzero.  Unbatched arrays have no such axis, and k enters every
    build as an array, so a scalar call computes each row of a batch with
    the same elementwise operations and gives the same bits.

    _dot (k = 0 only) adds the k-derivative of the solution, the
    zero-energy solution equal to i t from the anchor on: batch gains a
    leading axis of length 2, row 0 the solution and row 1 its
    derivative, both from the same scan.  On infinite support the maps'
    anchor then also bounds the second-moment tail, which error_bound
    includes.

    _eps (set by _jost_pair for a squeezed potential, kept as eps) is the
    dilation: p, k and maps then belong to the unsqueezed base at eps k,
    and everything above is that base problem, except that eval takes x
    and gives f'(x) = s g'(s x / eps) / eps, with the k-derivative row
    multiplied by eps, and anchor and far_edge are in x.
    """

    def __init__(self, p: Potential, k, side, maps, _dot=False, _eps=1.0):
        if side not in ("+", "-"):
            raise SpecError(f"side must be '+' or '-', got {side!r}")
        self.s = s = 1.0 if side == "+" else -1.0
        ka = np.asarray(k, dtype=complex)
        self.k = complex(k) if ka.ndim == 0 else ka
        # k as shape (1,) or (n, 1): it broadcasts against (nodes,) and (n, nodes)
        self._k = kb = ka.reshape(ka.shape + (1,))
        ks = kb.ravel().tolist()
        self._zero = not any(ks)
        if not (self._zero or all(ks)):
            raise SpecError("a batch of wavenumbers cannot mix k = 0 with k != 0")
        self.p = p
        self._v = p if s > 0 else (lambda t: p(-t))
        nodes, steps, mu2, tails = maps
        if s > 0:
            self.nodes, self.mu2, self.error_bound = nodes, mu2, tails[1]
            steps = steps[..., ::-1, :].copy()  # anchor first; the scan below writes into it
        else:
            # t = -x reverses the nodes and the maps, and the scan reads them
            # anchor first, so they stay in x order; the mirror is a new array
            self.nodes, self.error_bound = -nodes[::-1], tails[0]
            self.mu2 = None if mu2 is None else mu2[..., ::-1]
            steps = steps[..., [3, 1, 2, 0]]
        self.batch, self._dot, self.eps = steps.shape[:-2], _dot, _eps
        self.anchor = float(s * _eps * self.nodes[-1])
        self.far_edge = float(s * _eps * self.nodes[0])

        # Hillis-Steele scan: after it, steps[..., j, :] maps the anchor to node j+1 away
        shift = 1
        while shift < steps.shape[-2]:
            steps[..., shift:, :] = _compose(steps[..., shift:, :], steps[..., :-shift, :])
            shift *= 2
        wave = np.exp(1j * kb * self.nodes[-1])
        start = np.concatenate([wave, 1j * kb * wave], axis=-1)[..., None, :]
        if _dot:
            # row 1 is df/dk at k = 0, equal to i t from the anchor on
            start = np.stack([start, np.broadcast_to(1j * np.array([self.nodes[-1], 1.0]),
                                                     start.shape)])
            self.batch = (2,) + self.batch
        self.states = np.empty(self.batch + (len(self.nodes), 2), dtype=complex)
        self.states[..., -2::-1, :] = (steps[..., 0::2] * start[..., :1]
                                       + steps[..., 1::2] * start[..., 1:])
        self.states[..., -1:, :] = start

    @cached_property
    def _pair(self):
        # shape (1,) or (n, 1), like self._k
        f0, fp0 = self.states[..., :1, 0], self.states[..., :1, 1]
        if self._zero:
            # zero energy: the outside solution is the straight line A + B t
            return f0 - fp0 * self.nodes[0], fp0
        return plane_pair(f0, fp0, self._k, self.nodes[0])

    def plane_pair(self):
        """(c_plus, c_minus) with f = c_plus e^{ikx} + c_minus e^{-ikx} beyond the far edge.

        For side "+" these are the scattering coefficients (a, b).  Only
        meaningful for k != 0.
        """
        c_plus, c_minus = (c.reshape(self.batch)[()] for c in self._pair)
        return (c_plus, c_minus) if self.s > 0 else (c_minus, c_plus)

    def eval(self, x):
        """Vectorized (f, f') at arbitrary points, shaped batch + x.shape."""
        x = np.asarray(x, dtype=float)
        t = self.s * x.ravel() / self.eps
        f, fp = np.empty((2,) + self.batch + t.shape, dtype=complex)
        kb = self._k
        anchored = t >= self.nodes[-1]
        beyond = t < self.nodes[0]
        wave = np.exp(1j * kb * t[anchored])
        f[..., anchored] = wave
        fp[..., anchored] = 1j * kb * wave
        if self._dot:
            f[1][..., anchored], fp[1][..., anchored] = 1j * t[anchored], 1j
        if beyond.any():
            f[..., beyond], fp[..., beyond] = self._vacuum(t[beyond])
        inside = ~(anchored | beyond)
        if inside.any():
            f[..., inside], fp[..., inside] = self._inside(t[inside])
        fp *= self.s / self.eps
        if self._dot and self.eps != 1.0:
            f[1] *= self.eps
            fp[1] *= self.eps
        out = self.batch + x.shape
        return f.reshape(out)[()], fp.reshape(out)[()]

    def _vacuum(self, t):
        c_plus, c_minus = self._pair
        if self._zero:
            return c_plus + c_minus * t, np.repeat(c_minus, t.size, axis=-1)
        up = np.exp(1j * self._k * t)
        dn = np.exp(-1j * self._k * t)
        return c_plus * up + c_minus * dn, 1j * self._k * (c_plus * up - c_minus * dn)

    def _inside(self, t):
        # the anchor-side node of the panel holding each t (nodes[0] <= t < nodes[-1])
        node = np.searchsorted(self.nodes, t, side="right")
        if self.mu2 is None:
            m00, m01, m10, m11 = magnus_entries(self._v, self.k, self.nodes[node], t)
        else:
            m00, m01, m10 = propagator_entries(self.mu2[..., node - 1], t - self.nodes[node])
            m11 = m00
        f0, fp0 = self.states[..., node, 0], self.states[..., node, 1]
        return m00 * f0 + m01 * fp0, m10 * f0 + m11 * fp0


_MIN_PANELS = 16  # uniform panels laid over the breakpoints
_MAX_ROUNDS = 40  # halving rounds before IntegrationError
_MAX_STEPS = 1 << 20
_FLOOR = 1e-14  # relative step defect that rounding alone can produce


def _x_maps(p: Potential, k, tol, layers, second):
    """(nodes, steps, mu2, tails) in x, oriented as f_+ reads them.

    steps[..., j, :] maps (f, f') at node j+1 to node j; tails are the
    masses cut left and right of the end nodes (with second, plus the
    second-moment tails).  layers give exact steps and mu2 = h - k^2.
    Otherwise mu2 is None and a Magnus step is accepted once its one-step
    and two-half-step maps differ by at most tol * |h| / span relative to
    its size (or by the rounding floor), keeping the two-half-step map,
    Richardson-corrected.
    """
    if layers is not None:
        edges, heights = layers
        kb = np.asarray(k, dtype=complex)[..., None]
        mu2 = heights - kb * kb
        a, b, c = propagator_entries(mu2, edges[:-1] - edges[1:])
        steps = np.array([a, b, c, a]).transpose(*range(1, a.ndim + 1), 0)  # entries last
        return edges, steps, mu2, (0.0, 0.0)
    sup = p.support()
    if sup is not None:
        (lo, hi), tails = sup, (0.0, 0.0)
    else:
        (hi, mass_r), (lo, mass_l) = (_tail_point(p, s, tol, second) for s in (1.0, -1.0))
        lo, tails = -lo, (mass_l, mass_r)

    def step(x0, x1):
        return np.stack(magnus_entries(p, k, x0, x1), axis=-1)

    span = hi - lo
    cuts = np.array([b for b in p.breakpoints() if lo < b < hi])
    uniform = np.linspace(lo, hi, _MIN_PANELS + 1)
    # an inner uniform point next to a breakpoint would leave a sliver panel
    near = np.abs(np.subtract.outer(uniform, cuts)).min(axis=1, initial=np.inf) <= 1e-12 * span
    near[[0, -1]] = False
    edges = np.unique(np.concatenate([uniform[~near], cuts]))
    left, right = edges[:-1], edges[1:]
    done_left, done_maps = [], []
    whole = step(right, left)
    for _ in range(_MAX_ROUNDS):
        mid = 0.5 * (left + right)
        upper, lower = step(right, mid), step(mid, left)
        halves = _compose(lower, upper)
        size = np.max(np.abs(halves), axis=-1)
        defect = np.max(np.abs(whole - halves), axis=-1)
        ok = defect <= np.maximum(tol * (right - left) / span, _FLOOR) * size
        done_left.append(left[ok])
        done_maps.append(halves[ok] + (halves[ok] - whole[ok]) / 15.0)
        if ok.all():
            break
        bad = ~ok
        if 2 * bad.sum() + sum(len(d) for d in done_left) > _MAX_STEPS:
            raise IntegrationError(
                f"Magnus mesh needs more than {_MAX_STEPS} steps on [{lo:g}, {hi:g}]"
            )
        # the halves of a rejected step are the whole steps of its children
        left, right, mid = left[bad], right[bad], mid[bad]
        left, right = np.concatenate([left, mid]), np.concatenate([mid, right])
        whole = np.concatenate([lower[bad], upper[bad]])
    else:
        raise IntegrationError(
            f"Magnus step halving did not converge in {_MAX_ROUNDS} rounds "
            f"on [{lo:g}, {hi:g}] (tol {tol:g})"
        )
    left = np.concatenate(done_left)
    order = np.argsort(left)
    return np.append(left[order], hi), np.concatenate(done_maps)[order], None, tails


def jost_evaluator(p: Potential, k, side, tol=1e-10):
    """The Jost solution f_+ (side "+") or f_- (side "-") of p at k.

    The route is the layer one when p's shape has layers, else Magnus.  On
    infinite support k = 0 anchors at the same tail point as k != 0:
    |sin(k s)/k| <= s makes f_+(x, 0) exist when int (1 + |x|) |V| < inf.
    """
    return _jost_pair(p, k, tol, sides=(side,))[0]


def _jost_pair(p: Potential, k, tol=1e-10, _dot=False, sides="+-", couplings=None):
    """Evaluators of p at k for sides, (f_+, f_-) by default, scanning one set of x-maps.

    _dot adds the k-derivative at k = 0 (see JostEvaluator); couplings, a 1-d
    array standing in for p.coupling, batches the layer route (not the Magnus one).
    """
    k = check_wavenumber(k, allow_zero=True)
    dilation = getattr(p.shape, "dilation", None)  # a shape without the method is not squeezed
    base, eps = dilation() if dilation is not None else (p.shape, 1.0)
    if base is not p.shape:
        p = Potential(base, p.coupling)
    if eps != 1.0:
        k = eps * k
    layers = _layers(p.shape, p.coupling if couplings is None else couplings)
    maps = _x_maps(p, k, tol, layers, _dot)
    return tuple(JostEvaluator(p, k, side, maps, _dot, eps) for side in sides)


def _layers(shape, couplings):
    """(edges, heights) of the layer route, heights[i] = couplings[i] * h; None without layers."""
    segs = shape.layers() if hasattr(shape, "layers") else None
    if segs is None:
        return None
    edges = np.array([segs[0][0], *(seg[1] for seg in segs)] if segs else [0.0])
    return edges, np.multiply.outer(couplings, [seg[2] for seg in segs])


# ---------------------------------------------------------------------------
# Wronskians


def jost_wronskian(p: Potential, k, tol=1e-10) -> complex:
    """W{f_+, f_-}(k) evaluated from freshly built solutions at one point."""
    return complex(_wronskian_at_mid(p, *_jost_pair(p, k, tol)))


def _zero_energy_wronskians(p: Potential, couplings, tol=1e-10) -> np.ndarray:
    """W{f_+, f_-} at k = 0 for each of couplings (a 1-d array), standing in for p.coupling.

    The layer route batches all couplings in one _jost_pair, bit for bit what
    jost_wronskian gives per coupling; the Magnus route builds one pair per coupling.
    """
    if _layers(p.shape, 1.0) is None:
        return np.array([jost_wronskian(p.with_coupling(c), 0.0, tol) for c in couplings.tolist()])
    return _wronskian_at_mid(p, *_jost_pair(p, 0.0, tol, couplings=couplings))


def _midpoint(p: Potential) -> float:
    """The support midpoint, or x = 0 for infinite support."""
    sup = p.support()
    return 0.5 * (sup[0] + sup[1]) if sup is not None else 0.0


def _wronskian_at(evp, evm, x):
    """W{f_+, f_-} at the points x, shaped like evp.eval(x)."""
    (f, fp), (g, gp) = evp.eval(x), evm.eval(x)
    return f * gp - fp * g


def _wronskian_at_mid(p: Potential, evp, evm):
    """W{f_+, f_-} at _midpoint(p), one value per batch row."""
    return _wronskian_at(evp, evm, [_midpoint(p)])[..., 0]


# ---------------------------------------------------------------------------
# scattering


def scattering(p: Potential, k, tol=1e-10) -> ScatteringData:
    """Reflection and transmission coefficients at wavenumber k != 0.

    Extracts a and b from (f_+, f_+') at the far (left) edge, where the
    potential has ended and f_+ is an exact combination of plane waves;
    then r = b/a, t = 1/a.  The independent identity a = W/(-2ik) is
    evaluated as well and its relative defect reported.
    """
    k = check_wavenumber(k, allow_zero=False)
    evp, evm = _jost_pair(p, k, tol)
    return _scattering_from(k, evp, _wronskian_at_mid(p, evp, evm))


def _scattering_from(k, evp, w) -> ScatteringData:
    """Scattering data from the plane pair of f_+ (evp), checked against W{f_+, f_-} = w."""
    a, b = evp.plane_pair()
    if abs(a) < 1e-12 * (1.0 + abs(b)):
        if k.imag == 0:
            raise ExceptionalPointError(
                f"a(k) vanishes at real k = {k}: exceptional point; evaluate at a "
                "nearby complex k instead"
            )
        raise ExceptionalPointError(
            f"a(k) vanishes at k = {k}: k^2 is an eigenvalue, scattering data undefined"
        )
    gap = abs(a - w / (-2j * k)) / (1.0 + abs(a))
    return ScatteringData(k=k, a=complex(a), b=complex(b), r=complex(b / a),
                          t=complex(1.0 / a), wronskian_gap=float(gap))

