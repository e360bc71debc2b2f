"""Jost solutions and scattering data on the line.

Conventions.  Wavenumbers live in the closed upper half plane
(Im k >= 0).  The right Jost solution f_+ solves -y'' + V y = k^2 y with
f_+ ~ e^{ikx} as x -> +inf; the left solution f_- ~ e^{-ikx} as
x -> -inf.  Their Wronskian W{f_+, f_-} = f_+ f_-' - f_+' f_- is
constant in x; for V = 0 it equals -2ik.  Writing
f_+ = a e^{ikx} + b e^{-ikx} on the far left defines the coefficients
from which reflection r = b/a and transmission t = 1/a follow, and
a = W / (-2ik).

Numerics.  One builder, _jost_maps, makes the step maps that every
number here reads.  The potential picks the route: the exact layer route
when its shape tiles into layers (nodes at the layer edges, steps from
transfer.propagator_entries), and otherwise a 4th-order Magnus panel
propagator (transfer.magnus_entries), whose step samples V at two Gauss
points and is exact for the free equation at any k.  The Magnus mesh
starts from the potential's breakpoints, so no step crosses a kink, and
accepts a step once its one-step and two-half-step maps differ by at
most its share of tol; the defect is O(h^5) and the share O(h), so a
rejected step is split at once into 2^ceil(log16(defect / share)) equal
pieces.  An accepted step keeps its two-half-step map with the
Richardson correction M_2 + (M_2 - M_1)/15: the Gauss-point step is
time-symmetric, so its local error is odd in h.  The anchor sits at the
support edge when the support is compact, otherwise where the weighted
tail has dropped below tol, and the cut tail mass is error_bound; this
holds at k = 0 as well.

The product P of the step maps, taken in pairwise rounds (O(N)
products, against O(N log N) for a scan), carries f_+ = (1, ik) e^{ik hi}
from its anchor hi to the far edge lo, where transfer.plane_pair reads
a and b and W is read off (see _maps_wronskian): scattering,
jost_wronskian, d0 and D'(0) build no evaluator.  At the split node of
the last round, P = L R, f_+ is R applied to its start and f_- the
mirrored L (see JostEvaluator) applied to its own; their W is P's in
exact arithmetic for any maps, so the wronskian_gap and ray_gap read
there measure rounding.  A JostEvaluator is one solution at one scalar
k, scanned from the maps into node states for f(x), which only
jost_evaluator, the window kernel of the limits module and the resonant
half-bound state read.  The couplings batch serves only the product.

Dilation.  The Jost solutions of a squeezed potential eps^-2 V(x/eps)
at (x, k) are those of V at (x/eps, eps k), and its plane-wave
coefficients are V's at eps k.  _jost_maps therefore builds V at
eps k on V's own nodes, by whichever route V picks, and only eval and
the Wronskian (divided by eps) map back; D'(0) is unchanged.  The mesh
never resolves the squeezed scale, and error_bound is V's.  A window cut
from a squeezed potential is the squeezed window of V, so the windowed
operator of the limits module is solved this way.
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
    relative defect of a = W{f_+, f_-}/(-2ik), with W from the two halves
    of the step maps' product, and None for the limit operators.
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
    """f_+ (side "+") or f_- (side "-") of V at one scalar k, stored as states at nodes.

    built is the (p, k, maps, eps) of _jost_maps, one for both sides.
    Both sides are "+" solutions in t = s x, s = +1 for f_+ and -1 for
    f_-: g solves -g'' + V(s t) g = k^2 g with g = e^{ikt} from the
    anchor, the right end of the nodes, and f(x) = g(s x), f'(x) =
    s g'(s x).  nodes and states are in t; anchor and far_edge are in x.
    Beyond the far edge the solution is the plane-wave pair of the far
    state.  maps are the (nodes, steps, mu2, tails) of _x_maps in x,
    which f_- reads mirrored: t = -x reverses the nodes and the maps,
    and f_-'s Gauss-Magnus step over a panel is f_+'s with the two Gauss
    points traded, which swaps m00 and m11 (a layer step has m00 = m11).
    The swap M -> J M^T J reverses products, so it carries the composed
    halves and the Richardson-corrected maps over exactly.

    eps is the dilation: p, k and maps belong to the unsqueezed base at
    eps k, and eval takes x and gives f'(x) = s g'(s x / eps) / eps.
    """

    def __init__(self, built, side):
        if side not in ("+", "-"):
            raise SpecError(f"side must be '+' or '-', got {side!r}")
        self.s = s = 1.0 if side == "+" else -1.0
        p, self.k, maps, self.eps = built
        self._v = p if s > 0 else (lambda t: p(-t))
        nodes, steps, mu2, tails = maps
        if s > 0:
            self.nodes, self.mu2, self.error_bound = nodes, mu2, tails[1]
            steps = steps[::-1].copy()  # anchor first; the scan below writes into it
        else:
            # t = -x reverses the nodes and the maps, and the scan reads them
            # anchor first, so they stay in x order; the mirror is a new array
            self.nodes, self.error_bound = -nodes[::-1], tails[0]
            self.mu2 = None if mu2 is None else mu2[::-1]
            steps = steps[:, [3, 1, 2, 0]]
        self.anchor = float(s * self.eps * self.nodes[-1])
        self.far_edge = float(s * self.eps * self.nodes[0])

        # Hillis-Steele scan: after it, steps[j] maps the anchor to node j+1 away
        shift = 1
        while shift < len(steps):
            steps[shift:] = _compose(steps[shift:], steps[:-shift])
            shift *= 2
        start = np.array([1.0, 1j * self.k]) * np.exp(1j * self.k * self.nodes[-1])
        self.states = np.empty((len(self.nodes), 2), dtype=complex)
        self.states[-2::-1] = steps[:, 0::2] * start[0] + steps[:, 1::2] * start[1]
        self.states[-1] = start
        # beyond the far edge f = c_plus e^{ikt} + c_minus e^{-ikt}, or c_plus + c_minus t at k = 0
        f0, fp0 = self.states[0]
        self._pair = ((f0 - fp0 * self.nodes[0], fp0) if self.k == 0
                      else plane_pair(f0, fp0, self.k, self.nodes[0]))

    def plane_pair(self):
        """(c_plus, c_minus) with f = c_plus e^{ikx} + c_minus e^{-ikx} beyond the far edge.

        For side "+" these are the scattering coefficients (a, b).  Only
        meaningful for k != 0.
        """
        c_plus, c_minus = self._pair
        return (c_plus, c_minus) if self.s > 0 else (c_minus, c_plus)

    def eval(self, x):
        """Vectorized (f, f') at arbitrary points, shaped like x."""
        x = np.asarray(x, dtype=float)
        t = self.s * x.ravel() / self.eps
        f, fp = np.empty((2,) + t.shape, dtype=complex)
        anchored = t >= self.nodes[-1]
        beyond = t < self.nodes[0]
        # e^{ikt} alone past the anchor: e^{-ikt} can overflow there for Im k > 0
        wave = np.exp(1j * self.k * t[anchored])
        f[anchored] = wave
        fp[anchored] = 1j * self.k * wave
        f[beyond], fp[beyond] = self._vacuum(t[beyond])
        inside = ~(anchored | beyond)
        f[inside], fp[inside] = self._inside(t[inside])
        fp *= self.s / self.eps
        return f.reshape(x.shape)[()], fp.reshape(x.shape)[()]

    def _vacuum(self, t):
        c_plus, c_minus = self._pair
        if self.k == 0:
            return c_plus + c_minus * t, np.full(t.shape, c_minus)
        up, dn = np.exp(1j * self.k * t), np.exp(-1j * self.k * t)
        return c_plus * up + c_minus * dn, 1j * self.k * (c_plus * up - c_minus * dn)

    def _inside(self, t):
        # the anchor-side node of the panel holding each t (nodes[0] <= t < nodes[-1])
        node = np.searchsorted(self.nodes, t, side="right")
        if self.mu2 is None:
            m00, m01, m10, m11 = magnus_entries(self._v, self.k, self.nodes[node], t)
        else:
            m00, m01, m10 = propagator_entries(self.mu2[node - 1], t - self.nodes[node])
            m11 = m00
        f0, fp0 = self.states[node, 0], self.states[node, 1]
        return m00 * f0 + m01 * fp0, m10 * f0 + m11 * fp0


_MIN_PANELS = 16  # uniform panels laid over the breakpoints
_MAX_ROUNDS = 40  # halvings of a uniform panel that set the narrowest Magnus step
_MAX_JUMP = 8  # most halvings one rejected step jumps in one round
_MAX_STEPS = 1 << 20
_FLOOR = 1e-14  # relative step defect that rounding alone can produce


def _x_maps(p: Potential, k, tol, layers, second):
    """(nodes, steps, mu2, tails) in x, oriented as f_+ reads them.

    steps[j] maps (f, f') at node j+1 to node j; tails are the masses
    cut left and right of the end nodes (with second, plus the
    second-moment tails).  layers give exact steps and mu2 = h - k^2 for
    the scalar k; a couplings batch, heights of shape (n, L), gives steps
    and mu2 a leading axis of length n, which only _product reads.
    Otherwise mu2 is None and a Magnus step is accepted once its one-step
    and two-half-step maps differ by at most tol * |h| / span relative to
    its size (or by the rounding floor), keeping the two-half-step map,
    Richardson-corrected.  A rejected step is split into 2^l equal pieces,
    l = ceil(log16(defect / allowed)) in [1, _MAX_JUMP], none below narrowest.
    """
    if layers is not None:
        edges, heights = layers
        mu2 = heights - np.multiply(k, k)  # numpy's loop rounds k^2 more closely than k * k
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
    narrowest = span / (_MIN_PANELS << _MAX_ROUNDS)  # nodes stay dyadic points of edges
    done_left, done_maps = [], []
    while True:
        mid = 0.5 * (left + right)
        halves = _compose(step(mid, left), step(right, mid))
        gap = step(right, left) - halves  # M_1 - M_2
        defect = np.max(np.abs(gap), axis=-1)
        allowed = np.maximum(tol * (right - left) / span, _FLOOR) * np.max(np.abs(halves), axis=-1)
        ok = defect <= allowed
        halves -= gap / 15.0  # in place: a round can hold most of the mesh
        done_left.append(left[ok])
        done_maps.append(halves[ok])
        del gap, halves
        if ok.all():
            break
        left, right, defect, allowed = (v[~ok] for v in (left, right, defect, allowed))
        # defect ~ h^5 against allowed ~ h, so 2^ceil(log16 ratio) pieces bring
        # the ratio to 1; fmax makes a nan ratio (an overflowed step) one halving
        levels = np.fmax(np.ceil(np.log2(defect / allowed) / 4.0), 1.0)
        room = np.floor(np.log2((right - left) / narrowest))
        count = np.exp2(np.minimum(levels, np.minimum(room, _MAX_JUMP))).astype(int)
        if (room < 1).any() or count.sum() + sum(len(d) for d in done_left) > _MAX_STEPS:
            raise IntegrationError(f"Magnus mesh on [{lo:g}, {hi:g}] (tol {tol:g}) needs steps "
                                   f"narrower than {narrowest:.3g} or more than {_MAX_STEPS}")
        # piece i of m covers [i / m, (i + 1) / m] of its step, whose ends stay exact
        m = np.repeat(count, count)
        t = (np.arange(m.size) - np.repeat(np.cumsum(count) - count, count)) / m
        a, b = np.repeat(left, count), np.repeat(right, count)
        left, right = (1.0 - t) * a + t * b, (1.0 - t - 1.0 / m) * a + (t + 1.0 / m) * b
    left = np.concatenate(done_left)
    order = np.argsort(left)
    return np.append(left[order], hi), np.concatenate(done_maps)[order], None, tails


def jost_evaluator(p: Potential, k, side, tol=1e-10):
    """The Jost solution f_+ (side "+") or f_- (side "-") of p at k.

    The route is the layer one when p's shape has layers, else Magnus.  On
    infinite support k = 0 anchors at the same tail point as k != 0:
    |sin(k s)/k| <= s makes f_+(x, 0) exist when int (1 + |x|) |V| < inf.
    """
    return JostEvaluator(_jost_maps(p, k, tol), side)


def _jost_maps(p: Potential, k, tol=1e-10, second=False, layers=None):
    """(p, k, maps, eps): the x-maps of the unsqueezed base of p at eps k.

    Every build checks tol here: outside (0, 1) it raises SpecError.
    second cuts infinite tails by their second-moment mass too (see
    _tail_point).  layers, as _layers gives them for the unsqueezed base,
    spare reading its tiling; heights of shape (n, L), n couplings, batch
    the layer route for the sweep's product, not for a JostEvaluator.
    """
    k = check_wavenumber(k, allow_zero=True)
    if not 0.0 < tol < 1.0:
        raise SpecError(f"tol must lie in (0, 1), got {tol}")
    p, eps = _unsqueezed(p)
    k = eps * k
    layers = _layers(p.shape, p.coupling) if layers is None else layers
    return p, k, _x_maps(p, k, tol, layers, second), eps


def _unsqueezed(p: Potential):
    """(base, eps) with p = eps^-2 base(x / eps); eps = 1 and base = p unless squeezed."""
    dilation = getattr(p.shape, "dilation", None)  # a shape without the method is not squeezed
    base, eps = dilation() if dilation is not None else (p.shape, 1.0)
    return (p if base is p.shape else Potential(base, p.coupling)), eps


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
    """W{f_+, f_-}(k) from the product of the step maps, with no evaluator built."""
    return complex(_maps_wronskian(*_jost_maps(p, k, tol)))


def _zero_energy_wronskians(p: Potential, tol=1e-10):
    """(d0, layered): d0(couplings) is W{f_+, f_-} at k = 0 for each of couplings, a 1-d array.

    They stand in for p.coupling.  The layer route (layered) reads the tiling
    once, here, and batches a call's couplings in one map set and product,
    bit for bit jost_wronskian's per coupling; Magnus builds one per coupling.
    """
    tiling = _layers(_unsqueezed(p)[0].shape, 1.0)
    if tiling is None:
        return (lambda cs: np.array([jost_wronskian(p.with_coupling(c), 0.0, tol)
                                     for c in cs.tolist()])), False
    return (lambda cs: _maps_wronskian(*_jost_maps(
        p, 0.0, tol, layers=(tiling[0], np.multiply.outer(cs, tiling[1]))))), True


def _product(steps):
    """(L, R, P): P = steps[..., 0, :] @ steps[..., 1, :] @ ... = L @ R, in pairwise rounds.

    Each round composes neighbours and carries an odd last map over, so
    ceil(log2 N) rounds take N - 1 products in all; the last joins L and R
    at the split node.  Fewer than two maps are padded with identities.
    """
    if steps.shape[-2] < 2:
        eye = np.array([1.0, 0.0, 0.0, 1.0], dtype=steps.dtype)
        eye = np.broadcast_to(eye, steps.shape[:-2] + (2 - steps.shape[-2], 4))
        steps = np.concatenate([eye, steps], axis=-2)
    while steps.shape[-2] > 2:
        n = steps.shape[-2]
        paired = _compose(steps[..., 0:n - 1:2, :], steps[..., 1::2, :])
        steps = np.concatenate([paired, steps[..., n - 1:, :]], axis=-2) if n % 2 else paired
    left, right = steps[..., 0, :], steps[..., 1, :]
    return left, right, _compose(left, right)


def _apply(m, v):
    """The 2x2 maps m, entries last, applied to the vector v."""
    return m[..., 0] * v[0] + m[..., 1] * v[1], m[..., 2] * v[0] + m[..., 3] * v[1]


def _halves_states(left, right, plus_start, minus_start):
    """(f, f', g, g') at the split node of the halves left and right of _product.

    f_+ is right applied to its start at hi; f_- = g(-x) and f_-' = -g', where
    g is left mirrored (m00 and m11 swapped) applied to its start at t = -lo.
    """
    return (*_apply(right, plus_start), *_apply(left[..., [3, 1, 2, 0]], minus_start))


def _maps_wronskian(p, k, maps, eps):
    """W{f_+, f_-} from the tuple of _jost_maps (p unused), one value per batch row.

    The product P of the steps carries f_+ = (1, ik) e^{ik hi} from its
    anchor hi = nodes[-1] to lo = nodes[0], where f_- = (1, -ik) e^{-ik lo},
    so W = -e^{ik (hi - lo)} (ik (P00 + P11) - k^2 P01 + P10), which is
    -P10 at k = 0.  The dilation divides the base's W at eps k by eps.  A
    row whose product overflowed gives nan, even where P10 stayed finite.
    """
    nodes, steps = maps[:2]
    product = _product(steps)[2]
    m00, m01, m10, m11 = np.moveaxis(product, -1, 0)
    if k == 0:
        w = -m10
    else:
        ik = 1j * k
        w = -np.exp(ik * (nodes[-1] - nodes[0])) * (ik * (m00 + m11) - k * k * m01 + m10)
    return np.where(np.isfinite(product).all(axis=-1), w / eps, np.nan)


# ---------------------------------------------------------------------------
# scattering


def scattering(p: Potential, k, tol=1e-10) -> ScatteringData:
    """Reflection and transmission coefficients at wavenumber k != 0.

    Extracts a and b from (f_+, f_+') at the far (left) edge, where the
    potential has ended and f_+ is an exact combination of plane waves;
    then r = b/a, t = 1/a; the product of the step maps gives that state.
    The relative defect of a = W/(-2ik), W read at the product's split node, is reported.
    """
    k = check_wavenumber(k, allow_zero=False)
    return _scattering_from(k, *_jost_maps(p, k, tol))


def _scattering_from(k, p, kb, maps, eps) -> ScatteringData:
    """Scattering data at k from the (p, kb, maps, eps) of _jost_maps, kb = eps k (p unused)."""
    nodes, steps = maps[:2]
    lo, hi = nodes[0], nodes[-1]
    left, right, product = _product(steps)
    # f_+ starts as (1, ik) e^{ik hi} at hi, and f_-'s g as (1, ik) e^{-ik lo} at t = -lo
    up, dn = (np.exp(1j * kb * x) * np.array([1.0, 1j * kb]) for x in (hi, -lo))
    a, b = plane_pair(*_apply(product, up), kb, lo)
    if abs(a) < 1e-12 * (1.0 + abs(b)):
        if k.imag == 0:
            raise ExceptionalPointError(
                f"a(k) vanishes at real k = {k}: exceptional point; evaluate at a "
                "nearby complex k instead"
            )
        raise ExceptionalPointError(
            f"a(k) vanishes at k = {k}: k^2 is an eigenvalue, scattering data undefined"
        )
    f, fp, g, gp = _halves_states(left, right, up, dn)
    gap = abs(a - (f * gp + fp * g) / (2j * kb)) / (1.0 + abs(a))
    return ScatteringData(k=k, a=complex(a), b=complex(b), r=complex(b / a),
                          t=complex(1.0 / a), wronskian_gap=float(gap))
