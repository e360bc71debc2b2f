"""Jost solutions and scattering data on the line.

Conventions.  Wavenumbers live in the closed upper half plane
(Im k >= 0).  The right Jost solution f_+ solves -y'' + V y = k^2 y with
f_+ ~ e^{ikx} as x -> +inf; the left solution f_- ~ e^{-ikx} as
x -> -inf.  Their Wronskian W{f_+, f_-} = f_+ f_-' - f_+' f_- is
constant in x; for V = 0 it equals -2ik.  Writing
f_+ = a e^{ikx} + b e^{-ikx} on the far left defines the coefficients
from which reflection r = b/a and transmission t = 1/a follow, and
a = W / (-2ik).

Numerics.  One builder, _jost_maps, makes the _Build whose maps every
number here reads.  The potential picks the route: the exact layer route
when its shape tiles into layers (nodes at the layer edges, steps from
transfer.propagator_entries), and otherwise a 6th-order Magnus panel
propagator (transfer.magnus_entries), whose step samples V at three
Gauss points and is exact for the free equation at any k.  The Magnus
mesh starts from the potential's breakpoints, so no step crosses a kink,
and accepts a step once its one-step and two-half-step maps differ by at
most its share of tol; one kernel call per round gives both half steps
and the whole step.  The defect is O(h^7) and the share O(h), so a
rejected step is split at once into 2^ceil(log64(defect / share)) equal
pieces.  An accepted step keeps its two-half-step map with the
Richardson correction M_2 + (M_2 - M_1)/63: the Gauss-point step is
time-symmetric, so its local error is odd in h.  The anchor sits at the
support edge when the support is compact, otherwise where the weighted
tail has dropped below tol, and the cut tail mass is error_bound; this
holds at k = 0 as well.  Step maps are float64 wherever k^2 is real (real k,
k = 0, k = i kappa), else complex128; _peak reads their size.  Every array
of step maps is entry-major, of shape (4, *batch, N): the entries (m00, m01,
m10, m11) lead and the map index is last, so composing two arrays
multiplies four whole entry planes.

A build's product P of its step maps, taken once in pairwise rounds
(O(N) products, against O(N log N) for a scan), carries its start state
f_+ = (1, ik) e^{ik hi} from its anchor hi to the far edge lo, where
transfer.plane_pair reads a and b, r is read from the same state, and W
is read off (see _Build.wronskian): scattering, jost_wronskian, d0 and
D'(0) build no evaluator.  At the split node of the last round, P = L R,
f_+ is R applied to its start and f_- the mirrored L (see JostEvaluator)
applied to its own (_Build.halves); their W is P's in exact arithmetic
for any maps, so the wronskian_gap and ray_gap read there measure
rounding.  A JostEvaluator scans the maps into node states for f(x).
It is always the f_+/f_- pair of one build, started from the build's
own anchor states (_Build.starts), so the scan and the product start
from the same numbers.  It stacks the two sides' maps on the row axis,
so one scan and one evaluation, one kernel call per branch, serve both:
the window kernels of the limits module and the resonant half-bound
state read both sides, and jost_evaluator returns one side of the pair.
The layer route also builds a leading row axis: a couplings batch, which
only the product reads, or a k batch, the eps rows of a convergence
table, which the scattering data and the evaluator read row by row; the
evaluator's outputs keep that axis only when it has more than one row.
numpy rounds a complex product of two scalars otherwise than the same
product in arrays, so the limits module builds even a lone layered
window as a k batch: a row's numbers do not depend on its batch, nor on
the side stacked beside it.

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
    try:
        k = complex(k)
    except (TypeError, ValueError):
        raise SpecError(f"wavenumber must be a complex number, got {k!r}") from None
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

    a and b are None where there is no finite Jost expansion: the
    Dirichlet pair's LimitOperator.scattering, whose half lines decouple.
    wronskian_gap is the relative defect of a = W{f_+, f_-}/(-2ik), with W
    from the two halves of the step maps' product, and None for the limit
    operators.
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
    """The 2x2 products m @ n of entry-major maps, as one new array of the four sums."""
    a, b, c, d, e, f, g, h = _entries(m) + _entries(n)
    return np.array([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h])


def _entries(m):
    """The four entry planes of the maps m, 0-d arrays (not scalars) for one map."""
    # numpy rounds complex scalar products otherwise than array products, so
    # one map multiplies as a batch row does
    return m[0, ...], m[1, ...], m[2, ...], m[3, ...]


# the entry order that mirrors a map for f_-: m00 and m11 swapped (see JostEvaluator)
_MIRROR = [3, 1, 2, 0]


class JostEvaluator:
    """f_+ and f_- of V at k together, the pair of one build, stored as states at nodes.

    built is the _Build of _jost_maps.
    Each side is a "+" solution in t = s x, s = +1 for f_+ and -1 for
    f_-: g solves -g'' + V(s t) g = k^2 g with g = e^{ikt} from the
    anchor, the right end of its nodes, and f(x) = g(s x), f'(x) =
    s g'(s x).  The anchor states are the build's starts, so the scan
    carries the very states the product carries.  nodes and states, (f,
    f') per row and node, are in t; anchor and far_edge are in x.
    Beyond the far edge the solution is the plane-wave pair of the far
    state.  The build's nodes, steps, mu2 and tails are in x, and f_-
    reads them mirrored: t = -x reverses the nodes and the maps' last axis,
    and f_-'s Gauss-Magnus step over a panel is f_+'s with the outer Gauss
    points traded, which swaps m00 and m11 (a layer step has m00 = m11).
    The swap M -> J M^T J reverses products, so it carries the composed
    halves and the Richardson-corrected maps over exactly.

    The sides' maps are stacked on the row axis, so one Hillis-Steele
    scan serves both, and eval reads both from one set of masks and
    gathers, with one kernel call per branch.  s, nodes, error_bound,
    anchor, far_edge, plane_pair and eval lead with the side axis, f_+
    first, and _side(i) reads side i on the pair's arrays, with no scan.

    The build's eps is the dilation: its p, k and maps are the unsqueezed
    base's at eps k, and eval gives f'(x) = s g'(s x / eps) / eps.

    The build may be a k batch, one row each on shared nodes: eval,
    plane_pair, anchor and far_edge then carry that axis after the
    sides' when it has more than one row, and the attributes k and eps
    repeat the rows once per side.  A lone k, or a one-row batch, has
    outputs without a row axis.
    """

    def __init__(self, built):
        k, eps, mu2 = np.array(built.k, ndmin=1), np.array(built.eps, ndmin=1), built.mu2
        rows = len(k)  # one row per k, per side
        steps = built.steps.reshape(4, rows, built.steps.shape[-1])
        # both sides' maps in t, anchor first, f_+'s rows then f_-'s: f_+ reads
        # them right to left, f_- left to right mirrored; the scan writes into them
        steps = np.concatenate([steps[:, :, ::-1], steps[_MIRROR]], axis=1)
        # Hillis-Steele scan: after it, steps[:, :, j] maps the anchor to node j+1 away
        shift = 1
        while shift < steps.shape[-1]:
            steps[..., shift:] = _compose(steps[..., shift:], steps[..., :-shift])
            shift *= 2
        self.nodes = nodes = np.array([built.nodes, -built.nodes[::-1]])
        self.k, self.eps = k, eps = np.concatenate([k, k]), np.concatenate([eps, eps])
        states = np.empty((2, 2 * rows, nodes.shape[1]), dtype=complex)
        # the starts are (f, f') of f_+, then of f_-, each a scalar or one per row
        states[:, :, -1] = start = np.hstack(np.reshape(built.starts, (2, 2, rows)))
        states[:, :, -2::-1] = (steps[0::2] * start[0][:, None]
                                + steps[1::2] * start[1][:, None])
        if mu2 is not None:
            mu2 = np.concatenate([mu2.reshape(rows, -1), mu2.reshape(rows, -1)[:, ::-1]])
        self._shape = (2, rows) if rows > 1 else (2,)
        self._p, self._nodes, self._rows = built.p, nodes, rows
        self.states, self.mu2, self._zero = states, mu2, not k.any()
        # f_+ cuts the right tail, f_- the left
        self.s, self.error_bound = np.array([1.0, -1.0]), np.array(built.tails[::-1])
        self._sign = self.s.repeat(rows)
        self._ends = nodes[:, [0, -1]].repeat(rows, axis=0)  # each row's far and anchor t
        ends = ((self._sign * eps)[:, None] * self._ends).reshape(self._shape + (2,))
        self.far_edge, self.anchor = ends[..., 0], ends[..., 1]
        # beyond the far edge f = c_plus e^{ikt} + c_minus e^{-ikt}, or c_plus + c_minus t at
        # k = 0, which is never batched with k != 0
        (f0, fp0), far = states[..., 0], self._ends[:, 0]
        self._pair = (f0 - fp0 * far, fp0) if self._zero else plane_pair(f0, fp0, k, far)

    def _side(self, i):
        """Side i of a pair (0 for f_+) as a one-side evaluator: views of the pair's rows."""
        one, rows = JostEvaluator.__new__(JostEvaluator), slice(i * self._rows, (i + 1) * self._rows)
        one.__dict__.update(vars(self), _shape=self._shape[1:], _nodes=self._nodes[i:i + 1],
                            nodes=self._nodes[i], s=float(self.s[i]), far_edge=self.far_edge[i],
                            anchor=self.anchor[i], error_bound=float(self.error_bound[i]),
                            states=self.states[:, rows], _pair=tuple(c[rows] for c in self._pair),
                            mu2=None if self.mu2 is None else self.mu2[rows],
                            **{n: vars(self)[n][rows] for n in ("k", "eps", "_sign", "_ends")})
        return one

    def plane_pair(self):
        """(c_plus, c_minus) with f = c_plus e^{ikx} + c_minus e^{-ikx} beyond the far edge.

        For f_+ these are the scattering coefficients (a, b).  Only
        meaningful for k != 0.
        """
        plus = self._sign > 0
        c_plus, c_minus = self._pair
        return tuple(np.where(plus, a, b).reshape(self._shape)[()]
                     for a, b in ((c_plus, c_minus), (c_minus, c_plus)))

    def eval(self, x):
        """Vectorized (f, f') at finite points, shaped like x after the side and k axes."""
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise SpecError(f"evaluation points must be finite, got {x[~np.isfinite(x)][0]}")
        t = self._sign[:, None] * x.ravel() / self.eps[:, None]
        # each point's row, to gather its k, pair, states and mu2 by; a lone row
        # reads them at row 0, which puts the same numbers through the same ufuncs
        row = np.arange(len(self.k)).repeat(x.size).reshape(t.shape) if len(self.k) > 1 else None
        f, fp = np.empty((2,) + t.shape, dtype=complex)
        anchored = t >= self._ends[:, 1:]
        beyond = t < self._ends[:, :1]
        inside = ~(anchored | beyond)
        for part, branch in ((anchored, self._wave), (beyond, self._vacuum),
                             (inside, self._inside)):
            f[part], fp[part] = branch(0 if row is None else row[part], t[part])
        fp *= self._sign[:, None] / self.eps[:, None]
        shape = self._shape + x.shape
        return f.reshape(shape)[()], fp.reshape(shape)[()]

    def _wave(self, row, t):
        # e^{ikt} alone past the anchor: e^{-ikt} can overflow there for Im k > 0
        ik = 1j * self.k[row]
        wave = np.exp(ik * t)
        return wave, ik * wave

    def _vacuum(self, row, t):
        c_plus, c_minus = (c[row] for c in self._pair)
        if self._zero:
            return c_plus + c_minus * t, c_minus
        ik = 1j * self.k[row]
        up, dn = np.exp(ik * t), np.exp(-ik * t)
        return c_plus * up + c_minus * dn, ik * (c_plus * up - c_minus * dn)

    def _inside(self, row, t):
        # the anchor-side node of the panel holding each t (nodes[0] <= t < nodes[-1]):
        # the points come side by side, and each side's run is searched in its own nodes
        cuts = [0, *np.searchsorted(np.ravel(row), self._rows * np.arange(1, len(self._nodes))),
                len(t)]
        node = np.concatenate([np.searchsorted(nodes, t[a:b], side="right")
                               for nodes, a, b in zip(self._nodes, cuts, cuts[1:])])
        start = self._nodes[row // self._rows, node]
        if self.mu2 is None:  # a Magnus build has one k, so its rows are its sides
            sign = self._sign[row]
            m00, m01, m10, m11 = magnus_entries(lambda g: self._p(sign * g), self.k[0].item(),
                                                start, t)
        else:
            m00, m01, m10 = propagator_entries(self.mu2[row, node - 1], t - start)
            m11 = m00
        f0, fp0 = self.states[:, row, node]
        return m00 * f0 + m01 * fp0, m10 * f0 + m11 * fp0


_MIN_PANELS = 16  # uniform panels laid over the breakpoints
_MAX_ROUNDS = 40  # halvings of a uniform panel that set the narrowest Magnus step
_MAX_JUMP = 8  # most halvings one rejected step jumps in one round
_MAX_STEPS = 1 << 20
_FLOOR = 1e-14  # relative step defect that rounding alone can produce


def _x_maps(p: Potential, k, tol, layers, second):
    """(nodes, steps, mu2, tails) in x, oriented as f_+ reads them.

    steps[:, j] maps (f, f') at node j+1 to node j; tails are the masses
    cut left and right of the end nodes (with second, plus the
    second-moment tails).  layers give exact steps and mu2 = h - k^2 for
    the scalar k.  A couplings batch, heights of shape (n, L), or a k
    batch, k of shape (n,), gives mu2 a leading axis of length n and
    steps one after their entries (steps[:, i, j] in row i), real only
    where every row's k^2 is (see the module docstring).
    Otherwise k is a scalar, mu2 is None and a Magnus step is accepted
    once its one-step and two-half-step maps, from one magnus_entries
    call per round, differ by at most tol * |h| / span relative to its
    size (or by the rounding floor), keeping the two-half-step map,
    Richardson-corrected by /63.  A rejected step is split into 2^l equal
    pieces, l = ceil(log64(defect / allowed)) in [1, _MAX_JUMP], none
    below narrowest.
    """
    if layers is not None:
        edges, heights = layers
        k2 = np.multiply(k, k)  # numpy's loop rounds k^2 more closely than k * k
        mu2 = heights - (k2.real if not k2.imag.any() else k2)[..., None]  # real where k^2 is
        a, b, c = propagator_entries(mu2, edges[:-1] - edges[1:])
        return edges, np.array([a, b, c, a]), mu2, (0.0, 0.0)
    sup = p.support()
    if sup is not None:
        (lo, hi), tails = sup, (0.0, 0.0)
    else:
        (hi, mass_r), (lo, mass_l) = (_tail_point(p, s, tol, second) for s in (1.0, -1.0))
        lo, tails = -lo, (mass_l, mass_r)

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
        # the two half steps and the whole step in one call, V sampled once for all
        maps = np.array(magnus_entries(p, k, np.concatenate([mid, right, right]),
                                       np.concatenate([left, mid, left])))
        n = len(left)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf, nan or 0 defects
            halves = _compose(maps[:, :n], maps[:, n:2 * n])
            gap = maps[:, 2 * n:] - halves  # M_1 - M_2
            defect = _peak(np.abs(gap))
            allowed = np.maximum(tol * (right - left) / span, _FLOOR) * _peak(np.abs(halves))
            ok = defect <= allowed
            halves -= gap / 63.0  # in place: a round can hold most of the mesh
            # defect ~ h^7 against allowed ~ h, so 2^ceil(log64 ratio) pieces bring
            # the ratio to 1; fmax makes a nan ratio (an overflowed step) one halving
            levels = np.fmax(np.ceil(np.log2(defect / allowed) / 6.0), 1.0)
        done_left.append(left[ok])
        done_maps.append(halves[:, ok])
        del maps, gap, halves
        if ok.all():
            break
        left, right, levels = (v[~ok] for v in (left, right, levels))
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
    return np.append(left[order], hi), np.concatenate(done_maps, axis=1)[:, order], None, tails


def _peak(a):
    """max of each map's |entries| a, entries first: numpy's max over that short axis is slow."""
    return np.maximum(np.maximum(a[0], a[1]), np.maximum(a[2], a[3]))


def jost_evaluator(p: Potential, k, side, tol=1e-10):
    """The Jost solution f_+ (side "+") or f_- (side "-") of p at k: one side of the pair.

    The route is the layer one when p's shape has layers, else Magnus.  On
    infinite support k = 0 anchors at the same tail point as k != 0:
    |sin(k s)/k| <= s makes f_+(x, 0) exist when int (1 + |x|) |V| < inf.
    """
    if side not in ("+", "-"):
        raise SpecError(f"side must be '+' or '-', got {side!r}")
    return JostEvaluator(_jost_maps(p, k, tol))._side("+-".index(side))


def _jost_maps(p: Potential, k, tol=1e-10, second=False, layers=None, eps=None):
    """The _Build of the unsqueezed base of p at eps k: its step maps in x and their readers.

    Every build checks tol here: outside (0, 1) it raises SpecError.
    second cuts infinite tails by their second-moment mass too (see
    _tail_point).  layers, as _layers gives them for the unsqueezed base,
    spare reading its tiling; heights of shape (n, L), n couplings, batch
    the layer route for the sweep's product, not for a JostEvaluator.
    Given eps, an array of dilations, p is already the base and the build
    is the k batch at eps k, of eps's shape (one row on the Magnus route).
    """
    k = check_wavenumber(k, allow_zero=True)
    if not 0.0 < tol < 1.0:
        raise SpecError(f"tol must lie in (0, 1), got {tol}")
    if eps is None:
        p, eps = _unsqueezed(p)
    k = eps * k
    layers = _layers(p.shape, p.coupling) if layers is None else layers
    return _Build(p, k, eps, *_x_maps(p, k, tol, layers, second))


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
# the readers of a build


def scattering(p: Potential, k, tol=1e-10) -> ScatteringData:
    """Reflection and transmission coefficients at wavenumber k != 0.

    Extracts a and b from (f_+, f_+') at the far (left) edge, where the
    potential has ended and f_+ is an exact combination of plane waves;
    then t = 1/a, and r = b/a = e^{2ik lo} (ik f - f')/(ik f + f') is read
    from that state directly; the product of the step maps gives it.  The
    relative defect of a = W/(-2ik), W read at the product's split node, is
    reported; an overflowed product raises SpecError.
    """
    k = check_wavenumber(k, allow_zero=False)
    return _jost_maps(p, k, tol).scattering(k)[0]


def jost_wronskian(p: Potential, k, tol=1e-10) -> complex:
    """W{f_+, f_-}(k) from the product of the step maps, with no evaluator built."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = complex(_jost_maps(p, k, tol).wronskian())
    if not np.isfinite(w):
        raise SpecError(f"the step-map product is not finite at k = {k}")
    return w


def _zero_energy_wronskians(p: Potential, tol=1e-10):
    """(d0, layered): d0(couplings) is W{f_+, f_-} at k = 0 for each of couplings, a 1-d array.

    They stand in for p.coupling.  The layer route (layered) reads the tiling
    once, here, and batches a call's couplings in one map set and product,
    bit for bit jost_wronskian's per coupling; Magnus builds one per coupling.
    """
    tiling = _layers(_unsqueezed(p)[0].shape, 1.0)
    if tiling is None:
        return (lambda cs: np.array([_jost_maps(p.with_coupling(c), 0.0, tol).wronskian()
                                     for c in cs.tolist()])), False
    return (lambda cs: _jost_maps(p, 0.0, tol, layers=(tiling[0], np.multiply.outer(
        cs, tiling[1]))).wronskian()), True


def _apply(m, v):
    """The 2x2 maps m, entries first, applied to the vector v."""
    m00, m01, m10, m11 = _entries(m)
    return m00 * v[0] + m01 * v[1], m10 * v[0] + m11 * v[1]


@dataclass(frozen=True, eq=False)
class _Build:
    """The step maps of _jost_maps, and the numbers read from their product.

    p is the unsqueezed base, k its wavenumber eps k (a scalar, or a k
    batch's rows) and eps the dilation; the rest is _x_maps' output in x.
    """

    p: Potential
    k: complex | np.ndarray
    eps: float | np.ndarray
    nodes: np.ndarray
    steps: np.ndarray
    mu2: np.ndarray | None
    tails: tuple[float, float]

    @cached_property
    def product(self):
        """(L, R, P): P = steps[..., 0] @ steps[..., 1] @ ... = L @ R, in pairwise rounds, once.

        Each round composes neighbours and carries an odd last map over, so
        ceil(log2 N) rounds take N - 1 products in all; the last joins L and R
        at the split node.  One map M is (I, M, M), and no map (I, I, I).
        Entry-major steps (4, *batch, N) give L, R and P of shape (4, *batch).
        """
        steps = self.steps
        if steps.shape[-1] < 2:
            eye = np.multiply.outer([1.0, 0.0, 0.0, 1.0], np.ones(steps.shape[1:-1], dtype=complex))
            right = steps[..., 0].astype(complex) if steps.shape[-1] else eye
            return eye, right, right
        while steps.shape[-1] > 2:
            n = steps.shape[-1]
            paired = _compose(steps[..., 0:n - 1:2], steps[..., 1::2])
            steps = np.concatenate([paired, steps[..., n - 1:]], axis=-1) if n % 2 else paired
        # L and R complex: numpy's real times complex scalar products are slow
        left, right = steps[..., 0].astype(complex), steps[..., 1].astype(complex)
        return left, right, _compose(left, right)

    @cached_property
    def starts(self):
        """The anchor states (1, ik) e^{ik hi} of f_+ at hi and of f_-'s g at t = -lo."""
        ik = 1j * self.k
        return tuple((w, ik * w) for w in (np.exp(ik * self.nodes[-1]), np.exp(ik * -self.nodes[0])))

    def halves(self, starts=None):
        """(f, f', g, g') at the split node, from starts (by default the anchor states).

        f_+ is R applied to its start at hi, and f_- = g(-x), f_-' = -g', with
        g the mirrored L (m00 and m11 swapped) applied to its start at t = -lo.
        """
        left, right, _ = self.product
        up, dn = self.starts if starts is None else starts
        return (*_apply(right, up), *_apply(left[_MIRROR], dn))

    def wronskian(self):
        """W{f_+, f_-}, one value per batch row, nan where the product overflowed.

        P carries f_+'s start at hi = nodes[-1] to lo = nodes[0], where f_- =
        (1, -ik) e^{-ik lo}, so W = -e^{ik (hi - lo)} (ik (P00 + P11) - k^2 P01
        + P10), which is -P10 at k = 0; the dilation divides it by eps.
        """
        k, ik, lo, hi = self.k, 1j * self.k, self.nodes[0], self.nodes[-1]
        m00, m01, m10, m11 = product = self.product[2]
        w = -m10 if k == 0 else -np.exp(ik * (hi - lo)) * (ik * (m00 + m11) - k * k * m01 + m10)
        return np.where(np.isfinite(product).all(axis=0), w / self.eps, np.nan)

    def scattering(self, k) -> list[ScatteringData]:
        """Scattering data at k per row, the build's k being eps k (a scalar is one row).

        The first row whose product is not finite, or whose a vanishes,
        raises what scattering would raise at its eps.
        """
        kb, ikb, lo = self.k, 1j * self.k, self.nodes[0]
        with np.errstate(over="ignore", invalid="ignore"):
            far = _apply(self.product[2], self.starts[0])
            a, b = plane_pair(*far, kb, lo)
            # r = b / a read off the far state directly, with fewer roundings
            r = np.exp(2.0 * ikb * lo) * (ikb * far[0] - far[1]) / (ikb * far[0] + far[1])
            finite = np.isfinite(self.product[2]).all(axis=0)
            failed = ~finite | (abs(a) < 1e-12 * (1.0 + abs(b)))
        if failed.any():
            if not np.ravel(finite)[np.argmax(failed)]:
                raise SpecError(f"the step-map product is not finite at k = {k}")
            raise ExceptionalPointError(
                f"a(k) vanishes at real k = {k}: exceptional point; evaluate at a nearby complex "
                "k instead" if k.imag == 0 else
                f"a(k) vanishes at k = {k}: k^2 is an eigenvalue, scattering data undefined")
        f, fp, g, gp = self.halves()
        gap = abs(a - (f * gp + fp * g) / (2.0 * ikb)) / (1.0 + abs(a))
        columns = (np.array(v, ndmin=1).tolist() for v in (a, b, r, 1.0 / a, gap))
        return [ScatteringData(k, *row) for row in zip(*columns)]
