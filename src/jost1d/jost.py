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
mesh starts from 192 uniform panels and the potential's breakpoints, so
no step crosses a kink, and accepts a step once its one-step and
two-half-step maps differ by at most its share of tol; one kernel call
per round gives both half steps and the whole step, and a round costs
about the same for 4 steps as for 300.  The defect is O(h^7) and the
share O(h), so a rejected step is split at once into
2^ceil(log64(4 defect / share)) equal pieces, aimed two bits below the
share.  The seed panels are fine enough that a seed step's defect falls
like h^7 when split, and the margin covers one that falls a little
slower, so a build at moderate k takes one or two rounds, not three or four.
An accepted step keeps its two-half-step map with the
Richardson correction M_2 + (M_2 - M_1)/63: the Gauss-point step is
time-symmetric, so its local error is odd in h.  The anchor sits at the
support edge when the support is compact, otherwise where the weighted
tail has dropped below tol, and the cut tail mass is error_bound.  At
k = 0 the solutions grow like |x| beyond the support, so the mass there
adds the second-moment tail, and the one k = 0 build gives d0, theta and
D'(0) alike.  Step maps are float64 wherever k^2 is real (real k,
k = 0, k = i kappa), else complex128; _peak reads their size.  Every array
of step maps is entry-major, of shape (4, *batch, N): the entries (m00, m01,
m10, m11) lead and the map index is last, so composing two arrays is two
broadcast multiply-adds of whole entry planes, one's column planes times
the other's row planes (see _compose).

A build's product P of its step maps, taken once in pairwise rounds
(O(N) products, against O(N log N) for a scan), carries its start state
f_+ = (1, ik) e^{ik hi} from its anchor hi to the far edge lo, where
transfer.plane_pair reads a and b, r is read from the same state, and W
is read off (see _Build.wronskian): scattering, jost_wronskian, d0,
D'(0) and the resonant theta build no evaluator.  At the split node of
the last round, P = L R, f_+ is R applied to its start and f_- the
mirrored L (see JostEvaluator) applied to its own; _Build.halves hands
both back in x, and their plain W is P's in exact arithmetic for any
maps, so the wronskian_gap and ray_gap read there measure rounding.
Every reader of P's entries, L, R and the node ends is a _Build method:
besides W and the scattering data, the zero-energy ones, the four
(f_+, f_-) pairs that give theta (_Build.zero_pairs) and D'(0) with its
split-node twin (_Build.d_dot), so the resonance module reads no map.  A
JostEvaluator scans the maps into node states for f(x).  It holds the
f_+/f_- pair of one build, or one side of it, started from the build's
own anchor states (_Build.starts), so the scan and the product start
from the same numbers.  The pair stacks the two sides' maps on the row axis, so one
scan and one evaluation serve both, as the convergence table reads them;
a window's plus and minus, and jost_evaluator, stack and scan only the
rows of their own side.  Outside its nodes, past the anchor and beyond
the far edge, a solution is plane waves: eval forms one pair e^{ikx},
e^{-ikx} per point, in x at the undilated k the build was asked for,
which every row and both sides share (f_- reads it swapped), and each
row combines it with its own coefficients by broadcasting; only the
points inside the nodes gather node states and step maps.
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
eps k on V's own nodes, by whichever route V picks, and records k.
Only eval, at x / eps inside the nodes and with plane waves at k in x
outside them, and the Wronskian, divided by eps, map back; D'(0) is
unchanged.  The mesh never resolves the squeezed scale, and error_bound
is V's.  A window cut from a squeezed potential is the squeezed window
of V, so the windowed operator of the limits module is solved this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AnchorError,
    ExceptionalPointError,
    IntegrationError,
    NumericsError,
    SpecError,
    _points,
    _real,
    _wavenumber,
)
from .potential import Potential
from .transfer import magnus_entries, plane_pair, propagator_entries

__all__ = [
    "ScatteringData",
    "jost_evaluator",
    "jost_wronskian",
    "scattering",
]


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


def _tail_point(p: Potential, s: float, tol: float, zero):
    """(t, mass): the smallest dyadic t where the tail mass beyond x = s*t is below tol.

    The mass is the weighted tail int (1 + |t|) |V|.  At zero energy
    (zero), where each Jost solution grows like |x| beyond the support, it
    adds the second-moment tail int |t| (1 + |t|) |V|, which bounds the
    cut for a solution growing like t.
    """
    for t in (2.0 ** n for n in range(60)):
        lo, hi = (s * t, np.inf) if s > 0 else (-np.inf, s * t)
        mass = p.shape.integrals(lo, hi, p.coupling)[3]
        if zero:
            mass += p.shape.second_tail(s * t, p.coupling)
        if mass < tol:
            return t, mass
    raise AnchorError(
        f"weighted tail never fell below {tol:g} (achieved {mass:.3g} at |x| = {t:g})",
        achieved=mass,
    )


def _compose(m, n):
    """The 2x2 products m @ n of entry-major maps, as one new array.

    Entry (i, l) is m_i0 n_0l + m_i1 n_1l: the planes of m's column j,
    shaped (2, 1, ...), times those of n's row j, (1, 2, ...), broadcast
    to (2, 2, ...), summed over j and read back as (4, ...).  These are
    the products and sums, in the same order, of the four sums written
    out, so the result is theirs bit for bit.
    """
    m, n = m.reshape((2, 2, 1) + m.shape[1:]), n.reshape((1, 2, 2) + n.shape[1:])
    out = m[:, 0] * n[:, 0]
    out += m[:, 1] * n[:, 1]
    return out.reshape((4,) + out.shape[2:])


# the entry order that mirrors a map for f_-: m00 and m11 swapped (see JostEvaluator)
_MIRROR = [3, 1, 2, 0]
# the sides a JostEvaluator builds, by its side argument, as a slice of (f_+, f_-)
_SIDES = {None: slice(0, 2), "+": slice(0, 1), "-": slice(1, 2)}


class JostEvaluator:
    """f_+ and f_- of V at k, the pair of one build or one side of it, stored as states at nodes.

    built is the _Build of _jost_maps; side is None for the pair, or "+"
    for f_+ or "-" for f_- alone.
    Each side is a "+" solution in t = s x, s = +1 for f_+ and -1 for
    f_-: g solves -g'' + V(s t) g = k^2 g with g = e^{ikt} from the
    anchor, the right end of its nodes, and f(x) = g(s x), f'(x) =
    s g'(s x).  The anchor states are the build's starts, so the scan
    carries the very states the product carries.  nodes and states, (f,
    f') per row and node, are in t; anchor and far_edge are in x.
    Outside the nodes the solution is plane waves: e^{ikt} past the anchor
    and the plane-wave pair of the far state beyond the far edge.  eval
    forms them from one pair e^{ikx}, e^{-ikx} per point, in x at the
    undilated k (the build's k_x), which all rows share, side - reading
    it swapped; k = 0 keeps the line c_plus + c_minus t.  The build's
    nodes, steps, mu2 and tails are in x, and f_- reads them mirrored:
    t = -x reverses the nodes and the maps' last axis, and f_-'s
    Gauss-Magnus step over a panel is f_+'s with the outer Gauss points
    traded, which swaps m00 and m11 (a layer step has m00 = m11).  The
    swap M -> J M^T J reverses products, so it carries the composed
    halves and the Richardson-corrected maps over exactly.

    Only the rows of the sides built for are stacked and scanned.  The
    pair's maps are stacked on the row axis, so one Hillis-Steele scan
    serves both, and eval reads both from one set of masks, broadcasting
    the plane waves over (rows, points) and gathering node states only
    for the points inside the nodes; its s, nodes, error_bound, anchor,
    far_edge, plane_pair and eval lead with the side axis, f_+ first.  One
    side has no side axis: nodes is 1-d, and s and error_bound are floats.
    The scan is elementwise, so a side's numbers are the pair's bit for bit.

    The build's eps is the dilation: its p, k and maps are the unsqueezed
    base's at eps k, and eval gives f'(x) = s g'(s x / eps) / eps; f' is
    formed only when asked for (eval asks, the kernels of the limits
    module read f alone).

    The build may be a k batch, one row each on shared nodes: eval,
    plane_pair, anchor and far_edge then carry that axis after the
    sides' when it has more than one row, and the attributes k and eps
    repeat the rows once per side built.  A lone k, or a one-row batch, has
    outputs without a row axis.
    """

    def __init__(self, built, side=None):
        k, eps, mu2 = np.array(built.k, ndmin=1), np.array(built.eps, ndmin=1), built.mu2
        sides = _SIDES[side]  # a slice of (f_+, f_-)
        rows = len(k)  # one row per k, per side
        steps = built.steps.reshape(4, rows, built.steps.shape[-1])
        # each side's maps in t, anchor first, f_+'s rows before f_-'s: f_+ reads
        # them right to left, f_- left to right mirrored; the scan writes into them
        steps = np.concatenate([steps[_MIRROR] if i else steps[:, :, ::-1]
                                for i in range(2)[sides]], axis=1)
        # Hillis-Steele scan: after it, steps[:, :, j] maps the anchor to node j+1 away
        shift = 1
        while shift < steps.shape[-1]:
            steps[..., shift:] = _compose(steps[..., shift:], steps[..., :-shift])
            shift *= 2
        self.nodes = nodes = np.array([built.nodes, -built.nodes[::-1]][sides])
        self.k, self.eps = k, eps = (np.concatenate([k] * len(nodes)),
                                     np.concatenate([eps] * len(nodes)))
        states = np.empty((2, len(nodes) * rows, nodes.shape[1]), dtype=complex)
        # the starts are (f, f') of each side, each a scalar or one per row
        states[:, :, -1] = start = np.hstack(np.reshape(built.starts, (2, 2, rows))[sides])
        states[:, :, -2::-1] = (steps[0::2] * start[0][:, None]
                                + steps[1::2] * start[1][:, None])
        if mu2 is not None:
            mu2 = np.concatenate([mu2.reshape(rows, -1), mu2.reshape(rows, -1)[:, ::-1]][sides])
        self._shape = (len(nodes),) * (side is None) + (rows,) * (rows > 1)
        self._p, self._nodes, self._rows, self._sides = built.p, nodes, rows, sides
        self._k_x = built.k_x  # the undilated k, one scalar
        self.states, self.mu2, self._zero = states, mu2, not k.any()
        # f_+ cuts the right tail, f_- the left
        self.s, self.error_bound = np.array([1.0, -1.0][sides]), np.array(built.tails[::-1][sides])
        self._sign = self.s.repeat(rows)
        self._ends = nodes[:, [0, -1]].repeat(rows, axis=0)  # each row's far and anchor t
        ends = (self._sign * eps)[:, None] * self._ends
        self.far_edge, self.anchor = ends.T.reshape((2,) + self._shape)
        # beyond the far edge f = c_plus e^{ikt} + c_minus e^{-ikt}, or c_plus + c_minus t at
        # k = 0, which is never batched with k != 0
        (f0, fp0), far = states[..., 0], self._ends[:, 0]
        pair = (f0 - fp0 * far, fp0) if self._zero else plane_pair(f0, fp0, k, far)
        self._pair = tuple(c.reshape(len(nodes), rows, 1) for c in pair)  # (sides, rows, 1)
        if side is not None:  # one side has no side axis
            self.nodes, self.s, self.error_bound = nodes[0], self.s.item(), self.error_bound.item()

    def plane_pair(self):
        """(c_plus, c_minus) with f = c_plus e^{ikx} + c_minus e^{-ikx} beyond the far edge.

        For f_+ these are the scattering coefficients (a, b).  Only
        meaningful for k != 0.
        """
        plus = self._sign > 0
        c_plus, c_minus = (c.ravel() for c in self._pair)
        return tuple(np.where(plus, a, b).reshape(self._shape)[()]
                     for a, b in ((c_plus, c_minus), (c_minus, c_plus)))

    def eval(self, x):
        """Vectorized (f, f') at finite points, shaped like x after the side and k axes."""
        return self._eval(x, True)

    def _eval(self, x, deriv=False):
        """(f, f') as eval gives them, with f' formed only given deriv (else None)."""
        x = _points(x)
        xs, grid = x.ravel(), (len(self._nodes), self._rows, x.size)  # (sides, rows, points)
        t = self._sign[:, None] * xs / self.eps[:, None]
        anchored = t >= self._ends[:, 1:]
        inside = ~anchored & (t >= self._ends[:, :1])
        f, fp = (np.empty((2,) + grid, dtype=complex) if inside.all()
                 else self._outside(xs, t.reshape(grid), anchored.reshape(grid), deriv))
        f = f.reshape(t.shape)
        if inside.any():  # the step maps from the node states, at each point's row
            # a lone row reads at row 0, which puts the same numbers through the same ufuncs
            f_in, fp_in = self._inside(np.nonzero(inside)[0] if len(t) > 1 else 0, t[inside])
            f[inside] = f_in
            if deriv:
                fp.reshape(t.shape)[inside] = fp_in
        shape = self._shape + x.shape
        if deriv:
            fp = (fp.reshape(t.shape) * (self._sign / self.eps)[:, None]).reshape(shape)[()]
        return f.reshape(shape)[()], fp

    def _outside(self, xs, t, anchored, deriv):
        """(f, g' or None) on the (sides, rows, points) grid, valid at the points outside the nodes.

        Every row reads one plane-wave pair per point, at the undilated k in
        x: (e^{ikx}, e^{-ikx}) = (e^{i(eps k)t}, e^{-i(eps k)t}) for f_+,
        swapped for f_-.  A side reads its first wave outside its nodes and
        its second beyond them.  g' is in t, at each row's eps k.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # in lanes no branch reads, or in f
            waves = np.exp(1j * self._k_x * np.array([xs, -xs]))
            out, back = waves[self._sides][:, None], waves[::-1][self._sides][:, None]
            c_plus, c_minus = self._pair
            # beyond the far edge, f = incoming + outgoing: c_plus + c_minus t at k = 0
            incoming, outgoing = ((c_plus, c_minus * t) if self._zero
                                  else (c_plus * out, c_minus * back))
            fp = None
            if deriv:
                ikt = (1j * self.k).reshape(t.shape[:2] + (1,))
                fp = (np.where(anchored, ikt * out, c_minus) if self._zero
                      else ikt * np.where(anchored, out, incoming - outgoing))
            # in place: on many points, allocation is most of the cost
            f = np.add(incoming, outgoing, out=outgoing)
            np.copyto(f, out, where=anchored)
        return f, fp

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


_MIN_PANELS = 192  # uniform panels laid over the breakpoints (see the module docstring)
_MAX_ROUNDS = 36  # halvings of a uniform panel that set the narrowest Magnus step, span / 2^43.6
_MAX_JUMP = 8  # most halvings one rejected step jumps in one round
_MAX_STEPS = 1 << 20
_FLOOR = 1e-14  # relative step defect that rounding alone can produce
_MARGIN = 2.0  # bits below its share that a rejected step's pieces aim


def _seed_edges(lo, hi, breakpoints):
    """The seed mesh on [lo, hi]: _MIN_PANELS + 1 uniform points and the breakpoints inside.

    An inner uniform point within 1e-12 span of a breakpoint is dropped, as
    it would leave a sliver panel; both ends stay.  breakpoints may come
    unsorted, repeated or with nans (a duck-typed shape).  The merge sorts
    and drops repeats: the uniform points repeat where the span is a few
    ulps or none, and lo == hi gives the one node lo.  The uniform points
    are np.linspace's and the merge is np.unique's sort and mask, bit for
    bit, written out: both numpy functions run many Python-level steps,
    which every build would pay.
    """
    cuts = np.fromiter(breakpoints, dtype=float)
    cuts = np.sort(cuts[(lo < cuts) & (cuts < hi)])
    unit, step = np.arange(_MIN_PANELS + 1.0), (hi - lo) / _MIN_PANELS
    # a step that underflows to 0 scales by the span after the division, as np.linspace does
    uniform = (unit * step if step else unit / _MIN_PANELS * (hi - lo)) + lo
    uniform[-1] = hi
    # the cuts are sorted, so the nearest to each uniform point is one of the two around it
    around = np.concatenate([[-np.inf], cuts, [np.inf]])
    i = np.searchsorted(around, uniform)
    keep = np.minimum(around[i] - uniform, uniform - around[i - 1]) > 1e-12 * (hi - lo)
    keep[0] = keep[-1] = True
    edges = np.sort(np.concatenate([uniform[keep], cuts]))
    return edges[np.concatenate([[True], edges[1:] != edges[:-1]])]


def _x_maps(p: Potential, k, tol, layers):
    """(nodes, steps, mu2, tails) in x, oriented as f_+ reads them.

    steps[:, j] maps (f, f') at node j+1 to node j; tails are the masses
    cut left and right of the end nodes, with the second-moment tails at
    k = 0 (see _tail_point).  layers give exact steps and mu2 = h - k^2 for
    the scalar k.  A couplings batch, heights of shape (n, L), or a k
    batch, k of shape (n,), gives mu2 a leading axis of length n and
    steps one after their entries (steps[:, i, j] in row i), real only
    where every row's k^2 is (see the module docstring).
    Otherwise k is a scalar, mu2 is None and a Magnus step is accepted
    once its one-step and two-half-step maps, from one magnus_entries
    call per round, differ by at most tol * |h| / span relative to its
    size (or by the rounding floor), keeping the two-half-step map,
    Richardson-corrected by /63.  A rejected step is split into 2^l equal
    pieces, l = ceil(log64(4 defect / allowed)) in [1, _MAX_JUMP], none
    below narrowest.  The seed is _seed_edges'.  The mesh is refined in
    place, one array of steps in node order from the seed to the return:
    each round computes only the steps it adds, writes their maps into
    their slots, and returns once it rejects none.  A rejected step is
    replaced where it stands by its pieces; a kept step is one piece whose
    ends and map are copied, as the piece formula would turn a -0.0 end
    into +0.0.
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
        (hi, mass_r), (lo, mass_l) = (_tail_point(p, s, tol, k == 0) for s in (1.0, -1.0))
        lo, tails = -lo, (mass_l, mass_r)

    span = hi - lo
    edges = _seed_edges(lo, hi, p.breakpoints())
    left, right = edges[:-1], edges[1:]  # every step's ends, in node order
    narrowest = span / (_MIN_PANELS << _MAX_ROUNDS)  # nodes stay dyadic points of edges
    new, steps = slice(None), None  # the steps a round computes: all at first, a mask after
    while True:
        a, b = left[new], right[new]
        mid = 0.5 * (a + b)
        # the two half steps and the whole step in one call, V sampled once for all
        maps = np.array(magnus_entries(p, k, np.concatenate([mid, b, b]),
                                       np.concatenate([a, mid, a])))
        n = len(a)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf, nan or 0 defects
            halves = _compose(maps[:, :n], maps[:, n:2 * n])
            gap = maps[:, 2 * n:] - halves  # M_1 - M_2
            defect = _peak(np.abs(gap))
            allowed = np.maximum(tol * (b - a) / span, _FLOOR) * _peak(np.abs(halves))
            redo = ~(defect <= allowed)
            halves -= gap / 63.0  # in place: a round can hold most of the mesh
            if steps is None:  # the first round's steps are the mesh
                steps = halves
            else:
                steps[:, new] = halves
            if not redo.any():
                return np.append(left, hi), steps, None, tails
            # defect ~ h^7 against allowed ~ h, so 2^ceil(log64(4 ratio)) pieces bring
            # the ratio to 1/4; fmax makes a nan ratio (an overflowed step) one halving
            levels = np.fmax(np.ceil((np.log2(defect[redo] / allowed[redo]) + _MARGIN) / 6.0), 1.0)
        del maps, gap, halves
        a, b = a[redo], b[redo]
        room = np.floor(np.log2((b - a) / narrowest))
        count = np.exp2(np.minimum(levels, np.minimum(room, _MAX_JUMP))).astype(int)
        counts = np.ones(len(left), dtype=int)  # a kept step is one piece, its ends and map copied
        counts[np.arange(len(left))[new][redo]] = count  # at the rejected steps' slots
        if (room < 1).any() or counts.sum() > _MAX_STEPS:
            raise IntegrationError(f"Magnus mesh on [{lo:g}, {hi:g}] (tol {tol:g}) needs steps "
                                   f"narrower than {narrowest:.3g} or more than {_MAX_STEPS}")
        # each rejected step is replaced where it stands by its pieces (2 or more, as room >= 1),
        # so the mesh stays in node order; piece i of m covers [i / m, (i + 1) / m] of it,
        # whose ends stay exact
        new = np.repeat(counts > 1, counts)
        steps, left, right = (np.repeat(s, counts, axis=-1) for s in (steps, left, right))
        m = np.repeat(count, count)
        t = (np.arange(m.size) - np.repeat(np.cumsum(count) - count, count)) / m
        a, b = left[new], right[new]
        left[new], right[new] = (1.0 - t) * a + t * b, (1.0 - t - 1.0 / m) * a + (t + 1.0 / m) * b


def _peak(a):
    """max of each map's |entries| a, entries first: numpy's max over that short axis is slow."""
    return np.maximum(np.maximum(a[0], a[1]), np.maximum(a[2], a[3]))


def jost_evaluator(p: Potential, k, side, tol=1e-10):
    """The Jost solution f_+ (side "+") or f_- (side "-") of p at k, scanned alone.

    The route is the layer one when p's shape has layers, else Magnus.  On
    infinite support |sin(k s)/k| <= s makes f_+(x, 0) exist when
    int (1 + |x|) |V| < inf, but f_+(x, 0) grows like x beyond the
    support, so at k = 0 the cut mass adds the second-moment tail, and
    error_bound is that sum (see _tail_point).
    """
    if not isinstance(side, str) or side not in ("+", "-"):
        raise SpecError(f"side must be '+' or '-', got {side!r}")
    return JostEvaluator(_jost_maps(p, k, tol), side)


def _jost_maps(p: Potential, k, tol=1e-10, layers=None, eps=None):
    """The _Build of the unsqueezed base of p at eps k: its step maps in x and their readers.

    Every build checks tol here: outside (0, 1) it raises SpecError.  A
    k = 0 build cuts infinite tails by their second-moment mass too, so
    one build serves d0, theta and D'(0) (see _tail_point).  layers, as
    _layers gives them for the unsqueezed base, spare reading its tiling;
    heights of shape (n, L), n couplings, batch the layer route for the
    sweep's product, not for a JostEvaluator.
    Given eps, an array of dilations, p is already the base and the build
    is the k batch at eps k, of eps's shape (one row on the Magnus route).
    """
    k, tol = _wavenumber(k, allow_zero=True), _real(tol, "tol must lie in (0, 1)", 0.0, 1.0)
    if eps is None:
        p, eps = _unsqueezed(p)
    k_x, k = k, eps * k
    layers = _layers(p.shape, p.coupling) if layers is None else layers
    return _Build(p, k, eps, *_x_maps(p, k, tol, layers), k_x)


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
    k = _wavenumber(k)
    return _jost_maps(p, k, tol).scattering()[0]


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
    # numpy rounds complex scalar products otherwise than array products, so a
    # lone map's entries are 0-d arrays, not scalars: it multiplies as a batch row does
    m00, m01, m10, m11 = (m[i, ...] for i in range(4))
    return m00 * v[0] + m01 * v[1], m10 * v[0] + m11 * v[1]


@dataclass(frozen=True, eq=False)
class _Build:
    """The step maps of _jost_maps, and the numbers read from their product.

    p is the unsqueezed base, k its wavenumber eps k (a scalar, or a k
    batch's rows) and eps the dilation; the rest is _x_maps' output in x.
    k_x is the undilated k the build was asked for, one scalar that every
    row shares: the wavenumber of the plane waves in x and of the
    scattering data.  The product's readers all live here: W, the
    scattering data, and at k = 0 the pairs that give theta and D'(0).
    """

    p: Potential
    k: complex | np.ndarray
    eps: float | np.ndarray
    nodes: np.ndarray
    steps: np.ndarray
    mu2: np.ndarray | None
    tails: tuple[float, float]
    k_x: complex

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

    def halves(self):
        """(f_+, f_+', f_-, f_-') in x at the split node, from the anchor states.

        f_+ is R applied to its start at hi, and f_-(x) = g(-x), f_-' =
        -g'(-x), with g the mirrored L (m00 and m11 swapped) applied to g's
        start at t = -lo.
        """
        (left, right, _), (up, dn) = self.product, self.starts
        g, gp = _apply(left[_MIRROR], dn)
        return (*_apply(right, up), g, -gp)

    def zero_pairs(self):
        """The four (f_+, f_-) pairs of a k = 0 build, as the arrays (plus, minus).

        P carries f_+ = (1, 0) from hi to (P00, P10) at lo, below which it
        is the line A + B x, and the mirrored P carries f_- = (1, 0) from lo
        to (P11, -P10) at hi, above which it is C + D x.  The pairs are
        (A, 1) at -inf, (1, C) at +inf, and the values and the slopes at
        the split node; at a resonance f_- = theta f_+ in all four.
        """
        m00, _, m10, m11 = self.product[2]
        lo, hi = self.nodes[0], self.nodes[-1]
        f, fp, g, gp = self.halves()
        return np.array([m00 - m10 * lo, 1.0, f, fp]), np.array([1.0, m11 + m10 * hi, g, gp])

    def d_dot(self):
        """(D'(0), its split-node twin) of a k = 0 build.

        Every step map depends on k through k^2 only, so dP/dk = 0 at k =
        0, and differentiating W gives D'(0) = -i [(hi - lo) P10 + P00 +
        P11].  At the split node it is W{h_+, f_-} + W{f_+, h_-} with h =
        df/dk, whose starts in x are the k-derivatives of e^{ikx} at hi,
        (i hi, i), and of e^{-ikx} at lo, (-i lo, -i), carried as halves
        carries f_+ and f_-.
        """
        left, right, (m00, _, m10, m11) = self.product
        lo, hi = self.nodes[0], self.nodes[-1]
        value = complex(-1j * ((hi - lo) * m10 + m00 + m11))
        f, fp, g, gp = self.halves()
        f_k, fp_k = _apply(right, (1j * hi, 1j))
        g_k, gp_k = _apply(left[_MIRROR], (-1j * lo, 1j))  # g's start is (h_-, -h_-')
        return value, (f_k * gp - fp_k * g) + (f * -gp_k - fp * g_k)

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

    def scattering(self) -> list[ScatteringData]:
        """Scattering data at k_x per row, the build's k being eps k_x (a scalar is one row).

        The first row whose product is not finite, or whose a vanishes,
        raises what scattering would raise at its eps.  For real V, a
        vanishes only where k^2 is an eigenvalue, k = i kappa; where k^2 is
        not real, the a-test fires only because b is blown up (its far-edge
        wave grows like e^{2 Im k |lo|}), so it raises NumericsError.
        """
        k, kb, ikb, lo = self.k_x, self.k, 1j * self.k, self.nodes[0]
        with np.errstate(over="ignore", invalid="ignore"):
            far = _apply(self.product[2], self.starts[0])
            a, b = plane_pair(*far, kb, lo)
            # r = b / a read off the far state directly, with fewer roundings
            r = np.exp(2.0 * ikb * lo) * (ikb * far[0] - far[1]) / (ikb * far[0] + far[1])
            finite = np.isfinite(self.product[2]).all(axis=0)
            failed = ~finite | (abs(a) < 1e-12 * (1.0 + abs(b)))
        if failed.any():
            i = np.argmax(failed)
            if not np.ravel(finite)[i]:
                raise SpecError(f"the step-map product is not finite at k = {k}")
            if k.real and k.imag:  # k^2 not real (real k never gets here: |a|^2 = 1 + |b|^2)
                raise NumericsError(f"a(k) cannot vanish where k^2 is not real, yet |a| = "
                                    f"{abs(np.ravel(a)[i]):.3g} fails the test against |b| = "
                                    f"{abs(np.ravel(b)[i]):.3g} at k = {k}: b is not resolved")
            raise ExceptionalPointError(
                f"a(k) vanishes at k = {k}: k^2 is an eigenvalue, scattering data undefined")
        f, fp, g, gp = self.halves()
        gap = abs(a - (f * gp - fp * g) / (-2.0 * ikb)) / (1.0 + abs(a))
        columns = (np.array(v, ndmin=1).tolist() for v in (a, b, r, 1.0 / a, gap))
        return [ScatteringData(k, *row) for row in zip(*columns)]
