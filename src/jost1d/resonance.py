"""Zero-energy resonances (half-bound states) and coupling sweeps.

A potential is resonant at zero energy when -y'' + V y = 0 has a
bounded solution on the whole line; equivalently the two zero-energy
Jost solutions are proportional, f_-(., 0) = theta * f_+(., 0), and the
Wronskian d0 = W{f_+, f_-}(0) vanishes.  The ratio theta (equal to the
bounded solution's value at +inf over its value at -inf) is what
survives of the potential in the small-eps limit, so it is worth
computing carefully and cross-checking.

Everything at zero energy comes from one set of step maps at k = 0,
built once per report, and no evaluator: d0 is read off their product,
and so is theta.  Outside the support, or beyond the cut tails, the
solutions are straight lines, so P carries f_+ to the line A + B x below
the support and the mirrored P carries f_- to C + D x above it; at a
resonance B = -d0 and D = d0 vanish, and theta = 1/A = C.  A resonant
report reads theta from these far fields and the states of f_+ and f_-,
both in x, at the product's split node: the four pairs of
jost._Build.zero_pairs.  This module reads no entry of P itself; its
readers live on the build.  Infinite tails are cut where their weighted
mass plus their second-moment mass falls below tol, as at every k = 0
build, since the zero-energy solutions grow like |x| beyond the support;
the results are then flagged as extrapolated.  A d0 that is not finite
raises SpecError.  D'(0) = dW/dk at k = 0 needs no evaluator either:
every step map depends on k through k^2 only, so dP/dk = 0 at k = 0,
and differentiating W gives D'(0) = -i [(hi - lo) P10 + P00 + P11]
(see jost._Build.d_dot).  It reads the same k = 0 build as the report,
on any support.

A coupling sweep evaluates d0 on its whole grid at once and builds no
evaluator.  For a piecewise-constant base the layer heights of every
coupling form one batch, so the grid is one map set and one product;
as its size costs little, each bisection round evaluates in one batch,
for every bracket, the midpoints bisection takes if d0 is the secant
through the bracket's ends, and walks until bisection leaves them: a
24-step sweep takes 2 or 3 rounds.  Other bases, one map set per
coupling, take one step per round.  Prediction and walk follow one
bisection step rule on Python floats, which round as float64 does, so
each value, and so each root, is bit for bit the one-coupling result.
A d0 that is not finite, or whose product overflowed, stops the sweep
with SpecError, as does a root whose residual stays above root_tol.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import RatioInconsistencyError, SpecError, _count, _real
from .jost import _jost_maps, _zero_energy_wronskians
from .potential import Potential, fm_norm

__all__ = [
    "ResonanceReport",
    "DZeroDerivative",
    "CouplingRoot",
    "CouplingSweep",
    "resonance_report",
    "d_dot_zero",
    "resonant_couplings",
]

@dataclass(frozen=True, eq=False)
class ResonanceReport:
    """Zero-energy diagnosis of a potential.

    theta is the far-field ratio of the half-bound state (None when not
    resonant); theta_far_field is the same number read from one point
    only, 1/A for the line A + B x that f_+ follows on the far left, as a
    consistency handle.  extrapolated means the solutions were anchored
    at a cut tail (infinite support).  A resonant report keeps (p, tol,
    k = 0 build) in _zero_maps, on any support, for d_dot_zero.
    """

    d0: float
    threshold: float
    is_resonant: bool
    theta: float | None
    theta_far_field: float | None
    extrapolated: bool
    _zero_maps: tuple | None = field(default=None, repr=False, compare=False)


def resonance_report(
    p: Potential,
    threshold: float | None = None,
    tol: float = 1e-10,
) -> ResonanceReport:
    """Decide resonant vs nonresonant at zero energy and extract theta.

    The default threshold scales with the potential mass:
    |d0| < 1e-8 * (1 + fm_norm).  When resonant, theta is the least-squares
    ratio f_-/f_+ of four pairs of the k = 0 product: the far-field values
    (A, 1) at -inf and (1, C) at +inf, and the values and the slopes at
    the split node.  For a genuine resonance f_- = theta f_+ in all four;
    the one consistency test is their spread, and a largest gap
    |f_- - theta f_+| beyond 1e-6 of the largest |f_-| raises
    RatioInconsistencyError.  theta may be arbitrarily small or large (a
    well behind a tall barrier), but not 0: the spread is then 1.  A
    non-finite d0, or a threshold that is not a positive, finite real
    number, raises SpecError.
    """
    threshold = (1e-8 * (1.0 + fm_norm(p)) if threshold is None
                 else _real(threshold, "threshold must be positive and finite", 0.0))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives d0 = nan
        built = _jost_maps(p, 0.0, tol)
        d0 = float(built.wronskian().real)
    if not math.isfinite(d0):
        raise SpecError("d0 is not finite: the zero-energy propagator overflows")
    extrapolated = not p.is_compact()
    if abs(d0) >= threshold:
        return ResonanceReport(d0, threshold, False, None, None, extrapolated)
    plus, minus = built.zero_pairs()  # real at k = 0, so theta is too
    theta_c = np.vdot(plus, minus) / np.vdot(plus, plus)
    spread = np.max(np.abs(minus - theta_c * plus)) / np.max(np.abs(minus))
    if not spread <= 1e-6:  # nan too
        raise RatioInconsistencyError(
            f"flagged resonant (|d0| = {abs(d0):.3g} < {threshold:.3g}) but "
            f"f_-/f_+ drifts by {spread:.3g}; the threshold may be too loose"
        )
    theta_far = float((1.0 / plus[0]).real) if plus[0] != 0 else math.inf
    return ResonanceReport(d0, threshold, True, float(theta_c.real), theta_far,
                           extrapolated, (p, tol, built))


@dataclass(frozen=True)
class DZeroDerivative:
    """d/dk of the Wronskian at k = 0 for a resonant potential.

    For a resonance with far-field ratio theta the exact value is
    -i (theta + 1/theta); theta_formula_gap is the distance of value from
    that identity.  ray_gap is the distance of value, read from the
    product of the step maps, from the same derivative at the product's
    split node (see d_dot_zero), which only rounding makes nonzero.
    """

    value: complex
    ray_gap: float
    theta_formula_gap: float


def d_dot_zero(
    p: Potential,
    tol: float = 1e-10,
    report: ResonanceReport | None = None,
) -> DZeroDerivative:
    """Exact derivative D'(0) of the Wronskian at zero energy.

    D'(0) = -i [(hi - lo) P10 + P00 + P11] from the product P = L R of
    the k = 0 step maps on [lo, hi], whose infinite tails, as at every
    k = 0 build, are cut by the second-moment mass int |x| (1 + |x|) |V|
    as well; ray_gap compares it with the same derivative at the split
    node (see jost._Build.d_dot).  Requires a resonant potential, whose
    report gives theta, and its k = 0 maps if the report is p's own at
    this tol; otherwise it builds them.
    """
    if report is None:
        report = resonance_report(p, tol=tol)
    if not report.is_resonant:
        raise SpecError(
            f"d_dot_zero needs a zero-energy resonance; |d0| = {abs(report.d0):.3g} "
            f"exceeds threshold {report.threshold:.3g}"
        )
    zero = report._zero_maps
    built = (zero[2] if zero is not None and zero[0] is p and zero[1] == tol
             else _jost_maps(p, 0.0, tol))
    value, split = built.d_dot()
    expected = -1j * (report.theta + 1.0 / report.theta)
    return DZeroDerivative(value, float(abs(value - split)), float(abs(value - expected)))


# ---------------------------------------------------------------------------
# coupling sweeps


@dataclass(frozen=True)
class CouplingRoot:
    alpha: float
    bracket: tuple[float, float]
    residual: float


@dataclass(frozen=True, eq=False)
class CouplingSweep:
    """d0 as a function of the coupling alpha, with refined resonant roots.

    trivial_root records alpha = 0 (the free line, always resonant) when
    the sweep range contains it; it is kept separate from the sign-change
    roots because d0 does not change sign there.
    """

    alphas: np.ndarray
    d0_values: np.ndarray
    roots: tuple[CouplingRoot, ...]
    trivial_root: float | None


def resonant_couplings(
    base: Potential,
    alpha_min: float,
    alpha_max: float,
    grid_n: int = 201,
    root_tol: float = 1e-8,
    tol: float = 1e-10,
) -> CouplingSweep:
    """Locate couplings alpha where alpha*V has a zero-energy resonance.

    Scans d0(alpha) on a uniform grid, brackets sign changes, and refines
    each bracket by bisection until both the bracket width and the
    residual |d0| fall below root_tol (positive and finite).  The grid is
    one batched d0 call.  On a layered base each further call holds, for
    every bracket, the midpoints of the path bisection takes if d0 is the
    secant through its ends; otherwise each call is one step.  Each value
    equals the one-coupling d0 bit for bit, as do the roots.  A grid too
    coarse to separate a pair of nearby roots is flagged with a warning
    based on the local parabolic model of the sweep.  A d0 that
    overflows, on the grid or in a bisection, raises SpecError, as does
    a root whose residual never falls below root_tol, and a d0 that is 0
    at every grid coupling (a zero base, whose every coupling is resonant).
    """
    lo, hi = (_real(a, "sweep range must be finite") for a in (alpha_min, alpha_max))
    if not 0.0 < hi - lo < math.inf:  # an overflowing span too
        raise SpecError(f"need alpha_min < alpha_max and a finite sweep range, got [{lo}, {hi}]")
    grid_n = _count(grid_n, "grid_n must be an integer of at least 2", 2)
    root_tol = _real(root_tol, "root_tol must be positive and finite", 0.0)
    d0, layered = _zero_energy_wronskians(base, tol)

    def g(alphas):  # d0 at each alpha, nan where it overflowed; one map set for a layered base
        with np.errstate(over="ignore", invalid="ignore"):
            return d0(base.coupling * alphas).real

    alphas = np.linspace(lo, hi, grid_n)
    values = _finite(alphas, g(alphas))
    if not values.any():  # every coupling resonant, and no root an isolated one
        raise SpecError("d0 vanishes at every grid coupling: the base potential is zero")

    trivial = 0.0 if lo <= 0.0 <= hi else None

    roots, brackets = _grid_roots(alphas, values)
    found = _bisect_roots(g, brackets, root_tol, layered)
    roots = sorted(roots + found, key=lambda r: r.bracket[0])
    for root in roots:
        if not root.residual < root_tol:
            raise SpecError(f"|d0| stays at {root.residual:.3g} >= root_tol near alpha = "
                            f"{root.alpha}: d0 has no correct digits; narrow the sweep range")

    _warn_double_crossings(alphas, values)

    return CouplingSweep(alphas, values, tuple(roots), trivial)


def _finite(alphas, values):
    """values, unless d0 is not finite at one of alphas: then SpecError names the first."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise SpecError(f"d0 is not finite at alpha = {float(np.asarray(alphas)[bad][0])}: the "
                        "propagator overflows there; narrow the sweep range")
    return values


def _grid_roots(alphas, values):
    """The grid's exact zeros, as roots, and its sign changes (lo, hi, g_lo, g_hi), in grid order.

    A cell [lo, hi] holding alpha = 0 with a zero end is the trivial root
    and gives neither; any other cell whose lo value is zero gives the root lo.
    """
    lo, hi, g_lo, g_hi = alphas[:-1], alphas[1:], values[:-1], values[1:]
    trivial = (lo <= 0.0) & (hi >= 0.0) & ((g_lo == 0.0) | (g_hi == 0.0))
    with np.errstate(over="ignore"):  # an overflowing product is still negative
        change = g_lo * g_hi < 0.0
    roots = [CouplingRoot(a, (a, a), 0.0) for a in lo[(g_lo == 0.0) & ~trivial].tolist()]
    return roots, list(zip(*(x[change].tolist() for x in (lo, hi, g_lo, g_hi))))


def _bisect_roots(g, brackets, root_tol, layered) -> list[CouplingRoot]:
    """Bisect every bracket (lo, hi, g_lo, g_hi) as plain bisection does, in rounds of one g call.

    A round predicts a row of midpoints for each live bracket: when
    layered, where a batch of any size is one map set, those _walk takes
    if d0 is the secant through the bracket's ends; otherwise, where each
    point is a map set of its own, only the next one.  All rows are one g
    call.  Each bracket then walks the same rule on the round's values
    until a midpoint is missing or it stops, so it reads the values plain
    bisection reads, and the roots are bit for bit the same.  The first
    non-finite value in bisection's lockstep order, by step and then by
    bracket, raises once no bracket can read an earlier one.
    """
    state = [[float(v) for v in b] + [0] for b in brackets]  # [lo, hi, g_lo, g_hi, steps]
    live, bad = list(range(len(state))), (math.inf, 0, 0.0)  # bad: the first (step, bracket, mid)
    while live:
        rows = [_predicted(state[i], root_tol, layered) for i in live]
        values = g(np.array([x for row in rows for x in row])).tolist()
        kept, at = [], 0
        for i, row in zip(live, rows):
            table = dict(zip(row, values[at:at + len(row)]))  # g at each midpoint of the round
            at += len(row)
            mid, g_mid = _walk(state[i], table.get, root_tol)
            if g_mid is not None:  # not finite
                bad = min(bad, (state[i][4] + 1, i, mid))
            elif mid is not None:  # the round holds no value for mid
                kept.append(i)
        live = kept
        if bad[0] < math.inf and all((state[i][4] + 1, i) > bad[:2] for i in live):
            _finite([bad[2]], [math.nan])  # raises, naming the midpoint
    return [CouplingRoot(a if abs(ga) <= abs(gb) else b, start[:2], min(abs(ga), abs(gb)))
            for (a, b, ga, gb, _), start in zip(state, brackets)]


def _predicted(b, root_tol, layered):
    """The midpoints _walk reads from b = [lo, hi, g_lo, g_hi, steps] if d0 is its ends' secant.

    Unless layered, only the first: each point is then a map set of its own.
    """
    lo, hi, g_lo, g_hi, _ = b
    slope, row = (g_hi - g_lo) / (hi - lo), []
    _walk(list(b), lambda mid: row.append(mid) or
          (g_lo + (mid - lo) * slope if layered else None), root_tol)
    return row


def _walk(b, read, root_tol):
    """Bisect b = [lo, hi, g_lo, g_hi, steps] in place, reading g at each midpoint from read.

    The midpoint 0.5 * (lo + hi) is taken on Python floats, which round
    as float64 arrays do.  Returns (None, None) once b stops: its width
    and smaller end value are below root_tol, its width reaches rounding,
    or at 200 steps.  Returns (mid, read(mid)) where read gives None or a
    value that is not finite, and leaves b as it was before mid.
    """
    while True:
        mid = 0.5 * (b[0] + b[1])
        g_mid = read(mid)
        if g_mid is None or not math.isfinite(g_mid):
            return mid, g_mid
        b[4] += 1
        if b[2] * g_mid <= 0.0:
            b[1], b[3] = mid, g_mid
        else:
            b[0], b[2] = mid, g_mid
        lo, hi, g_lo, g_hi, steps = b
        if ((hi - lo < root_tol and min(abs(g_lo), abs(g_hi)) < root_tol)
                or hi - lo < 1e-15 * max(1.0, abs(hi)) or steps == 200):
            return None, None


def _warn_double_crossings(alphas, values):
    """Parabolic check for a pair of roots hiding between grid points."""
    g0, g1, g2 = values[:-2], values[1:-1], values[2:]
    with np.errstate(all="ignore"):  # curv = 0 or g1 = 0 fails the last two tests
        half_diff = 0.5 * (g2 - g0)
        curv = 0.5 * (g2 - 2.0 * g1 + g0)
        s_vertex = -half_diff / (2.0 * curv)
        q_vertex = g1 + half_diff * s_vertex + curv * s_vertex * s_vertex
        pair = (g0 * g1 >= 0) & (g1 * g2 >= 0) & (np.abs(s_vertex) < 1) & (q_vertex * g1 < 0)
    suspicious = alphas[1:-1][pair].tolist()
    if suspicious:
        warnings.warn(
            "the d0 sweep may cross zero twice between grid points near alpha = "
            f"{suspicious}; refine the grid to resolve the pair",
            RuntimeWarning,
            stacklevel=3,
        )
