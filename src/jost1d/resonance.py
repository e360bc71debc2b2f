"""Zero-energy resonances (half-bound states) and coupling sweeps.

A potential is resonant at zero energy when -y'' + V y = 0 has a
bounded solution on the whole line; equivalently the two zero-energy
Jost solutions are proportional, f_-(., 0) = theta * f_+(., 0), and the
Wronskian d0 = W{f_+, f_-}(0) vanishes.  The ratio theta (equal to the
bounded solution's value at +inf over its value at -inf) is what
survives of the potential in the small-eps limit, so it is worth
computing carefully and cross-checking.

Everything at zero energy comes from one set of step maps at k = 0,
built once per report: d0 is their product, and only a resonant report
scans them, both sides in one evaluator, which reads f_+ and f_- on the
report's grid, and f_+ at its far edge, in one call.  Outside the support, or
beyond the cut tails, the solutions are constants and straight lines.
Infinite tails are cut where their weighted mass falls below tol, as at
any k; the results are then flagged as extrapolated and the cut mass is
the evaluator's error_bound.  A d0 that is not finite raises SpecError.
D'(0) = dW/dk at k = 0 needs no evaluator either: every step map depends
on k through k^2 only, so dP/dk = 0 at k = 0, and differentiating W (see
jost._Build.wronskian) gives D'(0) = -i [(hi - lo) P10 + P00 + P11].

A coupling sweep evaluates d0 on its whole grid at once and builds no
evaluator.  For a piecewise-constant base the layer heights of every
coupling form one batch, so the grid is one map set and one product;
as its size costs little, each bisection round evaluates in one batch
the 15 midpoints the next four steps of every bracket can take.  Other
bases, one map set per coupling, take one step per round.  The steps
are walked on Python floats, which round as float64 does, so each
value, and so each root, is bit for bit the one-coupling result.  A d0
that is not finite, or whose product overflowed, stops the sweep with
SpecError, as does a root whose residual stays above root_tol.
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import RatioInconsistencyError, SpecError
from .jost import JostEvaluator, _jost_maps, _zero_energy_wronskians
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
    resonant); theta_far_field is the same number computed a second way,
    from the renormalized value of f_+ on the far left, as a consistency
    handle.  halfbound_grid/halfbound_values sample the bounded solution
    normalized to 1 at +inf.  extrapolated means the solutions were
    anchored at a cut tail (infinite support); the cut mass is their
    error_bound.  On compact support _zero_maps keeps (p, tol, k = 0 build).
    """

    d0: float
    threshold: float
    is_resonant: bool
    theta: float | None
    theta_far_field: float | None
    halfbound_grid: np.ndarray | None
    halfbound_values: np.ndarray | None
    extrapolated: bool
    _zero_maps: tuple | None = field(default=None, repr=False, compare=False)


def resonance_report(
    p: Potential,
    threshold: float | None = None,
    tol: float = 1e-10,
) -> ResonanceReport:
    """Decide resonant vs nonresonant at zero energy and extract theta.

    The default threshold scales with the potential mass:
    |d0| < 1e-8 * (1 + fm_norm).  When resonant, theta is the average of
    f_-(x,0)/f_+(x,0) over points where |f_+| is not small; the ratio
    must be constant for a genuine resonance, and a drift beyond 1e-6
    raises RatioInconsistencyError.  A non-finite d0, or a threshold that
    is not a positive, finite real number, raises SpecError.
    """
    if threshold is None:
        threshold = 1e-8 * (1.0 + fm_norm(p))
    elif not (isinstance(threshold, numbers.Real) and 0.0 < threshold < math.inf):  # NaN too
        raise SpecError(f"threshold must be positive and finite, got {threshold}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives d0 = nan
        built = _jost_maps(p, 0.0, tol)
        d0 = float(built.wronskian().real)
    if not math.isfinite(d0):
        raise SpecError("d0 is not finite: the zero-energy propagator overflows")
    extrapolated = not p.is_compact()
    if abs(d0) >= threshold:
        return ResonanceReport(d0, float(threshold), False, None, None, None, None, extrapolated)
    pair = JostEvaluator(built)

    sup = p.support()
    half = max(5.0, 2.0 * max(abs(sup[0]), abs(sup[1]))) if sup else 10.0
    grid = np.linspace(-half, half, 801)
    far_edge = pair.far_edge[0]
    f, fp = pair.eval(np.append(grid, far_edge))  # both sides on the grid, and the far edge
    vp, vm, f_far, df_far = f[0, :-1], f[1, :-1], f[0, -1], fp[0, -1]
    # below the far edge the zero-energy f_+ is the line A + B x; A is its
    # renormalized value
    a_far = complex(f_far - df_far * far_edge)
    mask = np.abs(vp) > 0.1 * np.max(np.abs(vp))
    ratios = vm[mask] / vp[mask]
    theta_c = np.mean(ratios)
    spread = np.max(np.abs(ratios - theta_c)) / max(abs(theta_c), 1e-300)
    if spread > 1e-6:
        raise RatioInconsistencyError(
            f"flagged resonant (|d0| = {abs(d0):.3g} < {threshold:.3g}) but "
            f"f_-/f_+ drifts by {spread:.3g}; the threshold may be too loose"
        )
    if abs(theta_c.imag) > 1e-8 * (1.0 + abs(theta_c)) or abs(theta_c) < 1e-8:
        raise RatioInconsistencyError(
            f"half-bound-state ratio should be real and nonzero, got {theta_c}"
        )
    theta = float(theta_c.real)
    theta_far = float((1.0 / a_far).real) if a_far != 0 else float("inf")
    halfbound = vp.real.copy()  # a view would keep both sides' values alive
    return ResonanceReport(d0, float(threshold), True, theta, theta_far, grid, halfbound,
                           extrapolated, None if extrapolated else (p, tol, built))


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
    the k = 0 step maps on [lo, hi], whose infinite tails are cut by the
    second-moment mass int |x| (1 + |x|) |V| as well.  At the split node
    it is W{h_+, f_-} + W{f_+, h_-} with h = df/dk, h_+ = R (i hi, i) and
    h_- the mirrored L applied to (-i lo, i) in t = -x.  Requires a
    resonant potential, whose report gives theta, and on compact support
    its k = 0 maps, if it is p's at this tol.
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
             else _jost_maps(p, 0.0, tol, second=True))
    lo, hi = built.nodes[0], built.nodes[-1]
    m00, _, m10, m11 = built.product[2]
    value = complex(-1j * ((hi - lo) * m10 + m00 + m11))
    f, fp, g, gp = built.halves()
    f_k, fp_k, g_k, gp_k = built.halves(((1j * hi, 1j), (-1j * lo, 1j)))
    split = -(f_k * gp + fp_k * g) - (f * gp_k + fp * g_k)
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
    one batched d0 call, and all brackets advance together, four steps
    per batched call on a layered base and one otherwise; each value
    equals the one-coupling d0 bit for bit, as do the roots.  A grid too
    coarse to separate a pair of nearby roots is flagged with a warning
    based on the local parabolic model of the sweep.  A d0 that overflows,
    on the grid or in a bisection, raises SpecError, as does a root whose
    residual never falls below root_tol.
    """
    if not alpha_min < alpha_max:
        raise SpecError(f"need alpha_min < alpha_max, got [{alpha_min}, {alpha_max}]")
    if not math.isfinite(float(alpha_max) - float(alpha_min)):  # an infinite end or span
        raise SpecError(f"sweep range must be finite, got [{alpha_min}, {alpha_max}]")
    if (grid_n := _count("grid_n", grid_n)) < 2:
        raise SpecError(f"grid_n must be at least 2, got {grid_n}")
    if not 0.0 < root_tol < math.inf:
        raise SpecError(f"root_tol must be positive and finite, got {root_tol}")
    d0, layered = _zero_energy_wronskians(base, tol)

    def g(alphas):  # d0 at each alpha, nan where it overflowed; one map set for a layered base
        with np.errstate(over="ignore", invalid="ignore"):
            return d0(base.coupling * alphas).real

    alphas = np.linspace(alpha_min, alpha_max, grid_n)
    values = _finite(alphas, g(alphas))

    trivial = 0.0 if alpha_min <= 0.0 <= alpha_max else None

    roots, brackets = [], []
    for i in range(grid_n - 1):
        lo_a, hi_a = float(alphas[i]), float(alphas[i + 1])
        g_lo, g_hi = float(values[i]), float(values[i + 1])
        if lo_a <= 0.0 <= hi_a and (g_lo == 0.0 or g_hi == 0.0):
            continue  # the trivial root, handled separately
        if g_lo == 0.0 and lo_a != 0.0:
            roots.append(CouplingRoot(lo_a, (lo_a, lo_a), 0.0))
            continue
        if g_lo * g_hi < 0.0:
            brackets.append((lo_a, hi_a, g_lo, g_hi))
    found = _bisect_roots(g, brackets, root_tol, 4 if layered else 1)
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


def _count(name, n):
    """n as an int, or SpecError naming the argument when it is not an integer."""
    try:
        return operator.index(n)
    except TypeError:
        raise SpecError(f"{name} must be an integer, got {n!r}") from None


def _bisect_roots(g, brackets, root_tol, depth) -> list[CouplingRoot]:
    """Bisect every bracket (lo, hi, g_lo, g_hi) in lockstep, depth steps per g call.

    A round splits each live [lo, hi] by 2^depth + 1 points, the one with
    lowest set bit s at p being 0.5 * (a + b) of those at p -+ s; one g
    call evaluates them.  The walk runs on Python floats, which round as
    float64 arrays do, and reads, step by step and within a step bracket
    by bracket, the values plain bisection reads, so only those can raise
    (the first in that order) and the roots are bit for bit the same.  A
    bracket stops, its round left unread, once its width and smaller end
    value are below root_tol, its width reaches rounding, or at 200 steps.
    """
    state = [[float(v) for v in b] for b in brackets]  # each [lo, hi, g_lo, g_hi], walked in place
    live, steps = state, 0
    halves = [2 ** d for d in reversed(range(depth))]  # a step's half width, in points
    while live and steps < 200:
        pts = np.empty((len(live), 2 ** depth + 1))
        pts[:, [0, -1]] = [b[:2] for b in live]
        for s in halves:
            pts[:, s::2 * s] = 0.5 * (pts[:, :-s:2 * s] + pts[:, 2 * s::2 * s])
        values = g(pts[:, 1:-1].ravel()).reshape(len(live), -1)
        walk = [(b, 0, xs, vs) for b, xs, vs in zip(live, pts.tolist(), values.tolist())]
        for s in halves[:200 - steps]:
            kept = []
            for b, at, xs, vs in walk:
                at += s  # from the bracket's left end to its midpoint
                mid, g_mid = xs[at], vs[at - 1]
                if not math.isfinite(g_mid):
                    _finite([mid], [g_mid])  # raises, naming mid
                if b[2] * g_mid <= 0.0:
                    b[1], b[3], at = mid, g_mid, at - s
                else:
                    b[0], b[2] = mid, g_mid
                lo, hi, g_lo, g_hi = b
                if not ((hi - lo < root_tol and min(abs(g_lo), abs(g_hi)) < root_tol)
                        or hi - lo < 1e-15 * max(1.0, abs(hi))):
                    kept.append((b, at, xs, vs))
            walk = kept
            steps += 1
        live = [w[0] for w in walk]
    return [CouplingRoot(a if abs(ga) <= abs(gb) else b, start[:2], min(abs(ga), abs(gb)))
            for (a, b, ga, gb), start in zip(state, brackets)]


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
