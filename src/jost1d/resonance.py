"""Zero-energy resonances (half-bound states) and coupling sweeps.

A potential is resonant at zero energy when -y'' + V y = 0 has a
bounded solution on the whole line; equivalently the two zero-energy
Jost solutions are proportional, f_-(., 0) = theta * f_+(., 0), and the
Wronskian d0 = W{f_+, f_-}(0) vanishes.  The ratio theta (equal to the
bounded solution's value at +inf over its value at -inf) is what
survives of the potential in the small-eps limit, so it is worth
computing carefully and cross-checking.

For compact support everything at k = 0 is computed directly (the
outside solutions are constants and straight lines).  Infinite tails
are handled on the ray k = i*delta with Richardson extrapolation
delta -> 0, and results are flagged as extrapolated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, RatioInconsistencyError, SpecError
from .jost import jost_evaluator, jost_wronskian
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

_EXTRAPOLATION_DELTAS = (1e-4, 1e-5, 1e-6)


def _richardson(values, ratio=10.0):
    """Eliminate the leading O(delta) error from a sequence along a delta ladder."""
    out = list(values)
    while len(out) > 1:
        out = [(ratio * b - a) / (ratio - 1.0) for a, b in zip(out, out[1:])]
    return out[0]


def _d_zero(p: Potential, tol=1e-10, method="auto"):
    """(d0, extrapolated_flag): the zero-energy Wronskian."""
    if p.is_compact():
        w = jost_wronskian(p, 0.0, tol, method)
        return float(w.real), False
    samples = [jost_wronskian(p, 1j * d, tol, method) for d in _EXTRAPOLATION_DELTAS]
    return float(_richardson(samples).real), True


@dataclass(frozen=True, eq=False)
class ResonanceReport:
    """Zero-energy diagnosis of a potential.

    theta is the far-field ratio of the half-bound state (None when not
    resonant); theta_far_field is the same number computed a second way,
    from the renormalized value of f_+ on the far left, as a consistency
    handle.  halfbound_grid/halfbound_values sample the bounded solution
    normalized to 1 at +inf.
    """

    d0: float
    threshold: float
    is_resonant: bool
    theta: float | None
    theta_far_field: float | None
    halfbound_grid: np.ndarray | None
    halfbound_values: np.ndarray | None
    extrapolated: bool


def _zero_energy_pair(p: Potential, grid, tol, method):
    """Values of (f_+, f_-) at zero energy on the grid, plus f_+ far-field data."""
    if p.is_compact():
        evp = jost_evaluator(p, 0.0, "+", tol, method)
        evm = jost_evaluator(p, 0.0, "-", tol, method)
        vp = evp.eval(grid)[0]
        vm = evm.eval(grid)[0]
        f_far, df_far = evp.eval(evp.far_edge)
        # below the far edge f_+ is the line A + B x; A is its renormalized value
        a_far = f_far - df_far * evp.far_edge
        return vp, vm, complex(a_far)
    vps, vms, a_fars = [], [], []
    for d in _EXTRAPOLATION_DELTAS[-2:]:
        evp = jost_evaluator(p, 1j * d, "+", tol, method)
        evm = jost_evaluator(p, 1j * d, "-", tol, method)
        vps.append(evp.eval(grid)[0])
        vms.append(evm.eval(grid)[0])
        f_far, df_far = evp.eval(evp.far_edge)
        a_fars.append(f_far - df_far * evp.far_edge)
    return _richardson(vps), _richardson(vms), complex(_richardson(a_fars))


def resonance_report(
    p: Potential,
    threshold: float | None = None,
    tol: float = 1e-10,
    quad_tol: float = 1e-10,
    grid=None,
    method: str = "auto",
) -> ResonanceReport:
    """Decide resonant vs nonresonant at zero energy and extract theta.

    The default threshold scales with the potential mass:
    |d0| < 1e-8 * (1 + fm_norm).  When resonant, theta is the average of
    f_-(x,0)/f_+(x,0) over points where |f_+| is not small; the ratio
    must be constant for a genuine resonance, and a drift beyond 1e-6
    raises RatioInconsistencyError.
    """
    if threshold is None:
        norm = fm_norm(p, quad_tol)
        if not np.isfinite(norm):
            raise NumericsError("weighted norm did not converge; pass threshold explicitly")
        threshold = 1e-8 * (1.0 + norm)
    d0, extrapolated = _d_zero(p, tol, method)
    if abs(d0) >= threshold:
        return ResonanceReport(d0, float(threshold), False, None, None, None, None, extrapolated)

    if grid is None:
        sup = p.support()
        half = max(5.0, 2.0 * max(abs(sup[0]), abs(sup[1]))) if sup else 10.0
        grid = np.linspace(-half, half, 801)
    else:
        grid = np.asarray(grid, dtype=float)

    vp, vm, a_far = _zero_energy_pair(p, grid, tol, method)
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
    halfbound = vp.real
    return ResonanceReport(
        d0, float(threshold), True, theta, theta_far, grid, halfbound, extrapolated
    )


@dataclass(frozen=True)
class DZeroDerivative:
    """d/dk of the Wronskian at k = 0 for a resonant potential.

    For a resonance with far-field ratio theta the exact value is
    -i (theta + 1/theta); theta_formula_gap is the distance of the
    finite-difference estimate from that identity, and ray_gap the
    disagreement between the two approach directions.
    """

    value: complex
    ray_gap: float
    theta_formula_gap: float


def d_dot_zero(
    p: Potential,
    deltas=_EXTRAPOLATION_DELTAS,
    tol: float = 1e-10,
    method: str = "auto",
    report: ResonanceReport | None = None,
) -> DZeroDerivative:
    """Finite-difference derivative of the Wronskian at zero energy.

    Differences (W(delta u) - d0) / (delta u) run along the rays u = i and
    u = (1+i)/sqrt(2), each Richardson-extrapolated down the delta ladder,
    then averaged.  Requires a resonant potential; subtracting the
    report's d0 keeps a residual W(0) (a sweep root leaves up to its
    root_tol) from being divided by delta.
    """
    if report is None:
        report = resonance_report(p, tol=tol, method=method)
    if not report.is_resonant:
        raise SpecError(
            f"d_dot_zero needs a zero-energy resonance; |d0| = {abs(report.d0):.3g} "
            f"exceeds threshold {report.threshold:.3g}"
        )
    rays = (1j, (1.0 + 1j) / np.sqrt(2.0))
    estimates = []
    for u in rays:
        quotients = [(jost_wronskian(p, d * u, tol, method) - report.d0) / (d * u)
                     for d in deltas]
        estimates.append(_richardson(quotients))
    value = 0.5 * (estimates[0] + estimates[1])
    ray_gap = abs(estimates[0] - estimates[1])
    expected = -1j * (report.theta + 1.0 / report.theta)
    return DZeroDerivative(complex(value), float(ray_gap), float(abs(value - expected)))


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
    method: str = "auto",
) -> CouplingSweep:
    """Locate couplings alpha where alpha*V has a zero-energy resonance.

    Scans d0(alpha) on a uniform grid, brackets sign changes, and refines
    each bracket by bisection until both the bracket width and the
    residual |d0| fall below root_tol.  A grid too coarse to separate a
    pair of nearby roots is flagged with a warning based on the local
    parabolic model of the sweep.
    """
    if not alpha_min < alpha_max:
        raise SpecError(f"need alpha_min < alpha_max, got [{alpha_min}, {alpha_max}]")
    if grid_n < 2:
        raise SpecError(f"grid_n must be at least 2, got {grid_n}")
    if root_tol <= 0:
        raise SpecError(f"root_tol must be positive, got {root_tol}")

    def g(alpha: float) -> float:
        return _d_zero(base.with_coupling(base.coupling * alpha), tol, method)[0]

    alphas = np.linspace(alpha_min, alpha_max, grid_n)
    values = np.array([g(a) for a in alphas])

    trivial = 0.0 if alpha_min <= 0.0 <= alpha_max else None

    roots = []
    for i in range(grid_n - 1):
        lo_a, hi_a = float(alphas[i]), float(alphas[i + 1])
        g_lo, g_hi = float(values[i]), float(values[i + 1])
        if lo_a <= 0.0 <= hi_a and (g_lo == 0.0 or g_hi == 0.0):
            continue  # the trivial root, handled separately
        if g_lo == 0.0 and lo_a != 0.0:
            roots.append(CouplingRoot(lo_a, (lo_a, lo_a), 0.0))
            continue
        if g_lo * g_hi < 0.0:
            roots.append(_bisect_root(g, lo_a, hi_a, g_lo, g_hi, root_tol))

    _warn_double_crossings(alphas, values)

    return CouplingSweep(alphas, values, tuple(roots), trivial)


def _bisect_root(g, lo, hi, g_lo, g_hi, root_tol) -> CouplingRoot:
    bracket = (lo, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_lo * g_mid <= 0.0:
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
        if hi - lo < root_tol and min(abs(g_lo), abs(g_hi)) < root_tol:
            break
        if hi - lo < 1e-15 * max(1.0, abs(hi)):
            break
    alpha = lo if abs(g_lo) <= abs(g_hi) else hi
    return CouplingRoot(float(alpha), bracket, float(min(abs(g_lo), abs(g_hi))))


def _warn_double_crossings(alphas, values):
    """Parabolic check for a pair of roots hiding between grid points."""
    suspicious = []
    for i in range(1, len(alphas) - 1):
        g0, g1, g2 = values[i - 1], values[i], values[i + 1]
        if g0 * g1 < 0.0 or g1 * g2 < 0.0 or g1 == 0.0:
            continue
        half_diff = 0.5 * (g2 - g0)
        curv = 0.5 * (g2 - 2.0 * g1 + g0)
        if curv == 0.0:
            continue
        s_vertex = -half_diff / (2.0 * curv)
        if abs(s_vertex) < 1.0:
            q_vertex = g1 + half_diff * s_vertex + curv * s_vertex * s_vertex
            if q_vertex * g1 < 0.0:
                suspicious.append(float(alphas[i]))
    if suspicious:
        warnings.warn(
            "the d0 sweep may cross zero twice between grid points near alpha = "
            f"{suspicious}; refine the grid to resolve the pair",
            RuntimeWarning,
            stacklevel=3,
        )
