"""Zero-energy resonances (half-bound states) and coupling sweeps.

A potential is resonant at zero energy when -y'' + V y = 0 has a
bounded solution on the whole line; equivalently the two zero-energy
Jost solutions are proportional, f_-(., 0) = theta * f_+(., 0), and the
Wronskian d0 = W{f_+, f_-}(0) vanishes.  The ratio theta (equal to the
bounded solution's value at +inf over its value at -inf) is what
survives of the potential in the small-eps limit, so it is worth
computing carefully and cross-checking.

Everything at zero energy comes from one (f_+, f_-) evaluator pair at
k = 0 on one mesh, built once per report.  Outside the support, or
beyond the cut tails, the solutions are constants and straight lines.
Infinite tails are cut where their weighted mass falls below tol, as at
any k; the results are then flagged as extrapolated and the cut mass is
the evaluators' error_bound.  The derivative of the Wronskian at k = 0 is
exact as well: D'(0) = W{h_+, f_-} + W{f_+, h_-} with h = df/dk, from
one build per side that carries each solution and its k-derivative.

A coupling sweep evaluates d0 on its whole grid at once.  For a
piecewise-constant base the layer heights of every coupling form one
batch, so each side of the Wronskian is a single evaluator build, and
the brackets of all sign changes are bisected in lockstep with one
batched call per round; each value is bit for bit the one-coupling
result.  Other bases are evaluated one coupling at a time under the
same driver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import RatioInconsistencyError, SpecError
from .jost import _jost_pair, _midpoint, _wronskian_at_mid, _zero_energy_wronskians
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
    error_bound.
    """

    d0: float
    threshold: float
    is_resonant: bool
    theta: float | None
    theta_far_field: float | None
    halfbound_grid: np.ndarray | None
    halfbound_values: np.ndarray | None
    extrapolated: bool


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
    raises RatioInconsistencyError.
    """
    if threshold is None:
        threshold = 1e-8 * (1.0 + fm_norm(p))
    evp, evm = _jost_pair(p, 0.0, tol)
    d0 = float(_wronskian_at_mid(p, evp, evm).real)
    extrapolated = not p.is_compact()
    if abs(d0) >= threshold:
        return ResonanceReport(d0, float(threshold), False, None, None, None, None, extrapolated)

    sup = p.support()
    half = max(5.0, 2.0 * max(abs(sup[0]), abs(sup[1]))) if sup else 10.0
    grid = np.linspace(-half, half, 801)
    vp, vm = evp.eval(grid)[0], evm.eval(grid)[0]
    f_far, df_far = evp.eval(evp.far_edge)
    # below the far edge the zero-energy f_+ is the line A + B x; A is its
    # renormalized value
    a_far = complex(f_far - df_far * evp.far_edge)
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
    -i (theta + 1/theta); theta_formula_gap is the distance of value from
    that identity.  ray_gap is a second estimate of the integration
    error: the Wronskian is constant in x, and ray_gap is the gap between
    value, taken at the support midpoint (x = 0 for infinite support),
    and the same Wronskian taken halfway from there to f_+'s anchor.
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

    D'(0) = W{h_+, f_-} + W{f_+, h_-}, where h_+ = df_+/dk at k = 0 is
    the zero-energy solution equal to i x beyond f_+'s anchor (h_- is
    -i x beyond f_-'s).  One build per side carries f and h through the
    same step maps; on infinite support its anchor also cuts the
    second-moment tail int |x| (1 + |x|) |V|.  No difference quotient is
    taken.  Requires a resonant potential, whose report gives theta.
    """
    if report is None:
        report = resonance_report(p, tol=tol)
    if not report.is_resonant:
        raise SpecError(
            f"d_dot_zero needs a zero-energy resonance; |d0| = {abs(report.d0):.3g} "
            f"exceeds threshold {report.threshold:.3g}"
        )
    evp, evm = _jost_pair(p, 0.0, tol, _dot=True)
    x_star = _midpoint(p)
    xs = [x_star, 0.5 * (x_star + evp.anchor)]
    (f, f_k), (f_x, f_kx) = evp.eval(xs)  # rows: f_+ and its k-derivative
    (g, g_k), (g_x, g_kx) = evm.eval(xs)
    w = f_k * g_x - f_kx * g + f * g_kx - f_x * g_k
    expected = -1j * (report.theta + 1.0 / report.theta)
    return DZeroDerivative(complex(w[0]), float(abs(w[0] - w[1])), float(abs(w[0] - expected)))


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
    residual |d0| fall below root_tol.  The grid is one batched d0 call,
    and all brackets advance together, one batched call per bisection
    round; each value equals the one-coupling d0 bit for bit.  A grid too
    coarse to separate a pair of nearby roots is flagged with a warning
    based on the local parabolic model of the sweep.
    """
    if not alpha_min < alpha_max:
        raise SpecError(f"need alpha_min < alpha_max, got [{alpha_min}, {alpha_max}]")
    if not math.isfinite(float(alpha_max) - float(alpha_min)):  # an infinite end or span
        raise SpecError(f"sweep range must be finite, got [{alpha_min}, {alpha_max}]")
    if grid_n < 2:
        raise SpecError(f"grid_n must be at least 2, got {grid_n}")
    if root_tol <= 0:
        raise SpecError(f"root_tol must be positive, got {root_tol}")

    def g(alphas):  # d0 at each alpha; one build per side for a layered base
        return _zero_energy_wronskians(base, base.coupling * np.asarray(alphas), tol).real

    alphas = np.linspace(alpha_min, alpha_max, grid_n)
    values = g(alphas)

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
    roots = sorted(roots + _bisect_roots(g, brackets, root_tol), key=lambda r: r.bracket[0])

    _warn_double_crossings(alphas, values)

    return CouplingSweep(alphas, values, tuple(roots), trivial)


def _bisect_roots(g, brackets, root_tol) -> list[CouplingRoot]:
    """Bisect every bracket (lo, hi, g_lo, g_hi) in lockstep, one g call per round.

    Each bracket follows its own rule: it stops once both its width and
    its smaller end value are below root_tol, once its width reaches
    rounding, or after 200 rounds.
    """
    if not brackets:
        return []
    lo, hi, g_lo, g_hi = (np.array(c, dtype=float) for c in zip(*brackets))
    live = np.arange(len(brackets))
    for _ in range(200):
        mid = 0.5 * (lo[live] + hi[live])
        g_mid = g(mid)
        left = g_lo[live] * g_mid <= 0.0
        hi[live[left]], g_hi[live[left]] = mid[left], g_mid[left]
        lo[live[~left]], g_lo[live[~left]] = mid[~left], g_mid[~left]
        width = hi[live] - lo[live]
        small = np.minimum(np.abs(g_lo[live]), np.abs(g_hi[live]))
        done = (width < root_tol) & (small < root_tol)
        done |= width < 1e-15 * np.maximum(1.0, np.abs(hi[live]))
        live = live[~done]
        if not len(live):
            break
    return [CouplingRoot(float(a if abs(ga) <= abs(gb) else b), start[:2],
                         float(min(abs(ga), abs(gb))))
            for a, b, ga, gb, start in zip(lo.tolist(), hi.tolist(), g_lo.tolist(),
                                           g_hi.tolist(), brackets)]


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
