"""Independent reference computations used to check the library.

Everything here is built from first principles with generic numerics --
dense linear solves, matrix exponentials, adaptive Runge-Kutta, sparse
finite differences, special functions, mpmath -- and never calls into the
library's own propagation or matching code.  Where the library multiplies transfer matrices, the
oracle solves one global matching system; where the library matches
plane waves in closed form, the oracle discretizes the differential
equation.  The exceptions are d_zero, zero_energy_report and
scalar_sweep, which build on the library's public jost_evaluator and
jost_wronskian on purpose: they are the zero-energy code one coupling
and one quantity at a time (jost_wronskian multiplies one map set,
jost_evaluator builds one evaluator), and check how the library
batches, bisects and reuses its maps, not the propagation underneath;
layer_matching_d0 checks that propagation in mpmath.  double_crossings
is the sweep's parabolic check written as a loop over grid points, and
table_breakpoints and seed_edges are a table's kinks and the Magnus seed
mesh by their plain rules, loops and all-pairs distances.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad, solve_ivp
from scipy.special import j0, j1, jn_zeros

# ---------------------------------------------------------------------------
# plane-wave bookkeeping (tiny and rederived here on purpose)


def plane_coefficients(f, fp, k, x):
    """(a, b) with f = a e^{ikx} + b e^{-ikx}, f' consistent, at one point."""
    a = (1j * k * f + fp) * np.exp(-1j * k * x) / (2j * k)
    b = (1j * k * f - fp) * np.exp(1j * k * x) / (2j * k)
    return a, b


# ---------------------------------------------------------------------------
# scattering off a piecewise-constant potential by one dense linear solve


def layer_matching_scattering(segments, k):
    """(r, t) for contiguous constant layers via a global matching system.

    The wave is e^{ikx} + r e^{-ikx} left of the first layer, t e^{ikx}
    right of the last, and A_j e^{mu_j s} + B_j e^{-mu_j s} inside layer
    j (s is the layer-local coordinate, mu_j^2 = h_j - k^2).  Continuity
    of value and derivative at every breakpoint gives a square linear
    system in (r, A_1, B_1, ..., A_n, B_n, t); any branch of each square
    root works because A_j, B_j are free.
    """
    n = len(segments)
    k = complex(k)
    mus = [np.sqrt(complex(h) - k * k) for (_, _, h) in segments]
    widths = [r - l for (l, r, _) in segments]
    x_left = segments[0][0]
    x_right = segments[-1][1]

    m = 2 * n + 2
    M = np.zeros((m, m), dtype=complex)
    rhs = np.zeros(m, dtype=complex)

    def col_A(j):
        return 1 + 2 * j

    def col_B(j):
        return 2 + 2 * j

    # left edge: e^{ik x} + r e^{-ik x}  matches layer 0 at s = 0
    el = np.exp(1j * k * x_left)
    M[0, 0] = np.exp(-1j * k * x_left)
    M[0, col_A(0)] = -1.0
    M[0, col_B(0)] = -1.0
    rhs[0] = -el
    M[1, 0] = -1j * k * np.exp(-1j * k * x_left)
    M[1, col_A(0)] = -mus[0]
    M[1, col_B(0)] = mus[0]
    rhs[1] = -1j * k * el

    # interior breakpoints: layer j at s = width_j matches layer j+1 at s = 0
    for j in range(n - 1):
        ep = np.exp(mus[j] * widths[j])
        em = np.exp(-mus[j] * widths[j])
        row = 2 + 2 * j
        M[row, col_A(j)] = ep
        M[row, col_B(j)] = em
        M[row, col_A(j + 1)] = -1.0
        M[row, col_B(j + 1)] = -1.0
        M[row + 1, col_A(j)] = mus[j] * ep
        M[row + 1, col_B(j)] = -mus[j] * em
        M[row + 1, col_A(j + 1)] = -mus[j + 1]
        M[row + 1, col_B(j + 1)] = mus[j + 1]

    # right edge: layer n-1 at s = width matches t e^{ikx}
    ep = np.exp(mus[-1] * widths[-1])
    em = np.exp(-mus[-1] * widths[-1])
    er = np.exp(1j * k * x_right)
    M[m - 2, col_A(n - 1)] = ep
    M[m - 2, col_B(n - 1)] = em
    M[m - 2, m - 1] = -er
    M[m - 1, col_A(n - 1)] = mus[-1] * ep
    M[m - 1, col_B(n - 1)] = -mus[-1] * em
    M[m - 1, m - 1] = -1j * k * er

    sol = np.linalg.solve(M, rhs)
    return complex(sol[0]), complex(sol[-1])


def rectangle_scattering(left, right, height, k):
    """(r, t) for a single rectangular layer."""
    return layer_matching_scattering([(left, right, height)], k)


# ---------------------------------------------------------------------------
# scattering off a smooth potential by a midpoint staircase of expm steps


def staircase_scattering_expm(v, left, right, k, n_layers):
    """(r, t) from a staircase approximation propagated with matrix exponentials.

    Each thin layer advances (f, f') by expm of [[0, 1], [h - k^2, 0]]
    times the layer width; the potential is sampled at layer midpoints,
    so the error is O(width^2) for smooth v.  The propagation runs from
    the right edge (where f_+ = e^{ikx}) down to the left edge.
    """
    k = complex(k)
    edges = np.linspace(left, right, n_layers + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    state = np.array([np.exp(1j * k * right), 1j * k * np.exp(1j * k * right)])
    for h in reversed(np.asarray(v(mids), dtype=float)):
        gen = np.array([[0.0, 1.0], [h - k * k, 0.0]], dtype=complex)
        state = scipy.linalg.expm(-width * gen) @ state
    a, b = plane_coefficients(state[0], state[1], k, left)
    return complex(b / a), complex(1.0 / a)


# ---------------------------------------------------------------------------
# the right Jost solution by adaptive Runge-Kutta integration


def dop853_jost_plus(v, edges, k, xs=()):
    """f_+ by DOP853 on the plane-wave-normalized unknown, panel by panel.

    m = f e^{-ikx} solves m'' = V m - 2ik m' with m = 1, m' = 0 at the
    right edge; each panel [edges[i], edges[i+1]] (V smooth inside) is
    integrated separately from right to left.  Returns (a, b) of
    f_+ = a e^{ikx} + b e^{-ikx} left of edges[0], and (f, f') at the
    points xs, which must lie in [edges[0], edges[-1]].
    """
    k = complex(k)
    xs = np.asarray(xs, dtype=float)
    f = np.empty(xs.shape, dtype=complex)
    fp = np.empty(xs.shape, dtype=complex)

    def rhs(x, y):
        return np.array([y[1], float(v(x)) * y[0] - 2j * k * y[1]])

    y = np.array([1.0 + 0.0j, 0.0 + 0.0j])
    for lo, hi in reversed(list(zip(edges[:-1], edges[1:]))):
        sol = solve_ivp(rhs, (hi, lo), y, method="DOP853", rtol=1e-12, atol=1e-13,
                        dense_output=True, max_step=(hi - lo) / 16.0)
        assert sol.success, sol.message
        here = (xs >= lo) & (xs <= hi)
        if here.any():
            m, mp = sol.sol(xs[here])
            phase = np.exp(1j * k * xs[here])
            f[here] = m * phase
            fp[here] = (mp + 1j * k * m) * phase
        y = sol.y[:, -1]
    phase = np.exp(1j * k * edges[0])
    a, b = plane_coefficients(y[0] * phase, (y[1] + 1j * k * y[0]) * phase, k, edges[0])
    return complex(a), complex(b), f, fp


def dop853_jost(v, edges, k, xs, side="+"):
    """(f, f') of f_+ (side "+") or f_- at any xs: dop853_jost_plus, then plane waves.

    f_- is f_+ of v(-x) read at -x.  Inside [edges[0], edges[-1]] the
    values come from the DOP853 panels; right of them (for f_+) the
    solution is e^{ikx}, and left of them a e^{ikx} + b e^{-ikx}.
    """
    s = 1.0 if side == "+" else -1.0
    k = complex(k)
    e = np.sort(s * np.asarray(edges, dtype=float))
    t = s * np.asarray(xs, dtype=float)
    inside = (t >= e[0]) & (t <= e[-1])
    a, b, f_in, fp_in = dop853_jost_plus(v if s > 0 else (lambda x: v(-x)), e, k, t[inside])
    up, dn = np.exp(1j * k * t), np.exp(-1j * k * t)
    f, fp = a * up + b * dn, 1j * k * (a * up - b * dn)
    right = t > e[-1]
    f[right], fp[right] = up[right], 1j * k * up[right]
    f[inside], fp[inside] = f_in, fp_in
    return f, s * fp


# ---------------------------------------------------------------------------
# a windowed exponential potential in closed form (mpmath)


def exp_window_scattering(rate, strength, half_width, k, dps=40):
    """(r, t) of V = strength e^{-rate |x|} cut to |x| <= half_width (None: the whole line).

    On x >= 0 the equation -y'' + V y = k^2 y has the solutions
    u_+-(x) = e^{+-ikx} 0F1(; 1 -+ 2ik/rate; strength e^{-rate x} / rate^2),
    Bessel functions J_{-+2ik/rate}(2 sqrt(-strength) e^{-rate x/2} / rate)
    up to constants (the series of 0F1 solves the recursion of the
    coefficients of e^{(+-ik - m rate) x} directly); on x <= 0 they are
    u_+-(-x).  f_+ is e^{ikx} beyond the window, is matched to u_+-
    at +half_width and carried across x = 0 to u_+-(-x), and its
    plane-wave coefficients are read at -half_width, or for the whole
    line from u_+(-x) -> e^{-ikx} and u_-(-x) -> e^{ikx}.  Every step
    runs in mpmath at dps digits.
    """
    with mpmath.workdps(dps):
        r, k = mpmath.mpf(rate), mpmath.mpc(k)
        c, ik = mpmath.mpf(strength) / r**2, 1j * k

        def u(x, sign):  # (u, u') of u_+ (sign 1) or u_- (sign -1) at x >= 0
            b, w, e = 1 - sign * 2j * k / r, c * mpmath.exp(-r * x), mpmath.exp(sign * ik * x)
            f = e * mpmath.hyp0f1(b, w)
            return f, sign * ik * f - r * w * e * mpmath.hyp0f1(b + 1, w) / b

        def solve(col1, col2, rhs):  # (c1, c2) with c1 col1 + c2 col2 = rhs
            det = col1[0] * col2[1] - col2[0] * col1[1]
            return ((rhs[0] * col2[1] - col2[0] * rhs[1]) / det,
                    (col1[0] * rhs[1] - col1[1] * rhs[0]) / det)

        if half_width is None:
            c1, c2 = 1, 0
        else:
            h = mpmath.mpf(half_width)
            edge1, edge2 = u(h, 1), u(h, -1)
            c1, c2 = solve(edge1, edge2, (mpmath.exp(ik * h), ik * mpmath.exp(ik * h)))
        (z1, z1p), (z2, z2p) = u(0, 1), u(0, -1)
        d1, d2 = solve((z1, -z1p), (z2, -z2p), (c1 * z1 + c2 * z2, c1 * z1p + c2 * z2p))
        if half_width is None:
            a, b = d2, d1
        else:
            f = d1 * edge1[0] + d2 * edge2[0]
            fp = -(d1 * edge1[1] + d2 * edge2[1])
            a = (ik * f + fp) * mpmath.exp(ik * h) / (2 * ik)
            b = (ik * f - fp) * mpmath.exp(-ik * h) / (2 * ik)
        return complex(b / a), complex(1 / a)


# ---------------------------------------------------------------------------
# zero-energy closed forms for one rectangle


def square_d0(width, height):
    """Jost-solution Wronskian at k = 0 for a single rectangular layer.

    Matching constants across the layer gives sqrt(h) sinh(sqrt(h) w)
    for a barrier and -sqrt(-h) sin(sqrt(-h) w) for a well; both are the
    value at h -> 0 limit h*w of the same analytic function.
    """
    if height > 0:
        s = np.sqrt(height)
        return s * np.sinh(s * width)
    if height < 0:
        s = np.sqrt(-height)
        return -s * np.sin(s * width)
    return 0.0


def square_resonant_couplings(n_roots):
    """Couplings alpha where -alpha * (indicator of [-1, 1]) is resonant.

    The zero-energy interior solution is cos(sqrt(alpha)(x - 1)); its
    slope at the far edge vanishes iff sin(2 sqrt(alpha)) = 0, so the
    roots are (n pi / 2)^2 and the far-field ratio is cos(n pi) = (-1)^n.
    """
    alphas = [(n * np.pi / 2.0) ** 2 for n in range(1, n_roots + 1)]
    thetas = [(-1.0) ** n for n in range(1, n_roots + 1)]
    return alphas, thetas


def square_zero_energy_fplus(left, right, height, x):
    """f_+(x, 0) and its derivative for one rectangular layer, closed form."""
    x = np.asarray(x, dtype=float)
    if height > 0:
        s = np.sqrt(height)
        inner = lambda u: np.cosh(s * (u - right))
        dinner = lambda u: s * np.sinh(s * (u - right))
    elif height < 0:
        s = np.sqrt(-height)
        inner = lambda u: np.cos(s * (u - right))
        dinner = lambda u: -s * np.sin(s * (u - right))
    else:
        inner = lambda u: np.ones_like(u)
        dinner = lambda u: np.zeros_like(u)
    val_l, slope_l = inner(np.array(left)), dinner(np.array(left))
    f = np.where(x >= right, 1.0, np.where(x >= left, inner(x), val_l + slope_l * (x - left)))
    fp = np.where(x >= right, 0.0, np.where(x >= left, dinner(x), slope_l * np.ones_like(x)))
    return f, fp


def layer_matching_d0(segments, dps=40):
    """W{f_+, f_-}(0) for constant layers (left, right, height) by matching in mpmath.

    f_+ = 1 right of the last layer.  Walking left, it is carried across
    each layer by cosh/sinh (height > 0), cos/sin (height < 0) or a line
    (height 0) of the local wavenumber, and across each gap between
    layers by a line.  Left of the first layer f_- = 1, so the Wronskian
    f_+ f_-' - f_+' f_- is -f_+' there.
    """
    with mpmath.workdps(dps):
        f, fp = mpmath.mpf(1), mpmath.mpf(0)
        x = mpmath.mpf(segments[-1][1])
        for left, right, height in reversed(segments):
            left, right, h = mpmath.mpf(left), mpmath.mpf(right), mpmath.mpf(height)
            f += fp * (right - x)  # the gap [right, x] is free
            w = right - left
            if h > 0:
                s = mpmath.sqrt(h)
                f, fp = (f * mpmath.cosh(s * w) - fp * mpmath.sinh(s * w) / s,
                         -f * s * mpmath.sinh(s * w) + fp * mpmath.cosh(s * w))
            elif h < 0:
                s = mpmath.sqrt(-h)
                f, fp = (f * mpmath.cos(s * w) - fp * mpmath.sin(s * w) / s,
                         f * s * mpmath.sin(s * w) + fp * mpmath.cos(s * w))
            else:
                f -= fp * w
            x = left
        return float(-fp)


# ---------------------------------------------------------------------------
# zero-energy closed forms for the exponential tail -alpha e^{-|x|}


def exp_well_d0(alpha):
    """Wronskian at k = 0 for V = -alpha e^{-|x|}, alpha > 0.

    With s = 2 sqrt(alpha) e^{-|x|/2} the zero-energy equation becomes
    Bessel's equation of order zero, and the solution tending to 1 at
    +inf is J0(s); evaluating the Wronskian at x = 0 gives
    -2 sqrt(alpha) J0(2 sqrt(alpha)) J1(2 sqrt(alpha)).
    """
    s = 2.0 * np.sqrt(alpha)
    return -s * j0(s) * j1(s)


def exp_well_resonances(n_each=1):
    """(alpha, theta) pairs for the first resonances of -alpha e^{-|x|}.

    Zeros of J0(2 sqrt(alpha)) give theta = -1 (the two half-line pieces
    meet with opposite sign), zeros of J1 give theta = +1 (even match).
    """
    out = []
    for z in jn_zeros(0, n_each):
        out.append(((z / 2.0) ** 2, -1.0))
    for z in jn_zeros(1, n_each):
        out.append(((z / 2.0) ** 2, 1.0))
    return sorted(out)


# ---------------------------------------------------------------------------
# analytic tails for e^{-|x|}


def exp_tail_sigma_plus(x):
    """int_x^inf e^{-|t|} dt for x >= 0."""
    return np.exp(-x)


def exp_tail_tau_plus(x):
    """int_x^inf (1+|t|) e^{-|t|} dt for x >= 0."""
    return (2.0 + x) * np.exp(-x)


EXP_TAIL_FM_NORM = 4.0


def exp_tails(rate, strength, x):
    """(sigma_-, sigma_+, tau_-, tau_+) at x for |V| = |strength| e^{-rate |t|}.

    Each one-sided integral is written as the whole-line value minus the
    opposite side where that side is the short one.
    """
    s, r = abs(strength), rate

    def right(y):  # int_y^inf of e^{-r|t|} and of (1+|t|) e^{-r|t|}, y >= 0
        return s * np.exp(-r * y) / r, s * np.exp(-r * y) * (r * (1.0 + y) + 1.0) / r**2

    whole = (2.0 * s / r, 2.0 * s * (r + 1.0) / r**2)
    if x >= 0:
        sp, tp = right(x)
        return whole[0] - sp, sp, whole[1] - tp, tp
    sm, tm = right(-x)
    return sm, whole[0] - sm, tm, whole[1] - tm


def quad_integrals(v, cuts, lo=-np.inf, hi=np.inf):
    """(int |v|, int (1+|x|) |v|, int v, int x v) over [lo, hi] by QUADPACK.

    The interval is cut at every point of cuts inside it and at 0 (the
    kink of |x|), so no panel holds a jump or a kink; each panel is
    integrated to relative 1e-13 and the panels are summed exactly.
    """
    edges = [lo, *sorted({c for c in (*cuts, 0.0) if lo < c < hi}), hi]
    fns = (lambda x: abs(v(x)), lambda x: (1.0 + abs(x)) * abs(v(x)), v, lambda x: x * v(x))
    return tuple(
        math.fsum(quad(fn, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                  for a, b in zip(edges, edges[1:]))
        for fn in fns
    )


def bisection_splitting_scale(p, eps):
    """xi with rho(xi) = 1/eps on infinite support, by bracket doubling and bisection.

    rho(x) = (1 + |x|) / tau(x)^(1/2), tau the two-sided weighted tail mass
    from the shape's closed-form integrals; the bracket is bisected to a
    width of 1e-12 relative, and no derivative is used.  It checks the
    library's root finder, not the integrals, which quad_integrals checks.
    """

    def rho(x):
        tau = (p.shape.integrals(x, math.inf, p.coupling)[3]
               + p.shape.integrals(-math.inf, -x, p.coupling)[3])
        return math.inf if tau <= 0.0 else (1.0 + x) / math.sqrt(tau)

    lo, hi = 0.0, 1.0
    while rho(hi) <= 1.0 / eps:
        hi *= 2.0
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if rho(mid) > 1.0 / eps else (mid, hi)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# a table's breakpoints and the Magnus seed mesh, by the plain rules


def table_breakpoints(x, v):
    """The nodes of a table and its interior sign changes, one crossing at a time."""
    pts = list(x)
    for i in range(len(v) - 1):
        if v[i] * v[i + 1] < 0.0:
            t = v[i] / (v[i] - v[i + 1])
            pts.append(float(x[i] + t * (x[i + 1] - x[i])))
    return tuple(sorted(set(pts)))


def seed_edges(lo, hi, breakpoints, panels):
    """panels + 1 uniform points on [lo, hi] merged with the breakpoints strictly inside.

    Every uniform point is measured against every breakpoint (an O(panels
    * m) table), an inner one within 1e-12 (hi - lo) of any is dropped,
    both ends stay, and np.unique merges and drops repeats.
    """
    cuts = np.array([b for b in breakpoints if lo < b < hi])
    uniform = np.linspace(lo, hi, panels + 1)
    near = np.abs(np.subtract.outer(uniform, cuts)).min(axis=1, initial=np.inf) <= 1e-12 * (hi - lo)
    near[[0, -1]] = False
    return np.unique(np.concatenate([uniform[~near], cuts]))


# ---------------------------------------------------------------------------
# zero-energy quantities one build at a time

def d_zero(p, tol=1e-10):
    """(d0, extrapolated): W{f_+, f_-}(0) from freshly built solutions at k = 0.

    extrapolated is True when the support is infinite, so the solutions
    were anchored at a cut tail.
    """
    from jost1d.jost import jost_wronskian

    return float(jost_wronskian(p, 0.0, tol).real), not p.is_compact()


def zero_energy_report(p, tol=1e-10):
    """(d0, extrapolated, theta, theta_far_field, halfbound_values) of a resonant p.

    d0 comes from d_zero; the k = 0 solutions are then built again, one
    evaluator per side, and read on 801 points of [-h, h], h = max(5,
    twice the support's reach) or 10 on infinite support.  theta is their
    mean ratio where |f_+| is not small, halfbound_values is f_+ there,
    and theta_far_field is 1/A for the line A + B x that f_+ follows below
    its far edge.
    """
    from jost1d.jost import jost_evaluator

    d0, extrapolated = d_zero(p, tol)
    sup = p.support()
    half = max(5.0, 2.0 * max(abs(sup[0]), abs(sup[1]))) if sup else 10.0
    grid = np.linspace(-half, half, 801)
    evp = jost_evaluator(p, 0.0, "+", tol)
    vp = evp.eval(grid)[0]
    vm = jost_evaluator(p, 0.0, "-", tol).eval(grid)[0]
    f_far, df_far = evp.eval(evp.far_edge)
    a_far = complex(f_far - df_far * evp.far_edge)
    mask = np.abs(vp) > 0.1 * np.max(np.abs(vp))
    theta = float(np.mean(vm[mask] / vp[mask]).real)
    return d0, extrapolated, theta, float((1.0 / a_far).real), vp.real


# ---------------------------------------------------------------------------
# a coupling sweep one coupling at a time


def scalar_sweep(base, alpha_min, alpha_max, grid_n=201, root_tol=1e-8, tol=1e-10):
    """(alphas, d0_values, roots, trivial_root) of a sweep done point by point.

    This is the sweep as first written: d0 from d_zero at every grid
    point, then each sign change bisected on its own.  It checks the
    batched grid and the lockstep bisection of resonant_couplings, which
    must reproduce it exactly; roots are (alpha, bracket, residual)
    tuples.
    """

    def g(alpha):
        return d_zero(base.with_coupling(base.coupling * alpha), tol)[0]

    def bisect(lo, hi, g_lo, g_hi):
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
        return float(alpha), bracket, float(min(abs(g_lo), abs(g_hi)))

    alphas = np.linspace(alpha_min, alpha_max, grid_n)
    values = np.array([g(a) for a in alphas])
    roots = []
    for i in range(grid_n - 1):
        lo_a, hi_a = float(alphas[i]), float(alphas[i + 1])
        g_lo, g_hi = float(values[i]), float(values[i + 1])
        if lo_a <= 0.0 <= hi_a and (g_lo == 0.0 or g_hi == 0.0):
            continue
        if g_lo == 0.0 and lo_a != 0.0:
            roots.append((lo_a, (lo_a, lo_a), 0.0))
            continue
        if g_lo * g_hi < 0.0:
            roots.append(bisect(lo_a, hi_a, g_lo, g_hi))
    trivial = 0.0 if alpha_min <= 0.0 <= alpha_max else None
    return alphas, values, roots, trivial


def grid_roots(alphas, values):
    """The sweep's exact-zero roots and sign-change brackets, one grid cell at a time.

    This is the scan as first written, a loop over the cells that skips the
    trivial root at alpha = 0; the sweep's masks must give the same roots,
    as (alpha, bracket, residual) tuples, and the same brackets, in order.
    """
    roots, brackets = [], []
    for i in range(len(alphas) - 1):
        lo_a, hi_a = float(alphas[i]), float(alphas[i + 1])
        g_lo, g_hi = float(values[i]), float(values[i + 1])
        if lo_a <= 0.0 <= hi_a and (g_lo == 0.0 or g_hi == 0.0):
            continue
        if g_lo == 0.0 and lo_a != 0.0:
            roots.append((lo_a, (lo_a, lo_a), 0.0))
            continue
        if g_lo * g_hi < 0.0:
            brackets.append((lo_a, hi_a, g_lo, g_hi))
    return roots, brackets


def double_crossings(alphas, values):
    """The grid alphas that the sweep's parabolic check flags, one point at a time.

    This is the check as first written, a loop over the inner grid
    points; the sweep's masks must flag the same alphas.
    """
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
    return suspicious


# ---------------------------------------------------------------------------
# finite-difference resolvent on a split line


def _one_sided_slope_rows(sign):
    """Coefficients of the 2nd-order one-sided derivative at a boundary node.

    sign=+1: derivative into the right half, nodes (0, 1, 2);
    sign=-1: derivative into the left half, nodes (0, -1, -2).
    """
    return np.array([-3.0, 4.0, -1.0]) * sign / 2.0


class FdSplitLineKernel:
    """Resolvent kernel G(x, y) of -d^2/dx^2 on a split line, by sparse FD.

    The node at zero is duplicated so the two halves can carry either
    Dirichlet conditions (decoupled) or the interface coupling
    u(0+) = theta u(0-), theta u'(0+) = u'(0-).  One LU factorization
    serves every requested source column; sources and evaluation points
    are snapped to grid nodes, which keeps the source-placement error of
    the discrete delta out of the comparison.
    """

    def __init__(self, grid, h, n_left, columns):
        self.grid = grid
        self.h = h
        self.n_left = n_left
        self.columns = columns

    def _index(self, x):
        if x > 0:
            return self.n_left + int(round(x / self.h))
        return int(round((x - self.grid[0]) / self.h))

    def snap(self, x):
        return float(self.grid[self._index(x)])

    def value(self, x, y):
        return self.columns[self.snap(y)][self._index(x)]


def fd_split_line_kernel(k, sources, theta=None, half_width=20.0, h=1e-3):
    """Build an FdSplitLineKernel with columns for each source in `sources`.

    theta=None imposes Dirichlet conditions at 0 on both halves
    (decoupled); a number theta imposes u(0+) = theta u(0-) and
    theta u'(0+) = u'(0-).
    """
    n_side = int(round(half_width / h))
    # left block: nodes -n_side .. 0  (indices 0 .. n_side)
    # right block: nodes 0 .. n_side  (indices n_side+1 .. 2 n_side + 1)
    n_left = n_side + 1
    n_total = 2 * n_side + 2
    xs_left = np.linspace(-half_width, 0.0, n_left)
    xs_right = np.linspace(0.0, half_width, n_left)
    grid = np.concatenate([xs_left, xs_right])

    k2 = complex(k) ** 2
    use_complex = abs(k2.imag) > 0
    dtype = complex if use_complex else float
    k2 = k2 if use_complex else k2.real

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    inv_h2 = 1.0 / (h * h)
    # outer boundaries
    add(0, 0, 1.0)
    add(n_total - 1, n_total - 1, 1.0)
    # interior rows, left block
    for j in range(1, n_left - 1):
        add(j, j - 1, -inv_h2)
        add(j, j, 2.0 * inv_h2 - k2)
        add(j, j + 1, -inv_h2)
    # interior rows, right block
    for j in range(n_left + 1, n_total - 1):
        add(j, j - 1, -inv_h2)
        add(j, j, 2.0 * inv_h2 - k2)
        add(j, j + 1, -inv_h2)
    i0_left = n_left - 1
    i0_right = n_left
    if theta is None:
        add(i0_left, i0_left, 1.0)
        add(i0_right, i0_right, 1.0)
    else:
        # u(0+) - theta u(0-) = 0
        add(i0_left, i0_right, 1.0)
        add(i0_left, i0_left, -float(theta))
        # theta u'(0+) - u'(0-) = 0
        c_right = _one_sided_slope_rows(+1) / h
        c_left = _one_sided_slope_rows(-1) / h
        for off, cv in enumerate(c_right):
            add(i0_right, i0_right + off, float(theta) * cv)
        for off, cv in enumerate(c_left):
            add(i0_right, i0_left - off, -cv)

    A = sp.csc_matrix(
        (np.asarray(vals, dtype=dtype), (rows, cols)), shape=(n_total, n_total)
    )
    lu = spla.splu(A)

    kernel = FdSplitLineKernel(grid, h, n_left, {})
    for y in sources:
        idx = kernel._index(y)
        rhs = np.zeros(n_total, dtype=dtype)
        rhs[idx] = 1.0 / h
        kernel.columns[float(grid[idx])] = lu.solve(rhs)
    return kernel


def dirichlet_image_kernel(k, x, y):
    """Resolvent kernel of the Dirichlet-decoupled half lines in image-charge form.

    (e^{ik|x-y|} - e^{ik(|x|+|y|)}) / (-2ik) for x, y strictly on the same
    side of the origin, and 0 otherwise (across it, or on it).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    same_side = np.sign(x) * np.sign(y) > 0
    direct = np.exp(1j * k * np.abs(x - y))
    image = np.exp(1j * k * (np.abs(x) + np.abs(y)))
    return np.where(same_side, (direct - image) / (-2j * k), 0.0)


# ---------------------------------------------------------------------------
# finite-difference residual of the stationary equation


def second_derivative_5pt(fn, x, h):
    """O(h^4) central second derivative of a callable."""
    xs = np.asarray(x, dtype=float)
    return (
        -fn(xs - 2 * h) + 16 * fn(xs - h) - 30 * fn(xs) + 16 * fn(xs + h) - fn(xs + 2 * h)
    ) / (12.0 * h * h)


def schrodinger_residual(fn, v, k, x, h=1e-4):
    """Residual of -u'' + V u - k^2 u for a callable u at points x."""
    xs = np.asarray(x, dtype=float)
    upp = second_derivative_5pt(fn, xs, h)
    return -upp + np.asarray(v(xs)) * fn(xs) - (complex(k) ** 2) * fn(xs)
