"""Reference values the benchmark checks the library against.

Nothing here imports jost1d.  Each reference is either a closed form or
a generic numerical method that shares no code with the library:

* layer matching: one dense linear solve for the plane-wave amplitudes
  of every layer of a piecewise-constant potential;
* staircase: the potential sampled at layer midpoints, each layer
  propagated by the 2x2 matrix exponential of the constant-coefficient
  equation, the products reduced as a tree, and two resolutions combined
  by Richardson extrapolation in h^2;
* zero energy: the real cos/cosh/linear solutions of -y'' + h y = 0
  layer by layer, vectorised over the coupling;
* Bessel: the zero-energy Wronskian of -alpha e^{-|x|};
* closed-form weighted tails of amplitude * e^{-rate |x|}, which give
  its weighted norm and the splitting-scale weight rho.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0, j1

# ---------------------------------------------------------------------------
# plane waves


def plane_amplitudes(f, fp, k, x):
    """(a, b) with f = a e^{ikx} + b e^{-ikx} and f' consistent at x."""
    ik = 1j * k
    a = (ik * f + fp) * np.exp(-ik * x) / (2.0 * ik)
    b = (ik * f - fp) * np.exp(ik * x) / (2.0 * ik)
    return a, b


# ---------------------------------------------------------------------------
# piecewise-constant scattering by one global matching solve


def layer_matching(segments, k):
    """(r, t) for contiguous layers [(x0, x1, h1), (x1, x2, h2), ...].

    Unknowns: r, the pair (A_j, B_j) of e^{+-mu_j s} amplitudes in layer j
    (s measured from the layer's left edge) and t.  Value and slope match
    at every edge, which gives a square system of size 2n + 2.
    """
    k = complex(k)
    n = len(segments)
    mu = [np.sqrt(complex(h) - k * k) for _, _, h in segments]
    width = [hi - lo for lo, hi, _ in segments]
    x_lo, x_hi = segments[0][0], segments[-1][1]
    size = 2 * n + 2
    m = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    # left edge: e^{ikx} + r e^{-ikx} meets layer 0 at s = 0
    m[0, 0] = np.exp(-1j * k * x_lo)
    m[0, 1] = m[0, 2] = -1.0
    rhs[0] = -np.exp(1j * k * x_lo)
    m[1, 0] = -1j * k * np.exp(-1j * k * x_lo)
    m[1, 1], m[1, 2] = -mu[0], mu[0]
    rhs[1] = -1j * k * np.exp(1j * k * x_lo)
    # interior edges: layer j at s = width_j meets layer j+1 at s = 0
    for jl in range(n - 1):
        up, dn = np.exp(mu[jl] * width[jl]), np.exp(-mu[jl] * width[jl])
        row, col = 2 + 2 * jl, 1 + 2 * jl
        m[row, col], m[row, col + 1] = up, dn
        m[row, col + 2] = m[row, col + 3] = -1.0
        m[row + 1, col], m[row + 1, col + 1] = mu[jl] * up, -mu[jl] * dn
        m[row + 1, col + 2], m[row + 1, col + 3] = -mu[jl + 1], mu[jl + 1]
    # right edge: the last layer meets t e^{ikx}
    up, dn = np.exp(mu[-1] * width[-1]), np.exp(-mu[-1] * width[-1])
    col = 2 * n - 1
    m[size - 2, col], m[size - 2, col + 1] = up, dn
    m[size - 2, size - 1] = -np.exp(1j * k * x_hi)
    m[size - 1, col], m[size - 1, col + 1] = mu[-1] * up, -mu[-1] * dn
    m[size - 1, size - 1] = -1j * k * np.exp(1j * k * x_hi)
    sol = np.linalg.solve(m, rhs)
    return complex(sol[0]), complex(sol[-1])


def clip_segments(segments, half_width):
    """Segments restricted to [-half_width, half_width], empty ones dropped."""
    out = []
    for lo, hi, h in segments:
        lo2, hi2 = max(lo, -half_width), min(hi, half_width)
        if lo2 < hi2:
            out.append((lo2, hi2, h))
    return out


def tile(segments):
    """Sorted segments with gaps filled by zero-height layers."""
    out = []
    for lo, hi, h in sorted(segments):
        if out and lo > out[-1][1]:
            out.append((out[-1][1], lo, 0.0))
        out.append((lo, hi, h))
    return out


# ---------------------------------------------------------------------------
# smooth potentials by a Richardson-extrapolated midpoint staircase


def _layer_matrices(heights, width, k):
    """Stacked expm([[0, w], [(h - k^2) w, 0]]) in closed form."""
    z2 = (heights - k * k) * width * width
    z = np.sqrt(z2.astype(complex))
    # sinh(z)/z = sinc(iz/pi); np.sinc is exact at 0 and even in z
    s = np.sinc(1j * z / np.pi)
    c = np.cosh(z)
    out = np.empty((len(heights), 2, 2), dtype=complex)
    out[:, 0, 0] = c
    out[:, 0, 1] = width * s
    out[:, 1, 0] = (heights - k * k) * width * s
    out[:, 1, 1] = c
    return out


def _ordered_product(mats):
    """mats[-1] @ ... @ mats[0], reduced pairwise."""
    while len(mats) > 1:
        if len(mats) % 2:
            mats = np.concatenate([mats, np.eye(2, dtype=complex)[None]])
        mats = np.matmul(mats[1::2], mats[0::2])
    return mats[0]


def _staircase_amplitudes(v, edges_fine, k):
    """(a, b) of f_+ from a midpoint staircase on the given layer edges."""
    widths = np.diff(edges_fine)
    mids = 0.5 * (edges_fine[:-1] + edges_fine[1:])
    heights = np.asarray(v(mids), dtype=float)
    total = _ordered_product(_layer_matrices(heights, widths, k))
    x_lo, x_hi = edges_fine[0], edges_fine[-1]
    right = np.array([np.exp(1j * k * x_hi), 1j * k * np.exp(1j * k * x_hi)])
    # det(total) = 1, so its inverse is the adjugate
    inv = np.array([[total[1, 1], -total[0, 1]], [-total[1, 0], total[0, 0]]])
    f, fp = inv @ right
    return plane_amplitudes(f, fp, k, x_lo)


def _refine(edges, per_panel):
    """Split each panel [edges[i], edges[i+1]] into per_panel equal layers."""
    edges = np.asarray(edges, dtype=float)
    frac = np.arange(per_panel) / per_panel
    inner = edges[:-1, None] + np.diff(edges)[:, None] * frac[None, :]
    return np.concatenate([inner.ravel(), edges[-1:]])


def staircase_scattering(v, panel_edges, k, layers=1 << 15):
    """(r, t) of a potential smooth on each panel and zero outside them.

    v is vectorised over x.  Kinks of v must sit on panel edges; each
    panel gets the same number of layers, so the midpoint error expands
    in even powers of the layer width and one Richardson step removes
    the leading term.
    """
    k = complex(k)
    per_panel = max(8, layers // (len(panel_edges) - 1))
    coarse = _staircase_amplitudes(v, _refine(panel_edges, per_panel), k)
    fine = _staircase_amplitudes(v, _refine(panel_edges, 2 * per_panel), k)
    a = (4.0 * fine[0] - coarse[0]) / 3.0
    b = (4.0 * fine[1] - coarse[1]) / 3.0
    return complex(b / a), complex(1.0 / a)


def table_function(xs, vs):
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    return lambda x: np.interp(x, xs, vs, left=0.0, right=0.0)


def exp_function(rate, amplitude, coupling):
    return lambda x: coupling * amplitude * np.exp(-rate * np.abs(x))


def exp_reach(rate, amplitude, coupling, floor=1e-12):
    """Half-width beyond which the tail mass of |V| is below floor."""
    mass = abs(coupling * amplitude) / rate
    return max(1.0, math.log(max(mass, floor) / floor) / rate)


# ---------------------------------------------------------------------------
# closed-form tails of amplitude * e^{-rate |x|}


def exp_weighted_tail(rate, strength, x):
    """int_x^inf (1 + t) |V(t)| dt for x >= 0, V = strength * e^{-rate |t|}."""
    return abs(strength) * math.exp(-rate * x) * ((1.0 + x) / rate + 1.0 / rate**2)


def exp_fm_norm(rate, strength):
    """int (1 + |x|) |V| over the line."""
    return 2.0 * exp_weighted_tail(rate, strength, 0.0)


def exp_rho(rate, strength, x, alpha_weight=0.5):
    """(1 + x) / tau(x)^alpha_weight with tau the two-sided weighted tail."""
    return (1.0 + x) / (2.0 * exp_weighted_tail(rate, strength, x)) ** alpha_weight


def compact_splitting_scale(eps):
    """xi with 1 + xi^2 = 1/eps, the compact-support splitting rule."""
    return math.sqrt(1.0 / eps - 1.0)


# ---------------------------------------------------------------------------
# zero energy


def zero_energy(segments, alphas):
    """(d0, theta) of alpha * V for each alpha.

    segments tile [x0, xn] with heights h; V is zero outside.  f_+ = 1 at
    +inf and f_- = 1 at -inf.  d0 = W{f_+, f_-} = -f_+'(x0) because
    f_- = 1, f_-' = 0 at x0.  At a resonance f_- = theta f_+, so theta is
    the value of f_- at xn, where f_+ = 1.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    y_p = np.ones_like(alphas)
    dy_p = np.zeros_like(alphas)
    for lo, hi, h in reversed(segments):
        y_p, dy_p = _zero_energy_step(y_p, dy_p, alphas * h, lo - hi)
    y_m = np.ones_like(alphas)
    dy_m = np.zeros_like(alphas)
    for lo, hi, h in segments:
        y_m, dy_m = _zero_energy_step(y_m, dy_m, alphas * h, hi - lo)
    return -dy_p, y_m


def _zero_energy_step(y, dy, q, w):
    """Advance (y, y') of y'' = q y by w (w may be negative), q elementwise."""
    y_new = np.empty_like(y)
    dy_new = np.empty_like(dy)
    pos, neg = q > 0, q < 0
    zero = ~(pos | neg)
    s = np.sqrt(q[pos])
    y_new[pos] = y[pos] * np.cosh(s * w) + dy[pos] * np.sinh(s * w) / s
    dy_new[pos] = y[pos] * s * np.sinh(s * w) + dy[pos] * np.cosh(s * w)
    s = np.sqrt(-q[neg])
    y_new[neg] = y[neg] * np.cos(s * w) + dy[neg] * np.sin(s * w) / s
    dy_new[neg] = -y[neg] * s * np.sin(s * w) + dy[neg] * np.cos(s * w)
    y_new[zero] = y[zero] + dy[zero] * w
    dy_new[zero] = dy[zero]
    return y_new, dy_new


def bisect_root(f, lo, hi):
    """The root of f in [lo, hi] by bisection down to adjacent floats, or None
    if f does not change sign there."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid


def square_roots(width, alpha_max):
    """Couplings where a unit-depth well of the given width is resonant.

    The interior zero-energy solution cos(sqrt(alpha)(x - right)) has zero
    slope at the far edge iff sqrt(alpha) * width = n pi; its far-field
    ratio is cos(n pi) = (-1)^n.
    """
    out = []
    n = 1
    while (n * math.pi / width) ** 2 <= alpha_max:
        out.append(((n * math.pi / width) ** 2, (-1.0) ** n))
        n += 1
    return out


def exp_well_d0(alpha):
    """d0 of -alpha e^{-|x|}: -2 sqrt(alpha) J0(2 sqrt(alpha)) J1(2 sqrt(alpha))."""
    s = 2.0 * math.sqrt(alpha)
    return float(-s * j0(s) * j1(s))


def interface_limit(theta):
    """(r, t) of the interface point interaction with ratio theta."""
    return (1.0 - theta * theta) / (1.0 + theta * theta), 2.0 * theta / (1.0 + theta * theta)


# ---------------------------------------------------------------------------
# the benchmark's JSON potential descriptions


def spec_segments(spec):
    """Layers (left, right, coupling * height) of a square or piecewise spec."""
    c = spec.get("coupling", 1.0)
    params = spec["params"]
    if spec["kind"] == "square":
        return [(params["left"], params["right"], c * params["height"])]
    return [(s["left"], s["right"], c * s["height"]) for s in params]


def piecewise_fm_norm(segments):
    """int (1 + |x|) |V| for layers, using int |x| dx = [x |x| / 2]."""
    return sum(abs(h) * ((hi - lo) + 0.5 * (hi * abs(hi) - lo * abs(lo))) for lo, hi, h in segments)


def spec_scattering(spec, k, half_width=None):
    """(r, t) of the described potential, restricted to |x| <= half_width if given."""
    w = math.inf if half_width is None else half_width
    kind = spec["kind"]
    if kind in ("square", "piecewise"):
        return layer_matching(tile(clip_segments(spec_segments(spec), w)), k)
    c = spec.get("coupling", 1.0)
    p = spec["params"]
    if kind == "table":
        xs = np.asarray(p["x"], dtype=float)
        inside = xs[(xs > -w) & (xs < w)]
        edges = np.concatenate([[max(xs[0], -w)], inside, [min(xs[-1], w)]])
        edges = np.unique(edges)
        return staircase_scattering(table_function(xs, c * np.asarray(p["v"])), edges, k)
    if kind == "exp_decay":
        reach = min(exp_reach(p["rate"], p["amplitude"], c), w)
        return staircase_scattering(
            exp_function(p["rate"], p["amplitude"], c), [-reach, 0.0, reach], k, layers=1 << 14
        )
    raise ValueError(f"no reference for potential kind {kind!r}")
