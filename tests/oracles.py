"""Independent reference computations used to check the library.

Everything here is built from first principles with generic numerics --
dense linear solves, matrix exponentials, adaptive Runge-Kutta, sparse
finite differences, special functions -- and never calls into the
library's own propagation or matching code.  Where the library multiplies transfer matrices, the
oracle solves one global matching system; where the library matches
plane waves in closed form, the oracle discretizes the differential
equation.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
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
