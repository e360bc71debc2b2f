"""The windowed squeezed operator: its Jost solutions, kernels, and cross-checks.

truncated_operator solves the potential scale(truncate(V, xi_eps), eps)
through jost_evaluator's dilation route, so a comparison with that same
route would hold by construction.  Its solutions and scattering data are
checked instead against oracles that work on the squeezed axis itself:
one global layer-matching solve, DOP853, and a closed form of the
windowed exponential well in mpmath.

The symmetry and jump tests of the resolvent kernel also cover the
interface and Dirichlet limit kernels, which share its Kernel type.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jost1d as j
from jost1d.errors import NumericsError, SpecError
from jost1d.jost import jost_evaluator

import oracles


def _window_layers(p, op):
    """The contiguous layers of the windowed squeezed potential, built by hand."""
    eps, xi = op.eps, op.xi_eps
    clipped = [(max(lo, -xi), min(hi, xi), h) for lo, hi, h in p.shape.layers()]
    return [(eps * lo, eps * hi, p.coupling * h / eps**2) for lo, hi, h in clipped if lo < hi]


def _one_layer(segs):
    """(V, edges) of a single layer for the DOP853 oracle, edges included."""
    ((lo, hi, h),) = segs
    return (lambda x: h if lo <= x <= hi else 0.0), [lo, hi]


# ---------------------------------------------------------------------------
# the windowed solutions and scattering data vs independent oracles


@pytest.mark.parametrize("eps,k", [(0.1, 1.0), (0.05, 2.0 + 0.0j), (0.1, 1.0 + 1.0j)])
def test_assembly_matches_direct_solve_layers(barrier, eps, k):
    op = j.truncated_operator(barrier, eps, k)
    segs = _window_layers(barrier, op)
    xs = np.linspace(-3.0, 3.0, 201)
    vals_direct, ders_direct = oracles.dop853_jost(*_one_layer(segs), k, xs)
    vals_op, ders_op = op.plus.eval(xs)
    assert np.allclose(vals_op, vals_direct, rtol=1e-10, atol=1e-10)
    assert np.allclose(ders_op, ders_direct, rtol=1e-10, atol=1e-10)

    sd_op = op.scattering()
    r, t = oracles.layer_matching_scattering(segs, k)
    assert abs(sd_op.r - r) < 1e-10
    assert abs(sd_op.t - t) < 1e-10


def test_assembly_matches_direct_solve_left_side(well_theta_minus):
    eps, k = 0.05, 1.3
    op = j.truncated_operator(well_theta_minus, eps, k)
    segs = _window_layers(well_theta_minus, op)
    xs = np.linspace(-2.0, 2.0, 101)
    vals_direct, _ = oracles.dop853_jost(*_one_layer(segs), k, xs, "-")
    assert np.allclose(op.minus.eval(xs)[0], vals_direct, rtol=1e-10, atol=1e-10)


def test_assembly_matches_direct_solve_smooth(bump_table):
    eps, k = 0.1, 1.0
    op = j.truncated_operator(bump_table, eps, k)
    x, v = np.array(bump_table.shape.x), np.array(bump_table.shape.v)
    assert op.xi_eps > x[-1]  # the window keeps the whole table

    def squeezed(y):
        return np.interp(y / eps, x, v, left=0.0, right=0.0) / eps**2

    a, b, _, _ = oracles.dop853_jost_plus(squeezed, eps * x, k)
    sd_op = op.scattering()
    assert abs(sd_op.r - b / a) < 1e-7
    assert abs(sd_op.t - 1.0 / a) < 1e-7


def test_assembly_matches_direct_solve_exponential(exp_tail):
    eps, k = 0.1, 1.0
    op = j.truncated_operator(exp_tail, eps, k)
    x_eps = op.x_eps

    def squeezed(y):
        return np.exp(-abs(y) / eps) / eps**2 if abs(y) <= x_eps else 0.0

    a, b, _, _ = oracles.dop853_jost_plus(squeezed, [-x_eps, 0.0, x_eps], k)
    sd_op = op.scattering()
    assert abs(sd_op.r - b / a) < 1e-7
    assert abs(sd_op.t - 1.0 / a) < 1e-7


# Each bound is what the three-region matching this route replaced
# achieved against the same oracle (max over k in {1, 1+i}), rounded down:
# max(|r - r_o|, |t - t_o|), then |t - t_o| / |t_o|.  On the barrier r is
# about -1, so its first bound sits at the rounding level of r.
@pytest.mark.parametrize("amplitude, coupling, eps, abs_tol, rel_t_tol", [
    pytest.param(-1.0, 1.4458, 0.1, 1.9e-13, 1.6e-13, id="resonant_well-0.1"),
    pytest.param(-1.0, 1.4458, 1e-3, 3.4e-11, 3.4e-11, id="resonant_well-1e-3"),
    pytest.param(-1.0, 1.4458, 1e-5, 5.6e-9, 5.6e-9, id="resonant_well-1e-5"),
    pytest.param(1.0, 1.0, 0.1, 7.8e-15, 1.3e-13, id="barrier-0.1"),
    pytest.param(1.0, 1.0, 1e-3, 4.9e-16, 1.5e-13, id="barrier-1e-3"),
    pytest.param(1.0, 1.0, 1e-5, 3.3e-16, 5.4e-13, id="barrier-1e-5"),
])
def test_windowed_exp_decay_matches_bessel_oracle(amplitude, coupling, eps, abs_tol, rel_t_tol):
    # the oracle solves the squeezed window -d^2 + eps^-2 V(x/eps) on
    # |x| <= x_eps in closed form: Bessel functions inside, plane waves outside
    p = j.exp_decay(1.0, amplitude, coupling)
    for k in (1.0, 1.0 + 1.0j):
        op = j.truncated_operator(p, eps, k)
        r, t = oracles.exp_window_scattering(1.0 / eps, amplitude * coupling / eps**2, op.x_eps, k)
        sd = op.scattering()
        assert max(abs(sd.r - r), abs(sd.t - t)) < abs_tol
        assert abs(sd.t - t) < rel_t_tol * abs(t)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(layers=st.lists(st.tuples(st.floats(0.3, 2.0), st.floats(-3.0, 3.0)),
                       min_size=2, max_size=8),
       eps=st.floats(1e-3, 0.2), k_re=st.floats(0.2, 3.0), k_im=st.floats(0.0, 1.0))
def test_random_windowed_layers_match_global_matching(layers, eps, k_re, k_im):
    # up to 16 units wide, so the window (half-width xi_eps = sqrt(1/eps - 1)
    # on the unscaled axis) cuts the layers in about half of the examples
    widths, heights = zip(*layers)
    edges = np.concatenate([[0.0], np.cumsum(widths)]) - 0.5 * sum(widths)
    p = j.piecewise_constant(zip(edges[:-1], edges[1:], heights))
    k = complex(k_re, k_im)
    op = j.truncated_operator(p, eps, k)
    r, t = oracles.layer_matching_scattering(_window_layers(p, op), k)
    sd = op.scattering()
    size = max(abs(r), abs(t))
    assert abs(sd.r - r) < 1e-9 * size
    assert abs(sd.t - t) < 1e-9 * size
    # reciprocity: f_- = a e^{-ikx} + ... right of the window, with the a of f_+
    t_minus = 1.0 / op.minus.plane_pair()[1]
    assert abs(t_minus - sd.t) < 1e-9 * abs(sd.t)


def test_windowed_exp_decay_mesh_stays_small():
    # the dilation meshes the window on the unsqueezed axis: at eps = 1e-5
    # it takes no more Magnus nodes than V's own full-line mesh at eps k
    # (249 nodes; the window takes 201), which the three-region matching
    # this route replaced built
    eps, k = 1e-5, 1.0
    p = j.exp_decay(1.5, 1.0)
    op = j.truncated_operator(p, eps, k)
    assert len(op.plus.nodes) <= len(jost_evaluator(p, eps * k, "+").nodes) == 249
    assert op.plus.error_bound == 0.0


# ---------------------------------------------------------------------------
# structure of the solutions


def test_window_beyond_compact_support_keeps_everything(barrier):
    # once xi_eps clears the support the truncation does not bite: the
    # windowed solution IS the Jost solution of the squeezed barrier
    op = j.truncated_operator(barrier, 0.01, 1.0)
    ev = jost_evaluator(j.scale(barrier, 0.01), 1.0, "+")
    xs = np.linspace(-3.0, 3.0, 201)
    for got, expect in zip(op.plus.eval(xs), ev.eval(xs)):
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("name", ["barrier", "exp_tail"])
def test_window_builds_evaluators_only_for_its_kernel(request, name, evaluator_builds):
    # the scattering data come from the product of the maps; green scans
    # them once for both sides, and plus and minus are the sides of that scan
    op = j.truncated_operator(request.getfixturevalue(name), 0.05, 1.0)
    op.scattering()
    assert len(evaluator_builds) == 0
    green = op.green
    assert len(evaluator_builds) == 1
    green(0.01, -0.02)
    assert op.green is green and (op.plus.s, op.minus.s) == (1.0, -1.0)
    assert len(evaluator_builds) == 1


@pytest.mark.parametrize("x, y", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.5),
                                  ([0.1, np.nan], [-np.inf, 0.2])])
def test_green_rejects_non_finite_points(barrier, x, y):
    op = j.truncated_operator(barrier, 0.05, 1.0)
    with pytest.raises(SpecError, match="must be finite"):
        op.green(x, y)


def test_wronskian_mismatch_small(barrier, exp_tail):
    assert j.truncated_operator(barrier, 0.05, 1.0).scattering().wronskian_gap < 1e-12
    assert j.truncated_operator(exp_tail, 0.1, 1.0).scattering().wronskian_gap < 1e-8


def test_continuity_at_matching_points(two_step):
    eps, k = 0.05, 1.7
    op = j.truncated_operator(two_step, eps, k)
    x_eps = op.x_eps
    for edge in (-x_eps, x_eps):
        left, dleft = op.plus.eval(edge - 1e-9)
        right, dright = op.plus.eval(edge + 1e-9)
        assert abs(left - right) < 1e-6 * max(1.0, abs(left))
        assert abs(dleft - dright) < 1e-4 * max(1.0, abs(dleft))


def test_solution_solves_equation_inside_window(barrier):
    eps, k = 0.1, 1.2
    op = j.truncated_operator(barrier, eps, k)
    w = j.truncate(j.scale(barrier, eps), op.x_eps)
    # stay inside one constant layer of the squeezed potential
    xs = np.linspace(-0.05, 0.05, 7)
    res = oracles.schrodinger_residual(lambda x: op.plus.eval(x)[0], w, k, xs, h=1e-5)
    ref = np.max(np.abs(op.plus.eval(xs)[0])) / eps**2
    assert np.max(np.abs(res)) < 1e-6 * ref


def test_plane_waves_outside_window(barrier):
    eps, k = 0.05, 0.9
    op = j.truncated_operator(barrier, eps, k)
    sd = op.scattering()
    xs = np.linspace(op.x_eps * 1.5, 4.0, 9)
    assert np.allclose(op.plus.eval(xs)[0], np.exp(1j * k * xs), rtol=1e-12)
    left = np.linspace(-4.0, -op.x_eps * 1.5, 9)
    expect = sd.a * np.exp(1j * k * left) + sd.b * np.exp(-1j * k * left)
    assert np.allclose(op.plus.eval(left)[0], expect, rtol=1e-12)


# ---------------------------------------------------------------------------
# the resolvent kernel


# the window, a limit kernel of each kind, and the potential each window squeezes
_KERNELS = {
    "window": lambda p, k: j.truncated_operator(p, 0.05, k).green,
    "interface": lambda p, k: j.LimitOperator(-2.0).green(k),
    "dirichlet": lambda p, k: j.LimitOperator(None).green(k),
}


@pytest.mark.parametrize("kind", list(_KERNELS))
def test_green_kernel_symmetry(well_theta_minus, rng, kind):
    green = _KERNELS[kind](well_theta_minus, 1.0 + 1.0j)
    for _ in range(10):
        x, y = rng.uniform(-3, 3, 2)
        assert green(x, y) == pytest.approx(green(y, x), rel=1e-12)


@pytest.mark.parametrize("kind", list(_KERNELS))
def test_green_kernel_jump_condition(barrier, kind):
    # the derivative of G(., y) jumps by -1 across x = y
    green = _KERNELS[kind](barrier, 1.0 + 0.5j)
    y, h = 0.7, 1e-6
    slope_right = (green(y + 2 * h, y) - green(y + h, y)) / h
    slope_left = (green(y - h, y) - green(y - 2 * h, y)) / h
    assert abs((slope_right - slope_left) - (-1.0)) < 1e-4


def test_green_kernel_solves_equation_off_diagonal(barrier):
    eps, k, y = 0.1, 1.0 + 1.0j, 1.5
    op = j.truncated_operator(barrier, eps, k)
    w = j.truncate(j.scale(barrier, eps), op.x_eps)
    xs = np.array([-2.0, -1.0, 0.5, 2.5])  # away from y, the window, and kinks
    res = oracles.schrodinger_residual(lambda x: op.green(x, y), w, k, xs, h=1e-5)
    assert np.max(np.abs(res)) < 1e-6


# ---------------------------------------------------------------------------
# validation


def test_rejects_bad_arguments(barrier):
    with pytest.raises(SpecError):
        j.truncated_operator(barrier, -0.1, 1.0)
    with pytest.raises(SpecError):
        j.truncated_operator(barrier, 0.1, 0.0)
    with pytest.raises(SpecError):
        j.truncated_operator(barrier, 0.1, 1.0 - 0.5j)


def _window_bound_state(p, eps):
    """kappa with (i kappa)^2 an eigenvalue of p's window at eps, the first root of W(i kappa)."""
    from scipy.optimize import brentq

    ss = j.splitting_scale(p, eps)
    direct = j.truncate(j.scale(p, eps), ss.x_eps)

    def w_real(kappa):
        # at k = i*kappa the Wronskian of a real potential is real
        return j.jost_wronskian(direct, 1j * kappa).real

    grid = np.linspace(0.05, 4.5, 40)
    signs = np.sign([w_real(g) for g in grid])
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) > 0, "expected a bound state of the windowed well"
    i = flips[0]
    return brentq(w_real, grid[i], grid[i + 1])


def test_eigenvalue_collision_raises(well_theta_minus):
    # at eps=1 the window barely clips the well, which still binds a state;
    # hitting it head-on must fail loudly, not divide by near-zero
    kappa = _window_bound_state(well_theta_minus, 0.4)
    with pytest.raises(NumericsError):
        j.truncated_operator(well_theta_minus, 0.4, 1j * kappa)


def test_table_raises_the_error_of_its_first_failing_eps(well_theta_minus):
    # 0.4 and 0.2 are one row batch; the table raises what the window at
    # 0.4 raises alone, though the row at 0.2 is fine
    kappa = _window_bound_state(well_theta_minus, 0.4)
    with pytest.raises(NumericsError) as alone:
        j.truncated_operator(well_theta_minus, 0.4, 1j * kappa)
    with pytest.raises(NumericsError) as table:
        j.convergence_table(well_theta_minus, 1j * kappa, [0.4, 0.2])
    assert type(table.value) is type(alone.value)
    assert str(table.value) == str(alone.value)
    j.truncated_operator(well_theta_minus, 0.2, 1j * kappa).scattering()
