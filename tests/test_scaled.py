"""The windowed squeezed operator: matching, kernels, and cross-checks.

The strongest test here rebuilds the very same operator the direct way:
truncate(scale(V, eps), x_eps) is an ordinary potential, so the generic
Jost machinery can solve it without any of the three-region assembly.
Both routes must produce identical solutions and scattering data.
"""

import numpy as np
import pytest

import jost1d as j
from jost1d.errors import NumericsError, SpecError
from jost1d.jost import jost_evaluator

import oracles


def _direct_window_potential(p, eps):
    ss = j.splitting_scale(p, eps)
    return j.truncate(j.scale(p, eps), ss.x_eps), ss


# ---------------------------------------------------------------------------
# assembled solutions vs a direct solve of the windowed potential


@pytest.mark.parametrize("eps,k", [(0.1, 1.0), (0.05, 2.0 + 0.0j), (0.1, 1.0 + 1.0j)])
def test_assembly_matches_direct_solve_layers(barrier, eps, k):
    op = j.truncated_operator(barrier, eps, k)
    direct, ss = _direct_window_potential(barrier, eps)
    ev = jost_evaluator(direct, k, "+")
    xs = np.linspace(-3.0, 3.0, 201)
    vals_direct, ders_direct = ev.eval(xs)
    vals_op, ders_op = op.f_plus(xs)
    assert np.allclose(vals_op, vals_direct, rtol=1e-10, atol=1e-10)
    assert np.allclose(ders_op, ders_direct, rtol=1e-10, atol=1e-10)

    sd_op = op.scattering()
    sd_direct = j.scattering(direct, k)
    assert abs(sd_op.r - sd_direct.r) < 1e-10
    assert abs(sd_op.t - sd_direct.t) < 1e-10


def test_assembly_matches_direct_solve_left_side(well_theta_minus):
    eps, k = 0.05, 1.3
    op = j.truncated_operator(well_theta_minus, eps, k)
    direct, _ = _direct_window_potential(well_theta_minus, eps)
    ev = jost_evaluator(direct, k, "-")
    xs = np.linspace(-2.0, 2.0, 101)
    vals_direct, _ = ev.eval(xs)
    assert np.allclose(op.f_minus(xs)[0], vals_direct, rtol=1e-10, atol=1e-10)


def test_assembly_matches_direct_solve_smooth(bump_table):
    eps, k = 0.1, 1.0
    op = j.truncated_operator(bump_table, eps, k)
    direct, _ = _direct_window_potential(bump_table, eps)
    sd_direct = j.scattering(direct, k)
    sd_op = op.scattering()
    assert abs(sd_op.r - sd_direct.r) < 1e-7
    assert abs(sd_op.t - sd_direct.t) < 1e-7


def test_assembly_matches_direct_solve_exponential(exp_tail):
    eps, k = 0.1, 1.0
    op = j.truncated_operator(exp_tail, eps, k)
    direct, _ = _direct_window_potential(exp_tail, eps)
    sd_direct = j.scattering(direct, k)
    sd_op = op.scattering()
    assert abs(sd_op.r - sd_direct.r) < 1e-7
    assert abs(sd_op.t - sd_direct.t) < 1e-7


# ---------------------------------------------------------------------------
# structure of the coefficients


def test_window_beyond_compact_support_keeps_everything(barrier):
    # once xi_eps clears the support the truncation does not bite:
    # the interior solution IS the Jost solution, so c+ = 1, c- = 0
    co = j.truncated_operator(barrier, 0.01, 1.0).coefficients
    assert abs(co.c_plus - 1.0) < 1e-12
    assert abs(co.c_minus) < 1e-12


def test_wronskian_mismatch_small(barrier, exp_tail):
    assert j.truncated_operator(barrier, 0.05, 1.0).wronskian_mismatch() < 1e-12
    assert j.truncated_operator(exp_tail, 0.1, 1.0).wronskian_mismatch() < 1e-8


def test_continuity_at_matching_points(two_step):
    eps, k = 0.05, 1.7
    op = j.truncated_operator(two_step, eps, k)
    x_eps = op.x_eps
    for edge in (-x_eps, x_eps):
        left, dleft = op.f_plus(edge - 1e-9)
        right, dright = op.f_plus(edge + 1e-9)
        assert abs(left - right) < 1e-6 * max(1.0, abs(left))
        assert abs(dleft - dright) < 1e-4 * max(1.0, abs(dleft))


def test_solution_solves_equation_inside_window(barrier):
    eps, k = 0.1, 1.2
    op = j.truncated_operator(barrier, eps, k)
    w = j.truncate(j.scale(barrier, eps), op.x_eps)
    # stay inside one constant layer of the squeezed potential
    xs = np.linspace(-0.05, 0.05, 7)
    res = oracles.schrodinger_residual(lambda x: op.f_plus(x)[0], w, k, xs, h=1e-5)
    ref = np.max(np.abs(op.f_plus(xs)[0])) / eps**2
    assert np.max(np.abs(res)) < 1e-6 * ref


def test_plane_waves_outside_window(barrier):
    eps, k = 0.05, 0.9
    op = j.truncated_operator(barrier, eps, k)
    co = op.coefficients
    xs = np.linspace(op.x_eps * 1.5, 4.0, 9)
    assert np.allclose(op.f_plus(xs)[0], np.exp(1j * k * xs), rtol=1e-12)
    left = np.linspace(-4.0, -op.x_eps * 1.5, 9)
    expect = co.a_plus * np.exp(1j * k * left) + co.b_plus * np.exp(-1j * k * left)
    assert np.allclose(op.f_plus(left)[0], expect, rtol=1e-12)


# ---------------------------------------------------------------------------
# the resolvent kernel


def test_green_kernel_symmetry(well_theta_minus, rng):
    op = j.truncated_operator(well_theta_minus, 0.05, 1.0 + 1.0j)
    for _ in range(10):
        x, y = rng.uniform(-3, 3, 2)
        assert op.green(x, y) == pytest.approx(op.green(y, x), rel=1e-12)


def test_green_kernel_jump_condition(barrier):
    # the derivative of G(., y) jumps by -1 across x = y
    op = j.truncated_operator(barrier, 0.05, 1.0 + 0.5j)
    y, h = 0.7, 1e-6
    slope_right = (op.green(y + 2 * h, y) - op.green(y + h, y)) / h
    slope_left = (op.green(y - h, y) - op.green(y - 2 * h, y)) / h
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


def test_eigenvalue_collision_raises(well_theta_minus):
    # at eps=1 the window barely clips the well, which still binds a state;
    # hitting it head-on must fail loudly, not divide by near-zero
    p = well_theta_minus
    from scipy.optimize import brentq

    ss = j.splitting_scale(p, 0.4)
    direct = j.truncate(j.scale(p, 0.4), ss.x_eps)

    def w_real(kappa):
        # at k = i*kappa the Wronskian of a real potential is real
        return j.jost_wronskian(direct, 1j * kappa).real

    grid = np.linspace(0.05, 4.5, 40)
    signs = np.sign([w_real(g) for g in grid])
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) > 0, "expected a bound state of the windowed well"
    i = flips[0]
    kappa = brentq(w_real, grid[i], grid[i + 1])
    with pytest.raises(NumericsError):
        j.truncated_operator(p, 0.4, 1j * kappa)
