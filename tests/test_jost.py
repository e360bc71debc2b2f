"""Jost solutions, Wronskians, and scattering data against independent oracles."""

import numpy as np
import pytest
from scipy.optimize import brentq

import jost1d as j
from jost1d.errors import ExceptionalPointError, IntegrationError, SpecError
from jost1d.jost import OdeJost, jost_evaluator
from jost1d.potential import Potential
from jost1d.transfer import magnus_entries, propagator_entries

import oracles


# ---------------------------------------------------------------------------
# wavenumber validation


def test_wavenumber_validation():
    with pytest.raises(SpecError):
        j.check_wavenumber(1.0 - 0.5j)
    with pytest.raises(SpecError):
        j.check_wavenumber(0.0)
    assert j.check_wavenumber(0.0, allow_zero=True) == 0.0
    assert j.check_wavenumber(2.0) == 2.0 + 0.0j


# ---------------------------------------------------------------------------
# the free line


@pytest.mark.parametrize("k", [1.0, 1j, 1.0 + 1j])
def test_free_jost_is_plane_wave(k):
    p = j.zero()
    xs = np.linspace(-5.0, 5.0, 41)
    right = j.jost_right(p, k, xs)
    left = j.jost_left(p, k, xs)
    assert np.allclose(right.values, np.exp(1j * k * xs), atol=1e-12)
    assert np.allclose(right.derivatives, 1j * k * np.exp(1j * k * xs), atol=1e-12)
    assert np.allclose(left.values, np.exp(-1j * k * xs), atol=1e-12)


@pytest.mark.parametrize("k", [1.0, 1j, 1.0 + 1j])
def test_free_scattering_and_wronskian(k):
    p = j.zero()
    sd = j.scattering(p, k)
    assert abs(sd.a - 1.0) < 1e-10
    assert abs(sd.b) < 1e-10
    assert abs(sd.r) < 1e-10
    assert abs(sd.t - 1.0) < 1e-10
    assert abs(j.jost_wronskian(p, k) - (-2j * k)) < 1e-10


# ---------------------------------------------------------------------------
# piecewise-constant potentials vs the global matching oracle


@pytest.mark.parametrize("k", [0.5, 2.0, 1j, 1.3 + 0.4j])
def test_barrier_scattering_vs_matching_oracle(barrier, k):
    r_o, t_o = oracles.rectangle_scattering(-1.0, 1.0, 1.0, k)
    sd = j.scattering(barrier, k)
    assert abs(sd.r - r_o) < 1e-11
    assert abs(sd.t - t_o) < 1e-11


@pytest.mark.parametrize("k", [0.5, 2.0, 0.7 + 0.2j])
def test_two_step_scattering_vs_matching_oracle(two_step, k):
    r_o, t_o = oracles.layer_matching_scattering(
        [(-1.0, 0.0, -2.0), (0.0, 1.0, 3.0)], k
    )
    sd = j.scattering(two_step, k)
    assert abs(sd.r - r_o) < 1e-11
    assert abs(sd.t - t_o) < 1e-11


def test_random_layer_potentials_vs_matching_oracle(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        edges = np.sort(rng.uniform(-3, 3, n + 1))
        while np.min(np.diff(edges)) < 0.05:
            edges = np.sort(rng.uniform(-3, 3, n + 1))
        heights = rng.uniform(-6, 6, n)
        segs = [(edges[i], edges[i + 1], heights[i]) for i in range(n)]
        p = j.piecewise_constant(segs)
        k = complex(rng.uniform(0.3, 3.0), rng.uniform(0.0, 0.8))
        r_o, t_o = oracles.layer_matching_scattering(segs, k)
        sd = j.scattering(p, k)
        assert abs(sd.r - r_o) < 1e-9 * max(1.0, abs(r_o))
        assert abs(sd.t - t_o) < 1e-9 * max(1.0, abs(t_o))


# ---------------------------------------------------------------------------
# the Magnus route vs the transfer route and the staircase oracle


@pytest.mark.parametrize("k", [0.8, 2.0, 1.1 + 0.5j])
def test_ode_agrees_with_transfer_on_layers(two_step, k):
    sd_transfer = j.scattering(two_step, k, method="transfer")
    sd_ode = j.scattering(two_step, k, method="ode")
    assert abs(sd_transfer.r - sd_ode.r) < 1e-8
    assert abs(sd_transfer.t - sd_ode.t) < 1e-8


@pytest.mark.parametrize("k", [1.0, 3.0])
def test_tabulated_scattering_vs_staircase_oracle(bump_table, k):
    r_o, t_o = oracles.staircase_scattering_expm(bump_table, -2.0, 2.0, k, 6000)
    sd = j.scattering(bump_table, k)
    assert abs(sd.r - r_o) < 5e-7
    assert abs(sd.t - t_o) < 5e-7


# ---------------------------------------------------------------------------
# the Magnus route vs an adaptive Runge-Kutta oracle, its order, and eval


def _oracle_edges(p, ev):
    inner = [b for b in p.breakpoints() if ev.far_edge < b < ev.anchor]
    return np.unique(np.concatenate([[ev.far_edge, ev.anchor], inner]))


@pytest.mark.parametrize("k", [1.0, 2.5 + 0.5j])
def test_magnus_matches_dop853_oracle_on_bump(bump_table, k):
    ev = jost_evaluator(bump_table, k, "+")
    xs = np.linspace(-2.0, 2.0, 37)
    edges = _oracle_edges(bump_table, ev)
    a_o, b_o, f_o, fp_o = oracles.dop853_jost_plus(bump_table, edges, k, xs)
    a, b = ev.plane_pair()
    f, fp = ev.eval(xs)
    assert abs(a - a_o) < 1e-10 * abs(a_o)
    assert abs(b - b_o) < 1e-10 * abs(a_o)
    assert np.max(np.abs(f - f_o)) < 1e-10 * np.max(np.abs(f_o))
    assert np.max(np.abs(fp - fp_o)) < 1e-10 * np.max(np.abs(fp_o))


@pytest.mark.parametrize("k", [0.7, 1.2 + 0.3j])
def test_magnus_matches_dop853_oracle_on_exp_decay(k):
    p = j.exp_decay(rate=1.0, amplitude=-1.5)
    ev = jost_evaluator(p, k, "+")
    xs = np.linspace(-6.0, 6.0, 25)
    a_o, b_o, f_o, fp_o = oracles.dop853_jost_plus(p, _oracle_edges(p, ev), k, xs)
    a, b = ev.plane_pair()
    f, fp = ev.eval(xs)
    assert abs(a - a_o) < 1e-10 * abs(a_o)
    if k.imag == 0:
        # at complex k, b e^{-ikx} is smaller than a e^{ikx} at the far
        # edge by |e^{-2ikx}| (about e^{-19} here): b is ill-conditioned
        assert abs(b - b_o) < 1e-10 * abs(a_o)
    assert np.max(np.abs(f - f_o) / np.abs(f_o)) < 1e-10
    assert np.max(np.abs(fp - fp_o) / np.abs(f_o)) < 1e-10


@pytest.mark.parametrize("k", [1.5, 0.5 + 0.5j, 4.0])
def test_magnus_step_is_fourth_order(k):
    # n uniform steps over a smooth stretch of an exponential well; the
    # error of the product against 4096 steps falls 16-fold per halving
    p = j.exp_decay(rate=1.0, amplitude=-2.0)

    def product(n):
        xs = np.linspace(0.25, 3.25, n + 1)
        m00, m01, m10, m11 = magnus_entries(p, k, xs[:-1], xs[1:])
        total = np.eye(2, dtype=complex)
        for i in range(n):
            total = np.array([[m00[i], m01[i]], [m10[i], m11[i]]]) @ total
        return total

    ref = product(4096)
    errs = [np.max(np.abs(product(n) - ref)) for n in (16, 32, 64)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 < coarse / fine < 18.0


def test_magnus_step_reduces_to_layer_propagator():
    v = lambda x: np.full(np.shape(x), 2.5)
    k = 1.3 + 0.2j
    m00, m01, m10, m11 = magnus_entries(v, k, 0.4, -0.9)
    a, b, c = propagator_entries(2.5 - k * k, -1.3)
    assert abs(m00 - a) < 1e-14 and abs(m11 - a) < 1e-14
    assert abs(m01 - b) < 1e-14 and abs(m10 - c) < 1e-14


@pytest.mark.parametrize("side", ["+", "-"])
@pytest.mark.parametrize("k", [1.0, 2.5 + 0.5j, 0.0])
def test_magnus_eval_between_nodes_solves_equation(bump_table, side, k):
    # midpoints of the table's panels, with a 5-point stencil that stays
    # inside the panel where V is linear
    ev = jost_evaluator(bump_table, k, side, method="ode")
    table_x = np.linspace(-2.0, 2.0, 81)
    mids = 0.5 * (table_x[:-1] + table_x[1:])
    fn = lambda x: ev.eval(x)[0]
    scale = np.max(np.abs(fn(mids)))
    res = oracles.schrodinger_residual(fn, bump_table, k, mids, h=2e-3)
    assert np.max(np.abs(res)) < 1e-5 * scale
    _, fp = ev.eval(mids)
    slope = (fn(mids + 1e-5) - fn(mids - 1e-5)) / 2e-5
    assert np.max(np.abs(slope - fp)) < 1e-6 * np.max(np.abs(fp))


def test_magnus_mesh_keeps_breakpoints(bump_table):
    ev = jost_evaluator(bump_table, 1.0, "+")
    assert isinstance(ev, OdeJost)
    assert np.all(np.isin(np.asarray(bump_table.breakpoints()), ev.nodes))


class _UnlistedSpike:
    """|x - 0.3|^-0.9 on [-1, 1]: integrable, but singular off the breakpoints."""

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= 1.0, np.abs(x - 0.3) ** -0.9, 0.0)

    def support(self):
        return (-1.0, 1.0)

    def breakpoints(self):
        return (-1.0, 1.0)


def test_magnus_halving_gives_up():
    # steps next to the singularity never pass the defect test
    with pytest.raises(IntegrationError):
        OdeJost(Potential(_UnlistedSpike()), 1.0, "+")


def test_exponential_tail_jost_values(exp_tail):
    # f_+(x, i) decays like e^{-x}; the deviation is controlled by the tail
    ev = jost_evaluator(exp_tail, 1j, "+")
    xs = np.linspace(0.0, 6.0, 13)
    vals, _ = ev.eval(xs)
    free = np.exp(-xs)
    dev = np.abs(vals - free)
    bound = np.array([oracles.exp_tail_tau_plus(float(x)) for x in xs]) * free
    assert np.all(dev <= bound)


# ---------------------------------------------------------------------------
# k = 0 (zero energy)


def test_zero_energy_square_closed_form(rng):
    for _ in range(6):
        left = rng.uniform(-2.5, -0.3)
        right = rng.uniform(0.3, 2.5)
        height = rng.uniform(-8.0, 8.0)
        p = j.square(left, right, height)
        xs = np.linspace(left - 2.0, right + 2.0, 31)
        sol = j.jost_right(p, 0.0, xs)
        f_o, fp_o = oracles.square_zero_energy_fplus(left, right, height, xs)
        assert np.allclose(sol.values, f_o, atol=1e-10)
        assert np.allclose(sol.derivatives, fp_o, atol=1e-10)


def test_zero_energy_needs_compact_support(exp_tail):
    with pytest.raises(SpecError):
        jost_evaluator(exp_tail, 0.0, "+")


# ---------------------------------------------------------------------------
# Wronskians


def test_wronskian_constant_across_grid(two_step):
    k = 1.3 + 0.2j
    xs = np.linspace(-4.0, 4.0, 101)
    fp = j.jost_right(two_step, k, xs)
    fm = j.jost_left(two_step, k, xs)
    assert j.wronskian_variation(fp, fm) < 1e-10


def test_wronskian_matches_scattering(barrier):
    k = 1.7
    sd = j.scattering(barrier, k)
    w = j.jost_wronskian(barrier, k)
    assert abs(w - (-2j * k) * sd.a) < 1e-10
    assert sd.wronskian_gap < 1e-10


def test_wronskian_requires_matching_sides(barrier):
    xs = np.linspace(-3, 3, 11)
    fp = j.jost_right(barrier, 1.0, xs)
    fm = j.jost_left(barrier, 1.0, xs)
    with pytest.raises(SpecError):
        j.wronskian(fp, fp)
    with pytest.raises(SpecError):
        j.wronskian(fm, fm)


def test_wronskian_requires_common_points(barrier):
    fp = j.jost_right(barrier, 1.0, np.linspace(-3, 3, 10))
    fm = j.jost_left(barrier, 1.0, np.linspace(-2.9, 2.9, 11))
    with pytest.raises(SpecError):
        j.wronskian(fp, fm)


# ---------------------------------------------------------------------------
# unitarity and conjugation symmetries (property tests)


def test_unitarity_random_potentials(rng):
    for _ in range(12):
        p = j.square(rng.uniform(-2, -0.2), rng.uniform(0.2, 2), rng.uniform(-5, 5))
        k = rng.uniform(0.3, 4.0)
        sd = j.scattering(p, k)
        assert sd.unitarity_defect() < 1e-10


def test_reflection_conjugation_symmetry(two_step):
    # real potential: data at -conj(k) is the conjugate of data at k
    k = 1.6
    sd = j.scattering(two_step, k)
    sd_m = j.scattering(two_step, -k + 0.0j)
    assert abs(sd_m.a - np.conj(sd.a)) < 1e-10
    assert abs(sd_m.b - np.conj(sd.b)) < 1e-10


# ---------------------------------------------------------------------------
# bound states are exceptional points of the scattering expansion


def _even_bound_state_kappa(depth, half_width):
    def g(q):
        return q * np.tan(q * half_width) - np.sqrt(depth - q * q)

    q = brentq(g, 1e-9, min(np.sqrt(depth) - 1e-9, np.pi / (2 * half_width) - 1e-9))
    return np.sqrt(depth - q * q)


def test_bound_state_raises_exceptional_point():
    depth = 4.0
    p = j.square(-1.0, 1.0, -depth)
    kappa = _even_bound_state_kappa(depth, 1.0)
    # the Wronskian vanishes there ...
    w = j.jost_wronskian(p, 1j * kappa)
    assert abs(w) < 1e-8
    # ... so the plane-wave expansion has no leading coefficient
    with pytest.raises(ExceptionalPointError):
        j.scattering(p, 1j * kappa)


# ---------------------------------------------------------------------------
# dilation identity


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_scaled_scattering_identity_layers(two_step, eps):
    for k in [0.9, 2.2]:
        squeezed, reference = j.scaled_scattering_identity(two_step, eps, k)
        assert abs(squeezed.r - reference.r) < 1e-10
        assert abs(squeezed.t - reference.t) < 1e-10


def test_scaled_scattering_identity_smooth(bump_table):
    squeezed, reference = j.scaled_scattering_identity(bump_table, 0.5, 1.4)
    assert abs(squeezed.r - reference.r) < 1e-8
    assert abs(squeezed.t - reference.t) < 1e-8


def test_scaled_jost_value_identity(barrier):
    # f_+ of the squeezed potential at (x, k) equals f_+ of V at (x/eps, eps k)
    eps, k = 0.2, 1.5
    ev_s = jost_evaluator(j.scale(barrier, eps), k, "+")
    ev_u = jost_evaluator(barrier, eps * k, "+")
    xs = np.linspace(-0.5, 0.5, 21)
    vs, _ = ev_s.eval(xs)
    vu, _ = ev_u.eval(xs / eps)
    assert np.allclose(vs, vu, atol=1e-12)


# ---------------------------------------------------------------------------
# asymptotic normalization and the error bound


def test_plane_wave_beyond_anchor(barrier):
    k = 1.0 + 0.5j
    ev = jost_evaluator(barrier, k, "+")
    xs = np.array([1.0, 2.0, 10.0, 50.0])
    vals, ders = ev.eval(xs)
    assert np.allclose(vals, np.exp(1j * k * xs), rtol=1e-13)
    assert np.allclose(ders, 1j * k * np.exp(1j * k * xs), rtol=1e-13)


def test_error_bound_reporting(barrier, exp_tail):
    assert jost_evaluator(barrier, 1.0, "+").error_bound == 0.0
    eb = jost_evaluator(exp_tail, 1.0, "+", tol=1e-10).error_bound
    assert 0.0 < eb <= 1e-10


def test_grid_validation(barrier):
    with pytest.raises(SpecError):
        j.jost_right(barrier, 1.0, np.array([[1.0, 2.0]]))
    with pytest.raises(SpecError):
        j.jost_right(barrier, 1.0, np.array([3.0, 1.0]))


def test_method_validation(barrier, bump_table):
    with pytest.raises(SpecError):
        jost_evaluator(barrier, 1.0, "+", method="magic")
    with pytest.raises(SpecError):
        jost_evaluator(bump_table, 1.0, "+", method="transfer")
