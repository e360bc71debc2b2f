"""Limit operators: classification, scattering data, and Green kernels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jost1d as j
from jost1d.errors import SpecError
from jost1d.limits import Kernel

import oracles


# ---------------------------------------------------------------------------
# construction and classification


def test_interface_validation():
    with pytest.raises(SpecError):
        j.interface(0.0)
    with pytest.raises(SpecError):
        j.interface(float("inf"))
    op = j.interface(-2.5)
    assert op.kind == "interface" and op.theta == -2.5
    d = j.dirichlet_decoupled()
    assert d.kind == "dirichlet" and d.theta is None


def test_classification(barrier, shallow_well, well_theta_minus, well_theta_plus):
    assert j.classify_limit(barrier).kind == "dirichlet"
    assert j.classify_limit(shallow_well).kind == "dirichlet"
    op_m = j.classify_limit(well_theta_minus)
    assert op_m.kind == "interface"
    assert op_m.theta == pytest.approx(-1.0, abs=1e-10)
    op_p = j.classify_limit(well_theta_plus)
    assert op_p.theta == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# scattering data of the limits


def test_limit_scattering_dirichlet():
    sd = j.limit_scattering(j.dirichlet_decoupled(), 1.0)
    assert sd.r == -1.0 and sd.t == 0.0
    assert sd.a is None and sd.b is None


@pytest.mark.parametrize("theta", [-1.0, 1.0, 2.0, -0.5])
def test_limit_scattering_interface(theta):
    sd = j.limit_scattering(j.interface(theta), 1.0)
    assert sd.t == pytest.approx(2 * theta / (1 + theta**2), rel=1e-14)
    assert sd.r == pytest.approx((1 - theta**2) / (1 + theta**2), rel=1e-14, abs=1e-14)
    assert abs(abs(sd.r) ** 2 + abs(sd.t) ** 2 - 1.0) < 1e-14
    # plane-wave coefficients stay consistent with (r, t)
    assert sd.r == pytest.approx(sd.b / sd.a, rel=1e-14, abs=1e-14)
    assert sd.t == pytest.approx(1.0 / sd.a, rel=1e-14)


# ---------------------------------------------------------------------------
# Green kernels: closed forms vs finite-difference resolvents


def test_interface_kernel_theta_one_is_free_kernel(rng):
    k = 1.0 + 0.7j
    kern = j.green_kernel_fn(j.interface(1.0), k)
    for _ in range(20):
        x, y = rng.uniform(-6, 6, 2)
        free = np.exp(1j * k * abs(x - y)) / (-2j * k)
        assert kern(x, y) == pytest.approx(free, rel=1e-12)


def test_interface_kernel_conditions_at_origin():
    k = 1.0 + 1.0j
    theta = -2.0
    kern = j.green_kernel_fn(j.interface(theta), k)
    y = 1.3
    h = 1e-6
    val_plus = complex(kern(h, y))
    val_minus = complex(kern(-h, y))
    # u(0+) = theta u(0-)
    assert abs(val_plus - theta * val_minus) < 1e-5 * max(1.0, abs(val_plus))
    # theta u'(0+) = u'(0-) via one-sided differences
    du_plus = (complex(kern(2 * h, y)) - val_plus) / h
    du_minus = (val_minus - complex(kern(-2 * h, y))) / h
    assert abs(theta * du_plus - du_minus) < 1e-4 * max(1.0, abs(du_plus))


def test_interface_kernel_solves_free_equation(rng):
    k = 0.8 + 0.9j
    kern = j.green_kernel_fn(j.interface(-1.5), k)
    y = -2.0
    xs = np.array([-4.0, -1.0, 1.0, 3.0])
    res = oracles.schrodinger_residual(
        lambda x: kern(x, y), lambda x: np.zeros_like(x), k, xs, h=1e-4
    )
    assert np.max(np.abs(res)) < 1e-6


def test_interface_kernel_vs_fd_resolvent(rng):
    # independent discretization of the interface conditions
    theta, k = -1.0, 1j
    ys = rng.uniform(-4.0, 4.0, 6)
    fd = oracles.fd_split_line_kernel(k, sources=ys, theta=theta)
    kern = j.green_kernel_fn(j.interface(theta), k)
    for y in ys:
        for x in rng.uniform(-4.5, 4.5, 4):
            xs, ysn = fd.snap(x), fd.snap(y)
            assert abs(kern(xs, ysn) - fd.value(x, y)) < 1e-4


def test_interface_kernel_vs_fd_resolvent_generic_theta(rng):
    theta, k = 2.0, 1j
    ys = [-1.5, 2.5]
    fd = oracles.fd_split_line_kernel(k, sources=ys, theta=theta)
    kern = j.green_kernel_fn(j.interface(theta), k)
    for y in ys:
        for x in [-3.0, -0.5, 0.5, 3.5]:
            assert abs(kern(fd.snap(x), fd.snap(y)) - fd.value(x, y)) < 1e-4


def test_dirichlet_kernel_vs_fd_resolvent(rng):
    k = 1j
    ys = [-2.0, 1.0]
    fd = oracles.fd_split_line_kernel(k, sources=ys, theta=None)
    kern = j.green_kernel_fn(j.dirichlet_decoupled(), k)
    for y in ys:
        for x in [-4.0, -1.0, 0.5, 2.0]:
            assert abs(kern(fd.snap(x), fd.snap(y)) - fd.value(x, y)) < 1e-4


def test_dirichlet_kernel_structure(rng):
    k = 1.0 + 1.0j
    kern = j.green_kernel_fn(j.dirichlet_decoupled(), k)
    # decoupled: zero across the origin
    assert kern(-1.0, 2.0) == 0.0
    assert kern(3.0, -0.5) == 0.0
    # Dirichlet: vanishes at the boundary point, and exactly on it
    assert abs(kern(1e-12, 2.0)) < 1e-10
    assert kern(0.0, 2.0) == 0.0 and kern(-1.5, 0.0) == 0.0 and kern(0.0, 0.0) == 0.0
    # both half lines match the image-charge closed form
    for lo, hi in ((0.1, 5.0), (-5.0, -0.1)):
        for _ in range(10):
            x, y = rng.uniform(lo, hi, 2)
            assert kern(x, y) == pytest.approx(oracles.dirichlet_image_kernel(k, x, y), rel=1e-12)


@pytest.mark.parametrize("box, n", [(4.0, 41), (3.0, 31), (10.0, 200)])
def test_dirichlet_lattice_matches_image_form(box, n):
    # odd n puts x = 0 on the lattice, where the kernel is exactly zero
    k = 0.7 + 0.4j
    xs = np.linspace(-box, box, n)
    got = j.green_kernel_fn(j.dirichlet_decoupled(), k)(*np.meshgrid(xs, xs))
    expect = oracles.dirichlet_image_kernel(k, *np.meshgrid(xs, xs))
    assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect))
    assert np.array_equal(got == 0, expect == 0)


# ---------------------------------------------------------------------------
# kernel distance


def test_kernel_distance_zero_for_identical():
    k = 1.0 + 1.0j
    kern = j.green_kernel_fn(j.interface(1.0), k)
    assert j.kernel_distance(kern, kern) == 0.0


def test_kernel_distance_scales_linearly():
    k = 1.0 + 1.0j
    kern = j.green_kernel_fn(j.interface(1.0), k)

    def shifted(c):
        return lambda x, y: kern(x, y) + c

    base = j.kernel_distance(kern, shifted(0.01), box=5.0, n=80)
    doubled = j.kernel_distance(kern, shifted(0.02), box=5.0, n=80)
    assert doubled == pytest.approx(2.0 * base, rel=1e-10)
    # the sampled estimate is (box^2/n^2 sum |diff|^2)^(1/2), so a
    # constant offset c comes out as exactly box * c
    assert base == pytest.approx(5.0 * 0.01, rel=1e-10)


def test_kernel_distance_validation():
    kern = j.green_kernel_fn(j.dirichlet_decoupled(), 1j)
    with pytest.raises(SpecError):
        j.kernel_distance(kern, kern, box=-1.0)
    with pytest.raises(SpecError):
        j.kernel_distance(kern, kern, n=1)


# ---------------------------------------------------------------------------
# the convergence table


def test_convergence_table_dirichlet(barrier):
    records = j.convergence_table(barrier, 1.0 + 1.0j, [0.1, 0.2, 0.1], box=4.0, n=50)
    # deduplicated and sorted large-to-small
    assert [r.eps for r in records] == [0.2, 0.1]
    for rec in records:
        assert rec.limit_r == -1.0 and rec.limit_t == 0.0
    assert records[-1].kernel_distance < records[0].kernel_distance


def test_convergence_table_matches_operator(well_theta_minus):
    k = 1.0 + 1.0j
    records = j.convergence_table(well_theta_minus, k, [0.1], box=4.0, n=40)
    rec = records[0]
    sd = j.truncated_operator(well_theta_minus, 0.1, k).scattering()
    assert rec.r_eps == pytest.approx(sd.r, rel=1e-12)
    assert rec.t_eps == pytest.approx(sd.t, rel=1e-12)
    limit_sd = j.limit_scattering(j.classify_limit(well_theta_minus), k)
    assert rec.limit_r == pytest.approx(limit_sd.r)
    assert rec.limit_t == pytest.approx(limit_sd.t)


def test_convergence_table_validation(barrier):
    with pytest.raises(SpecError):
        j.convergence_table(barrier, 1.0, [])
    with pytest.raises(SpecError):
        j.convergence_table(barrier, 1.0, [0.1, -0.2])


@pytest.mark.parametrize("k, eps_list", [(1.0, [0.1, float("nan")]), (1.0, [float("nan")]),
                                        (float("nan"), [0.1]), (complex(1.0, float("inf")), [0.1])])
def test_convergence_table_rejects_non_finite_before_work(barrier, monkeypatch, k, eps_list):
    import jost1d.limits as limits

    calls = []
    monkeypatch.setattr(limits, "classify_limit", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SpecError):
        j.convergence_table(barrier, k, eps_list)
    assert calls == []


@pytest.mark.parametrize("box, n", [(0.0, 40), (-1.0, 40), (4.0, 1), (float("nan"), 40),
                                   (float("inf"), 40)])
def test_convergence_table_rejects_lattice_before_work(barrier, monkeypatch, box, n):
    import jost1d.limits as limits

    calls = []
    monkeypatch.setattr(limits, "classify_limit", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SpecError, match=r"kernel_distance needs box > 0 and n >= 2"):
        j.convergence_table(barrier, 1.0, [0.1], box=box, n=n)
    assert calls == []


@pytest.mark.parametrize("n", [200.0, 50.5])
def test_lattice_rejects_non_integer_n(barrier, n):
    # np.linspace raised a bare TypeError on a float count
    g = j.truncated_operator(barrier, 0.1, 1.0 + 1.0j).green
    with pytest.raises(SpecError, match="n must be an integer"):
        j.convergence_table(barrier, 1.0 + 1.0j, [0.1], n=n)
    with pytest.raises(SpecError, match="n must be an integer"):
        j.kernel_distance(g, g, n=n)


# the resonant exp well is classified interface only above the default threshold
_RESONANT_EXP = (j.exp_decay(1.0, -1.0, 1.4457964873313904), 1e-3)


@pytest.mark.parametrize("name", ["barrier", "well_theta_minus", "exp_tail", "bump_table",
                                  "exp_resonant_well"])
@pytest.mark.parametrize("box, n", [(4.0, 40), (3.0, 31), (0.5, 21)])
def test_table_distance_equals_kernel_distance(request, name, box, n):
    # Dirichlet and interface limits, layer and Magnus routes; odd n puts
    # x = 0 on the lattice, and box 0.5 puts lattice points inside the
    # window |x| < x_eps
    p, threshold = (_RESONANT_EXP if name == "exp_resonant_well"
                    else (request.getfixturevalue(name), None))
    k = 1.0 + 1.0j
    limit_fn = j.green_kernel_fn(j.classify_limit(p, threshold=threshold), k)
    for eps in (0.2, 0.1):
        (rec,) = j.convergence_table(p, k, [eps], box, n, threshold=threshold)
        tso = j.truncated_operator(p, eps, k)
        assert rec.kernel_distance == j.kernel_distance(tso.green, limit_fn, box, n)
        assert np.count_nonzero(np.abs(np.linspace(-box, box, n)) < tso.x_eps) >= 2


@pytest.mark.parametrize("name", ["barrier", "well_theta_minus"])
def test_table_evaluates_each_solution_at_n_points(request, monkeypatch, name):
    import dataclasses

    import jost1d.limits as limits

    points = {"u": [], "v": []}

    def counted(solution, log):
        def wrapper(x):
            log.append(np.size(x))
            return solution(x)

        return wrapper

    build = limits.truncated_operator

    def counted_window(*args):
        tso = build(*args)
        tso.green = dataclasses.replace(tso.green, u=counted(tso.green.u, points["u"]),
                                        v=counted(tso.green.v, points["v"]))
        return tso

    monkeypatch.setattr(limits, "truncated_operator", counted_window)
    limit_kernels, limit_points, sums = [], {"u": [], "v": []}, []
    limit_kernel, hs_sum = limits.green_kernel_fn, limits._hs_sum

    def counted_limit(*args):
        limit_kernels.append(args)
        kern = limit_kernel(*args)
        return dataclasses.replace(kern, u=counted(kern.u, limit_points["u"]),
                                   v=counted(kern.v, limit_points["v"]))

    def counted_sum(*args):
        sums.append(args)
        return hs_sum(*args)

    monkeypatch.setattr(limits, "green_kernel_fn", counted_limit)
    monkeypatch.setattr(limits, "_hs_sum", counted_sum)
    eps, n = [0.2, 0.1, 0.05], 40
    j.convergence_table(request.getfixturevalue(name), 1.0 + 1.0j, eps, box=4.0, n=n)
    for log in points.values():
        assert len(log) == len(eps) and sum(log) <= n * len(eps)
    assert len(limit_kernels) == 1
    assert limit_points == {"u": [n], "v": [n]}
    assert len(sums) == len(eps)


def _on_meshgrid(kern):
    """kern as a plain callable, so kernel_distance sums its full n x n lattice."""
    return lambda x, y: kern(x, y)


@pytest.mark.parametrize("name", ["barrier", "shallow_well", "well_theta_minus",
                                  "well_theta_plus", "two_step", "exp_tail",
                                  "exp_resonant_well"])
def test_table_distance_matches_meshgrid_sum(request, name):
    # the O(n) sum against the n^2 lattice of the same two kernels, over
    # Dirichlet and interface limits, complex and real k, odd and even n,
    # and eps down to 1e-4, where a generic window's a is of order 1e4
    p, threshold = (_RESONANT_EXP if name == "exp_resonant_well"
                    else (request.getfixturevalue(name), None))
    eps = [0.2, 0.05, 0.01, 1e-3, 1e-4]
    for k in (1.0 + 1.0j, 0.7 + 0.4j, 1.0):
        limit = _on_meshgrid(j.green_kernel_fn(j.classify_limit(p, threshold=threshold), k))
        windows = [_on_meshgrid(j.truncated_operator(p, e, k).green) for e in eps]
        for box, n in ((10.0, 200), (4.0, 41), (3.0, 31), (0.5, 21)):
            rows = j.convergence_table(p, k, eps, box, n, threshold=threshold)
            for rec, window in zip(rows, windows):
                want = j.kernel_distance(window, limit, box, n)
                assert rec.kernel_distance == pytest.approx(want, rel=1e-12, abs=0.0)


def _random_kernel(rng, split):
    """A Kernel whose u, v mix plane waves of complex wavenumber with a polynomial."""
    cu, cv = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    ku, kv = rng.uniform(0.2, 2.0, 2) + 1j * rng.uniform(-0.3, 0.3, 2)

    def solution(c, kk):
        return lambda x: c[0] * np.exp(1j * kk * x) + c[1] * np.exp(-1j * kk * x) + c[2] + c[3] * x

    w = 10.0 ** rng.uniform(-1.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
    return Kernel(solution(cu, ku), solution(cv, kv), w, split)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), split_a=st.booleans(), split_b=st.booleans(),
       n=st.integers(2, 61), box=st.floats(0.1, 10.0), delta=st.floats(1e-3, 1.0))
def test_hs_sum_matches_meshgrid_on_random_kernels(seed, split_a, split_b, n, box, delta):
    # B is A plus delta times an unrelated kernel's factors, with w moved by
    # delta too, so the distance spans three decades below |G|
    rng = np.random.default_rng(seed)
    a, other = _random_kernel(rng, split_a), _random_kernel(rng, False)
    b = Kernel(lambda x: a.u(x) + delta * other.u(x), lambda x: a.v(x) + delta * other.v(x),
                 a.w * (1.0 + delta * other.w), split_b)
    got = j.kernel_distance(a, b, box, n)
    assert got >= 0.0
    assert got == pytest.approx(j.kernel_distance(_on_meshgrid(a), _on_meshgrid(b), box, n),
                                rel=1e-12, abs=0.0)


def test_table_memory_is_linear_in_n(barrier):
    # an n x n complex lattice at n = 2001 is 64 MB; the O(n) sum needs well under 1 MB
    tracemalloc.start()
    try:
        j.convergence_table(barrier, 1.0 + 1.0j, [0.1, 0.05], n=2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
