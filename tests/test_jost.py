"""Jost solutions, Wronskians, and scattering data against independent oracles."""

import dataclasses
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import j0

import jost1d as j
from jost1d.errors import ExceptionalPointError, IntegrationError, SpecError, _wavenumber
from jost1d.jost import (
    _MIN_PANELS,
    JostEvaluator,
    _Build,
    _compose,
    _jost_maps,
    _layers,
    _peak,
    _seed_edges,
    _x_maps,
    jost_evaluator,
)
from jost1d.potential import Potential
from jost1d.transfer import magnus_entries, propagator_entries

import oracles


# ---------------------------------------------------------------------------
# wavenumber validation


def test_wavenumber_validation():
    with pytest.raises(SpecError):
        _wavenumber(1.0 - 0.5j)
    with pytest.raises(SpecError):
        _wavenumber(0.0)
    assert _wavenumber(0.0, allow_zero=True) == 0.0
    assert _wavenumber(2.0) == 2.0 + 0.0j


@pytest.mark.parametrize("k", [float("nan"), float("inf"), -float("inf"),
                               complex(1.0, float("nan")), complex(1.0, float("inf"))])
def test_wavenumber_rejects_non_finite(k):
    # NaN fails every ordering test, so each check must be written to reject it
    with pytest.raises(SpecError, match="finite"):
        _wavenumber(k, allow_zero=True)


@pytest.mark.parametrize("k", [None, "a", [1, 2], "1", True,
                               pytest.param(np.bool_(True), id="np.True_")])
def test_wavenumber_rejects_non_numbers(k):
    # complex() reads the text "1" and True; neither is a wavenumber
    with pytest.raises(SpecError, match="complex number"):
        _wavenumber(k, allow_zero=True)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0, 1.0])
def test_tol_outside_unit_interval_raises(tol):
    # unchecked, an infinite tol cut this well's tails at |x| = 1 and gave
    # t = 0.73+0.64i (0.32+0.94i is right); tol <= 0 never anchored
    well = j.exp_decay(1.0, -1.0, 1.4458)
    with pytest.raises(SpecError, match="tol"):
        j.scattering(well, 1.0, tol=tol)
    with pytest.raises(SpecError, match="tol"):
        j.resonance_report(well, tol=tol)
    with pytest.raises(SpecError, match="tol"):
        jost_evaluator(j.tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]), 1.0, "+", tol=tol)


# ---------------------------------------------------------------------------
# the free line


@pytest.mark.parametrize("k", [1.0, 1j, 1.0 + 1j])
def test_free_jost_is_plane_wave(k):
    p = j.zero()
    xs = np.linspace(-5.0, 5.0, 41)
    f, fp = jost_evaluator(p, k, "+").eval(xs)
    g, _ = jost_evaluator(p, k, "-").eval(xs)
    assert np.allclose(f, np.exp(1j * k * xs), atol=1e-12)
    assert np.allclose(fp, 1j * k * np.exp(1j * k * xs), atol=1e-12)
    assert np.allclose(g, np.exp(-1j * k * xs), atol=1e-12)


@pytest.mark.parametrize("k", [1.0, 1j, 1.0 + 1j])
def test_free_scattering_and_wronskian(k):
    p = j.zero()
    sd = j.scattering(p, k)
    assert abs(sd.a - 1.0) < 1e-10
    assert abs(sd.b) < 1e-10
    assert abs(sd.r) < 1e-10
    assert abs(sd.t - 1.0) < 1e-10
    assert abs(j.jost_wronskian(p, k) - (-2j * k)) < 1e-10


@pytest.mark.parametrize("p", [
    j.truncate(j.tabulated([1.0, 2.0, 3.0], [0.0, 1.0, 0.0]), 0.5),
    j.scale(j.truncate(j.tabulated([-3.0, -2.0, -1.0], [0.0, -1.0, 0.0]), 0.5), 0.1),
    j.truncate(j.piecewise_constant([(1.0, 2.0, 1.0), (2.5, 3.0, -1.0)]), 0.5),
], ids=["table right", "scaled table left", "layers"])
@pytest.mark.parametrize("k", [1.3, 1.0 + 1j])
def test_window_missing_the_support_is_the_free_line(p, k):
    # the window holds none of V, so the support collapses to a point, not an inverted interval
    lo, hi = p.support()
    assert lo == hi
    sd = j.scattering(p, k)
    assert abs(sd.r) < 1e-14 and abs(sd.t - 1.0) < 1e-14
    xs = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(jost_evaluator(p, k, "-").eval(xs)[0], np.exp(-1j * k * xs), rtol=1e-14)


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
    sd_transfer = j.scattering(two_step, k)
    # maps built without layers take the Magnus route
    maps = _x_maps(two_step, complex(k), 1e-10, None, False)
    a, b = JostEvaluator(_Build(two_step, complex(k), 1.0, *maps, complex(k)), "+").plane_pair()
    assert abs(sd_transfer.r - b / a) < 1e-8
    assert abs(sd_transfer.t - 1.0 / a) < 1e-8


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rate=st.floats(0.5, 3.0), amplitude=st.floats(0.2, 2.0),
       sign=st.sampled_from([-1.0, 1.0]), k=st.floats(0.05, 20.0))
def test_magnus_scattering_matches_bessel_oracle_on_exp_decay(rate, amplitude, sign, k):
    # whole-line exponential wells and barriers at real k against the closed form in mpmath
    sd = j.scattering(j.exp_decay(rate, sign * amplitude), k)
    r, t = oracles.exp_window_scattering(rate, sign * amplitude, None, k)
    assert abs(sd.r - complex(r)) < 1e-9
    assert abs(sd.t - complex(t)) < 1e-9


def test_magnus_window_matches_bessel_oracle_at_complex_k():
    # a window cut from an exponential well, whose r and t the oracle matches at its edges
    half_width, k = 2.5, 0.8 + 0.4j
    sd = j.scattering(j.truncate(j.exp_decay(1.5, -1.2), half_width), k)
    r, t = oracles.exp_window_scattering(1.5, -1.2, half_width, k)
    assert abs(sd.r - complex(r)) < 1e-9
    assert abs(sd.t - complex(t)) < 1e-9


@pytest.mark.parametrize("k", [1.5, 0.5 + 0.5j, 4.0])
def test_magnus_step_is_sixth_order(k):
    # n uniform steps over a smooth stretch of an exponential well; the
    # error of the product against 4096 steps falls 64-fold per halving
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
        assert 56.0 < coarse / fine < 72.0


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
    ev = jost_evaluator(bump_table, k, side)
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
    assert isinstance(ev, JostEvaluator)
    assert np.all(np.isin(np.asarray(bump_table.breakpoints()), ev.nodes))


@pytest.mark.parametrize("side", ["+", "-"])
def test_magnus_mesh_has_no_sliver_panels(side):
    # on this grid some nodes of V(-x) sit one ulp from a uniform point of the mesh
    x = np.linspace(-2.3, 1.7, 33)
    p = j.tabulated(x, -1.5 * np.cos(x) ** 2)
    ev = jost_evaluator(p, 0.7, side)
    assert np.all(np.isin(x if side == "+" else -x, ev.nodes))  # nodes are in t = s x
    assert np.diff(ev.nodes).min() > 1e-12


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
        jost_evaluator(Potential(_UnlistedSpike()), 1.0, "+")


@st.composite
def _seed_case(draw):
    """(lo, hi, cuts): spans of zero, a few ulps and order one, and the breakpoints a
    duck-typed shape might give: near the uniform points and the ends, anywhere, nan,
    repeated and unsorted."""
    lo = draw(st.floats(-50.0, 50.0))
    hi = draw(st.one_of(st.just(lo), st.integers(1, 300).map(lambda n: lo + n * math.ulp(lo)),
                        st.floats(1e-3, 60.0).map(lambda w: lo + w)))
    uniform = np.linspace(lo, hi, _MIN_PANELS + 1)
    rule = 1e-12 * (hi - lo)
    near_uniform = st.builds(lambda i, f: uniform[i] + f * rule,
                             st.integers(0, _MIN_PANELS), st.floats(-2.0, 2.0))
    near_ends = st.builds(lambda end, f: end + f * rule, st.sampled_from([lo, hi]),
                          st.floats(-3.0, 3.0))
    anywhere = st.floats(lo - 1.0, hi + 1.0)
    cuts = draw(st.lists(st.one_of(near_uniform, near_ends, anywhere, st.just(math.nan)),
                         max_size=40))
    cuts += draw(st.lists(st.sampled_from(cuts), max_size=5)) if cuts else []  # repeats
    return lo, hi, draw(st.permutations(cuts))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_seed_case())
# the middle uniform point of [-1, 1] is 0.0, so these cuts sit exactly at the
# 1e-12 span rule, which drops it, and one ulp beyond, which keeps it
@example(case=(-1.0, 1.0, [1e-12 * 2.0]))
@example(case=(-1.0, 1.0, [-1e-12 * 2.0]))
@example(case=(-1.0, 1.0, [math.nextafter(1e-12 * 2.0, 1.0)]))
def test_seed_edges_are_the_all_pairs_rule(case):
    # the nearest cut by searchsorted is bit for bit the oracle's 193 x m table
    lo, hi, cuts = case
    got = _seed_edges(lo, hi, cuts)
    assert got.tobytes() == oracles.seed_edges(lo, hi, cuts, _MIN_PANELS).tobytes()


class _MessyBreakpoints:
    """The bump table, its breakpoints given reversed, repeated, with nans and points outside."""

    def __init__(self, table):
        self.value, self.support, clean = table.value, table.support, table.breakpoints()
        self.messy = [math.nan, *clean[::-1], *clean[5:9], -7.0, math.nan, 9.0]

    def breakpoints(self):
        return self.messy


@pytest.mark.parametrize("k", [0.0, 2.0, 1.0 + 0.5j])
def test_messy_breakpoints_give_the_clean_build(bump_table, k):
    messy = _jost_maps(Potential(_MessyBreakpoints(bump_table.shape)), k)
    clean = _jost_maps(bump_table, k)
    assert messy.nodes.tobytes() == clean.nodes.tobytes()
    assert messy.steps.tobytes() == clean.steps.tobytes()


def test_dense_table_build_stays_small():
    # the seed finds each uniform point's nearest node by searchsorted: the
    # all-pairs distances of 193 uniform points to 20k nodes took 62 MB
    x = np.linspace(-3.0, 3.0, 20_000)
    p = j.tabulated(x, np.sin(3.0 * x) * np.exp(-x**2))
    tracemalloc.start()
    try:
        _jost_maps(p, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


_README_WELL = j.exp_decay(1.0, -1.0, 1.4458)


@pytest.mark.parametrize("which, k", [("exp_well", 1.0), ("exp_well", 2.5),
                                      ("exp_well", 1.0 + 0.3j), ("exp_well", 0.0),
                                      ("bump", 2.0), ("window", 1.0)])
def test_every_magnus_step_passes_the_defect_test(bump_table, which, k):
    # recomputed panel by panel from magnus_entries and 2x2 matmul: the
    # one-step vs two-half-step defect is within max(tol h / span, 1e-14)
    # of the step's size, and the kept map is the Richardson-corrected one
    if which == "window":  # an exp_decay window at eps = 0.01, built on its base at eps k
        built = j.truncated_operator(j.exp_decay(1.5, 1.0), 0.01, k)._built
    else:
        built = _jost_maps(_README_WELL if which == "exp_well" else bump_table, k)
    p, k, nodes, steps = built.p, built.k, built.nodes, built.steps
    assert built.mu2 is None
    x0, x1 = nodes[1:], nodes[:-1]  # steps map (f, f') at node j+1 to node j
    mid = 0.5 * (x0 + x1)

    def maps(a, b):
        return np.stack(magnus_entries(p, k, a, b), axis=-1).reshape(-1, 2, 2)

    whole, halves = maps(x0, x1), maps(mid, x1) @ maps(x0, mid)
    size = np.abs(halves).max(axis=(1, 2))
    allowed = np.maximum(1e-10 * (x0 - x1) / (nodes[-1] - nodes[0]), 1e-14) * size
    assert np.all(np.abs(whole - halves).max(axis=(1, 2)) <= allowed)
    richardson = (halves + (halves - whole) / 63.0).reshape(-1, 4)
    assert np.all(np.abs(steps.T - richardson).max(axis=1) <= 1e-13 * size)


@pytest.mark.parametrize("which, rounds", [("exp_well", 2), ("bump", 1), ("window", 1),
                                           ("exp_report", 2)])
def test_magnus_mesh_jumps_to_its_level(bump_table, monkeypatch, which, rounds):
    # a round is one kernel call; the seed panels are fine enough that a
    # rejected step, split at once into 2^ceil(log64(4 defect / allowed))
    # pieces, passes in the next round: the README exp well at k = 1, the
    # bump at k = 2, the exp_decay(1.5, 1) window at eps = 0.05 and the
    # README exp report at k = 0 (from 16 seed panels they took 3, 2, 3
    # and 3 calls; halving one level per round took 25 and 11 for the first two)
    from jost1d import jost

    calls = []

    def counting(*args):
        calls.append(1)
        return magnus_entries(*args)

    monkeypatch.setattr(jost, "magnus_entries", counting)
    if which == "exp_well":
        _jost_maps(_README_WELL, 1.0)
    elif which == "bump":
        _jost_maps(bump_table, 2.0)
    elif which == "window":
        j.truncated_operator(j.exp_decay(1.5, 1.0), 0.05, 1.0)
    else:
        j.resonance_report(j.exp_decay(1.0, 1.0, -1.4458))
    assert len(calls) == rounds


def test_overflowed_magnus_steps_are_halved():
    # at k = 300i the coarse steps overflow to inf and nan, whose defect
    # ratio is nan: such a step is halved, not split to the width floor,
    # and no RuntimeWarning (an error under pytest's settings) is raised
    steps = _jost_maps(j.exp_decay(1.0, -1.0), 300j).steps
    assert np.isfinite(steps).all()


def test_large_k_meshes_stay_small_and_quiet(bump_table):
    # the coarse steps overflow at first at |k| = 100 and 1000; the build
    # halves them without a warning, and the dyadic jump of each rejected
    # step keeps the meshes small
    p = j.exp_decay(1.0, -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sd = j.scattering(p, 100.0)
        exp_nodes = len(jost_evaluator(p, 100.0, "+").nodes)
        bump_nodes = len(jost_evaluator(bump_table, 1000.0, "+").nodes)
    _, t = oracles.exp_window_scattering(1.0, -1.0, None, 100.0)
    assert abs(sd.t - complex(t)) < 1e-12
    assert exp_nodes <= 6371
    assert bump_nodes <= 4225


@pytest.mark.parametrize("k", [20j, 0.5 + 15j])
@pytest.mark.parametrize("quantity", [j.scattering, j.jost_wronskian])
def test_overflowed_product_raises(quantity, k):
    # the step maps are finite, but their product over the tail cut at |x| = 32 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning on the way
        with pytest.raises(SpecError, match=re.escape(f"not finite at k = {k}")):
            quantity(j.exp_decay(1.0, -1.0), k)


@pytest.mark.parametrize("k", [1.0, 1.0 + 0.5j, 0.0])
def test_single_map_product_is_identity_and_map(k):
    # a one-layer square has one step map M, and its product is (I, M, M) as is
    built = _jost_maps(j.square(-1.0, 1.0, -1.0), k)
    steps = built.steps
    assert steps.shape == (4, 1)
    left, right, product = built.product
    assert _hex(left) == _hex(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex))
    assert _hex(right) == _hex(product) == _hex(steps[:, 0].astype(complex))
    overflowed = steps.copy()
    overflowed[1, 0] = np.inf
    assert not np.isfinite(dataclasses.replace(built, steps=overflowed).product[2]).all()
    if k != 0:  # an overflowed layer raises, with no warning on its way, at real and complex k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match="not finite"):
                j.scattering(j.square(-1.0, 1.0, 1e6), k)


def test_peak_is_numpys_max_over_the_entries(rng):
    # the Magnus defect test takes max |m_ij| pairwise: exactly numpy's max, nan included
    real = rng.normal(size=(500, 4)) * 10.0 ** rng.uniform(-300, 300, (500, 4))
    real[[3, 7], [1, 2]] = np.nan
    real[[5, 9], [0, 3]] = [np.inf, -np.inf]
    real[11] = [np.nan, np.inf, 1.0, np.nan]
    for m in (real.T, (real + 1j * rng.normal(size=(500, 4))[::-1]).T):  # entries on axis 0
        assert np.array_equal(_peak(np.abs(m)), np.max(np.abs(m), axis=0), equal_nan=True)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("batch", [(), (9,), (3, 9)], ids=["one_map", "maps", "rows_of_maps"])
def test_compose_is_the_four_sums_written_out(rng, dtype, batch):
    # the broadcast product rounds as a*e + b*g, a*f + b*h, c*e + d*g and c*f + d*h
    # do, byte for byte, on whole arrays and on the strided halves of a product round
    def maps():
        m = rng.normal(size=(4,) + batch) * 10.0 ** rng.uniform(-3, 3, (4,) + batch)
        return m + 1j * rng.normal(size=m.shape) if dtype is complex else m

    def written_out(m, n):
        (a, b, c, d), (e, f, g, h) = ([x[i, ...] for i in range(4)] for x in (m, n))
        return np.array([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h])

    m, n = maps(), maps()
    pairs = [(m, n), (n, m)]
    if batch:  # the pairs of neighbours a product round composes
        pairs += [(m[..., 0:batch[-1] - 1:2], m[..., 1::2]), (n[..., 1::2], n[..., 0:batch[-1] - 1:2])]
    for a, b in pairs:
        got, want = _compose(a, b), written_out(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [
    j.exp_decay(1.0, -1.0, 1.4458),
    j.square(-1.0, 1.0, 2.0),
    j.scale(j.truncate(j.exp_decay(1.0, -1.0, 1.4458), 6.0), 0.05),
], ids=["exp_well", "square", "squeezed_window"])
def test_step_maps_are_real_where_k2_is(p):
    for k in (1.0, 0.0, 2j):
        assert _jost_maps(p, k).steps.dtype == np.float64
    assert _jost_maps(p, 1.0 + 0.5j).steps.dtype == np.complex128


@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0, 9.0, 12.0])
def test_imaginary_axis_counts_square_well_bound_states(alpha):
    # W(i kappa) is real, and it vanishes once per bound state: a well of
    # width 2 and depth alpha holds ceil(2 sqrt(alpha) / pi) of them
    p = j.square(-1.0, 1.0, -alpha)
    w = np.array([j.jost_wronskian(p, 1j * kappa) for kappa in np.linspace(0.01, 10.0, 1000)])
    assert np.all(w.imag == 0.0)
    assert np.count_nonzero(np.diff(np.sign(w.real))) == math.ceil(2.0 * math.sqrt(alpha) / math.pi)


def test_exponential_tail_jost_values(exp_tail):
    # f_+(x, i) decays like e^{-x}; the deviation is controlled by the tail
    ev = jost_evaluator(exp_tail, 1j, "+")
    xs = np.linspace(0.0, 6.0, 13)
    vals, _ = ev.eval(xs)
    free = np.exp(-xs)
    dev = np.abs(vals - free)
    bound = np.array([oracles.exp_tail_tau_plus(float(x)) for x in xs]) * free
    assert np.all(dev <= bound)


def test_anchor_error_reports_the_last_measured_point():
    # a tail decaying at rate 1e-16 stays above tol up to the last dyadic
    # point tried, |x| = 2^59; the message names that point and its mass
    p = j.exp_decay(1e-16, 1.0)
    with pytest.raises(j.AnchorError) as caught:
        j.scattering(p, 1.0)
    mass = p.shape.integrals(2.0**59, math.inf, p.coupling)[3]
    assert caught.value.achieved == mass
    assert str(caught.value) == (
        f"weighted tail never fell below 1e-10 (achieved {mass:.3g} at |x| = 5.76461e+17)")


# ---------------------------------------------------------------------------
# k = 0 (zero energy)


def test_zero_energy_square_closed_form(rng):
    for _ in range(6):
        left = rng.uniform(-2.5, -0.3)
        right = rng.uniform(0.3, 2.5)
        height = rng.uniform(-8.0, 8.0)
        p = j.square(left, right, height)
        xs = np.linspace(left - 2.0, right + 2.0, 31)
        f, fp = jost_evaluator(p, 0.0, "+").eval(xs)
        f_o, fp_o = oracles.square_zero_energy_fplus(left, right, height, xs)
        assert np.allclose(f, f_o, atol=1e-10)
        assert np.allclose(fp, fp_o, atol=1e-10)


def test_zero_energy_exponential_tail_bessel():
    # for V = -A e^{-|x|}, s = 2 sqrt(A) e^{-x/2} turns -y'' + V y = 0 on
    # x >= 0 into Bessel's equation of order 0, and f_+(x, 0) = J0(s)
    xs = np.linspace(0.0, 12.0, 49)
    for strength in [0.7, 1.4458, 3.0]:
        ev = jost_evaluator(j.exp_decay(1.0, 1.0, -strength), 0.0, "+")
        f, _ = ev.eval(xs)
        assert np.max(np.abs(f - j0(2.0 * np.sqrt(strength) * np.exp(-xs / 2.0)))) < 1e-10
        assert 0.0 < ev.error_bound <= 1e-10


# ---------------------------------------------------------------------------
# Wronskians


def test_wronskian_constant_across_grid(two_step, bump_table):
    # on the Magnus route f_- reads f_+'s step maps mirrored, so the smooth
    # potentials check that the mirrored maps solve the reflected equation
    k = 1.3 + 0.2j
    xs = np.linspace(-4.0, 4.0, 101)
    for p in (two_step, bump_table, j.exp_decay(1.0, 1.0, -1.4458)):
        f, fp = jost_evaluator(p, k, "+").eval(xs)
        g, gp = jost_evaluator(p, k, "-").eval(xs)
        w = f * gp - fp * g
        mid = w[len(w) // 2]
        assert np.max(np.abs(w - mid)) / abs(mid) < 1e-10


def test_wronskian_matches_scattering(barrier):
    k = 1.7
    sd = j.scattering(barrier, k)
    w = j.jost_wronskian(barrier, k)
    assert abs(w - (-2j * k) * sd.a) < 1e-10
    assert sd.wronskian_gap < 1e-10


@pytest.mark.parametrize("name", ["barrier", "shallow_well", "well_theta_minus", "well_theta_plus",
                                  "two_step", "bump_table", "exp_tail", "scaled_table"])
@pytest.mark.parametrize("k", [0.0, 0.7, 1.0 + 1.0j, 0.5 + 2.0j])
def test_wronskian_product_matches_evaluator_pair(request, name, k):
    # jost_wronskian multiplies the step maps out and builds no evaluator;
    # the pair scans the same maps and meets at the midpoint.  The floor of 1
    # serves the resonant wells, whose W(0) vanishes.
    if name == "scaled_table":
        x = np.linspace(-2.0, 2.0, 41)
        p = j.scale(j.tabulated(x, -np.exp(-(x**2))), 0.01)
    else:
        p = request.getfixturevalue(name)
    sup = p.support()
    mid = 0.5 * (sup[0] + sup[1]) if sup is not None else 0.0
    built = _jost_maps(p, k)
    (f, g), (fp, gp) = JostEvaluator(built).eval(mid)
    want = complex(f * gp - fp * g)
    assert abs(j.jost_wronskian(p, k) - want) <= 1e-12 * max(abs(want), 1.0)


@pytest.mark.parametrize("k", [1.3, 0.7 + 0.4j, 0.0])
def test_split_node_states_are_both_solutions_in_x(k):
    # two layers put the product's split node at x = 0: halves hands back
    # (f_+, f_+', f_-, f_-') there in x, the "+" and "-" evaluators' (f, f')
    p = j.piecewise_constant([(-1.0, 0.0, -2.0), (0.0, 1.0, 3.0)])
    built = _jost_maps(p, k)
    assert built.nodes[1] == 0.0 and built.steps.shape[-1] == 2
    want = [v for side in "+-" for v in jost_evaluator(p, k, side).eval(0.0)]
    np.testing.assert_allclose(built.halves(), want, rtol=1e-13)


@pytest.mark.parametrize("name", ["two_step", "bump_table", "exp_tail"])
@pytest.mark.parametrize("eps", [0.1, 1e-3])
@pytest.mark.parametrize("k", [0.0, 1.0, 1.0 + 1.0j])
def test_wronskian_dilation(request, name, eps, k):
    # W of eps^-2 V(x/eps) at k is W of V at eps k over eps, and so is d0
    p = request.getfixturevalue(name)
    squeezed = j.scale(p, eps)
    want = j.jost_wronskian(p, eps * k) / eps
    assert abs(j.jost_wronskian(squeezed, k) - want) <= 1e-13 * abs(want)
    if k == 0.0:
        d0 = j.resonance_report(p).d0 / eps
        assert abs(j.resonance_report(squeezed).d0 - d0) <= 1e-13 * abs(d0)


# ---------------------------------------------------------------------------
# one mesh per pair: f_- reads the step maps of f_+, mirrored

_SHARED_MESH = {
    "exp_well": j.exp_decay(1.0, -1.0, 1.4458),
    "squeezed_window": j.scale(j.truncate(j.exp_decay(1.0, -1.0, 1.4458), 6.0), 0.05),
}


def _hex(a):
    a = np.asarray(a)
    return [float.hex(v) for v in np.concatenate([a.real.ravel(), a.imag.ravel()]).tolist()]


@pytest.mark.parametrize("name", ["bump_table", "exp_well", "squeezed_window"])
@pytest.mark.parametrize("k", [0.0, 1.3, 1.0 + 0.5j])
def test_pair_shares_one_mesh_with_lone_builds(request, name, k):
    p = _SHARED_MESH[name] if name in _SHARED_MESH else request.getfixturevalue(name)
    # each side built alone, on the pair's build or by jost_evaluator, holds
    # the pair's nodes and states bit for bit, and f_-'s nodes are f_+'s mirrored
    built = _jost_maps(p, k)
    pair = JostEvaluator(built)
    for i, side in enumerate("+-"):
        for ev in (JostEvaluator(built, side), jost_evaluator(p, k, side)):
            assert _hex(ev.nodes) == _hex(pair.nodes[i])
            assert _hex(ev.states) == _hex(pair.states[:, i:i + 1])
            assert ev.error_bound == pair.error_bound[i]
    assert _hex(pair.nodes[1]) == _hex(-pair.nodes[0][::-1])


_E22 = np.linspace(-1.5, 1.5, 23)
_PAIR_BUILDS = {
    "square_well": j.square(-1.0, 1.0, -1.3),
    "layers_22": j.piecewise_constant(list(zip(_E22[:-1], _E22[1:],
                                               -1.5 + np.sin(3.0 * np.arange(22))))),
    "exp_well": j.exp_decay(1.0, -1.0, 1.4458),
}
_WINDOW_EPS = np.array([0.2, 0.1, 0.05, 0.02, 0.01])


def _pair_build(request, name, k):
    """The _jost_maps build of a case; k "batch" is the five-row window k batch at 1+0.5i."""
    p = _PAIR_BUILDS[name] if name in _PAIR_BUILDS else request.getfixturevalue(name)
    if k == "batch":
        return _jost_maps(p, 1.0 + 0.5j, layers=_layers(p.shape, p.coupling), eps=_WINDOW_EPS)
    return _jost_maps(p, k)


def _pair_points(built):
    """Every node of every row, in x, and points beyond both ends."""
    nodes, eps = built.nodes, np.atleast_1d(built.eps)
    x = np.multiply.outer(eps, nodes).ravel()
    return np.concatenate([x, [x.min() - 0.5, x.max() + 0.5, -10.0, 10.0]])


@pytest.mark.parametrize("name, k", [
    (name, k) for name in ("square_well", "layers_22", "exp_well", "bump_table")
    for k in (0.0, 1.0, 1.0 + 0.5j)
] + [("square_well", "batch"), ("layers_22", "batch")])
def test_pair_equals_two_one_side_builds(request, name, k):
    # each side scanned alone on the pair's build, and for a lone k on
    # jost_evaluator's own build, gives that side's numbers of the pair's one
    # scan and one evaluation bit for bit
    built = _pair_build(request, name, k)
    pair = JostEvaluator(built)
    xs = _pair_points(built)
    xs = np.concatenate([xs, np.ravel(pair.anchor), np.ravel(pair.far_edge)])
    f, fp = pair.eval(xs)
    for i, side in enumerate("+-"):
        lone = [] if k == "batch" else [jost_evaluator(built.p, k, side)]
        for ev in [JostEvaluator(built, side), *lone]:
            g, gp = ev.eval(xs)
            assert np.array_equal(f[i], g) and np.array_equal(fp[i], gp)
            assert all(np.array_equal(c[i], d) for c, d in zip(pair.plane_pair(), ev.plane_pair()))
            assert np.array_equal(pair.anchor[i], ev.anchor)
            assert np.array_equal(pair.far_edge[i], ev.far_edge)
            assert pair.s[i] == ev.s and pair.error_bound[i] == ev.error_bound


def test_one_side_scans_only_its_own_rows(monkeypatch, two_step):
    # a one-side evaluator stacks and scans that side's rows alone: a lone k
    # is one row, and a window's plus and minus each scan their own row
    import jost1d.jost as jost

    rows, compose = [], jost._compose

    def counted(m, n):
        rows.append(m.shape[1])
        return compose(m, n)

    op = j.truncated_operator(two_step, 0.05, 1.0)  # its scattering data read the product
    monkeypatch.setattr(jost, "_compose", counted)
    jost_evaluator(two_step, 1.0, "+")
    assert rows and set(rows) == {1}
    for side in ("plus", "minus"):
        rows.clear()
        ev = getattr(op, side)
        assert rows and set(rows) == {1} and ev.states.shape[1] == 1


def test_anchor_states_are_the_builds_starts(rng):
    # the scan starts from the very states the product reads: the anchor
    # column of each side's rows is the build's starts, bit for bit, for a
    # lone k (jost_evaluator's sides too) and for a k batch
    for _ in range(100):
        lo, hi = -rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        p = j.square(lo, hi, rng.uniform(-5.0, 5.0))
        k = complex(rng.uniform(0.1, 4.0), rng.uniform(0.05, 2.0))
        lone = _jost_maps(p, k)
        batch = _jost_maps(p, k, layers=_layers(p.shape, p.coupling), eps=rng.uniform(0.01, 1, 3))
        for built in (lone, batch):
            rows = np.size(built.k)
            anchored = JostEvaluator(built).states[:, :, -1]
            for i, (f, fp) in enumerate(built.starts):
                assert _hex(anchored[:, i * rows:(i + 1) * rows]) == _hex([np.ravel(f), np.ravel(fp)])
        for i, side in enumerate("+-"):
            assert _hex(jost_evaluator(p, k, side).states[:, :, -1]) == _hex(lone.starts[i])


@pytest.mark.parametrize("x, first", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
                                      ([0.5, -np.inf, np.nan, 1.0], "-inf")])
def test_eval_rejects_non_finite_points(x, first):
    # searchsorted puts nan past the last node, and e^{ikx} is nan at inf
    built = _jost_maps(j.square(-1.0, 1.0, 1.0), 1.0)
    pair = JostEvaluator(built)
    for ev in (pair, JostEvaluator(built, "+"), JostEvaluator(built, "-"),
               jost_evaluator(built.p, 1.0, "-")):
        with pytest.raises(SpecError, match=f"must be finite, got {re.escape(first)}$"):
            ev.eval(x)


@pytest.mark.parametrize("name, k", [("layers_22", 1.0 + 0.5j), ("layers_22", "batch"),
                                     ("exp_well", 1.0 + 0.5j)])
def test_a_node_is_read_across_its_anchor_side_panel(request, monkeypatch, name, k):
    # at a node t_m each side steps from t_{m+1}, the node on its anchor side
    # (searchsorted "right" in its own nodes, -nodes[::-1] for f_-), so
    # no panel step at an inner node has zero width
    import jost1d.jost as jost

    built, widths = _pair_build(request, name, k), []

    def propagator(mu2, w):
        widths.append(np.asarray(w))
        return propagator_entries(mu2, w)

    def magnus(v, kk, x0, x1):
        widths.append(np.asarray(x1) - x0)
        return magnus_entries(v, kk, x0, x1)

    monkeypatch.setattr(jost, "propagator_entries", propagator)
    monkeypatch.setattr(jost, "magnus_entries", magnus)
    pair = JostEvaluator(built)
    nodes, eps = built.nodes, np.atleast_1d(built.eps)
    pair.eval(np.multiply.outer(eps, nodes[1:-1]).ravel())
    width = np.concatenate(widths)
    assert width.size >= 2 * len(eps) * (len(nodes) - 2) and np.all(width != 0.0)


_X41 = np.linspace(-2.0, 2.0, 41)
_PRODUCT_CASES = {
    "square": j.square(-1.0, 1.0, 1.0),
    "piecewise": j.piecewise_constant([(-1.0, 0.0, -2.0), (0.5, 1.5, 3.0)]),
    "table": j.tabulated([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5], [0, 0.5, -1, -2, -1, 0.5, 0]),
    "exp_decay": j.exp_decay(1.0, -1.0, 1.4458),
    "scaled_table": j.scale(j.tabulated(_X41, -np.exp(-(_X41**2))), 0.01),
    "scaled_exp": j.scale(j.exp_decay(1.0, -1.0, 1.4458), 0.01),
}


@pytest.mark.parametrize("name, k", [
    (name, k) for name, p in _PRODUCT_CASES.items()
    for k in [0.7, 2.5, 1.0 + 0.3j, 0.5 + 1.0j]
    # Im k = 1 on a rate-1 tail leaves b no digits, and a spurious a-vanishing error with it
    if p.is_compact() or k.imag < 0.5
])
def test_product_plane_pair_matches_evaluator(name, k):
    # scattering reads (a, b) from the product of the step maps; the
    # evaluator scans the same maps.  On infinite support b at Im k > 0
    # carries the cut tail times e^{2 Im k T}, so only a is compared there.
    p = _PRODUCT_CASES[name]
    sd = j.scattering(p, k)
    a, b = jost_evaluator(p, k, "+").plane_pair()
    assert abs(sd.a - a) <= 1e-13 * abs(a)
    if p.is_compact() or k.imag == 0:
        assert abs(sd.b - b) <= 1e-13 * abs(b)


@pytest.mark.parametrize("name", ["barrier", "bump_table", "exp_tail"])
def test_scattering_builds_no_evaluator(request, name, evaluator_builds):
    sd = j.scattering(request.getfixturevalue(name), 1.3)
    assert len(evaluator_builds) == 0
    assert sd.wronskian_gap < 1e-12


def test_scattering_samples_the_potential_once_per_pair(bump_table, monkeypatch):
    points = []
    call = Potential.__call__

    def counting(self, x):
        points.append(np.size(x))
        return call(self, x)

    monkeypatch.setattr(Potential, "__call__", counting)
    jost_evaluator(bump_table, 1.3, "+")
    one_build = sum(points)
    points.clear()
    j.scattering(bump_table, 1.3)
    assert sum(points) <= 1.1 * one_build


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


@st.composite
def _tables(draw):
    """A table of 5 to 60 nodes with steps 0.02-0.15 and values in [-4, 4], around x = 0."""
    n = draw(st.integers(5, 60))
    widths = draw(st.lists(st.floats(0.02, 0.15), min_size=n - 1, max_size=n - 1))
    values = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    x = np.concatenate([[0.0], np.cumsum(widths)])
    return j.tabulated(x - 0.5 * x[-1] + draw(st.floats(-1.0, 1.0)), values)


_EXP_WELLS = st.builds(lambda rate, size, sign: j.exp_decay(rate, sign * size),
                       st.floats(0.5, 2.0), st.floats(0.3, 3.0), st.sampled_from([-1.0, 1.0]))


def _reflected(p):
    x, v = p.shape.x, p.shape.v
    return j.tabulated([-t for t in reversed(x)], list(reversed(v)))


def _real_scattering_symmetries(p, k):
    sd = j.scattering(p, k)
    assert sd.unitarity_defect() < 1e-10
    assert abs(j.scattering(p, -k + 0.0j).r - np.conj(sd.r)) < 1e-10
    return sd


@settings(max_examples=15, deadline=None, derandomize=True)
@given(p=_tables(), k=st.floats(0.2, 4.0))
def test_table_unitarity_reciprocity_conjugation(p, k):
    sd = _real_scattering_symmetries(p, k)
    assert abs(sd.t - j.scattering(_reflected(p), k).t) < 1e-10


@settings(max_examples=15, deadline=None, derandomize=True)
@given(p=_EXP_WELLS, k=st.floats(0.2, 4.0))
def test_exp_well_unitarity_reciprocity_conjugation(p, k):
    # V is even, so reciprocity is read off f_-: its e^{-ikx} coefficient
    # on the far right is the a of f_+
    sd = _real_scattering_symmetries(p, k)
    assert abs(sd.t - 1.0 / jost_evaluator(p, k, "-").plane_pair()[1]) < 1e-10


@settings(max_examples=15, deadline=None, derandomize=True)
@given(p=_tables(), k_re=st.floats(0.2, 3.0), k_im=st.floats(0.0, 0.5))
def test_table_wronskian_constant_at_complex_k(p, k_re, k_im):
    xs = np.linspace(-4.0, 4.0, 101)
    built = _jost_maps(p, complex(k_re, k_im))
    (f, g), (fp, gp) = JostEvaluator(built).eval(xs)
    w = f * gp - fp * g
    mid = w[len(w) // 2]
    assert np.max(np.abs(w - mid)) / abs(mid) < 1e-10


_MAGNUS_POTENTIALS = st.one_of(
    _tables(), _EXP_WELLS,
    # a window, built on its truncated base at eps k
    st.builds(lambda p, width, eps: j.scale(j.truncate(p, width), eps),
              st.one_of(_tables(), _EXP_WELLS), st.floats(0.3, 4.0), st.floats(0.01, 0.3)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(p=_MAGNUS_POTENTIALS, k_re=st.floats(0.0, 100.0), k_im=st.floats(0.0, 1.0))
def test_magnus_maps_are_the_richardson_maps_of_their_own_panels(p, k_re, k_im):
    # the mesh is refined in place, so each step's map must sit in its own
    # panel's slot: one kernel call on the final nodes, composed and
    # corrected as the build does, gives the build's steps byte for byte
    built = _jost_maps(p, complex(k_re, k_im) if k_im else k_re)
    nodes, n = built.nodes, len(built.nodes) - 1
    assert np.all(np.diff(nodes) > 0.0)
    left, right = nodes[:-1], nodes[1:]
    mid = 0.5 * (left + right)
    maps = np.array(magnus_entries(built.p, built.k, np.concatenate([mid, right, right]),
                                   np.concatenate([left, mid, left])))
    halves = _compose(maps[:, :n], maps[:, n:2 * n])
    halves -= (maps[:, 2 * n:] - halves) / 63.0
    assert halves.tobytes() == built.steps.tobytes()


def test_kept_magnus_steps_keep_a_negative_zero_node(monkeypatch):
    # the table's breakpoint -0.0 is a node; its steps pass in the first
    # round and others are split, so the second round must copy their ends:
    # the piece formula (1 - 0) * -0.0 + 0 * b would make the node +0.0
    from jost1d import jost

    calls = []

    def counting(*args):
        calls.append(1)
        return magnus_entries(*args)

    monkeypatch.setattr(jost, "magnus_entries", counting)
    built = _jost_maps(j.tabulated([-2.0, -1.0, -0.0, 1.0, 2.0], [0.0, -6.0, 0.0, 6.0, 0.0]), 2.0)
    assert (len(calls), len(built.nodes)) == (2, 195)
    zero = built.nodes[built.nodes == 0.0]
    assert len(zero) == 1 and np.signbit(zero[0])


# ---------------------------------------------------------------------------
# the left solution is the right solution of the reflected potential

_TABLE_X = np.linspace(-1.5, 2.0, 15)
_TABLE_V = np.cos(3.0 * _TABLE_X) * np.exp(-_TABLE_X)

# (V, V(-x) written out by hand)
_REFLECTED = {
    "two_step": (j.piecewise_constant([(-1.0, 0.0, -2.0), (0.0, 1.0, 3.0)]),
                 j.piecewise_constant([(-1.0, 0.0, 3.0), (0.0, 1.0, -2.0)])),
    "table": (j.tabulated(_TABLE_X, _TABLE_V), j.tabulated(-_TABLE_X[::-1], _TABLE_V[::-1])),
}
# (potential, route): "transfer" builds with the layers, "ode" without (Magnus)
_ROUTES = [("two_step", "transfer"), ("two_step", "ode"), ("table", "ode")]


def _route_evaluator(p, k, side, route):
    layers = _layers(p.shape, p.coupling) if route == "transfer" else None
    k = complex(k)
    return JostEvaluator(_Build(p, k, 1.0, *_x_maps(p, k, 1e-10, layers, False), k), side)


@pytest.mark.parametrize("name, route", _ROUTES)
@pytest.mark.parametrize("k", [0.0, 1.3, 1.0 + 0.5j])
def test_left_solution_is_reflected_right_solution(name, route, k):
    # f_-(x; V) = f_+(-x; V(-.)), so f_-'(x) = -f_+'(-x)
    p, reflected = _REFLECTED[name]
    xs = np.linspace(-3.0, 3.0, 97)
    f, fp = _route_evaluator(p, k, "-", route).eval(xs)
    g, gp = _route_evaluator(reflected, k, "+", route).eval(-xs)
    assert np.max(np.abs(f - g)) <= 1e-12 * np.max(np.abs(g))
    assert np.max(np.abs(fp + gp)) <= 1e-12 * np.max(np.abs(gp))


@pytest.mark.parametrize("name, route", _ROUTES)
@pytest.mark.parametrize("k", [1.3, 1.0 + 0.5j])
def test_left_plane_pair_carries_transmission(name, route, k):
    # on the far right f_- = c_plus e^{ikx} + a e^{-ikx}: 1/a transmits from either side
    p = _REFLECTED[name][0]
    a, _ = _route_evaluator(p, k, "+", route).plane_pair()
    c_minus = _route_evaluator(p, k, "-", route).plane_pair()[1]
    assert c_minus == pytest.approx(a, rel=1e-10)


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
    with pytest.raises(ExceptionalPointError, match="k\\^2 is an eigenvalue"):
        j.scattering(p, 1j * kappa)


# ---------------------------------------------------------------------------
# dilation identity


def _same_scattering(squeezed, reference):
    return (squeezed.a, squeezed.b, squeezed.r, squeezed.t) == (
        reference.a, reference.b, reference.r, reference.t)


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_scaled_scattering_identity_layers(two_step, eps):
    for k in [0.9, 2.2]:
        squeezed = j.scattering(j.scale(two_step, eps), k)
        assert _same_scattering(squeezed, j.scattering(two_step, eps * k))
        segs = [(eps * lo, eps * hi, h / eps**2) for lo, hi, h in two_step.shape.segments]
        r, t = oracles.layer_matching_scattering(segs, k)
        assert abs(squeezed.r - r) < 1e-10
        assert abs(squeezed.t - t) < 1e-10


def test_scaled_scattering_identity_smooth(bump_table):
    eps, k = 0.5, 1.4
    squeezed = j.scattering(j.scale(bump_table, eps), k)
    assert _same_scattering(squeezed, j.scattering(bump_table, eps * k))
    x, v = np.array(bump_table.shape.x), np.array(bump_table.shape.v)
    a, b, _, _ = oracles.dop853_jost_plus(
        lambda y: np.interp(y / eps, x, v, left=0.0, right=0.0) / eps**2, eps * x, k)
    assert abs(squeezed.r - b / a) < 1e-8
    assert abs(squeezed.t - 1.0 / a) < 1e-8


def test_scaled_scattering_identity_strong_exponential_well():
    # eps^-2 V(x/eps) has tails of size 1/eps^2; the dilation solves V at
    # eps k, and the mpmath closed form solves the squeezed well itself
    eps, k = 0.03, 1.0
    p = j.exp_decay(1.0, -1.5)
    squeezed = j.scattering(j.scale(p, eps), k)
    assert _same_scattering(squeezed, j.scattering(p, eps * k))
    r, t = oracles.exp_window_scattering(1.0 / eps, -1.5 / eps**2, None, k)
    assert abs(squeezed.r - r) < 5e-12
    assert abs(squeezed.t - t) < 5e-12


@pytest.mark.parametrize("name", ["two_step", "bump_table", "exp_tail"])
@pytest.mark.parametrize("k", [1.0, 0.7 + 0.4j])
def test_scaled_plane_pair_is_the_dilated_base(request, name, k):
    # a squeezed potential is built as its base at eps k, so the plane-wave
    # coefficients are the base's bit for bit, on either route
    p = request.getfixturevalue(name)
    for eps in (0.5, 1e-3):
        for side in "+-":
            got = jost_evaluator(j.scale(p, eps), k, side).plane_pair()
            assert got == jost_evaluator(p, eps * k, side).plane_pair()


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
    # past x = 1419 (mirrored for f_-) e^{-ikx} overflows at Im k = 0.5; the
    # anchored region never reads it, so its values stay finite: on one side,
    # in the pair (which forms both waves for both sides) and in a squeezed window
    k = 1.0 + 0.5j
    pair = JostEvaluator(_jost_maps(barrier, k))
    window = j.truncated_operator(barrier, 0.1, k)
    for i, (side, s) in enumerate((("+", 1.0), ("-", -1.0))):
        xs = s * np.array([1.0, 2.0, 10.0, 50.0, 1000.0, 1450.0, 2000.0])
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.exp(-1j * s * k * xs[-2:])).any()
        wave = np.exp(1j * s * k * xs)
        for vals, ders in (jost_evaluator(barrier, k, side).eval(xs),
                           [both[i] for both in pair.eval(xs)],
                           (window.plus, window.minus)[i].eval(xs)):
            assert np.isfinite(vals).all() and np.isfinite(ders).all()
            assert np.allclose(vals, wave, rtol=1e-13)
            assert np.allclose(ders, 1j * s * k * wave, rtol=1e-13)


def test_overflowing_solution_beyond_far_edge_is_quietly_not_finite(barrier):
    # far to the left at Im k = 0.5, f_+ grows like e^{ikx} and overflows past
    # x = -1419 (f_- mirrored); eval returns it as inf or nan, with no
    # RuntimeWarning (an error here), on each side and in the pair
    k = 1.0 + 0.5j
    far = np.array([-1450.0, -2000.0])
    pair = JostEvaluator(_jost_maps(barrier, k))
    for i, (side, s) in enumerate((("+", 1.0), ("-", -1.0))):
        for vals, ders in (jost_evaluator(barrier, k, side).eval(s * far),
                           [both[i] for both in pair.eval(s * far)]):
            assert not np.isfinite(vals).any() and not np.isfinite(ders).any()


def test_error_bound_reporting(barrier, exp_tail):
    assert jost_evaluator(barrier, 1.0, "+").error_bound == 0.0
    eb = jost_evaluator(exp_tail, 1.0, "+", tol=1e-10).error_bound
    assert 0.0 < eb <= 1e-10


def test_side_validation(barrier):
    with pytest.raises(SpecError):
        jost_evaluator(barrier, 1.0, "x")


def test_reexports_are_in_module_all():
    # every name the package re-exports is public in the module it comes from
    modules = {name: sys.modules[getattr(j, name).__module__] for name in j.__all__}
    missing = [(m.__name__, name) for name, m in modules.items()
               if hasattr(m, "__all__") and name not in m.__all__]
    assert missing == []


def test_public_names():
    # pinned, so that any change to the public API shows in a diff
    assert sorted(j.__all__) == [
        "AnchorError", "ConvergenceRecord", "CouplingRoot", "CouplingSweep", "DZeroDerivative",
        "ExceptionalPointError", "IntegrationError", "LimitOperator", "NumericsError",
        "Potential", "RatioInconsistencyError", "ResonanceReport", "ScatteringData",
        "SpecError", "SplittingScale", "TailData", "TruncatedScaledOperator",
        "classify_limit", "convergence_table", "d_dot_zero",
        "exp_decay", "fm_norm", "jost_evaluator", "jost_wronskian", "kernel_distance",
        "load_potential", "moments",
        "piecewise_constant", "potential_from_dict", "resonance_report",
        "resonant_couplings", "scale", "scattering", "splitting_scale", "square",
        "tabulated", "tail_weight_norm", "tails", "truncate", "truncated_operator", "zero",
    ]
