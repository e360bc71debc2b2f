"""Potential construction, integrals, tails, and the splitting scale."""

import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jost1d as j
from jost1d.errors import SpecError

import oracles


# ---------------------------------------------------------------------------
# construction and evaluation


def test_square_evaluation_and_support(barrier):
    x = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
    v = barrier(x)
    assert v.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 0.0]
    assert barrier.support() == (-1.0, 1.0)
    assert barrier.is_compact()
    assert barrier(0.25) == 1.0


def test_square_rejects_bad_interval():
    with pytest.raises(SpecError):
        j.square(1.0, -1.0, 2.0)


def test_piecewise_evaluation(two_step):
    assert two_step(-0.5) == -2.0
    assert two_step(0.5) == 3.0
    assert two_step(2.0) == 0.0
    assert two_step.support() == (-1.0, 1.0)


def test_piecewise_rejects_overlap():
    with pytest.raises(SpecError):
        j.piecewise_constant([(-1.0, 0.5, 1.0), (0.0, 1.0, 2.0)])


@pytest.mark.parametrize("build", [
    lambda: j.square(-1.0, 1.0, math.nan),
    lambda: j.square(-math.inf, 1.0, 1.0),
    lambda: j.square(-1.0, 1.0, 1.0, coupling=math.inf),
    lambda: j.piecewise_constant([(-1.0, 0.0, 1.0), (0.0, math.inf, 2.0)]),
    lambda: j.piecewise_constant([(-1.0, 0.0, 1.0)], coupling=math.nan),
    lambda: j.tabulated([-1.0, 0.0, math.inf], [0.0, 1.0, 0.0]),
    lambda: j.tabulated([-1.0, 0.0, 1.0], [0.0, math.nan, 0.0]),
    lambda: j.tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], coupling=-math.inf),
    lambda: j.exp_decay(rate=math.inf),
    lambda: j.exp_decay(rate=math.nan),
    lambda: j.exp_decay(amplitude=math.nan),
    lambda: j.exp_decay(coupling=math.inf),
    lambda: j.potential_from_dict({"kind": "square", "coupling": math.nan,
                                   "params": {"left": -1.0, "right": 1.0, "height": 1.0}}),
    lambda: j.square(-1.0, 1.0, 1.0).with_coupling(math.nan),
], ids=["square height", "square edge", "square coupling", "piecewise edge",
        "piecewise coupling", "table node", "table value", "table coupling", "exp rate inf",
        "exp rate nan", "exp amplitude", "exp coupling", "dict coupling", "with_coupling"])
def test_constructors_reject_non_finite(build):
    with pytest.raises(SpecError, match="finite"):
        build()


@pytest.mark.parametrize("build", [
    lambda: j.tabulated(1.0, 2.0),
    lambda: j.tabulated(np.zeros((2, 3)), np.ones((2, 3))),
    lambda: j.tabulated("abc", [0.0, 1.0, 0.0]),
    lambda: j.piecewise_constant(5),
    lambda: j.piecewise_constant([(-1.0, 1.0)]),
    lambda: j.piecewise_constant([(-1.0, 0.0, 1.0, 2.0)]),
    lambda: j.piecewise_constant([1.0, 2.0, 3.0]),
], ids=["table of scalars", "2-d table", "table of text", "piecewise scalar",
        "2-tuple segment", "4-tuple segment", "segments of scalars"])
def test_constructors_reject_what_is_no_sequence_of_numbers(build):
    # each raised a bare TypeError or ValueError when read by unpacking
    with pytest.raises(SpecError, match="potential"):
        build()


def test_piecewise_allows_gaps():
    p = j.piecewise_constant([(-2.0, -1.0, 1.0), (1.0, 2.0, -1.0)])
    assert p(0.0) == 0.0
    assert p(-1.5) == 1.0
    segs = p.shape.layers()
    # the tiling must be contiguous and cover the gap with a zero layer
    assert segs is not None
    lefts = [s[0] for s in segs]
    rights = [s[1] for s in segs]
    assert rights[:-1] == lefts[1:]
    total = sum((r - l) * h for l, r, h in segs)
    m0, _ = j.moments(p)
    assert abs(total - m0) < 1e-12


def test_tabulated_matches_interpolation():
    x = np.array([-1.0, 0.0, 2.0])
    v = np.array([0.0, 3.0, 1.0])
    p = j.tabulated(x, v)
    assert p(-0.5) == pytest.approx(1.5)
    assert p(1.0) == pytest.approx(2.0)
    assert p(5.0) == 0.0
    assert p.support() == (-1.0, 2.0)


def test_tabulated_rejects_unsorted():
    with pytest.raises(SpecError):
        j.tabulated([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(SpecError):
        j.tabulated([1.0, 0.0], [1.0, 2.0])


def test_table_caches_leave_the_shape_alone():
    # samples and breakpoints are read once per shape and cached beside its fields
    x, v = (-2.0, -0.5, 0.3, 1.0, 2.0), (0.5, -1.0, 2.0, 0.0, 1.0)
    shape = j.tabulated(x, v).shape
    before = (hash(shape), repr(shape))
    grid = np.linspace(-3.0, 3.0, 41)
    values, bps = shape.value(grid), shape.breakpoints()
    assert (hash(shape), repr(shape)) == before
    fresh = type(shape)(x, v)
    assert shape == fresh and hash(shape) == hash(fresh) and bps == fresh.breakpoints()
    assert bps == oracles.table_breakpoints(x, v)
    flipped = dataclasses.replace(shape, v=(0.5, 1.0, 2.0, -1.0, 1.0))
    assert flipped.breakpoints() == oracles.table_breakpoints(x, flipped.v) != bps
    back = pickle.loads(pickle.dumps(shape))
    assert back == shape and back.breakpoints() == bps
    assert back.value(grid).tobytes() == values.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_table_breakpoints_are_the_loop_rule(seed):
    # nodes and sign changes, zeros (no crossing) among them
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    v = rng.normal(size=n) * (rng.random(n) > 0.2)
    p = j.tabulated(np.cumsum(rng.uniform(0.01, 1.0, n)) - 5.0, v)
    assert p.breakpoints() == oracles.table_breakpoints(p.shape.x, p.shape.v)


def test_scaled_breakpoints_are_the_set_rule(bump_table, exp_tail):
    # a squeezed or truncated shape's breakpoints leave its ==, hash and repr alone
    for base in (bump_table, exp_tail):
        for p in (j.truncate(base, 1.3), j.scale(base, 0.1), j.scale(j.truncate(base, 0.7), 0.05),
                  j.truncate(j.scale(base, 0.1), 0.2)):
            shape = p.shape
            before = (hash(shape), repr(shape))
            bps = shape.breakpoints()
            assert bps == oracles.scaled_breakpoints(base.breakpoints(), shape.eps,
                                                     shape.half_width)
            assert (hash(shape), repr(shape)) == before
            assert shape == dataclasses.replace(shape) and "_breakpoints" not in repr(shape)


def test_exp_decay_evaluation(exp_tail):
    assert exp_tail(0.0) == 1.0
    assert exp_tail(2.0) == pytest.approx(math.exp(-2.0))
    assert exp_tail(-2.0) == pytest.approx(math.exp(-2.0))
    assert exp_tail.support() is None
    assert not exp_tail.is_compact()


def test_coupling_scales_values(barrier):
    p = barrier.with_coupling(-3.5)
    assert p(0.0) == -3.5
    assert p(2.0) == 0.0


def test_zero_potential():
    p = j.zero()
    assert p(0.0) == 0.0
    m0, m1 = j.moments(p)
    assert m0 == 0.0 and m1 == 0.0
    assert j.fm_norm(p) == 0.0


# ---------------------------------------------------------------------------
# scaling and truncation


def test_scale_values(barrier):
    eps = 0.1
    p = j.scale(barrier, eps)
    x = np.array([-0.05, 0.0, 0.09, 0.11])
    expected = np.where(np.abs(x / eps) <= 1.0, 1.0 / eps**2, 0.0)
    assert np.allclose(p(x), expected)
    assert p.support() == (-0.1, 0.1)


def test_scale_composes(barrier):
    once = j.scale(j.scale(barrier, 0.5), 0.2)
    direct = j.scale(barrier, 0.1)
    x = np.linspace(-0.2, 0.2, 41)
    assert np.allclose(once(x), direct(x))


def test_window_of_squeezed_is_squeezed_window(exp_tail):
    # truncating a squeezed potential squeezes a truncated base, so the
    # Jost evaluator sees a dilation either way
    eps, w = 0.1, 0.35
    windowed = j.truncate(j.scale(exp_tail, eps), w)
    assert windowed == j.scale(j.truncate(exp_tail, w / eps), eps)
    x = np.linspace(-0.5, 0.5, 41)
    assert np.allclose(windowed(x), np.where(np.abs(x) <= w, exp_tail(x / eps) / eps**2, 0.0))


def test_scale_moment_identities(rng):
    # int V_eps = eps^-1 int V and the weighted norm contracts accordingly
    for _ in range(5):
        l = rng.uniform(-3, -0.5)
        r = rng.uniform(0.5, 3)
        h = rng.uniform(-2, 2)
        eps = rng.uniform(0.05, 0.8)
        p = j.square(l, r, h)
        m0, _ = j.moments(p)
        m0s, _ = j.moments(j.scale(p, eps))
        assert m0s == pytest.approx(m0 / eps, rel=1e-9)
    # infinite support: c a e^{-r|x|} is even, so m1 = 0 exactly, and m0 = 2 c a / r
    e = j.exp_decay(1.3, -0.9, 1.7)
    for p, eps in [(e, 1.0), (j.scale(e, 0.05), 0.05)]:
        m0, m1 = j.moments(p)
        assert m1 == 0.0
        assert m0 == pytest.approx(2.0 * 1.7 * -0.9 / 1.3 / eps, rel=1e-14)


def test_truncate_window(barrier):
    p = j.truncate(barrier, 0.5)
    assert p(0.4) == 1.0
    assert p(0.6) == 0.0
    assert p.support() == (-0.5, 0.5)


def test_truncate_wider_than_support_is_identity(barrier):
    p = j.truncate(barrier, 5.0)
    x = np.linspace(-6, 6, 101)
    assert np.array_equal(p(x), barrier(x))


# ---------------------------------------------------------------------------
# integrals and tails


def test_moments_square(barrier):
    m0, m1 = j.moments(barrier)
    assert m0 == pytest.approx(2.0, abs=1e-12)
    assert m1 == pytest.approx(0.0, abs=1e-12)


def test_moments_two_step(two_step):
    m0, m1 = j.moments(two_step)
    assert m0 == pytest.approx(1.0, abs=1e-12)
    # int x V = int_{-1}^{0} -2x dx + int_0^1 3x dx = 1 + 1.5
    assert m1 == pytest.approx(2.5, abs=1e-12)


def test_fm_norm_exponential(exp_tail):
    assert j.fm_norm(exp_tail) == pytest.approx(oracles.EXP_TAIL_FM_NORM, rel=1e-10)


def test_fm_norm_compact(two_step):
    # int (1+|x|)|V| = 2*(1+1/2)/... computed directly: left 2*(1+0.5), right 3*(1+0.5)
    assert j.fm_norm(two_step) == pytest.approx(3.0 + 4.5, rel=1e-10)


def test_tails_exponential(exp_tail):
    for x in [0.0, 0.5, 2.0, 5.0]:
        td = j.tails(exp_tail, x)
        assert td.sigma_plus == pytest.approx(oracles.exp_tail_sigma_plus(x), rel=1e-9)
        assert td.tau_plus == pytest.approx(oracles.exp_tail_tau_plus(x), rel=1e-9)
        # mirror symmetry of e^{-|x|}
        td_m = j.tails(exp_tail, -x)
        assert td_m.tau_minus == pytest.approx(td.tau_plus, rel=1e-9)


@pytest.mark.parametrize("rate, amplitude, coupling", [
    (1.0, 1.0, 1.0), (1.5, -1.0, 1.0), (0.7, 2.0, -1.4458), (3.0, 0.25, 2.0),
])
def test_tails_exp_decay_closed_form(rate, amplitude, coupling):
    p = j.exp_decay(rate=rate, amplitude=amplitude, coupling=coupling)
    for x in [-7.0, -1.3, -0.2, 0.0, 0.4, 2.0, 9.5]:
        td = j.tails(p, x)
        want = oracles.exp_tails(rate, coupling * amplitude, x)
        got = (td.sigma_minus, td.sigma_plus, td.tau_minus, td.tau_plus)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12)


def test_tails_exp_decay_agrees_with_quadrature():
    # a window wide enough to hold all but e^{-60} of the mass: its tails
    # are differences of the closed form at the window edges
    p = j.exp_decay(rate=1.2, amplitude=-0.8, coupling=1.5)
    wide = j.truncate(p, 50.0)
    for x in [-2.5, 0.0, 1.7]:
        td, tq = j.tails(p, x), j.tails(wide, x)
        assert td.sigma_plus == pytest.approx(tq.sigma_plus, rel=1e-9)
        assert td.tau_minus == pytest.approx(tq.tau_minus, rel=1e-9)


def test_fm_norm_layer_straddling_origin():
    # the weight 1 + |x| has a kink at 0 inside the layer [-1, 0.3]:
    # 100 * (1.3 + 1/2 + 0.045) = 184.5
    assert j.fm_norm(j.square(-1.0, 0.3, -100.0)) == pytest.approx(184.5, rel=1e-10)


def test_fm_norm_strong_exponential_well():
    # 50 * int (1 + |x|) e^{-|x|} dx = 200; the quadrature error estimate
    # grows with the integral, so it is accepted relative to it
    assert j.fm_norm(j.exp_decay(1.0, -50.0)) == pytest.approx(200.0, rel=1e-10)


def test_integrals_of_strong_square_well():
    # V = -1e4 on [-1, 0.3]
    p = j.square(-1.0, 0.3, -1e4)
    assert j.fm_norm(p) == pytest.approx(18450.0, rel=1e-10)
    m0, m1 = j.moments(p)
    assert m0 == pytest.approx(-13000.0, rel=1e-10)
    assert m1 == pytest.approx(4550.0, rel=1e-10)
    # 1e4 * int_0.1^0.3 (1 + x) dx
    assert j.tails(p, 0.1).tau_plus == pytest.approx(2400.0, rel=1e-10)


def _layered_cases():
    """Layered potentials whose integrals have closed forms.

    Five random layers on [-3, 2] with gaps between them; the middle one
    runs across x = 0, the kink of the weight 1 + |x|.
    """
    rng = np.random.default_rng(11)
    edges = np.concatenate([np.sort(rng.uniform(-3.0, -0.05, 5)),
                            np.sort(rng.uniform(0.05, 2.0, 5))])
    p = j.piecewise_constant([(edges[i], edges[i + 1], rng.uniform(-4.0, 4.0))
                              for i in range(0, 10, 2)], coupling=-1.3)
    return {
        "gaps": p,
        "straddle": j.square(-0.8, 0.45, 2.5, coupling=0.6),
        "scaled": j.scale(p, 0.07),
        "truncated": j.truncate(p, 0.9),
        "scaled_truncated": j.scale(j.truncate(p, 1.7), 0.3),
    }


def _unlayered_cases():
    """Compact potentials without layers whose integrals have closed forms.

    A signed 40-node table whose support straddles x = 0, and windows of
    exp_decay, plain and squeezed.
    """
    rng = np.random.default_rng(23)
    table = j.tabulated(np.sort(rng.uniform(-2.3, 1.7, 40)), rng.uniform(-3.0, 3.0, 40),
                        coupling=0.8)
    e = j.exp_decay(rate=1.3, amplitude=-0.9, coupling=1.7)
    return {
        "table": table,
        "scaled_table": j.scale(table, 0.2),
        "truncated_table": j.truncate(table, 1.1),
        "truncated_exp": j.truncate(e, 2.5),
        "scaled_truncated_exp": j.truncate(j.scale(e, 0.1), 0.35),
    }


def _assert_integrals_match_quadrature(p):
    _, tau, m0, m1 = oracles.quad_integrals(p, p.breakpoints())
    assert j.fm_norm(p) == pytest.approx(tau, rel=1e-12)
    got_m0, got_m1 = j.moments(p)
    assert got_m0 == pytest.approx(m0, rel=1e-12)
    assert got_m1 == pytest.approx(m1, rel=1e-12, abs=1e-12 * tau)
    lo, hi = p.support()
    for x in [lo - 1.0, lo, 0.3 * lo, 0.0, 0.01 * hi, 0.6 * hi, hi, hi + 2.0]:
        td = j.tails(p, x)
        left = oracles.quad_integrals(p, p.breakpoints(), hi=x)
        right = oracles.quad_integrals(p, p.breakpoints(), lo=x)
        got = (td.sigma_minus, td.sigma_plus, td.tau_minus, td.tau_plus)
        want = (left[0], right[0], left[1], right[1])
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-15 * tau)


@pytest.mark.parametrize("name", ["gaps", "straddle", "scaled", "truncated", "scaled_truncated"])
def test_layer_integrals_match_quadrature(name):
    p = _layered_cases()[name]
    assert p.shape.layers() is not None
    _assert_integrals_match_quadrature(p)


@pytest.mark.parametrize("name", ["table", "scaled_table", "truncated_table", "truncated_exp",
                                  "scaled_truncated_exp"])
def test_unlayered_integrals_match_quadrature(name):
    p = _unlayered_cases()[name]
    assert p.shape.layers() is None
    _assert_integrals_match_quadrature(p)


@pytest.mark.parametrize("width", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
def test_narrow_exp_window_integrals_match_quadrature(width):
    # a narrow window must not lose digits to cancellation
    _assert_integrals_match_quadrature(j.truncate(j.exp_decay(1.3, -0.9, 1.7), width))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       chain=st.lists(st.tuples(st.booleans(), st.floats(0.05, 3.0)), max_size=4))
def test_layers_tile_the_support_under_transforms(seed, chain):
    # random gapped layers, squeezed and cut in any order: the tiling is
    # contiguous, spans the support, and gives coupling * height = V at each midpoint
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    edges = np.sort(rng.uniform(-3.0, 3.0, 2 * n))
    heights = rng.uniform(0.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
    p = j.piecewise_constant([(edges[2 * i], edges[2 * i + 1], heights[i]) for i in range(n)],
                             coupling=rng.uniform(-2.0, 2.0))
    for squeeze, a in chain:
        p = j.scale(p, a) if squeeze else j.truncate(p, a)
    layers = p.shape.layers()
    lo, hi = p.support()
    if not layers:  # the window holds no segment
        assert not lo < hi
        return
    assert all(left < right for left, right, _ in layers)
    assert all(right == left for (_, right, _), (left, _, _) in zip(layers, layers[1:]))
    assert (layers[0][0], layers[-1][1]) == (lo, hi)
    mids = np.array([0.5 * (left + right) for left, right, _ in layers])
    assert p(mids).tolist() == [p.coupling * h for _, _, h in layers]


_CHAIN_BASES = {
    "layers": _layered_cases()["gaps"],
    "table": _unlayered_cases()["table"],
    "exp_decay": j.exp_decay(rate=1.3, amplitude=-0.9, coupling=1.7),
}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_CHAIN_BASES)),
       chain=st.lists(st.tuples(st.booleans(), st.floats(0.05, 3.0)), min_size=1, max_size=4),
       s=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=16))
def test_transform_chains_reach_canonical_form(name, chain, s):
    # any chain of scale and truncate is one squeeze by E of one window
    # |x| <= W of the base, where W divides each half-width by the squeeze before it
    base = p = _CHAIN_BASES[name]
    big_e, big_w = 1.0, math.inf
    for squeeze, a in chain:
        if squeeze:
            p, big_e = j.scale(p, a), big_e * a
        else:
            p, big_w = j.truncate(p, a), min(big_w, a / big_e)
    assert p == j.scale(j.truncate(base, big_w) if big_w < math.inf else base, big_e)
    x = big_e * np.array(s)
    want = np.where(np.abs(x / big_e) <= big_w, base(x / big_e) / big_e**2, 0.0)
    assert np.allclose(p(x), want, rtol=1e-14, atol=0.0)
    if p.is_compact():
        _assert_integrals_match_quadrature(p)


def test_layer_integrals_run_no_quadrature():
    rng = np.random.default_rng(5)
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, 22))]) - 5.0
    p = j.piecewise_constant([(edges[i], edges[i + 1], rng.uniform(-2.0, -0.2))
                              for i in range(22)])
    assert j.fm_norm(p) > 0.0
    j.moments(p)
    j.tails(p, 0.4)
    j.resonance_report(p)


def test_import_loads_no_scipy():
    # every integral is closed form, so the package and its CLI need no scipy
    code = "import sys, jost1d, jost1d.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    src = str(Path(j.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("eps", [0.9, 0.3, 0.05, 0.007])
def test_squeezed_exp_tails_match_quadrature(eps):
    p = j.scale(j.exp_decay(rate=1.3, amplitude=-0.9, coupling=1.7), eps)
    xs = [-5.0 * eps, -0.4 * eps, 0.0, 0.05 * eps, 2.0 * eps, 9.0 * eps]
    want = []
    for x in xs:
        left = oracles.quad_integrals(p, (), hi=x)
        right = oracles.quad_integrals(p, (), lo=x)
        want.append((left[0], right[0], left[1], right[1]))
    for x, w in zip(xs, want):
        td = j.tails(p, x)
        assert td.x == x
        got = (td.sigma_minus, td.sigma_plus, td.tau_minus, td.tau_plus)
        for g, v in zip(got, w):
            assert g == pytest.approx(v, rel=1e-12)


def test_tails_compact(barrier):
    td = j.tails(barrier, 2.0)
    assert td.sigma_plus == 0.0 or td.sigma_plus < 1e-15
    assert td.sigma_minus == pytest.approx(2.0, rel=1e-10)
    assert td.tau_minus == pytest.approx(j.fm_norm(barrier), rel=1e-10)


def test_tails_monotone(exp_tail):
    xs = [0.0, 1.0, 2.0, 4.0]
    taus = [j.tails(exp_tail, x).tau_plus for x in xs]
    assert all(a > b for a, b in zip(taus, taus[1:]))


# ---------------------------------------------------------------------------
# splitting scale


def test_splitting_scale_compact_closed_form(barrier):
    # compact weight is 1 + x^2, so xi solves 1 + xi^2 = 1/eps
    for eps in [0.5, 0.1, 0.01]:
        ss = j.splitting_scale(barrier, eps)
        assert ss.xi_eps == pytest.approx(math.sqrt(1.0 / eps - 1.0), rel=1e-10)
        assert ss.x_eps == pytest.approx(eps * ss.xi_eps, rel=1e-12)


def test_splitting_scale_rejects_large_eps(barrier):
    with pytest.raises(SpecError):
        j.splitting_scale(barrier, 1.0)
    with pytest.raises(SpecError):
        j.splitting_scale(barrier, -0.1)


def test_splitting_scale_exponential_solves_weight_equation(exp_tail):
    alpha = 0.5
    for eps in [0.1, 0.01]:
        ss = j.splitting_scale(exp_tail, eps)
        # two-sided weighted tail mass beyond the matching radius
        tau = j.tails(exp_tail, ss.xi_eps).tau_plus + j.tails(exp_tail, -ss.xi_eps).tau_minus
        rho = (1.0 + abs(ss.xi_eps)) / tau**alpha
        assert rho == pytest.approx(1.0 / eps, rel=1e-9)


@pytest.mark.parametrize("p", [j.exp_decay(1.5, 1.0), j.exp_decay(1.0, -1.0, 1.4458),
                               j.exp_decay(0.3, 5.0), j.exp_decay(4.0, -0.2)])
def test_splitting_scale_newton_matches_bisection(p):
    # the secant on log(rho eps) finds the root that doubling and bisection
    # bracket, and rho(xi) eps = 1 there
    for eps in (0.2, 0.1, 0.05, 0.01, 1e-3, 1e-5):
        xi = j.splitting_scale(p, eps).xi_eps
        assert xi == pytest.approx(oracles.bisection_splitting_scale(p, eps), rel=1e-11)
        tau = j.tails(p, xi).tau_plus + j.tails(p, -xi).tau_minus
        assert (1.0 + xi) / math.sqrt(tau) * eps == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_splitting_scale_bisects_where_the_tail_mass_underflows():
    # the tail mass of e^{-800|x|} beyond |x| = 1, the first doubling point, is 0,
    # so the first steps of the secant bisect
    p = j.exp_decay(800.0, 1.0)
    xi = j.splitting_scale(p, 1e-3).xi_eps
    assert j.tails(p, 1.0).tau_plus == 0.0
    tau = j.tails(p, xi).tau_plus + j.tails(p, -xi).tau_minus
    assert (1.0 + xi) / math.sqrt(tau) * 1e-3 == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_splitting_scale_reads_the_tail_mass_alone(monkeypatch):
    # the secant reads tau's closed form and never samples V: each eps of the
    # ladder takes at most 12 tail masses and no Potential call
    from jost1d import potential

    calls = {"tau": 0, "V": 0}
    tau, sample = potential._tau, j.Potential.__call__

    def counted_tau(p, x):
        calls["tau"] += 1
        return tau(p, x)

    def counted_sample(p, x):
        calls["V"] += 1
        return sample(p, x)

    monkeypatch.setattr(potential, "_tau", counted_tau)
    monkeypatch.setattr(j.Potential, "__call__", counted_sample)
    p = j.exp_decay(1.5, 1.0)
    for eps in (0.2, 0.1, 0.05, 0.02, 0.01):
        calls["tau"] = 0
        xi = j.splitting_scale(p, eps).xi_eps
        assert xi == pytest.approx(oracles.bisection_splitting_scale(p, eps), rel=1e-11)
        assert 1 <= calls["tau"] <= 12
    assert calls["V"] == 0


def test_splitting_scale_window_shrinks_while_growing_unscaled(exp_tail):
    eps_values = [0.1, 0.03, 0.01, 0.003]
    scales = [j.splitting_scale(exp_tail, e) for e in eps_values]
    xis = [s.xi_eps for s in scales]
    xs = [s.x_eps for s in scales]
    assert all(a < b for a, b in zip(xis, xis[1:]))
    assert all(a > b for a, b in zip(xs, xs[1:]))


def test_tail_weight_norm_vanishes(exp_tail):
    # decays like eps*log(1/eps) for exponential tails: slow but strict
    vals = [j.tail_weight_norm(exp_tail, e) for e in [0.1, 0.01, 0.001]]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.02


def test_transforms_reject_nan(exp_tail):
    nan = float("nan")
    for transform in (j.scale, j.truncate, j.splitting_scale):
        with pytest.raises(SpecError):
            transform(exp_tail, nan)
    with pytest.raises(SpecError):
        j.scale(exp_tail, math.inf)
    # what is no real number, a bool included, is no scale factor, half-width or eps
    for transform in (j.scale, j.truncate, j.splitting_scale):
        for bad in (True, "0.5", None, np.array([0.5, 1.0]), 1j):
            with pytest.raises(SpecError):
                transform(exp_tail, bad)
    # an infinite window keeps all of V
    whole = j.truncate(exp_tail, math.inf)
    assert whole.support() is None
    assert j.scattering(whole, 1.0).r == j.scattering(exp_tail, 1.0).r


def test_tail_weight_norm_zero_for_compact(barrier):
    # once the window passes the support edge nothing is cut off
    assert j.tail_weight_norm(barrier, 0.01) == 0.0


# ---------------------------------------------------------------------------
# serialization


def test_load_square_round_trip(tmp_path, barrier):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(
        {"kind": "square", "params": {"left": -1.0, "right": 1.0, "height": 1.0}}
    ))
    p = j.load_potential(path)
    x = np.linspace(-2, 2, 51)
    assert np.array_equal(p(x), barrier(x))


def test_load_piecewise(tmp_path, two_step):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(
        {"kind": "piecewise", "params": [
            {"left": -1.0, "right": 0.0, "height": -2.0},
            {"left": 0.0, "right": 1.0, "height": 3.0},
        ]}
    ))
    p = j.load_potential(path)
    x = np.linspace(-2, 2, 51)
    assert np.array_equal(p(x), two_step(x))


def test_load_table_and_exp(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(
        {"kind": "table", "params": {"x": [-1.0, 0.0, 1.0], "v": [0.0, 2.0, 0.0]}}
    ))
    p = j.load_potential(path)
    assert p(0.5) == pytest.approx(1.0)

    path2 = tmp_path / "e.json"
    path2.write_text(json.dumps(
        {"kind": "exp_decay", "params": {"rate": 2.0, "amplitude": -1.0}}
    ))
    q = j.load_potential(path2)
    assert q(1.0) == pytest.approx(-math.exp(-2.0))


def test_load_coupling_applies(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(
        {"kind": "square", "params": {"left": 0.0, "right": 1.0, "height": 2.0},
         "coupling": -0.5}
    ))
    p = j.load_potential(path)
    assert p(0.5) == -1.0


@pytest.mark.parametrize("bad", [
    {"params": {"left": 0, "right": 1, "height": 1}},
    {"kind": "hexagon", "params": {}},
    {"kind": "square", "params": {"left": 1.0, "right": -1.0, "height": 1.0}},
    {"kind": "table", "params": {"x": [1.0, 0.0], "v": [0.0, 0.0]}},
    {"kind": "piecewise", "params": [[-1.0, 0.5, 1.0], [0.0, 1.0, 1.0]]},
    {"kind": "piecewise", "params": [
        {"left": -1.0, "right": 0.5, "height": 1.0},
        {"left": 0.0, "right": 1.0, "height": 1.0},
    ]},
    {"kind": "square"},
    {"kind": "square", "params": {"left": "a", "right": 1.0, "height": 1.0}},
    {"kind": "exp_decay", "params": {"rate": "fast"}},
    {"kind": "exp_decay", "params": [1, 2]},
    {"kind": "exp_decay", "params": None},
    {"kind": "exp_decay", "params": {"rate": True}},
    {"kind": "exp_decay", "params": {"amplitude": "2"}},
    {"kind": "square", "params": {"left": "-1", "right": 1.0, "height": 1.0}},
    {"kind": "piecewise", "params": [{"left": -1.0, "right": 0.0, "height": False}]},
    {"kind": "table", "params": {"x": [0.0, 1.0, 2.0], "v": [0.0, True, 0.0]}},
    {"kind": "piecewise", "params": [{"left": 1.0, "right": 0.0, "height": 1.0}]},
    {"kind": "table", "params": {"x": [0.0, 1.0, 2.0], "v": [0.0, 1.0]}},
    {"kind": "table", "params": {"x": [0.0], "v": [1.0]}},
    {"kind": "exp_decay", "params": {"rate": 0.0}},
    [{"kind": "exp_decay"}],
    {"kind": "exp_decay", "coupling": "2"},
    {"kind": "piecewise", "params": {"left": -1.0, "right": 1.0, "height": 1.0}},
    # a misspelled key would leave its parameter at the default
    {"kind": "exp_decay", "params": {"rate": 2, "amplitdue": -3}},
    {"kind": "square", "params": {"left": -1, "right": 1, "height": -1}, "couplng": 5},
    {"kind": "square", "params": {"left": -1, "right": 1, "height": -1, "width": 2}},
    {"kind": "piecewise", "params": [{"left": -1, "right": 0, "height": -1},
                                     {"left": 0, "right": 1, "hieght": -2}]},
    {"kind": "table", "params": {"x": [0.0, 1.0], "v": [0.0, 0.0], "y": [1.0, 1.0]}},
])
def test_malformed_descriptions_rejected(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SpecError):
        j.load_potential(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(SpecError):
        j.load_potential(tmp_path / "nope.json")
