"""Zero-energy resonance detection, far-field ratios, and coupling sweeps."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jost1d as j
from jost1d import resonance
from jost1d.errors import SpecError

import oracles


# ---------------------------------------------------------------------------
# the Wronskian at zero energy


def test_d0_square_closed_form(rng):
    for _ in range(8):
        height = rng.uniform(-8.0, 8.0)
        width = rng.uniform(0.5, 3.0)
        p = j.square(-width / 2.0, width / 2.0, height)
        rep = j.resonance_report(p)
        assert rep.d0 == pytest.approx(oracles.square_d0(width, height), rel=1e-10, abs=1e-12)


def test_report_of_strong_wells():
    # the default threshold needs fm_norm, which these wells used to fail
    rep = j.resonance_report(j.square(-1.0, 0.3, -1e4))
    assert rep.threshold == pytest.approx(1e-8 * (1.0 + 18450.0), rel=1e-10)
    assert rep.d0 == pytest.approx(oracles.square_d0(1.3, -1e4), rel=1e-10)
    rep = j.resonance_report(j.exp_decay(1.0, -50.0))
    assert rep.threshold == pytest.approx(1e-8 * (1.0 + 200.0), rel=1e-10)
    assert rep.d0 == pytest.approx(oracles.exp_well_d0(50.0), abs=5e-8)


def test_d0_barrier_value(barrier):
    rep = j.resonance_report(barrier)
    assert rep.d0 == pytest.approx(np.sinh(2.0), rel=1e-12)
    assert not rep.is_resonant
    assert rep.theta is None
    assert not rep.extrapolated


def test_d0_exponential_tail_bessel():
    # non-compact support: the k = 0 solutions are anchored at a cut tail
    for alpha in [0.5, 1.0, 2.5]:
        p = j.exp_decay(rate=1.0, amplitude=-1.0).with_coupling(alpha)
        rep = j.resonance_report(p)
        assert rep.extrapolated
        assert rep.d0 == pytest.approx(oracles.exp_well_d0(alpha), abs=5e-8)


# ---------------------------------------------------------------------------
# resonance detection and the far-field ratio


def test_resonant_wells_detected(well_theta_minus, well_theta_plus):
    rep_m = j.resonance_report(well_theta_minus)
    assert rep_m.is_resonant
    assert rep_m.theta == pytest.approx(-1.0, abs=1e-10)
    assert rep_m.theta_far_field == pytest.approx(-1.0, abs=1e-8)

    rep_p = j.resonance_report(well_theta_plus)
    assert rep_p.is_resonant
    assert rep_p.theta == pytest.approx(1.0, abs=1e-10)
    assert rep_p.theta_far_field == pytest.approx(1.0, abs=1e-8)


def test_resonant_exponential_well_theta():
    # first two resonances of the exponential well, far-field signs from
    # the Bessel-function structure of the zero-energy solutions
    for alpha, theta in oracles.exp_well_resonances(1):
        p = j.exp_decay(rate=1.0, amplitude=-1.0).with_coupling(float(alpha))
        rep = j.resonance_report(p)
        assert rep.is_resonant
        assert rep.theta == pytest.approx(theta, abs=1e-6)


BARRIER_BACKED_DEPTH = 2.2384018399230112  # a zero-energy resonance behind a height-400 barrier


def _barrier_backed_well():
    return j.piecewise_constant([(-1.0, 0.0, -BARRIER_BACKED_DEPTH), (0.0, 1.0, 400.0)])


def test_tiny_theta_behind_a_barrier_is_resonant():
    # f_+ = cosh(20 (x - 1)) through the barrier, then a cosine in the well, and the
    # constant A = cosh 20 cos s + 20 sinh 20 sin(s) / s beyond it, s^2 the depth:
    # theta = 1/A is about 3e-10, far below any absolute floor
    p = _barrier_backed_well()
    rep = j.resonance_report(p)
    assert rep.is_resonant and abs(rep.d0) < rep.threshold
    s = math.sqrt(BARRIER_BACKED_DEPTH)
    far = math.cosh(20.0) * math.cos(s) + 20.0 * math.sinh(20.0) * math.sin(s) / s
    assert rep.theta == pytest.approx(1.0 / far, rel=1e-12)
    assert rep.theta == pytest.approx(rep.theta_far_field, rel=1e-12)
    dd = j.d_dot_zero(p, report=rep)
    assert dd.value == pytest.approx(-1j * (rep.theta + 1.0 / rep.theta), rel=1e-12)
    assert j.classify_limit(p).theta == rep.theta


def test_halfbound_profile_is_bounded(well_theta_minus):
    # f_+(., 0) on the oracle's grid [-5, 5]: at a resonance it is the bounded solution
    rep = j.resonance_report(well_theta_minus)
    vals = oracles.zero_energy_report(well_theta_minus)[4]
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 10.0
    # it approaches 1 on the far right and 1/theta on the far left
    assert vals[-1] == pytest.approx(1.0, abs=1e-8)
    assert vals[0] == pytest.approx(1.0 / rep.theta, abs=1e-6)


def test_threshold_scales_with_potential_size(barrier):
    rep = j.resonance_report(barrier)
    assert rep.threshold == pytest.approx(1e-8 * (1.0 + j.fm_norm(barrier)), rel=1e-9)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1j, "a", True,
                                       pytest.param(np.bool_(True), id="np.True_")])
def test_threshold_must_be_positive_and_finite(barrier, threshold):
    with pytest.raises(SpecError, match="threshold must be positive and finite"):
        j.resonance_report(barrier, threshold=threshold)


def test_loose_threshold_caught_by_ratio_guard(barrier):
    # a threshold so loose it misclassifies the barrier as resonant must
    # be caught: the two zero-energy solutions are not proportional, so
    # their ratio drifts and the far-field ratio would be meaningless
    from jost1d.errors import RatioInconsistencyError

    with pytest.raises(RatioInconsistencyError):
        j.resonance_report(barrier, threshold=10.0)


# ---------------------------------------------------------------------------
# theta and its drift verdict from one k = 0 product


@pytest.fixture(scope="module")
def exp_resonant_well():
    """The first resonant coupling of the exponential well, as a sweep finds it."""
    base = j.exp_decay(1.0, -1.0)
    return base.with_coupling(j.resonant_couplings(base, 0.5, 2.0).roots[0].alpha)


@pytest.fixture(scope="module")
def exp_bessel_well():
    """The exponential well at its first resonant coupling, the zero of J0(2 sqrt(alpha))."""
    return j.exp_decay(1.0, -1.0).with_coupling(oracles.exp_well_resonances(1)[0][0])


def _counting_map_sets(monkeypatch):
    from jost1d import jost

    calls = []
    x_maps = jost._x_maps

    def counting(*args, **kwargs):
        calls.append(1)
        return x_maps(*args, **kwargs)

    monkeypatch.setattr(jost, "_x_maps", counting)
    return calls


@pytest.mark.parametrize("name", ["well_theta_minus", "well_theta_plus", "exp_resonant_well"])
def test_report_equals_one_build_per_quantity_oracle(name, request):
    p = request.getfixturevalue(name)
    threshold = 1e-3 if name == "exp_resonant_well" else None
    rep = j.resonance_report(p, threshold=threshold)
    d0, extrapolated, theta, theta_far, _ = oracles.zero_energy_report(p)
    assert rep.is_resonant
    assert (rep.d0, rep.extrapolated) == (d0, extrapolated)
    # theta is read from the product, the oracle's from the mean over a grid
    assert abs(rep.theta - theta) < 1e-8
    assert abs(rep.theta_far_field - theta_far) < 1e-12 * abs(theta_far)
    if name == "exp_resonant_well":
        assert abs(rep.d0 - oracles.exp_well_d0(p.coupling)) < 1e-11


def test_nonresonant_report_equals_oracle(barrier):
    rep = j.resonance_report(barrier)
    assert not rep.is_resonant
    assert (rep.d0, rep.extrapolated) == oracles.d_zero(barrier)
    assert rep.theta is rep.theta_far_field is None


def test_nonresonant_report_builds_no_evaluator(barrier, monkeypatch, evaluator_builds):
    # d0 is the product of one map set, which no report scans
    map_sets = _counting_map_sets(monkeypatch)
    assert not j.resonance_report(barrier).is_resonant
    assert (len(evaluator_builds), len(map_sets)) == (0, 1)


@pytest.mark.parametrize("name, threshold", [
    ("well_theta_minus", None),
    ("exp_resonant_well", 1e-3),  # anchored at the cut tails
])
def test_resonant_report_builds_no_evaluator_and_one_map_set(name, threshold, request,
                                                            monkeypatch):
    # theta is read from the product that gives d0, as are its far fields
    p = request.getfixturevalue(name)
    builds = request.getfixturevalue("evaluator_builds")  # counts from here on
    map_sets = _counting_map_sets(monkeypatch)
    assert j.resonance_report(p, threshold=threshold).is_resonant
    assert (len(builds), len(map_sets)) == (0, 1)


@pytest.mark.parametrize("name", ["well_theta_minus", "exp_resonant_well"])
@pytest.mark.parametrize("offset, drifts", [(1e-8, False), (1e-7, False), (1e-5, True),
                                            (1e-4, True)])
def test_ratio_drift_verdict_near_a_root(name, offset, drifts, request):
    # a threshold of 1 lets every coupling near the root through; the
    # drift test must refuse those whose f_- is not theta f_+
    from jost1d.errors import RatioInconsistencyError

    p = request.getfixturevalue(name)
    p = p.with_coupling(p.coupling * (1.0 + offset))
    if drifts:
        with pytest.raises(RatioInconsistencyError, match="drifts by"):
            j.resonance_report(p, threshold=1.0)
    else:
        rep = j.resonance_report(p, threshold=1.0)
        assert rep.is_resonant
        assert rep.theta == pytest.approx(-1.0, abs=1e-6)


def test_every_sweep_root_of_random_layer_wells_reports_oracle_theta():
    # at sweep roots |d0| < root_tol = 1e-8, so each must report, including
    # those with a small theta, where f_- is small on the right and a drift
    # taken relative to theta would flag the rounding of its far field
    thetas = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        heights, edges = rng.uniform(-3.0, 1.0, 3), np.sort(rng.uniform(-2.0, 3.0, 4))
        base = j.piecewise_constant(list(zip(edges[:-1], edges[1:], heights)))
        for root in j.resonant_couplings(base, 0.01, 30.0).roots:
            p = base.with_coupling(root.alpha)
            rep = j.resonance_report(p, threshold=1e-6)
            theta = oracles.zero_energy_report(p)[2]
            assert rep.is_resonant
            assert abs(rep.theta - theta) < 1e-6 * abs(theta)
            thetas.append(rep.theta)
    assert len(thetas) >= 30  # 41 roots
    assert min(np.abs(thetas)) < 0.005


# ---------------------------------------------------------------------------
# the derivative of the Wronskian at zero energy


def test_d_dot_zero_matches_interface_identity(well_theta_minus, well_theta_plus):
    for p, theta in [(well_theta_minus, -1.0), (well_theta_plus, 1.0)]:
        dd = j.d_dot_zero(p)
        expected = -1j * (theta + 1.0 / theta)
        assert abs(dd.value - expected) < 1e-6
        assert dd.ray_gap < 1e-6
        assert dd.theta_formula_gap < 1e-6


def test_d_dot_zero_matches_finite_difference_of_oracle(well_theta_minus):
    # independent route: differentiate the matching-oracle Wronskian
    # D(k) = -2ik a(k) = -2ik / t(k) along the imaginary axis
    def d_of(k):
        _, t = oracles.rectangle_scattering(-1.0, 1.0, -((np.pi / 2) ** 2), k)
        return -2j * k / t

    h = 1e-5
    fd = (d_of(1j * h) - d_of(-1j * h)) / (2j * h)
    dd = j.d_dot_zero(well_theta_minus)
    assert abs(dd.value - fd) < 1e-5


def test_d_dot_zero_at_sweep_roots():
    # a root refined only to root_tol leaves |d0| up to ~1e-8, which the
    # finite difference must not divide by delta
    base = j.square(-1.0, 1.0, -1.0)
    sweep = j.resonant_couplings(base, 0.001, 25.0)
    assert len(sweep.roots) == 3
    for root in sweep.roots:
        p = base.with_coupling(root.alpha)
        dd = j.d_dot_zero(p, report=j.resonance_report(p))
        assert dd.theta_formula_gap < 1e-5


def test_d_dot_zero_rejects_nonresonant(barrier):
    with pytest.raises(SpecError):
        j.d_dot_zero(barrier)


# ---------------------------------------------------------------------------
# coupling sweeps


def test_square_well_coupling_sweep():
    base = j.square(-1.0, 1.0, -1.0)
    alphas_o, thetas_o = oracles.square_resonant_couplings(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clean sweep must not warn
        sweep = j.resonant_couplings(base, 0.01, 25.0, grid_n=201, root_tol=1e-8)
    found = [r.alpha for r in sweep.roots]
    assert len(found) == 3
    for a_found, a_true in zip(found, alphas_o):
        assert a_found == pytest.approx(a_true, abs=1e-6)
    for r in sweep.roots:
        assert abs(r.residual) < 1e-7
        assert r.bracket[0] <= r.alpha <= r.bracket[1]
    assert sweep.trivial_root is None

    # the far-field ratio alternates sign along the root ladder
    for a_found, th_true in zip(found, thetas_o):
        rep = j.resonance_report(base.with_coupling(a_found))
        assert rep.theta == pytest.approx(th_true, abs=1e-5)


def test_sweep_reports_trivial_root():
    base = j.square(-1.0, 1.0, -1.0)
    sweep = j.resonant_couplings(base, -1.0, 1.0, grid_n=21)
    assert sweep.trivial_root == 0.0


def test_sweep_exponential_well_bessel_roots():
    base = j.exp_decay(rate=1.0, amplitude=-1.0)
    (a1, th1), (a2, th2) = oracles.exp_well_resonances(1)
    sweep = j.resonant_couplings(base, 1.2, 1.7, grid_n=11, root_tol=1e-6)
    assert len(sweep.roots) == 1
    assert sweep.roots[0].alpha == pytest.approx(a1, abs=1e-4)


def test_sweep_validation():
    base = j.square(-1.0, 1.0, -1.0)
    with pytest.raises(SpecError):
        j.resonant_couplings(base, 2.0, 1.0)
    with pytest.raises(SpecError):
        j.resonant_couplings(base, 0.0, 1.0, grid_n=1)
    with pytest.raises(SpecError):
        j.resonant_couplings(base, 0.0, 1.0, root_tol=0.0)
    # an infinite end, or a span that overflows, leaves the grid no finite step
    for lo, hi in ((0.5, math.inf), (-math.inf, 1.0), (-1e308, 1e308)):
        with pytest.raises(SpecError, match="finite"):
            j.resonant_couplings(base, lo, hi, grid_n=5)


@pytest.mark.parametrize("base", [j.zero(), j.square(-1.0, 1.0, 0.0),
                                  j.square(-1.0, 1.0, -1.0, coupling=0.0),
                                  j.tabulated([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0])],
                         ids=["zero", "square_0", "coupling_0", "table_0"])
@pytest.mark.parametrize("alpha_min", [-1.0, 0.5])
def test_sweep_rejects_a_vanishing_base(base, alpha_min):
    # d0 is 0 at every coupling of V = 0, so every grid point read as a root
    with pytest.raises(SpecError, match="d0 vanishes at every grid coupling"):
        j.resonant_couplings(base, alpha_min, 3.0, grid_n=5)


@pytest.mark.parametrize("grid_n", [10.0, 10.5])
def test_sweep_rejects_non_integer_grid_n(grid_n):
    # np.linspace raised a bare TypeError on a float count
    with pytest.raises(SpecError, match="grid_n must be an integer"):
        j.resonant_couplings(j.square(-1.0, 1.0, -1.0), 0.5, 3.0, grid_n=grid_n)


@pytest.mark.parametrize("root_tol", [math.nan, math.inf])
def test_sweep_rejects_non_finite_root_tol(root_tol):
    # nan once bisected to rounding width and blamed d0's digits; inf took
    # the first midpoint as a root
    with pytest.raises(SpecError, match="root_tol must be positive and finite"):
        j.resonant_couplings(j.square(-1.0, 1.0, -1.0), 0.001, 25.0, root_tol=root_tol)


def test_sweep_warns_of_roots_between_grid_points():
    # two unit wells 4 apart resonate near alpha = 9.87 and 10.84, inside
    # one step of the 11-point grid; a 21-point grid separates them
    base = j.piecewise_constant([(-3.0, -2.0, -1.0), (2.0, 3.0, -1.0)])
    with pytest.warns(RuntimeWarning, match=r"near alpha = \[9\.7, 10\.85\]") as caught:
        coarse = j.resonant_couplings(base, 0.5, 12.0, grid_n=11)
    assert [w.filename for w in caught] == [__file__]  # stacklevel names the caller
    assert coarse.roots == ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fine = j.resonant_couplings(base, 0.5, 12.0, grid_n=21)
    assert [r.alpha for r in fine.roots] == pytest.approx([9.8696, 10.8393], abs=1e-4)


@pytest.mark.parametrize("seed", range(6))
def test_double_crossing_masks_equal_loop_oracle(seed):
    # runs of one sign with deep dips, sign changes, exact zeros and a
    # straight piece (curv = 0)
    rng = np.random.default_rng(seed)
    alphas = np.linspace(0.0, 1.0, 60)
    values = np.exp(rng.normal(0.0, 1.5, alphas.size))
    values[30:] *= -1.0
    values[rng.integers(0, alphas.size, 4)] = 0.0
    values[10:14] = 0.5 + 0.25 * np.arange(4)
    expected = oracles.double_crossings(alphas, values)
    assert expected  # the seeds give the check something to flag
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        resonance._warn_double_crossings(alphas, values)
    assert [str(w.message) for w in caught] == [
        f"the d0 sweep may cross zero twice between grid points near alpha = {expected}; "
        "refine the grid to resolve the pair"]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("grid_n", [41, 40], ids=["zero_on_grid", "zero_inside_a_cell"])
def test_grid_root_masks_equal_loop_oracle(seed, grid_n):
    # a grid across alpha = 0, exact zeros (on the trivial cell too), sign
    # changes whose product overflows or underflows to -0.0, and runs of one sign
    rng = np.random.default_rng(seed)
    alphas = np.linspace(-1.0, 1.0, grid_n)
    values = rng.choice([-1.0, 1.0], grid_n) * np.exp(rng.normal(0.0, 2.0, grid_n))
    values[rng.integers(0, grid_n, 6)] = 0.0
    values[grid_n // 2 - 1:grid_n // 2 + 1] = 0.0
    values[2:6] = [1e200, -1e200, 1e-200, -1e-200]
    roots, brackets = resonance._grid_roots(alphas, values)
    expected_roots, expected_brackets = oracles.grid_roots(alphas, values)
    assert expected_roots and expected_brackets
    assert [(r.alpha, r.bracket, r.residual) for r in roots] == expected_roots
    assert brackets == expected_brackets
    assert all(type(x) is float for bracket in brackets for x in bracket)


def test_sweep_values_match_pointwise_reports():
    base = j.square(-1.0, 1.0, -1.0)
    sweep = j.resonant_couplings(base, 0.5, 3.0, grid_n=6)
    for alpha, d0 in zip(sweep.alphas, sweep.d0_values):
        rep = j.resonance_report(base.with_coupling(float(alpha)))
        assert d0 == pytest.approx(rep.d0, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# batched sweeps against the point-by-point oracle


def _random_well(seed, n_layers, gaps=False):
    """A seeded well of n_layers layers on about [-1, 1] with three resonant couplings in (0, 25].

    int sqrt(-V) dx is scaled to 2.2, which puts the third root of
    alpha * V near 22.  With gaps, every other layer leaves a gap to its
    right neighbour.
    """
    rng = np.random.default_rng(seed)
    return _scaled_well(rng.uniform(0.2, 1.0, n_layers), rng.uniform(-1.8, -0.2, n_layers), gaps)


def _scaled_well(widths, heights, gaps=False):
    """The well of _random_well with the given relative layer widths and negative heights."""
    n_layers = len(widths)
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    edges = 2.0 * edges / edges[-1] - 1.0
    segs = [(edges[i], edges[i + 1] - (0.3 * widths[i] / widths.sum() if gaps and i % 2 else 0.0),
             heights[i]) for i in range(n_layers)]
    depth = sum((hi - lo) * np.sqrt(-h) for lo, hi, h in segs)
    return j.piecewise_constant([(lo, hi, h * (2.2 / depth) ** 2) for lo, hi, h in segs])


def _table_well():
    x = np.linspace(-2.0, 2.0, 41)
    return j.tabulated(x, -np.exp(-(x**2)))


@pytest.mark.parametrize("base, alpha_min, alpha_max, kwargs", [
    (j.square(-1.0, 1.0, -1.0), 0.001, 25.0, {}),
    (_random_well(1, 6), 0.001, 25.0, {}),
    # 22 bisection steps: the last look-ahead round stops at its second step
    (_random_well(1, 6), 0.001, 25.0, dict(grid_n=11, root_tol=1e-6)),
    (_random_well(2, 22, gaps=True), 0.001, 25.0, {}),
    # a squeezed base and its window read the tiling of the unsqueezed base
    (j.scale(_random_well(1, 6), 0.5), 0.001, 25.0, {}),
    (j.truncate(j.scale(_random_well(1, 6), 0.5), 0.4), 0.001, 25.0, {}),
    (j.square(-1.0, 0.5, -2.0, coupling=0.7), 0.001, 30.0, {}),
    (_random_well(3, 9, gaps=True), -25.0, 25.0, {}),  # the grid holds alpha = 0
    (_table_well(), 0.5, 12.0, dict(grid_n=21, root_tol=1e-6)),  # Magnus, compact
    (j.exp_decay(rate=1.0, amplitude=-1.0), 1.2, 1.7, dict(grid_n=11, root_tol=1e-6)),
], ids=["square", "layers6", "layers6_22_steps", "layers22_gaps", "squeezed", "window",
        "coupling0.7", "straddles0", "table", "exp"])
def test_sweep_equals_scalar_oracle(base, alpha_min, alpha_max, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sweep = j.resonant_couplings(base, alpha_min, alpha_max, **kwargs)
        alphas, values, roots, trivial = oracles.scalar_sweep(base, alpha_min, alpha_max,
                                                              **kwargs)
    assert np.array_equal(sweep.alphas, alphas)
    assert np.array_equal(sweep.d0_values, values)
    assert [(r.alpha, r.bracket, r.residual) for r in sweep.roots] == roots
    assert sweep.trivial_root == trivial
    assert roots  # every case has a sign change to bisect
    if not base.is_compact():
        bessel = oracles.exp_well_d0(-base.coupling * base.shape.amplitude * sweep.alphas)
        assert np.max(np.abs(sweep.d0_values - bessel)) < 1e-11


def test_layered_sweep_builds_no_evaluator_and_one_map_set_per_round(monkeypatch,
                                                                     evaluator_builds):
    # one map set for the 201-point grid and one per round, each multiplied
    # out with no evaluator.  Halving the grid step 0.125 below root_tol =
    # 1e-8 takes 24 steps.  A round's one batch holds, for every bracket, the
    # midpoints of the path bisection takes if d0 is the secant through its
    # ends; the secant of the first round's bracket mispredicts a few steps
    # in, the second's takes the rest, so the 24 steps take 2 rounds, not 24.
    # A point-by-point sweep builds 201 map sets for the grid alone.
    map_sets = _counting_map_sets(monkeypatch)
    for base in (j.square(-1.0, 1.0, -1.0), _random_well(1, 6), _random_well(2, 22, gaps=True)):
        map_sets.clear()
        sweep = j.resonant_couplings(base, 0.001, 25.0, grid_n=201)
        assert len(sweep.roots) == 3
        assert len(map_sets) == 1 + 2
    assert len(evaluator_builds) == 0


def test_square_well_sweep_rounds_evaluate_only_predicted_paths(monkeypatch):
    # a round's batch is each bracket's secant-predicted path and nothing
    # more: after the 201-point grid, the 3 brackets' 24-step paths (72),
    # then 41 midpoints for the brackets whose secant left bisection's path
    batches = []
    wronskians = resonance._zero_energy_wronskians

    def counting(base, tol):
        d0, layered = wronskians(base, tol)
        return (lambda cs: batches.append(len(cs)) or d0(cs)), layered

    monkeypatch.setattr(resonance, "_zero_energy_wronskians", counting)
    j.resonant_couplings(j.square(-1.0, 1.0, -1.0), 0.001, 25.0)
    assert batches == [201, 72, 41]


@pytest.mark.parametrize("layered", [False, True])
def test_bisection_raises_only_on_values_it_reads(layered):
    # d0 = alpha - 0.3 up to 0.9 and nan beyond.  Toward the root at 0.3 from
    # [0, 1] with g_hi = 0.01, the secant puts the root near 0.968, so the
    # layered first round also evaluates 0.9375, 0.96875 and 0.953125, which
    # bisection never reads; from [0.8, 1] it reads 0.9, then the nan at 0.95
    def g(alphas):
        return np.where(alphas > 0.9, np.nan, alphas - 0.3)

    bracket = (0.0, 1.0, -0.3, 0.01)
    assert resonance._predicted([*bracket, 0], 1e-8, True)[3:6] == [0.9375, 0.96875, 0.953125]
    assert _walked(g, [bracket], 1e-8, layered) == [_plain_bisection(g, *bracket, 1e-8)]
    with pytest.raises(SpecError, match="d0 is not finite at alpha = 0.95:"):
        resonance._bisect_roots(g, [(0.8, 1.0, 0.5, -0.1)], 1e-8, layered)


def _plain_bisection(g, lo, hi, g_lo, g_hi, root_tol):
    """oracles.scalar_sweep's per-bracket bisection, reading one value of g per step."""
    bracket = (lo, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = float(g(np.array([mid]))[0])
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


def _walked(g, brackets, root_tol, layered):
    return [(r.alpha, r.bracket, r.residual)
            for r in resonance._bisect_roots(g, brackets, root_tol, layered)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(roots=st.lists(st.floats(0.5, 9.5), min_size=2, max_size=5, unique=True),
       scale=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
       grid_n=st.integers(25, 60), layered=st.booleans(),
       log_tol=st.floats(-12.0, -4.0))
def test_bisection_walk_equals_plain_bisection(roots, scale, grid_n, layered, log_tol):
    # a polynomial with simple roots, bracketed on a grid as resonant_couplings does:
    # every bracket's root, bracket and residual equal plain bisection's
    roots = sorted(roots)
    assume(min(b - a for a, b in zip(roots, roots[1:])) >= 0.5)

    def g(x):
        out = np.full(np.shape(x), scale)
        for r in roots:
            out = out * (x - r)
        return out

    alphas = np.linspace(0.0, 10.0, grid_n)
    values = g(alphas).tolist()
    brackets = [(lo, hi, g_lo, g_hi) for lo, hi, g_lo, g_hi
                in zip(alphas.tolist(), alphas[1:].tolist(), values, values[1:])
                if g_lo * g_hi < 0.0]
    assume(len(brackets) >= 2)
    root_tol = 10.0 ** log_tol
    assert _walked(g, brackets, root_tol, layered) == \
        [_plain_bisection(g, *bracket, root_tol) for bracket in brackets]


@pytest.mark.parametrize("layered", [False, True])
def test_bisection_walk_stops_at_the_cap_and_at_rounding(layered):
    # g jumps at 0.3 and |g| >= 1 elsewhere, so no residual falls below root_tol:
    # [0, 1] stops once its width reaches rounding, after 50 steps; the width of
    # [-1e46, 3e46] would need 205 steps to get there, so it stops at the cap.
    # Each root is the bracket's hi, which a 201st step would move
    def g(x):
        return np.where(x < 0.3, -2.0, 1.0)

    brackets = [(0.0, 1.0, -2.0, 1.0), (-1e46, 3e46, -2.0, 1.0)]
    walked = _walked(g, brackets, 1e-8, layered)
    assert walked == [_plain_bisection(g, *bracket, 1e-8) for bracket in brackets]
    (short, _, _), (capped, _, _) = walked
    assert abs(short - 0.3) < 1e-15
    assert 1e-15 < abs(capped - 0.3) < 4e46 / 2.0 ** 200  # 200 halvings, about 2.5e-14


@pytest.mark.parametrize("layered", [False, True])
def test_bisection_names_the_first_nan_in_step_order(layered):
    # [0, 1] reads 0.5, then a nan at 0.25; [2, 3] reads a nan at 2.5 first.  Plain
    # bisection's steps run in lockstep over the brackets, so 2.5 is read first
    def g(x):
        return np.where((x == 0.25) | (x == 2.5), np.nan, np.where(x < 1.5, x - 0.3, x - 2.7))

    with pytest.raises(SpecError, match="d0 is not finite at alpha = 2.5:"):
        resonance._bisect_roots(g, [(0.0, 1.0, -0.3, 0.7), (2.0, 3.0, -0.7, 0.3)], 1e-8, layered)


def _bisection_path(g, *bracket):
    """The midpoints _plain_bisection reads from the bracket, in order."""
    path = []

    def recording(x):
        path.extend(x.tolist())
        return g(x)

    _plain_bisection(recording, *bracket)
    return path


@settings(max_examples=60, deadline=None, derandomize=True)
@given(triple=st.lists(st.floats(0.02, 0.98), min_size=3, max_size=3, unique=True),
       near=st.floats(1e-12, 1e-6), curve=st.floats(2.0, 40.0), layered=st.booleans(),
       log_tol=st.floats(-12.0, -4.0))
def test_bisection_walk_with_poor_secants_equals_plain_bisection(triple, near, curve, layered,
                                                                  log_tol):
    # the secant through a bracket's ends predicts bisection's path badly where
    # g is strongly curved, where one bracket holds three roots, and where a
    # root lies within 1e-6 of a bracket end: the walk then reads fewer steps
    # per round, never other values
    triple = sorted(triple)
    assume(min(b - a for a, b in zip(triple, triple[1:])) >= 1e-3)

    def g(x):
        cubic = np.exp(curve * x) * (x - triple[0]) * (x - triple[1]) * (x - triple[2])
        left_end = np.expm1(curve * (x - 2.0 - near))  # root by the bracket's lo
        right_end = -np.expm1(curve * (x - 5.0 + near))  # and by its hi, d0 falling
        return np.where(x < 1.5, cubic, np.where(x < 3.5, left_end, right_end))

    brackets = [(a, b, float(g(np.array([a]))[0]), float(g(np.array([b]))[0]))
                for a, b in ((0.0, 1.0), (2.0, 3.0), (4.0, 5.0))]
    root_tol = 10.0 ** log_tol
    plain = [_plain_bisection(g, *bracket, root_tol) for bracket in brackets]
    assert _walked(g, brackets, root_tol, layered) == plain
    # the secant leaves bisection's path before the root is found
    assert any(resonance._predicted([*bracket, 0], root_tol, True)[:len(path)] != path
               for bracket in brackets for path in [_bisection_path(g, *bracket, root_tol)])


@pytest.mark.parametrize("layered", [False, True])
def test_bisection_raises_the_first_nan_of_both_predicted_paths(layered):
    # d0 on [2, 3] is a line, so the first round predicts its whole path; the
    # curved d0 on [0, 1] leaves its predicted path in the first round, so that
    # bracket reads its later steps in a second round.  With a nan on both paths,
    # the one lockstep bisection reads first (by step, then by bracket) raises,
    # even where the line's bracket walked to its nan a round earlier
    def clean(x):
        return np.where(x < 1.5, np.expm1(8.0 * (x - 0.3)), x - 2.7)

    brackets = [(lo, hi, float(clean(np.array([lo]))[0]), float(clean(np.array([hi]))[0]))
                for lo, hi in ((0.0, 1.0), (2.0, 3.0))]
    curved, line = (_bisection_path(clean, *bracket, 1e-8) for bracket in brackets)
    predicted = [resonance._predicted([*bracket, 0], 1e-8, True) for bracket in brackets]
    assert predicted[0][:8] != curved[:8] and predicted[1][:12] == line[:12]
    for step_curved, step_line, first in [(8, 9, curved[7]), (10, 9, line[8]),
                                          (9, 9, curved[8])]:
        nans = [curved[step_curved - 1], line[step_line - 1]]

        def g(x):
            return np.where(np.isin(x, nans), np.nan, clean(x))

        with pytest.raises(SpecError, match=re.escape(f"d0 is not finite at alpha = {first}:")):
            resonance._bisect_roots(g, brackets, 1e-8, layered)


def test_magnus_sweep_builds_one_map_set_per_coupling(monkeypatch):
    # each coupling is its own Magnus mesh, so bisection takes one step per
    # round: 21 grid points and 20 steps for each of the table's 2 brackets,
    # 11 grid points and 16 steps for the exponential well's one
    map_sets = _counting_map_sets(monkeypatch)
    for base, alpha_min, alpha_max, grid_n, n_roots, expected in [
            (_table_well(), 0.5, 12.0, 21, 2, 21 + 2 * 20),
            (j.exp_decay(rate=1.0, amplitude=-1.0), 1.2, 1.7, 11, 1, 11 + 16)]:
        map_sets.clear()
        sweep = j.resonant_couplings(base, alpha_min, alpha_max, grid_n=grid_n, root_tol=1e-6)
        assert len(sweep.roots) == n_roots
        assert len(map_sets) == expected


@pytest.mark.parametrize("base, alpha_max", [
    (j.square(-1.0, 1.0, -1.0), 1e308),  # mu^2 w^2 overflows: the steps are nan
    (j.square(-1.0, 1.0, 1.0), 1e6),  # cosh overflows: the product is not finite
], ids=["well_1e308", "barrier_1e6"])
def test_sweep_with_overflowing_d0_raises(base, alpha_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning on the way
        with pytest.raises(SpecError, match="not finite"):
            j.resonant_couplings(base, 0.5, alpha_max, grid_n=5)


def test_sweep_root_without_digits_raises():
    # d0 is finite near alpha = 2e307 but rounding swamps it: the bisection
    # reaches a rounding-wide bracket with |d0| ~ 4e151
    with pytest.raises(SpecError, match="root_tol"):
        j.resonant_couplings(j.square(-1.0, 1.0, -1.0), 0.5, 2.6e307, grid_n=2)


def test_report_with_overflowing_d0_raises():
    # cosh(2000) overflows, so d0 is nan; it must not reach the resonant branch
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning on the way
        with pytest.raises(SpecError, match="not finite"):
            j.resonance_report(j.square(-1.0, 1.0, 1e6))


@pytest.mark.parametrize("base, alpha_min", [
    (j.square(-1.0, 1.0, -1.0), 0.001),
    (_random_well(1, 6), 0.001),
    (_random_well(2, 22, gaps=True), 0.001),
    (j.square(-1.0, 0.5, -2.0, coupling=0.7), 0.001),
    (_random_well(3, 9, gaps=True), -25.0),
], ids=["square", "layers6", "layers22_gaps", "coupling0.7", "straddles0"])
def test_layered_sweep_d0_matches_mpmath_layer_matching(base, alpha_min):
    sweep = j.resonant_couplings(base, alpha_min, 25.0)
    want = np.array([
        oracles.layer_matching_d0([(lo, hi, h * base.coupling * alpha)
                                   for lo, hi, h in base.shape.segments])
        for alpha in sweep.alphas.tolist()])
    # no grid point lies on a root, so every d0 has a relative error
    nonzero = sweep.alphas != 0.0
    assert np.all(np.abs(sweep.d0_values - want)[nonzero] <= 1e-12 * np.abs(want)[nonzero])


@pytest.mark.parametrize("name, theta, tol", [
    pytest.param("well_theta_minus", -1.0, 1e-12, id="well_theta_minus"),
    pytest.param("well_theta_plus", 1.0, 1e-12, id="well_theta_plus"),
    pytest.param("exp_bessel_well", -1.0, 1e-9, id="exp_bessel_well"),
    # sweep roots, left up to root_tol off the resonance: criterion 05
    pytest.param("layers6_root", None, 1e-5, id="layers6_root"),
    pytest.param("exp_resonant_well", None, 1e-5, id="exp_resonant_well"),
])
def test_d_dot_zero_matches_theta_identity(name, theta, tol, request):
    if name == "layers6_root":
        base = _random_well(1, 6)
        root = j.resonant_couplings(base, 0.001, 25.0).roots[0]
        p = base.with_coupling(root.alpha)
    else:
        p = request.getfixturevalue(name)
    rep = j.resonance_report(p)
    builds = request.getfixturevalue("evaluator_builds")  # counts from here on
    dd = j.d_dot_zero(p, report=rep)
    assert len(builds) == 0  # the product of the maps carries D'(0)
    assert dd.theta_formula_gap < tol
    if theta is not None:  # an exact resonance: D'(0) = -i (theta + 1/theta) = -2i theta
        assert abs(dd.value + 2j * theta) < tol
    assert dd.ray_gap < tol


@pytest.mark.parametrize("name", ["well_theta_minus", "exp_resonant_well"])
@pytest.mark.parametrize("eps", [0.1, 1e-3])
def test_d_dot_zero_unchanged_by_squeezing(name, eps, request):
    # W_eps(k) = W(eps k) / eps, so D'(0) of eps^-2 V(x/eps) is that of V
    p = request.getfixturevalue(name)
    rep = j.resonance_report(p, threshold=1e-3)
    squeezed = j.d_dot_zero(j.scale(p, eps), report=rep).value
    assert abs(squeezed - j.d_dot_zero(p, report=rep).value) < 1e-12


@pytest.fixture(scope="module")
def table_root_well():
    """The 41-node table well at its first resonant coupling: Magnus, compact support."""
    base = _table_well()
    return base.with_coupling(j.resonant_couplings(base, 0.5, 12.0, grid_n=21).roots[0].alpha)


@pytest.mark.parametrize("name, expected", [
    ("well_theta_minus", 1),
    ("table_root_well", 1),
    ("exp_bessel_well", 1),  # infinite tails: the report's k = 0 build cuts the second moment too
])
def test_d_dot_zero_reuses_its_report_maps(name, expected, request, monkeypatch):
    p = request.getfixturevalue(name)
    map_sets = _counting_map_sets(monkeypatch)
    rep = j.resonance_report(p)
    assert rep.is_resonant
    j.d_dot_zero(p, report=rep)
    assert len(map_sets) == expected


@pytest.mark.parametrize("name, other, tol", [
    ("well_theta_minus", "table_root_well", 1e-10),
    ("table_root_well", "well_theta_minus", 1e-10),
    ("table_root_well", "table_root_well", 1e-8),  # p's own report, at another tol
])
def test_d_dot_zero_reads_its_own_maps_beside_another_report(name, other, tol, request):
    # the report gives theta, but only p's own report at this tol lends its maps
    p, q = request.getfixturevalue(name), request.getfixturevalue(other)
    dd, want = j.d_dot_zero(p, tol=tol, report=j.resonance_report(q)), j.d_dot_zero(p, tol=tol)
    assert (dd.value, dd.ray_gap) == (want.value, want.ray_gap)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(layers=st.lists(st.tuples(st.floats(0.2, 1.0), st.floats(-1.8, -0.2)),
                       min_size=2, max_size=8),
       gaps=st.booleans())
def test_d_dot_zero_identity_at_sweep_roots_of_random_wells(layers, gaps):
    # criterion 05's bound: a sweep root sits up to root_tol off the resonance
    widths, heights = (np.array(c) for c in zip(*layers))
    base = _scaled_well(widths, heights, gaps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sweep = j.resonant_couplings(base, 0.001, 25.0)
    assert sweep.roots
    for root in sweep.roots:
        assert j.d_dot_zero(base.with_coupling(root.alpha)).theta_formula_gap < 1e-5
