"""Zero-energy resonance detection, far-field ratios, and coupling sweeps."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_halfbound_profile_is_bounded(well_theta_minus):
    rep = j.resonance_report(well_theta_minus)
    vals = np.asarray(rep.halfbound_values)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 10.0
    # it approaches 1 on the far right and theta on the far left
    assert vals[-1] == pytest.approx(1.0, abs=1e-8)
    assert vals[0] == pytest.approx(rep.theta, abs=1e-6)


def test_threshold_scales_with_potential_size(barrier):
    rep = j.resonance_report(barrier)
    assert rep.threshold == pytest.approx(1e-8 * (1.0 + j.fm_norm(barrier)), rel=1e-9)


def test_loose_threshold_caught_by_ratio_guard(barrier):
    # a threshold so loose it misclassifies the barrier as resonant must
    # be caught: the two zero-energy solutions are not proportional, so
    # their ratio drifts and the far-field ratio would be meaningless
    from jost1d.errors import RatioInconsistencyError

    with pytest.raises(RatioInconsistencyError):
        j.resonance_report(barrier, threshold=10.0)


# ---------------------------------------------------------------------------
# one pair of zero-energy evaluators per report


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
    d0, extrapolated, theta, theta_far, halfbound = oracles.zero_energy_report(p)
    assert rep.is_resonant
    assert (rep.d0, rep.extrapolated, rep.theta, rep.theta_far_field) == (
        d0, extrapolated, theta, theta_far)
    assert np.array_equal(rep.halfbound_values, halfbound)
    if name == "exp_resonant_well":
        assert abs(rep.d0 - oracles.exp_well_d0(p.coupling)) < 1e-11


def test_nonresonant_report_equals_oracle(barrier):
    rep = j.resonance_report(barrier)
    assert not rep.is_resonant
    assert (rep.d0, rep.extrapolated) == oracles.d_zero(barrier)
    assert rep.theta is rep.theta_far_field is rep.halfbound_values is None


def test_nonresonant_report_builds_no_evaluator(barrier, monkeypatch, evaluator_builds):
    # d0 is the product of one map set; only a resonant report scans them
    map_sets = _counting_map_sets(monkeypatch)
    assert not j.resonance_report(barrier).is_resonant
    assert (len(evaluator_builds), len(map_sets)) == (0, 1)


@pytest.mark.parametrize("name, threshold, expected", [
    ("well_theta_minus", None, 2),  # one pair at k = 0
    ("exp_resonant_well", 1e-3, 2),  # one pair at k = 0, anchored at the cut tails
])
def test_resonant_report_builds_each_evaluator_once(name, threshold, expected, request):
    p = request.getfixturevalue(name)
    builds = request.getfixturevalue("evaluator_builds")  # counts from here on
    assert j.resonance_report(p, threshold=threshold).is_resonant
    assert len(builds) == expected


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
    # out with no evaluator.  A round looks four bisection steps ahead: its
    # one batch holds the 15 midpoints those steps can take in every
    # bracket, so halving the grid step 0.125 below root_tol = 1e-8 takes
    # 24 steps in 6 rounds.  A point-by-point sweep builds 201 map sets for
    # the grid alone.
    map_sets = _counting_map_sets(monkeypatch)
    for base in (j.square(-1.0, 1.0, -1.0), _random_well(1, 6), _random_well(2, 22, gaps=True)):
        map_sets.clear()
        sweep = j.resonant_couplings(base, 0.001, 25.0, grid_n=201)
        assert len(sweep.roots) == 3
        assert len(map_sets) == 1 + 6
    assert len(evaluator_builds) == 0


def test_bisection_raises_only_on_values_it_reads():
    # d0 = alpha - 0.3 up to 0.9 and nan beyond.  Toward the root at 0.3 a
    # four-step round also evaluates 0.9375, 0.96875 and 0.984375, which
    # bisection never reads; from [0.8, 1] it reads 0.9, then the nan at 0.95
    def g(alphas):
        return np.where(alphas > 0.9, np.nan, alphas - 0.3)

    bracket = (0.0, 1.0, -0.3, 0.7)
    assert resonance._bisect_roots(g, [bracket], 1e-8, 4) == \
        resonance._bisect_roots(g, [bracket], 1e-8, 1)
    with pytest.raises(SpecError, match="d0 is not finite at alpha = 0.95:"):
        resonance._bisect_roots(g, [(0.8, 1.0, 0.5, -0.1)], 1e-8, 4)


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
