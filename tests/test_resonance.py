"""Zero-energy resonance detection, far-field ratios, and coupling sweeps."""

import warnings

import numpy as np
import pytest

import jost1d as j
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


def test_d0_barrier_value(barrier):
    rep = j.resonance_report(barrier)
    assert rep.d0 == pytest.approx(np.sinh(2.0), rel=1e-12)
    assert not rep.is_resonant
    assert rep.theta is None
    assert not rep.extrapolated


def test_d0_exponential_tail_bessel():
    # non-compact support exercises the small-k extrapolation route
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


def test_sweep_values_match_pointwise_reports():
    base = j.square(-1.0, 1.0, -1.0)
    sweep = j.resonant_couplings(base, 0.5, 3.0, grid_n=6)
    for alpha, d0 in zip(sweep.alphas, sweep.d0_values):
        rep = j.resonance_report(base.with_coupling(float(alpha)))
        assert d0 == pytest.approx(rep.d0, rel=1e-10, abs=1e-12)
