"""End-to-end acceptance checks.

Each test exercises one advertised guarantee of the library at its stated
tolerance, times itself, and prints a single [PASS]/[FAIL] line so the
verdicts are readable straight off the pytest report.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import jost1d as j

from oracles import exp_tail_tau_plus, fd_split_line_kernel


@contextmanager
def criterion(num, name, budget_s=None):
    """Time a criterion body and print one verdict line.

    The body stores a human-readable summary in info["detail"]; any
    assertion failure (including the runtime budget) is reported as
    [FAIL] and re-raised.
    """
    t0 = time.perf_counter()
    info = {"detail": ""}
    try:
        yield info
        elapsed = time.perf_counter() - t0
        if budget_s is not None:
            assert elapsed < budget_s, (
                f"runtime {elapsed:.2f}s exceeds the {budget_s:.0f}s budget"
            )
    except BaseException as exc:
        print(f"[FAIL] criterion {num:02d} {name}: {exc}")
        raise
    print(f"[PASS] criterion {num:02d} {name}: {info['detail']} [{elapsed:.2f}s]")


def test_01_free_line_exactness():
    with criterion(1, "free-line exactness", budget_s=1.0) as info:
        free = j.square(-1.0, 1.0, 0.0)
        worst = 0.0
        for k in (1.0, 1j, 1.0 + 1j):
            sd = j.scattering(free, k)
            d = j.jost_wronskian(free, k)
            gaps = (abs(sd.a - 1.0), abs(sd.b), abs(sd.r), abs(sd.t - 1.0),
                    abs(d - (-2j * k)))
            worst = max(worst, *gaps)
            assert all(g < 1e-10 for g in gaps), f"k={k}: gaps {gaps}"
        info["detail"] = f"max deviation {worst:.2e} over k in {{1, i, 1+i}}"


def test_02_unitarity_suite(corpus):
    with criterion(2, "unitarity suite", budget_s=10.0) as info:
        worst = 0.0
        for name, p in corpus.items():
            for k in (0.5, 1.0, 2.0, 5.0):
                defect = j.scattering(p, k).unitarity_defect()
                worst = max(worst, defect)
                assert defect < 1e-8, f"{name} at k={k}: defect {defect:.3e}"
        info["detail"] = (
            f"max | |r|^2+|t|^2 - 1 | = {worst:.2e} over "
            f"{len(corpus)} potentials x 4 wavenumbers"
        )


def test_03_dilation_identity(corpus):
    with criterion(3, "dilation identity", budget_s=10.0) as info:
        k = 1.0
        worst = 0.0
        for name, p in corpus.items():
            for eps in (0.5, 0.1):
                squeezed = j.scattering(j.scale(p, eps), k)
                reference = j.scattering(p, eps * k)
                gap = max(abs(squeezed.r - reference.r),
                          abs(squeezed.t - reference.t))
                worst = max(worst, gap)
                assert gap < 1e-8, f"{name} at eps={eps}: (r,t) gap {gap:.3e}"
        info["detail"] = f"max (r,t) gap {worst:.2e} over corpus x eps in {{0.5, 0.1}}"


def test_04_resonant_couplings_of_square_well():
    with criterion(4, "resonant couplings of the square well", budget_s=30.0) as info:
        base = j.square(-1.0, 1.0, -1.0)
        sweep = j.resonant_couplings(base, 1e-3, 25.0, grid_n=201, root_tol=1e-8)
        expected = [(np.pi / 2) ** 2, np.pi**2, (3 * np.pi / 2) ** 2]
        found = sorted(root.alpha for root in sweep.roots)
        assert len(found) == 3, f"expected 3 roots in (0, 25], found {found}"
        gaps = [abs(a - e) for a, e in zip(found, expected)]
        assert all(g < 1e-5 for g in gaps), f"root gaps {gaps}"
        info["detail"] = (
            f"roots {found[0]:.5f}, {found[1]:.5f}, {found[2]:.5f}; "
            f"max gap {max(gaps):.2e}"
        )


def test_05_far_field_ratio_and_wronskian_slope(well_theta_minus, well_theta_plus):
    with criterion(5, "far-field ratio and zero-energy slope") as info:
        details = []
        for p, theta_true in ((well_theta_minus, -1.0), (well_theta_plus, 1.0)):
            rep = j.resonance_report(p)
            assert rep.is_resonant, f"expected a resonance, |d0|={abs(rep.d0):.3e}"
            theta_gap = abs(rep.theta - theta_true)
            assert theta_gap < 1e-8, f"theta gap {theta_gap:.3e}"
            dd = j.d_dot_zero(p, report=rep)
            slope_gap = abs(dd.value - (-1j * (theta_true + 1.0 / theta_true)))
            assert slope_gap < 1e-5, f"slope gap {slope_gap:.3e}"
            details.append(
                f"theta={theta_true:+.0f}: theta gap {theta_gap:.1e}, "
                f"slope gap {slope_gap:.1e}"
            )
        info["detail"] = "; ".join(details)


EPS_LADDER = (0.2, 0.1, 0.05, 0.02, 0.01)


def _scattering_trend(p, k, targets):
    """Errors |r - r_lim|, |t - t_lim| along the eps ladder."""
    r_lim, t_lim = targets
    errs_r, errs_t = [], []
    for eps in EPS_LADDER:
        sd = j.truncated_operator(p, eps, k).scattering()
        errs_r.append(abs(sd.r - r_lim))
        errs_t.append(abs(sd.t - t_lim))
    return errs_r, errs_t


def _assert_trend(errs, label):
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= 1.1 * hi, f"{label} not decreasing (10% slack): {errs}"
    assert errs[-1] < 0.05, f"final {label} {errs[-1]:.3e} not below 0.05"


def test_06_nonresonant_barrier_decouples(barrier):
    with criterion(6, "nonresonant barrier decouples", budget_s=60.0) as info:
        errs_r, errs_t = _scattering_trend(barrier, 1.0, (-1.0, 0.0))
        _assert_trend(errs_r, "|r+1|")
        _assert_trend(errs_t, "|t|")
        info["detail"] = (
            f"at eps=0.01: |r+1|={errs_r[-1]:.2e}, |t|={errs_t[-1]:.2e}, "
            f"both decreasing over eps {list(EPS_LADDER)}"
        )


def test_07_resonant_wells_reach_interface_limits(well_theta_minus, well_theta_plus):
    with criterion(7, "resonant wells reach the interface limits",
                   budget_s=60.0) as info:
        details = []
        for p, theta in ((well_theta_minus, -1.0), (well_theta_plus, 1.0)):
            r_lim = (1.0 - theta * theta) / (1.0 + theta * theta)
            t_lim = 2.0 * theta / (1.0 + theta * theta)
            errs_r, errs_t = _scattering_trend(p, 1.0, (r_lim, t_lim))
            _assert_trend(errs_r, f"|r - {r_lim:g}|")
            _assert_trend(errs_t, f"|t - {t_lim:g}|")
            details.append(
                f"theta={theta:+.0f}: |r|={errs_r[-1]:.2e}, "
                f"|t-({t_lim:g})|={errs_t[-1]:.2e}"
            )
        info["detail"] = "; ".join(details) + " at eps=0.01"


def test_08_kernel_distance_trend(barrier, well_theta_minus):
    with criterion(8, "resolvent kernel distance trend", budget_s=300.0) as info:
        k = 1.0 + 1j
        eps_list = (0.2, 0.1, 0.05, 0.02)
        details = []
        for label, p in (("nonresonant", barrier), ("resonant", well_theta_minus)):
            rows = j.convergence_table(p, k, eps_list, box=10.0, n=200)
            dists = [row.kernel_distance for row in rows]
            assert all(lo < hi for lo, hi in zip(dists[1:], dists[:-1])), (
                f"{label} distances not strictly decreasing: {dists}"
            )
            assert dists[-1] < 0.1, f"{label} final distance {dists[-1]:.3e}"
            details.append(f"{label}: {dists[0]:.3f} -> {dists[-1]:.4f}")
        info["detail"] = "; ".join(details) + " along eps " + str(list(eps_list))


def test_09_interface_kernel_against_finite_differences(rng):
    with criterion(9, "interface kernel vs finite differences") as info:
        k = 1j
        theta = -1.0
        closed = j.LimitOperator(theta).green(k)
        pairs = []
        while len(pairs) < 20:
            x, y = rng.uniform(-5.0, 5.0, size=2)
            if min(abs(x), abs(y)) > 0.05:
                pairs.append((x, y))
        fd = fd_split_line_kernel(k, [y for _, y in pairs], theta=theta,
                                  half_width=20.0, h=1e-3)
        worst = 0.0
        for x, y in pairs:
            xs, ys = fd.snap(x), fd.snap(y)
            gap = abs(fd.value(xs, ys) - closed(xs, ys))
            worst = max(worst, gap)
            assert gap < 1e-4, f"kernel gap {gap:.3e} at (x,y)=({xs:.3f},{ys:.3f})"
        info["detail"] = f"max gap {worst:.2e} over 20 random (x,y) pairs at k=i"


def test_10_exponential_tail_shape(exp_tail):
    with criterion(10, "exponential-tail deviation shape") as info:
        sups = []
        for n in (101, 401, 1601):
            xs = np.linspace(0.0, 10.0, n)
            f, _ = j.jost_evaluator(exp_tail, 1j, "+").eval(xs)
            ratio = np.abs(f - np.exp(-xs)) / (np.exp(-xs) * exp_tail_tau_plus(xs))
            sup = float(np.max(ratio))
            assert np.isfinite(sup), f"sup not finite on the {n}-point grid"
            sups.append(sup)
        variation = max(sups) / min(sups)
        assert variation < 2.0, f"sup varies by {variation:.2f}x across grids: {sups}"
        info["detail"] = (
            f"sup |f_+ - e^-x| / (e^-x tau_+) = {max(sups):.4f}, "
            f"{variation:.3f}x variation over 101/401/1601-point grids"
        )
