"""Single-layer propagator entries against a generic matrix exponential."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from jost1d.transfer import _cosh_sinhc, plane_pair, propagator_entries


def _expm_entries(mu2, w):
    gen = np.array([[0.0, 1.0], [mu2, 0.0]], dtype=complex)
    return scipy.linalg.expm(w * gen)


@pytest.mark.parametrize("mu2,w", [
    (4.0, 1.0),
    (-9.0, 0.7),
    (2.5 + 1.5j, 1.3),
    (-0.25 + 0.1j, 2.0),
    (100.0, 0.3),
])
def test_propagator_matches_matrix_exponential(mu2, w):
    a, b, c = propagator_entries(complex(mu2), w)
    m = _expm_entries(mu2, w)
    assert a == pytest.approx(m[0, 0], rel=1e-12, abs=1e-12)
    assert b == pytest.approx(m[0, 1], rel=1e-12, abs=1e-12)
    assert c == pytest.approx(m[1, 0], rel=1e-12, abs=1e-12)


def test_propagator_random(rng):
    for _ in range(50):
        mu2 = complex(rng.uniform(-30, 30), rng.uniform(-10, 10))
        w = rng.uniform(0.01, 2.0)
        a, b, c = propagator_entries(mu2, w)
        m = _expm_entries(mu2, w)
        assert abs(a - m[0, 0]) < 1e-10 * max(1.0, abs(m[0, 0]))
        assert abs(b - m[0, 1]) < 1e-10 * max(1.0, abs(m[0, 1]))
        assert abs(c - m[1, 0]) < 1e-10 * max(1.0, abs(m[1, 0]))


def test_propagator_tiny_argument_series_branch():
    # z^2 = mu2 w^2 below the series cutoff must still be second-order exact
    for mu2 in [1e-14, -1e-14, 1e-18 + 1e-18j]:
        a, b, c = propagator_entries(complex(mu2), 1.0)
        assert a == pytest.approx(1.0 + mu2 / 2.0, abs=1e-16)
        assert b == pytest.approx(1.0 + mu2 / 6.0, abs=1e-16)
        assert c == pytest.approx(mu2 * (1.0 + mu2 / 6.0), abs=1e-16)


def test_cosh_sinhc_mixed_batch_equals_scalar_calls():
    # a batch holding one small z^2 takes the series-blending branch, a
    # scalar large z^2 the direct one; every row must agree to the bit
    z2 = np.array([0.0, 1e-14, -1e-12 + 1e-13j, 1e-10, 2.5 - 1.0j, -9.0, 400.0, 1e4 + 3j])
    def bits(c):
        c = complex(c)
        return c.real.hex(), c.imag.hex()

    a, s = _cosh_sinhc(z2)
    for row, z in enumerate(z2):
        a1, s1 = _cosh_sinhc(z)
        assert (bits(a[row]), bits(s[row])) == (bits(a1), bits(s1))


def test_cosh_sinhc_real_branch_matches_complex_branch(rng):
    # one-signed batches, a mixed one, series entries and overflowing ones:
    # within 2 ulp of the complex branch on z2 + 0j, and bit for bit at z2 <= 0
    scales = 10.0 ** rng.uniform(-9.0, 2.5, 400)
    batches = [scales, -scales, rng.permutation(np.concatenate([scales, -scales])),
               np.array([0.0, 1e-14, -1e-12, 3e-11, 2.0, -2.0, 1e6, -1e6]),
               np.array([1e6]), np.array([-1e6]), np.array(-4.0), np.array([])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z2 in batches:
            real, full = _cosh_sinhc(z2), _cosh_sinhc(z2 + 0j)
            for got, want in zip(real, full):
                assert got.dtype == np.float64 and got.shape == z2.shape
                want = want.real
                assert np.array_equal(got[z2 <= 0], want[z2 <= 0])
                big = ~np.isfinite(want)  # cosh and sinh overflow to inf
                assert np.array_equal(got[big], want[big])
                got, want = got[~big], want[~big]
                assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))
        # a mixed batch with series entries takes the same branch per entry as scalar calls
        z2 = batches[3]
        for got, want in zip(_cosh_sinhc(z2), zip(*map(_cosh_sinhc, z2))):
            assert [x.hex() for x in got] == [float(x).hex() for x in want]


def test_propagator_determinant_one(rng):
    # the flow of y'' = mu2 y preserves the Wronskian
    for _ in range(20):
        mu2 = complex(rng.uniform(-20, 20), rng.uniform(-5, 5))
        w = rng.uniform(0.05, 1.5)
        a, b, c = propagator_entries(mu2, w)
        d = a  # the diagonal entries coincide for a constant layer
        scale = max(1.0, abs(a * d), abs(b * c))
        assert abs((a * d - b * c) - 1.0) < 1e-13 * scale


def test_plane_pair_round_trip(rng):
    for _ in range(20):
        k = complex(rng.uniform(0.2, 3.0), rng.uniform(0.0, 1.0))
        x0 = rng.uniform(-2.0, 2.0)
        a_true = complex(rng.normal(), rng.normal())
        b_true = complex(rng.normal(), rng.normal())
        f = a_true * np.exp(1j * k * x0) + b_true * np.exp(-1j * k * x0)
        fp = 1j * k * (a_true * np.exp(1j * k * x0) - b_true * np.exp(-1j * k * x0))
        a, b = plane_pair(f, fp, k, x0)
        assert a == pytest.approx(a_true, rel=1e-12, abs=1e-12)
        assert b == pytest.approx(b_true, rel=1e-12, abs=1e-12)
