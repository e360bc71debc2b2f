"""Shared fixtures: the potential corpus, a seeded random generator and a build counter."""

import numpy as np
import pytest

import jost1d as j


@pytest.fixture(scope="session")
def barrier():
    return j.square(-1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def shallow_well():
    return j.square(-1.0, 1.0, -1.0)


@pytest.fixture(scope="session")
def well_theta_minus():
    """Depth (pi/2)^2: zero-energy resonant with far-field ratio -1."""
    return j.square(-1.0, 1.0, -((np.pi / 2.0) ** 2))


@pytest.fixture(scope="session")
def well_theta_plus():
    """Depth pi^2: zero-energy resonant with far-field ratio +1."""
    return j.square(-1.0, 1.0, -(np.pi**2))


@pytest.fixture(scope="session")
def two_step():
    return j.piecewise_constant([(-1.0, 0.0, -2.0), (0.0, 1.0, 3.0)])


@pytest.fixture(scope="session")
def bump_table():
    x = np.linspace(-2.0, 2.0, 81)
    return j.tabulated(x, np.sin(np.pi * x) * np.exp(-(x**2)))


@pytest.fixture(scope="session")
def exp_tail():
    return j.exp_decay(rate=1.0, amplitude=1.0)


@pytest.fixture(scope="session")
def corpus(barrier, shallow_well, well_theta_minus, well_theta_plus, two_step, bump_table):
    return {
        "barrier": barrier,
        "shallow_well": shallow_well,
        "well_theta_minus": well_theta_minus,
        "well_theta_plus": well_theta_plus,
        "two_step": two_step,
        "bump_table": bump_table,
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def evaluator_builds(monkeypatch):
    """A list that gains one entry per JostEvaluator built from here on."""
    from jost1d.jost import JostEvaluator

    builds = []
    init = JostEvaluator.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(JostEvaluator, "__init__", counting)
    return builds
