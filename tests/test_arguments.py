"""Every numeric argument of the public API rejects what is no number of its kind with SpecError."""

import numpy as np
import pytest

import jost1d as j
from jost1d.errors import SpecError

_BARRIER = j.square(-1.0, 1.0, 1.0)
_WELL = j.square(-1.0, 1.0, -1.0)
_GREEN = j.LimitOperator(None).green(1.0)

# one call per argument, the argument replaced by a; None is a valid threshold and theta
_ARGUMENTS = {
    "square left": lambda a: j.square(a, 1.0, 1.0),
    "square right": lambda a: j.square(-1.0, a, 1.0),
    "square height": lambda a: j.square(-1.0, 1.0, a),
    "square coupling": lambda a: j.square(-1.0, 1.0, 1.0, a),
    "piecewise edge": lambda a: j.piecewise_constant([(a, 1.0, 1.0)]),
    "piecewise height": lambda a: j.piecewise_constant([(-1.0, 1.0, a)]),
    "piecewise coupling": lambda a: j.piecewise_constant([(-1.0, 1.0, 1.0)], a),
    "table node": lambda a: j.tabulated([-1.0, a, 1.0], [0.0, 1.0, 0.0]),
    "table value": lambda a: j.tabulated([-1.0, 0.0, 1.0], [0.0, a, 0.0]),
    "table coupling": lambda a: j.tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], a),
    "exp rate": lambda a: j.exp_decay(a),
    "exp amplitude": lambda a: j.exp_decay(1.0, a),
    "exp coupling": lambda a: j.exp_decay(1.0, 1.0, a),
    "Potential coupling": lambda a: j.Potential(_BARRIER.shape, a),
    "with_coupling": lambda a: _BARRIER.with_coupling(a),
    "scale": lambda a: j.scale(_BARRIER, a),
    "truncate": lambda a: j.truncate(_BARRIER, a),
    "splitting_scale": lambda a: j.splitting_scale(_BARRIER, a),
    "tail_weight_norm": lambda a: j.tail_weight_norm(_BARRIER, a),
    "tails": lambda a: j.tails(_BARRIER, a),
    "scattering k": lambda a: j.scattering(_BARRIER, a),
    "scattering tol": lambda a: j.scattering(_BARRIER, 1.0, tol=a),
    "jost_evaluator k": lambda a: j.jost_evaluator(_BARRIER, a, "+"),
    "jost_evaluator tol": lambda a: j.jost_evaluator(_BARRIER, 1.0, "+", tol=a),
    "jost_wronskian k": lambda a: j.jost_wronskian(_BARRIER, a),
    "jost_wronskian tol": lambda a: j.jost_wronskian(_BARRIER, 1.0, tol=a),
    "resonance_report threshold": lambda a: j.resonance_report(_BARRIER, threshold=a),
    "resonance_report tol": lambda a: j.resonance_report(_BARRIER, tol=a),
    "d_dot_zero tol": lambda a: j.d_dot_zero(_WELL, tol=a),
    "classify_limit threshold": lambda a: j.classify_limit(_BARRIER, threshold=a),
    "resonant_couplings alpha_min": lambda a: j.resonant_couplings(_WELL, a, 5.0),
    "resonant_couplings alpha_max": lambda a: j.resonant_couplings(_WELL, 0.5, a),
    "resonant_couplings grid_n": lambda a: j.resonant_couplings(_WELL, 0.5, 5.0, grid_n=a),
    "resonant_couplings root_tol": lambda a: j.resonant_couplings(_WELL, 0.5, 5.0, root_tol=a),
    "resonant_couplings tol": lambda a: j.resonant_couplings(_WELL, 0.5, 5.0, tol=a),
    "kernel_distance box": lambda a: j.kernel_distance(_GREEN, _GREEN, box=a),
    "kernel_distance n": lambda a: j.kernel_distance(_GREEN, _GREEN, n=a),
    "truncated_operator eps": lambda a: j.truncated_operator(_BARRIER, a, 1.0),
    "truncated_operator k": lambda a: j.truncated_operator(_BARRIER, 0.1, a),
    "truncated_operator tol": lambda a: j.truncated_operator(_BARRIER, 0.1, 1.0, tol=a),
    "convergence_table k": lambda a: j.convergence_table(_BARRIER, a, [0.1]),
    "convergence_table box": lambda a: j.convergence_table(_BARRIER, 1.0, [0.1], box=a),
    "convergence_table n": lambda a: j.convergence_table(_BARRIER, 1.0, [0.1], n=a),
    "convergence_table tol": lambda a: j.convergence_table(_BARRIER, 1.0, [0.1], tol=a),
    "convergence_table threshold":
        lambda a: j.convergence_table(_BARRIER, 1.0, [0.1], threshold=a),
    "LimitOperator theta": lambda a: j.LimitOperator(a),
    "LimitOperator.scattering k": lambda a: j.LimitOperator(-1.0).scattering(a),
    "LimitOperator.green k": lambda a: j.LimitOperator(-1.0).green(a),
}
_OPTIONAL = {"resonance_report threshold", "classify_limit threshold",
             "convergence_table threshold", "LimitOperator theta"}
_BAD = {"text": "a", "bool": True, "np.True_": np.bool_(True), "complex": 1j, "None": None,
        "array": np.array([1.0, 2.0])}


@pytest.mark.parametrize("name, value", [
    # a wavenumber may be complex, so its complex case is one in the lower half plane
    pytest.param(name, -value if kind == "complex" and name.endswith(" k") else value,
                 id=f"{name}-{kind}")
    for name in _ARGUMENTS for kind, value in _BAD.items()
    if not (value is None and name in _OPTIONAL)
])
def test_every_numeric_argument_rejects_what_is_no_number_of_its_kind(name, value):
    # a bare TypeError or ValueError would fail this: SpecError is the only one expected
    with pytest.raises(SpecError):
        _ARGUMENTS[name](value)


@pytest.mark.parametrize("call", [
    lambda: _BARRIER("a"),
    lambda: _GREEN(np.zeros(2), np.zeros(3)),
    lambda: j.convergence_table(_BARRIER, 1.0, [[0.1], [0.2, 0.3]]),
    lambda: j.jost_evaluator(_BARRIER, 1.0, np.array([1, 2])),
], ids=["potential points", "kernel points", "ragged eps list", "array side"])
def test_points_eps_lists_and_sides_raise_spec_error(call):
    # each raised numpy's ValueError: float() of text, a broadcast of shapes
    # (2,) and (3,), the ndim of a ragged list, the truth value of an array
    with pytest.raises(SpecError):
        call()
