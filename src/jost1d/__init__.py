"""Jost solutions, scattering data, and squeezing limits for 1d Schrodinger operators.

The package computes Jost solutions of -y'' + V y = k^2 y for potentials with
a finite first moment, the derived scattering coefficients, zero-energy
resonance structure, and the small-eps behaviour of the windowed squeezed
family built from V: convergence either to decoupled half-line Dirichlet
operators or, at a resonance, to a one-parameter interface coupling.
"""

from .errors import (
    AnchorError,
    ExceptionalPointError,
    IntegrationError,
    NumericsError,
    RatioInconsistencyError,
    SpecError,
)
from .jost import (
    ScatteringData,
    jost_evaluator,
    jost_wronskian,
    scattering,
)
from .limits import (
    ConvergenceRecord,
    LimitOperator,
    TruncatedScaledOperator,
    classify_limit,
    convergence_table,
    kernel_distance,
    truncated_operator,
)
from .potential import (
    Potential,
    SplittingScale,
    TailData,
    exp_decay,
    fm_norm,
    load_potential,
    moments,
    piecewise_constant,
    potential_from_dict,
    scale,
    splitting_scale,
    square,
    tabulated,
    tail_weight_norm,
    tails,
    truncate,
    zero,
)
from .resonance import (
    CouplingRoot,
    CouplingSweep,
    DZeroDerivative,
    ResonanceReport,
    d_dot_zero,
    resonance_report,
    resonant_couplings,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorError",
    "ConvergenceRecord",
    "CouplingRoot",
    "CouplingSweep",
    "DZeroDerivative",
    "ExceptionalPointError",
    "IntegrationError",
    "LimitOperator",
    "NumericsError",
    "Potential",
    "RatioInconsistencyError",
    "ResonanceReport",
    "ScatteringData",
    "SpecError",
    "SplittingScale",
    "TailData",
    "TruncatedScaledOperator",
    "classify_limit",
    "convergence_table",
    "d_dot_zero",
    "exp_decay",
    "fm_norm",
    "jost_evaluator",
    "jost_wronskian",
    "kernel_distance",
    "load_potential",
    "moments",
    "piecewise_constant",
    "potential_from_dict",
    "resonance_report",
    "resonant_couplings",
    "scale",
    "scattering",
    "splitting_scale",
    "square",
    "tabulated",
    "tail_weight_norm",
    "tails",
    "truncate",
    "truncated_operator",
    "zero",
]
