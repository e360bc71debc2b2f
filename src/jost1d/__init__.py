"""Jost solutions, scattering data, and squeezing limits for 1d Schrodinger operators.

The package computes Jost solutions of -y'' + V y = k^2 y for potentials with
a finite first moment, the derived scattering coefficients, zero-energy
resonance structure, and the small-eps behaviour of the windowed squeezed
family built from V: convergence either to decoupled half-line Dirichlet
operators or, at a resonance, to a one-parameter interface coupling.
"""

from . import errors, jost, limits, potential, resonance
from .errors import *
from .jost import *
from .limits import *
from .potential import *
from .resonance import *

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = [*errors.__all__, *jost.__all__, *limits.__all__, *potential.__all__, *resonance.__all__]
