"""Distribution theory, simulation, and path reflection for the
one-dimensional symmetric telegraph process.

The package exposes the conditional and unconditional laws of the
position, the running maximum, their joint law with its singular
components, first-passage and return times (``telegraph.laws``); an
executable bijective reflection transform on paths
(``telegraph.reflection``); exact and Monte Carlo samplers
(``telegraph.sampler``); numeric cross-check suites
(``telegraph.verify``); and a command-line front end
(``telegraph.cli``).
"""

from .params import MotionParams, VelocitySign
from .path import (
    TelegraphPath,
    first_passage,
    first_return,
    position_at,
    running_max,
    running_min,
)
from .laws import OutOfScopeError
from .reflection import (
    CrossingPair,
    DegeneratePathError,
    ReflectionContext,
    ReflectionDomainError,
    classify_crossings,
    in_P_minus,
    in_P_plus,
    negative_reflect,
    negative_reflect_inverse,
)
from .sampler import (
    HistogramBin,
    McReport,
    RngStream,
    mc_density_histogram,
    mc_probability,
    sample_conditional,
)
from .verify import CheckResult, quadrature

__version__ = "0.1.0"

__all__ = [
    "MotionParams",
    "VelocitySign",
    "TelegraphPath",
    "position_at",
    "running_max",
    "running_min",
    "first_passage",
    "first_return",
    "OutOfScopeError",
    "ReflectionContext",
    "CrossingPair",
    "ReflectionDomainError",
    "DegeneratePathError",
    "in_P_plus",
    "in_P_minus",
    "classify_crossings",
    "negative_reflect",
    "negative_reflect_inverse",
    "RngStream",
    "McReport",
    "HistogramBin",
    "sample_conditional",
    "mc_probability",
    "mc_density_histogram",
    "CheckResult",
    "quadrature",
    "__version__",
]
