"""Casimir friction between polarizable media.

Computes the drag force per unit area between parallel half-planes in
relative motion (dilute and dense media, Drude/plasma/tabulated response)
plus the particle-above-a-plate hybrid, with independent quadrature
oracles and literature benchmarks wired into a validation CLI.
"""

from . import comparisons, dielectric, electrostatics, friction, geometry
from . import oscillator_stats, presets, quadrature, units, validation
from .errors import (CasfricError, ConfigError, DeltaLineError, DomainError,
                     StabilityError, UnsupportedModelError)

__version__ = "0.1.0"

__all__ = [
    "units", "quadrature", "dielectric", "oscillator_stats", "geometry",
    "friction", "electrostatics", "comparisons", "presets", "validation",
    "CasfricError", "ConfigError", "DeltaLineError", "DomainError",
    "StabilityError", "UnsupportedModelError",
    "__version__",
]
