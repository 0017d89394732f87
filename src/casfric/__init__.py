"""Casimir friction between polarizable media.

Computes the drag force per unit area between parallel half-planes in
relative motion (dilute and dense media, Drude/plasma/tabulated response)
plus the particle-above-a-plate hybrid, with independent quadrature
oracles and literature benchmarks wired into a validation CLI.

Submodules load on first use: ``validation``, ``comparisons``,
``electrostatics`` and ``oscillator_stats``, which only ``validate`` and
``compare`` run, are in ``sys.modules`` and on the package from import
on, but their code runs on first attribute access.  ``compute``,
``sweep`` and ``spectra`` never run it.
"""

import importlib.util
import sys

from . import dielectric, friction, geometry, presets, quadrature, units
from .errors import (CasfricError, ConfigError, DeltaLineError, DomainError,
                     StabilityError, UnsupportedModelError)

for _name in ("comparisons", "electrostatics", "oscillator_stats",
              "validation"):
    _spec = importlib.util.find_spec(f".{_name}", __name__)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = \
        importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec

__version__ = "0.1.0"

__all__ = [
    "units", "quadrature", "dielectric", "oscillator_stats", "geometry",
    "friction", "electrostatics", "comparisons", "presets", "validation",
    "CasfricError", "ConfigError", "DeltaLineError", "DomainError",
    "StabilityError", "UnsupportedModelError",
    "__version__",
]
