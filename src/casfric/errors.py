"""Typed errors shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
physics-domain violations exit 3.  Numeric non-convergence is not an
error but a result flagged ``converged=False``, which exits 4.
"""


class CasfricError(Exception):
    """Base class for all package errors."""


class DomainError(CasfricError, ValueError):
    """An input lies outside the physical domain (e.g. T <= 0, r = 0)."""


class StabilityError(DomainError):
    """Coupled-oscillator Gaussian weight is non-normalizable (alpha1*alpha2*phi**2 >= 1)."""


class DeltaLineError(CasfricError, ValueError):
    """The model's whole spectral strength is one discrete line (an
    undamped Drude model), so it has no continuous spectral density.
    Friction integrals over a single line would need a resonance delta
    instead of a spectral overlap."""


class UnsupportedModelError(CasfricError, TypeError):
    """The operation is not defined for this permittivity model."""


class ConfigError(CasfricError, ValueError):
    """A run/sweep configuration failed schema validation.

    ``errors`` holds (path, message) pairs, e.g.
    (".system.d_nm", "must be finite and > 0, got -1").
    """

    def __init__(self, errors):
        self.errors = list(errors)
        msg = "; ".join(f"{p or '.'}: {m}" for p, m in self.errors)
        super().__init__(msg)
