"""Fourier multiplier operators: dispersive symbol, flow semigroup, and
the analytic weights defining the smoothed Gevrey norms.

The analyticity weight ``GevreyWeight`` has two kinds, its ``SymbolKind``:

* ``COSH``: m(xi) = cosh(sigma*xi) = (exp(sigma*xi)+exp(-sigma*xi))/2,
  a smooth symbol trapped between exp(sigma*|xi|)/2 and exp(sigma*|xi|).
* ``EXP``: exp(sigma*|xi|) * (1+|xi|)^s, the raw weight of the
  G^{sigma,s} norm.

Linear-scale application refuses inputs with sigma*xi_max > 700 (cosh/exp
overflow near 710).  ``norms.gevrey_norm`` sums in the log domain before that,
so the refusal guards only direct ``apply_I`` and ``picard_solve`` callers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, OverflowRisk
from .spectral import Grid, SpectralField

OVERFLOW_LIMIT = 700.0


class SymbolKind(enum.Enum):
    COSH = "cosh"
    EXP = "exp"


@dataclass(frozen=True)
class GevreyWeight:
    """Frequency weight (sigma, s, symbol kind) defining a Gevrey norm.

    With sigma = 0 and the cosh symbol the weight is identically 1 and the
    associated multiplier is the identity.
    """

    sigma: float
    s: float = 0.0
    kind: SymbolKind = SymbolKind.COSH

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise InvalidInput(f"sigma must be finite and >= 0, got {self.sigma}")
        if not math.isfinite(self.s):
            raise InvalidInput(f"s must be finite, got {self.s}")

    def symbol(self, xi: np.ndarray) -> np.ndarray:
        """Weight values at the given wavenumbers (linear scale)."""
        xi = np.asarray(xi, dtype=np.float64)
        if self.sigma * np.max(np.abs(xi), initial=0.0) > OVERFLOW_LIMIT:
            raise OverflowRisk(
                "sigma*xi_max > 700: use the log-domain norm routines"
            )
        if self.kind is SymbolKind.COSH:
            return np.cosh(self.sigma * xi)
        return np.exp(self.sigma * np.abs(xi)) * (1.0 + np.abs(xi)) ** self.s

    def log_symbol(self, xi: np.ndarray) -> np.ndarray:
        """log of the weight, safe for any sigma*xi."""
        xi = np.asarray(xi, dtype=np.float64)
        a = self.sigma * np.abs(xi)
        if self.kind is SymbolKind.COSH:
            # log cosh(a) = a - log 2 + log1p(exp(-2a))
            return a - np.log(2.0) + np.log1p(np.exp(-2.0 * a))
        return a + self.s * np.log1p(np.abs(xi))


def phi_symbol(xi, alpha: float):
    """Dispersive symbol i*xi / (1 + |xi|^alpha) of d_x(1 + D^alpha)^{-1}."""
    if not 1 < alpha < math.inf:
        raise InvalidInput(f"alpha must be finite and > 1, got {alpha}")
    xi = np.asarray(xi, dtype=np.float64)
    # |xi|^alpha past the double range is inf, and phi there is 0, its limit
    with np.errstate(over="ignore"):
        value = 1j * xi / (1.0 + np.abs(xi) ** alpha)
    return complex(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class ModelParams:
    """PDE parameterization: dispersion order, grid, and time stepping."""

    alpha: float
    grid: Grid
    dt: float
    t_end: float

    def __post_init__(self):
        if not 1 < self.alpha < math.inf:
            raise InvalidInput(f"alpha must be finite and > 1, got {self.alpha}")
        if not 0 < self.dt < math.inf:
            raise InvalidInput(f"dt must be finite and positive, got {self.dt}")
        if not 0 <= self.t_end < math.inf:
            raise InvalidInput(f"t_end must be finite and >= 0, got {self.t_end}")


def apply_phi(field: SpectralField, alpha: float) -> SpectralField:
    """Apply the dispersive multiplier; the symbol is odd and imaginary, so
    phi(-xi) = conj(phi(xi)) and the half-spectrum determines the result."""
    return field.with_coeffs(field.coeffs * phi_symbol(field.grid.wavenumbers, alpha))


def semigroup(field: SpectralField, t: float, alpha: float) -> SpectralField:
    """Free flow exp(-t*phi(D)): unimodular symbol, every H^s norm is
    exactly preserved."""
    return field.with_coeffs(
        field.coeffs * np.exp(-t * phi_symbol(field.grid.wavenumbers, alpha))
    )


def apply_I(field: SpectralField, weight: GevreyWeight) -> SpectralField:
    """Apply the analytic-weight multiplier (both symbols are real and even
    in xi, so the half-spectrum determines the result)."""
    return field.with_coeffs(field.coeffs * weight.symbol(field.grid.wavenumbers))

