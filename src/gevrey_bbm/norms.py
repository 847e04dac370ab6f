"""Scalar functionals on spectral fields: Sobolev, Gevrey, and energy norms.

All discrete sums run over the stored half-spectrum, count each mode with
its multiplicity and carry the grid's Parseval weight (see spectral module),
so that every norm approximates its continuum counterpart and the analytic
equivalence constants apply unchanged.

Every linear-scale sum is ``_weighted_sums`` (``l2_norm`` is hs_norm at
s = 0).  Gevrey-weighted sums switch to log-magnitude accumulation once
sigma*xi_max exceeds LOG_DOMAIN_CROSSOVER.  ``_log_weighted_sums`` returns
the log of the weighted sum as peak + log(sum(exp(terms - peak))), so no
weight overflows; ``gevrey_norm`` takes exp of half of it and ``energy``
exp of it.  Both paths agree to 1e-10 on overlap cases (tested), so the
crossover is invisible to callers.

The private ``_hs_norms``, ``_gevrey_norms`` and ``_energies`` take raw
arrays and reduce along the last axis, so a stack of half-spectra is one
array pass; ``hs_norm``, ``gevrey_norm`` and ``energy`` are their one-field
cases, and a row of a stack whose rows are contiguous is bit for bit its
single-field value.

``gevrey_norm`` is the one ||I u||_{H^s}, that of the lifespan, the defect bound
and C1.  ``norm_report`` bundles the diagnostics a run reports per sample.
The flow's quadratic invariant is energy(field, 0, alpha), which is
integral(u^2 + u_x^2) dx at alpha = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .multipliers import GevreyWeight, SymbolKind
from .spectral import Grid, SpectralField

LOG_DOMAIN_CROSSOVER = 300.0


def _weighted_sums(grid: Grid, mags: np.ndarray, weights) -> np.ndarray:
    """parseval_weight * sum(multiplicity * weights * mags^2) of moduli
    |coeffs| along the last axis, in linear scale."""
    return grid.parseval_weight * np.sum(grid.multiplicity * weights * mags**2,
                                         axis=-1)


def _log_weighted_sums(grid: Grid, mags: np.ndarray,
                       log_weights: np.ndarray) -> np.ndarray:
    """log(parseval_weight * sum(multiplicity * exp(log_weights) * mags^2))
    of moduli |coeffs| along the last axis, summed after shifting by each
    row's largest term (immune to exp overflow); -inf for a row with no
    nonzero mode.  A zero modulus is a term of -inf, whose exp adds 0."""
    with np.errstate(divide="ignore"):  # log(0) = -inf, not an overflow
        terms = (log_weights + np.log(grid.multiplicity)) + 2.0 * np.log(mags)
        peak = np.max(terms, axis=-1, keepdims=True)
        shifted = np.exp(terms - np.where(peak == -np.inf, 0.0, peak))
        log_sums = peak[..., 0] + np.log(np.sum(shifted, axis=-1))
    return log_sums + np.log(grid.parseval_weight)


def l2_norm(field: SpectralField) -> float:
    """L^2 norm of the physical field, computed spectrally (Parseval)."""
    return hs_norm(field, 0.0)


def _hs_norms(grid: Grid, coeffs: np.ndarray, s: float) -> np.ndarray:
    """hs_norm of each half-spectrum along the last axis of coeffs.

    A row whose sum falls below the smallest normal double (moduli under
    about 1e-154) is summed again with its moduli divided by their largest,
    and its norm is that largest times the root; every other row keeps the
    bits of the plain sum.  So a nonzero field's norm does not underflow to
    0 while the norm itself is in double range."""
    weights = (1.0 + grid.wavenumbers) ** (2.0 * s)
    mags = np.abs(coeffs)
    sums = _weighted_sums(grid, mags, weights)
    low = sums < np.finfo(np.float64).tiny
    if not np.any(low):
        return np.sqrt(sums)
    peak = np.max(mags, axis=-1, keepdims=True)
    scaled = _weighted_sums(grid, mags / np.where(peak > 0.0, peak, 1.0), weights)
    return np.where(low, peak[..., 0] * np.sqrt(scaled), np.sqrt(sums))


def hs_norm(field: SpectralField, s: float) -> float:
    """Sobolev H^s norm with weight (1+|xi|)^{2s}."""
    return float(_hs_norms(field.grid, field.coeffs, s))


def _gevrey_norms(grid: Grid, coeffs: np.ndarray,
                  weight: GevreyWeight) -> np.ndarray:
    """gevrey_norm of each half-spectrum along the last axis of coeffs."""
    xi = grid.wavenumbers
    s = weight.s if weight.kind is SymbolKind.COSH else 0.0
    if weight.sigma * np.max(xi) <= LOG_DOMAIN_CROSSOVER:
        return _hs_norms(grid, coeffs * weight.symbol(xi), s)
    log_w = 2.0 * (weight.log_symbol(xi) + s * np.log1p(xi))
    return np.exp(0.5 * _log_weighted_sums(grid, np.abs(coeffs), log_w))


def gevrey_norm(field: SpectralField, weight: GevreyWeight) -> float:
    """||I u||_{H^s}: sqrt(sum (1+|xi|)^{2s} w(xi)^2 |coeff|^2 * quad weight),
    w = cosh(sigma*xi) or exp(sigma*|xi|).  Below the crossover it is hs_norm
    of apply_I, with s = 0 for the exp symbol (which carries (1+|xi|)^s); past
    it the sum is log-domain, so only a norm past double range overflows.
    """
    return float(_gevrey_norms(field.grid, field.coeffs, weight))


def _energies(grid: Grid, mags: np.ndarray, sigma: float,
              alpha: float) -> np.ndarray:
    """energy of each half-spectrum whose moduli |coeffs| lie along the last
    axis of mags."""
    if not 1 < alpha < math.inf:
        raise InvalidInput(f"alpha must be finite and > 1, got {alpha}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InvalidInput(f"sigma must be finite and >= 0, got {sigma}")
    xi = grid.wavenumbers
    if sigma * np.max(xi) <= LOG_DOMAIN_CROSSOVER:
        return _weighted_sums(grid, mags,
                              (1.0 + xi**alpha) * np.cosh(sigma * xi) ** 2)
    cosh_weight = GevreyWeight(sigma, kind=SymbolKind.COSH)
    log_w = np.log1p(xi**alpha) + 2.0 * cosh_weight.log_symbol(xi)
    return np.exp(_log_weighted_sums(grid, mags, log_w))


def energy(field: SpectralField, sigma: float, alpha: float) -> float:
    """I-weighted energy: sum (1+|xi|^alpha) cosh(sigma*xi)^2 |coeff|^2.

    At sigma = 0: the flow's exact quadratic invariant (H^1 at alpha = 2).
    """
    return float(_energies(field.grid, np.abs(field.coeffs), sigma, alpha))


@dataclass(frozen=True)
class NormReport:
    """The scalar diagnostics of one field that a run reports: L^2, H^1, the
    I-weighted energy at the weight's sigma, and h1_invariant, the flow's
    quadratic invariant energy(field, 0, alpha)."""

    l2: float
    h1: float
    energy: float
    h1_invariant: float


def norm_report(field: SpectralField, weight: GevreyWeight, alpha: float) -> NormReport:
    """NormReport of field; only weight.sigma enters (through the energy)."""
    return NormReport(
        l2=l2_norm(field),
        h1=hs_norm(field, 1.0),
        energy=energy(field, weight.sigma, alpha),
        h1_invariant=energy(field, 0.0, alpha),
    )
