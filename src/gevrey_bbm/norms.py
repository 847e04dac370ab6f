"""Scalar functionals on spectral fields: Sobolev, Gevrey, and energy norms.

All discrete sums run over the stored half-spectrum, count each mode with
its multiplicity and carry the grid's Parseval weight (see spectral module),
so that every norm approximates its continuum counterpart and the analytic
equivalence constants apply unchanged.

Gevrey-weighted sums switch to log-magnitude accumulation once
sigma*xi_max exceeds LOG_DOMAIN_CROSSOVER.  ``_log_weighted_sum`` returns
the log of the weighted sum as peak + log(sum(exp(terms - peak))), so no
weight overflows; ``gevrey_norm`` takes exp of half of it and ``energy``
exp of it.  Both paths agree to 1e-10 on overlap cases (tested), so the
crossover is invisible to callers.

``gevrey_norm`` is the one ||I u||_{H^s}, that of the lifespan, the defect bound
and C1.  ``norm_report`` bundles the diagnostics a run reports per sample.
The flow's quadratic invariant is energy(field, 0, alpha), which is
integral(u^2 + u_x^2) dx at alpha = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .multipliers import GevreyWeight, SymbolKind, apply_I
from .spectral import SpectralField

LOG_DOMAIN_CROSSOVER = 300.0


def _weighted_sqrt_sum(field: SpectralField, weights) -> float:
    """sqrt(parseval_weight * sum(multiplicity * weights * |coeffs|^2)),
    in linear scale."""
    total = np.sum(field.grid.multiplicity * weights * np.abs(field.coeffs) ** 2)
    return float(np.sqrt(field.grid.parseval_weight * total))


def _log_weighted_sum(field: SpectralField, log_weights: np.ndarray) -> float:
    """log(parseval_weight * sum(multiplicity * exp(log_weights) * |coeffs|^2)),
    summed after shifting by the largest term (immune to exp overflow);
    -inf for a field with no nonzero mode."""
    mags = np.abs(field.coeffs)
    mask = mags > 0.0
    if not np.any(mask):
        return -np.inf
    log_weights = log_weights + np.log(field.grid.multiplicity)
    terms = log_weights[mask] + 2.0 * np.log(mags[mask])
    peak = np.max(terms)
    log_sum = peak + np.log(np.sum(np.exp(terms - peak)))
    return float(log_sum + np.log(field.grid.parseval_weight))


def l2_norm(field: SpectralField) -> float:
    """L^2 norm of the physical field, computed spectrally (Parseval)."""
    return _weighted_sqrt_sum(field, 1.0)


def hs_norm(field: SpectralField, s: float) -> float:
    """Sobolev H^s norm with weight (1+|xi|)^{2s}."""
    xi = field.grid.wavenumbers
    return _weighted_sqrt_sum(field, (1.0 + xi) ** (2.0 * s))


def gevrey_norm(field: SpectralField, weight: GevreyWeight) -> float:
    """||I u||_{H^s}: sqrt(sum (1+|xi|)^{2s} w(xi)^2 |coeff|^2 * quad weight),
    w = cosh(sigma*xi) or exp(sigma*|xi|).  Below the crossover it is hs_norm
    of apply_I, with s = 0 for the exp symbol (which carries (1+|xi|)^s); past
    it the sum is log-domain, so only a norm past double range overflows.
    """
    xi = field.grid.wavenumbers
    s = weight.s if weight.kind is SymbolKind.COSH else 0.0
    if weight.sigma * np.max(xi) <= LOG_DOMAIN_CROSSOVER:
        weighted = apply_I(field, weight)
        return hs_norm(weighted, s)
    log_w = 2.0 * (weight.log_symbol(xi) + s * np.log1p(xi))
    return float(np.exp(0.5 * _log_weighted_sum(field, log_w)))


def energy(field: SpectralField, sigma: float, alpha: float) -> float:
    """I-weighted energy: sum (1+|xi|^alpha) cosh(sigma*xi)^2 |coeff|^2.

    At sigma = 0: the flow's exact quadratic invariant (H^1 at alpha = 2).
    """
    if not alpha > 1:
        raise InvalidInput(f"alpha must be > 1, got {alpha}")
    if sigma < 0:
        raise InvalidInput(f"sigma must be >= 0, got {sigma}")
    xi = field.grid.wavenumbers
    if sigma * np.max(xi) <= LOG_DOMAIN_CROSSOVER:
        w = (1.0 + xi**alpha) * np.cosh(sigma * xi) ** 2
        total = np.sum(field.grid.multiplicity * w * np.abs(field.coeffs) ** 2)
        return float(field.grid.parseval_weight * total)
    cosh_weight = GevreyWeight(sigma, kind=SymbolKind.COSH)
    log_w = np.log1p(xi**alpha) + 2.0 * cosh_weight.log_symbol(xi)
    return float(np.exp(_log_weighted_sum(field, log_w)))


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
