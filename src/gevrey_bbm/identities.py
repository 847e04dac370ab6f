"""Exact polynomial machinery on the zero-sum frequency hyperplane.

The odd power sums xi1^(2k+1) + xi2^(2k+1) + xi3^(2k+1) factor through
xi1*xi2*xi3 whenever xi1 + xi2 + xi3 = 0; this module verifies that
factorization exactly (big-integer arithmetic plus a symbolic expansion,
never floating point) and evaluates the weighted series built from it,
together with the Psi majorant and its empirical constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy

from .errors import IdentityViolation, InvalidInput, SeriesDivergence

SERIES_K_MAX = 200
SERIES_TAIL_REL = 1e-12


@dataclass(frozen=True)
class Triad:
    """Three exact frequencies (int kept, else Fraction) summing to 0."""

    xi1: int | Fraction
    xi2: int | Fraction
    xi3: int | Fraction

    def __post_init__(self):
        for name in ("xi1", "xi2", "xi3"):
            if not isinstance(getattr(self, name), int):
                object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.xi1 + self.xi2 + self.xi3 != 0:
            raise InvalidInput(
                f"triad {self.xi1, self.xi2, self.xi3} is not on the hyperplane"
            )

    def as_floats(self) -> tuple[float, float, float]:
        return float(self.xi1), float(self.xi2), float(self.xi3)


@dataclass(frozen=True)
class IdentityReport:
    k_max: int
    triads_tested: int
    all_equal: bool
    max_defect: Fraction


def power_sum(t: Triad, k: int) -> int | Fraction:
    """xi1^(2k+1) + xi2^(2k+1) + xi3^(2k+1), exactly."""
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    p = 2 * k + 1
    return t.xi1**p + t.xi2**p + t.xi3**p


def factored_form(t: Triad, k: int) -> int | Fraction:
    """xi1*xi2*xi3 * sum_{i+j=2k-2} (xi1^i(-xi2)^j + xi1^i(-xi3)^j + xi2^i(-xi3)^j)."""
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    x1, x2, x3 = t.xi1, t.xi2, t.xi3
    total = 0
    for i in range(2 * k - 1):
        j = 2 * k - 2 - i
        total += x1**i * (-x2) ** j + x1**i * (-x3) ** j + x2**i * (-x3) ** j
    return x1 * x2 * x3 * total


def _symbolic_defect(k: int) -> list:
    """Coefficient list of (power sum - factored form) after xi3 = -xi1-xi2.

    Empty iff the identity holds as a polynomial identity in two variables.
    """
    x1, x2 = sympy.symbols("x1 x2")
    x3 = -x1 - x2
    p = 2 * k + 1
    left = x1**p + x2**p + x3**p
    right = x1 * x2 * x3 * sum(
        x1**i * (-x2) ** (2 * k - 2 - i)
        + x1**i * (-x3) ** (2 * k - 2 - i)
        + x2**i * (-x3) ** (2 * k - 2 - i)
        for i in range(2 * k - 1)
    )
    diff = sympy.Poly(sympy.expand(left - right), x1, x2)
    return diff.coeffs() if not diff.is_zero else []


def verify_factor_identity(k_max: int, coordinate_range: int,
                           symbolic_k_max: int | None = None) -> IdentityReport:
    """Exhaustively check power_sum == factored_form on integer triads.

    Covers all integer triads with |xi_i| <= coordinate_range on the
    hyperplane for k = 1..k_max, in exact arithmetic, and additionally
    checks the two-variable symbolic expansion for k = 1..symbolic_k_max
    (default min(k_max, 6); 0 skips it).  Raises IdentityViolation.
    """
    if k_max < 1:
        raise InvalidInput(f"k_max must be >= 1, got {k_max}")
    if coordinate_range < 1:
        raise InvalidInput(f"coordinate_range must be >= 1, got {coordinate_range}")
    tested = 0
    r = coordinate_range
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            c = -a - b
            if abs(c) > r:
                continue
            triad = Triad(a, b, c)
            tested += 1
            for k in range(1, k_max + 1):
                left = power_sum(triad, k)
                right = factored_form(triad, k)
                if left != right:
                    raise IdentityViolation(
                        f"mismatch at triad {(a, b, c)}, k={k}: {left} != {right}",
                        counterexample=(triad, k, left, right),
                    )
    if symbolic_k_max is None:
        symbolic_k_max = min(k_max, 6)
    for k in range(1, symbolic_k_max + 1):
        residual = _symbolic_defect(k)
        if residual:
            raise IdentityViolation(
                f"symbolic expansion differs at k={k}: residual coeffs {residual}",
                counterexample=(k, residual),
            )
    return IdentityReport(k_max=k_max, triads_tested=tested,
                          all_equal=True, max_defect=Fraction(0))


def series_symmetrized(t: Triad, sigma: float, k_cut: int = 20) -> float:
    """sum_{k>=1} (2 sigma)^{2k} / (2k)! * (xi1^{2k+1}+xi2^{2k+1}+xi3^{2k+1}).

    k_cut is raised automatically until the factorial tail is below
    SERIES_TAIL_REL relative to the partial sum (or absolutely negligible);
    raises SeriesDivergence if no decay is reached by k = 200, signalling
    that sigma*|xi| is too large for direct summation.
    """
    if sigma < 0:
        raise InvalidInput(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return 0.0
    x1, x2, x3 = t.as_floats()
    total = 0.0
    last_term = math.inf
    coeff = 1.0  # (2 sigma)^{2k} / (2k)!, built up iteratively
    for k in range(1, SERIES_K_MAX + 1):
        p = 2 * k + 1
        coeff *= (2.0 * sigma) ** 2 / ((2 * k - 1) * (2 * k))
        try:
            term = coeff * (x1**p + x2**p + x3**p)
        except OverflowError:
            raise SeriesDivergence(
                f"series term overflowed at k={k}: sigma*|xi| too large"
            ) from None
        total += term
        decayed = abs(term) <= last_term
        last_term = abs(term)
        # geometric tail: once terms decay, the rest is < 2x the next term
        if k >= k_cut and decayed and (
            abs(term) <= SERIES_TAIL_REL * max(abs(total), 1e-300)
            or abs(term) < 1e-300
        ):
            return total
    raise SeriesDivergence(
        f"series terms did not decay below tolerance by k={SERIES_K_MAX}"
    )


def series_symmetrized_values(x1, x2, x3, sigma: float,
                              k_max: int = SERIES_K_MAX) -> np.ndarray:
    """Vectorized series_symmetrized over arrays of hyperplane triads."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    x3 = np.asarray(x3, dtype=np.float64)
    total = np.zeros(np.broadcast(x1, x2, x3).shape)
    coeff = 1.0
    with np.errstate(over="raise"):
        try:
            for k in range(1, k_max + 1):
                p = 2 * k + 1
                coeff *= (2.0 * sigma) ** 2 / ((2 * k - 1) * (2 * k))
                term = coeff * (x1**p + x2**p + x3**p)
                total += term
                if np.max(np.abs(term)) <= SERIES_TAIL_REL * max(
                        np.max(np.abs(total)), 1e-300):
                    return total
        except FloatingPointError:
            raise SeriesDivergence(
                f"series term overflowed at k={k}: sigma*|xi| too large"
            ) from None
    raise SeriesDivergence(
        f"vectorized series did not converge by k={k_max}"
    )


def psi(t: Triad) -> float:
    """Psi(xi1,xi2,xi3) = sum_k 2^{2k}/(2k+1)! |xi1 xi2 xi3|^{1/6} (xi1^{2k}+xi2^{2k}+xi3^{2k}).

    Factorially convergent for every triad.
    """
    x1, x2, x3 = t.as_floats()
    prefactor = abs(x1 * x2 * x3) ** (1.0 / 6.0)
    if prefactor == 0.0:
        return 0.0
    total = 0.0
    coeff = 1.0  # 4^k / (2k+1)!, built up iteratively
    for k in range(SERIES_K_MAX + 1):
        if k > 0:
            coeff *= 4.0 / ((2 * k) * (2 * k + 1))
        term = coeff * (x1 ** (2 * k) + x2 ** (2 * k) + x3 ** (2 * k))
        total += term
        if k > 0 and term <= SERIES_TAIL_REL * total:
            break
    return prefactor * total


@dataclass(frozen=True)
class FabBoundCalibration:
    """Empirical constant for the sigma^{3/2} series bound."""

    sigma: float
    samples: int
    usable: int
    max_ratio: float
    seed: int


def check_fab_bound(samples: int, sigma: float, coordinate_range: float = 20.0,
                    seed: int = 20240823) -> FabBoundCalibration:
    """Measure max |series| / (sigma^{3/2} |xi1 xi2 xi3|^{5/6} e^{sigma*sum|xi|}).

    Samples xi1, xi2 uniform on [-R, R] with xi3 = -xi1-xi2 (seeded);
    degenerate triads with a zero coordinate are 0/0 on both sides and are
    excluded from the ratio statistics.
    """
    if not sigma > 0:
        raise InvalidInput(f"sigma must be positive, got {sigma}")
    if samples < 1:
        raise InvalidInput(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-coordinate_range, coordinate_range, samples)
    x2 = rng.uniform(-coordinate_range, coordinate_range, samples)
    x3 = -x1 - x2
    product = np.abs(x1 * x2 * x3)
    usable = product > 0
    series = series_symmetrized_values(x1[usable], x2[usable], x3[usable], sigma)
    envelope = (
        sigma**1.5
        * product[usable] ** (5.0 / 6.0)
        * np.exp(sigma * (np.abs(x1) + np.abs(x2) + np.abs(x3))[usable])
    )
    ratios = np.abs(series) / envelope
    max_ratio = float(np.max(ratios)) if ratios.size else 0.0
    if not math.isfinite(max_ratio):
        raise IdentityViolation("series/envelope ratio is not finite")
    return FabBoundCalibration(sigma=sigma, samples=samples,
                               usable=int(np.sum(usable)),
                               max_ratio=max_ratio, seed=seed)


def fractional_bound_exponents(alpha: float) -> tuple[float, float, float]:
    """(epsilon0, beta, mu) for dispersion order alpha.

    epsilon0 = min(alpha/2 - 1/6, 1);
    beta = 3(alpha-1)/2 below the knee alpha = 7/3, else 2;
    mu = 1/beta, i.e. 2/(3(alpha-1)) below the knee, else 1/2.
    """
    if not alpha > 1:
        raise InvalidInput(f"alpha must be > 1, got {alpha}")
    epsilon0 = min(alpha / 2.0 - 1.0 / 6.0, 1.0)
    if alpha < 7.0 / 3.0:
        beta = 1.5 * (alpha - 1.0)
        mu = 2.0 / (3.0 * (alpha - 1.0))
    else:
        beta = 2.0
        mu = 0.5
    return epsilon0, beta, mu
