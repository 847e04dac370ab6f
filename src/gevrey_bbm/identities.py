"""Exact polynomial machinery on the zero-sum frequency hyperplane.

The odd power sums xi1^(2k+1) + xi2^(2k+1) + xi3^(2k+1) factor through
xi1*xi2*xi3 whenever xi1 + xi2 + xi3 = 0; this module verifies that
factorization exactly, never in floating point: by an exhaustive scan of
integer triads, and for k <= symbolic_k_max by a proof by evaluation at
2k+2 points.  The scan takes one pass per triad over k = 1..k_max and
carries each side over from k-1; power_sum and factored_form are the per-k
definitions it is tested against, and the ones the proof evaluates.  Integer
triads stay plain int, so the exhaustive check and the defect it reports are
int; a Triad turns only non-integer input into Fraction.  The weighted
series built from the power sums, sum_k (2 sigma)^{2k}/(2k)! * (power sum),
has the closed form 2 sum_i xi_i sinh(sigma xi_i)^2 (symmetrized_weight);
check_fab_bound measures its empirical constant against the sigma^{3/2}
envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IdentityViolation, InvalidInput, _overflow_guard

FAB_COORDINATE_RANGE = 20.0  # check_fab_bound samples xi1, xi2 on [-R, R]


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


@dataclass(frozen=True)
class IdentityReport:
    triads_tested: int
    all_equal: bool
    max_defect: int


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


def _carried_sides(t: Triad, k_max: int):
    """Yield (k, power_sum(t, k), factored_form(t, k)) for k = 1..k_max.

    Each side is carried over from k-1 rather than rebuilt: the powers by
    x^(2k+1) = x^(2k-1) x^2, and the factored form's complete sums
    h_m(a, b) = sum_{i+j=m} a^i b^j by h_m = a h_{m-1} + b^m, two steps per k
    since m = 2k-2.  The factored form is xi1 xi2 xi3 times
    h_m(xi1, -xi2) + h_m(xi1, -xi3) + h_m(xi2, -xi3).
    """
    x1, x2, x3 = t.xi1, t.xi2, t.xi3
    s1, s2, s3 = x1 * x1, x2 * x2, x3 * x3
    p1, p2, p3 = x1, x2, x3          # xi^(2k-1)
    product = x1 * x2 * x3
    b2 = b3 = h12 = h13 = h23 = 1    # (-xi2)^m, (-xi3)^m and the h_m at m = 0
    for k in range(1, k_max + 1):
        if k > 1:
            for _ in range(2):
                b2 *= -x2
                b3 *= -x3
                h12 = x1 * h12 + b2
                h13 = x1 * h13 + b3
                h23 = x2 * h23 + b3
        p1, p2, p3 = p1 * s1, p2 * s2, p3 * s3
        yield k, p1 + p2 + p3, product * (h12 + h13 + h23)


def _violation(triad: Triad, k: int, left, right) -> IdentityViolation:
    return IdentityViolation(
        f"mismatch at triad {(triad.xi1, triad.xi2, triad.xi3)}, k={k}: "
        f"{left} != {right}",
        counterexample=(triad, k, left, right),
    )


def verify_factor_identity(k_max: int, coordinate_range: int,
                           symbolic_k_max: int) -> IdentityReport:
    """Exhaustively check power_sum == factored_form on integer triads, and
    prove it for k = 1..symbolic_k_max (0 skips the proof).

    The scan covers all integer triads with |xi_i| <= coordinate_range on
    the hyperplane for k = 1..k_max through the carried pass; the proof
    evaluates power_sum and factored_form themselves at the 2k+2 triads
    (t, 1, -t-1), t = 0..2k+1.  Both are exact.  Raises IdentityViolation
    with the counterexample (triad, k, left, right).
    """
    if k_max < 1:
        raise InvalidInput(f"k_max must be >= 1, got {k_max}")
    if coordinate_range < 1:
        raise InvalidInput(f"coordinate_range must be >= 1, got {coordinate_range}")
    if symbolic_k_max < 0:
        raise InvalidInput(f"symbolic_k_max must be >= 0, got {symbolic_k_max}")
    tested = 0
    r = coordinate_range
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            c = -a - b
            if abs(c) > r:
                continue
            triad = Triad(a, b, c)
            tested += 1
            for k, left, right in _carried_sides(triad, k_max):
                if left != right:
                    raise _violation(triad, k, left, right)
    # With xi3 = -xi1-xi2, power_sum - factored_form is a homogeneous
    # polynomial of degree d = 2k+1 in (xi1, xi2), so its value at (t, 1) is
    # a polynomial in t of degree <= d with the same coefficients.  Zero at
    # the d+1 points t = 0..2k+1, it is zero: the identity holds at that k.
    for k in range(1, symbolic_k_max + 1):
        for t in range(2 * k + 2):
            triad = Triad(t, 1, -t - 1)
            left, right = power_sum(triad, k), factored_form(triad, k)
            if left != right:
                raise _violation(triad, k, left, right)
    return IdentityReport(triads_tested=tested, all_equal=True, max_defect=0)


def symmetrized_weight(x1, x2, x3, sigma: float) -> np.ndarray:
    """Closed form of the symmetrized weight series at triads (x1, x2, x3).

    sum_{k>=1} (2 sigma)^{2k} / (2k)! * (x1^{2k+1} + x2^{2k+1} + x3^{2k+1})
    = sum_i x_i (cosh(2 sigma x_i) - 1) = 2 sum_i x_i sinh(sigma x_i)^2.
    Raises OverflowRisk rather than return inf or NaN.
    """
    with _overflow_guard("sinh(sigma*xi)^2"):
        return 2.0 * (x1 * np.sinh(sigma * x1) ** 2
                      + x2 * np.sinh(sigma * x2) ** 2
                      + x3 * np.sinh(sigma * x3) ** 2)


@dataclass(frozen=True)
class FabBoundCalibration:
    """Empirical constant for the sigma^{3/2} series bound."""

    usable: int
    max_ratio: float


def check_fab_bound(samples: int, sigma: float,
                    seed: int = 20240823) -> FabBoundCalibration:
    """Measure max |series| / (sigma^{3/2} |xi1 xi2 xi3|^{5/6} e^{sigma*sum|xi|}).

    The series is the symmetrized weight, in closed form.  Samples xi1, xi2
    uniform on [-R, R] (R = FAB_COORDINATE_RANGE) with xi3 = -xi1-xi2
    (seeded); degenerate triads with a zero coordinate are 0/0 on both sides
    and are excluded from the ratio statistics.  Raises OverflowRisk if the
    series, the envelope or their ratio overflows, and InvalidInput when the
    series of a usable triad underflows below the smallest normal double (a
    sigma below about 1e-150) or the envelope underflows to 0.
    """
    if not sigma > 0:
        raise InvalidInput(f"sigma must be positive, got {sigma}")
    if samples < 1:
        raise InvalidInput(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-FAB_COORDINATE_RANGE, FAB_COORDINATE_RANGE, samples)
    x2 = rng.uniform(-FAB_COORDINATE_RANGE, FAB_COORDINATE_RANGE, samples)
    x3 = -x1 - x2
    product = np.abs(x1 * x2 * x3)
    usable = product > 0
    series = symmetrized_weight(x1[usable], x2[usable], x3[usable], sigma)
    if np.any(np.abs(series) < np.finfo(np.float64).tiny):
        raise InvalidInput(f"sigma = {sigma}: the series underflows")
    with _overflow_guard("exp(sigma*sum|xi|) or the series/envelope ratio"):
        envelope = (
            sigma**1.5
            * product[usable] ** (5.0 / 6.0)
            * np.exp(sigma * (np.abs(x1) + np.abs(x2) + np.abs(x3))[usable])
        )
        if not np.all(envelope > 0):
            raise InvalidInput(f"sigma = {sigma}: the envelope underflows to 0")
        ratios = np.abs(series) / envelope
    max_ratio = float(np.max(ratios)) if ratios.size else 0.0
    return FabBoundCalibration(usable=int(np.sum(usable)), max_ratio=max_ratio)


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
