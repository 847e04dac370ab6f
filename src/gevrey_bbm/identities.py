"""Exact polynomial machinery on the zero-sum frequency hyperplane.

The odd power sums xi1^(2k+1) + xi2^(2k+1) + xi3^(2k+1) factor through
xi1*xi2*xi3 whenever xi1 + xi2 + xi3 = 0; this module verifies that
factorization exactly, never in floating point: by an exhaustive scan of
integer triads, and for k <= symbolic_k_max by a proof by evaluation at
2k+2 points.  The scan takes one exact array pass per k over all triads,
held as int64 while every intermediate of the step provably fits (k <= 8
at r = 10), then as object arrays of Python ints, and carries each side
over from k-1 once per distinct input: the powers once per coordinate
value, the complete sums h_m(x, -y) once per pair (x, y) in one table that
serves all three pairs of every triad.  Its memory grows as the
3r^2+3r+1 triads of r = coordinate_range; it compares them in blocks of
SCAN_BLOCK.  power_sum and factored_form are the per-k definitions it is
tested against, and the ones the proof evaluates.  Integer triads stay
plain int, so the exhaustive check and the defect it reports are int; a
Triad turns only non-integer input into Fraction.  The weighted series
built from the power sums, sum_k (2 sigma)^{2k}/(2k)! * (power sum), has
the closed form 2 sum_i xi_i sinh(sigma xi_i)^2 (symmetrized_weight), a
sum of one term per coordinate (_coordinate_term), so analytics' triad
route sums it over every triad of a band by one convolution;
check_fab_bounds measures its empirical constant against the sigma^{3/2}
envelope for several sigma on one seeded draw of triads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IdentityViolation, InvalidInput, _overflow_guard

FAB_COORDINATE_RANGE = 20.0  # check_fab_bound samples xi1, xi2 on [-R, R]
SCAN_BLOCK = 4096  # triads compared at once, so the per-k temporaries stay bounded
INT64_MAX = 2**63 - 1


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


def _hyperplane(r: int) -> tuple[np.ndarray, ...]:
    """The integer triads with |xi_i| <= r, xi1 then xi2 ascending, as index
    arrays (i1, i2, i3) into the values -r..r, and the rows (i13, i23) that
    hold their pairs (xi1, xi3) and (xi2, xi3).

    Row t holds the pair (xi1, xi2) of triad t.  The pairs (xi1, xi3) and
    (xi2, xi3) are such pairs too, since |xi1 + xi3| = |xi2| <= r.  A range
    too large to allocate raises MemoryError at the first array, of 2r+1.
    """
    width = 2 * r + 1
    index = np.arange(width)
    least = np.maximum(0, r - index)      # index of the least xi2 beside xi1
    counts = width - np.abs(index - r)    # 2r+1-|xi1| triads per xi1
    starts = np.cumsum(counts) - counts   # row of the first of them

    def row(x, y):
        return starts[x] + y - least[x]

    i1 = np.repeat(index, counts)
    i2 = np.arange(i1.size) - row(i1, 0)
    i3 = 3 * r - i1 - i2
    return i1, i2, i3, row(i1, i3), row(i2, i3)


def _int64_steps(values: np.ndarray, k_max: int) -> int:
    """The number of steps k = 1, 2, ... of _carried_sides that int64
    holds exactly: those with B(k) = 3(2k-1) M^(2k+1) <= INT64_MAX, where
    M = max|value|.  0 unless every value is a Python int.

    B(k) bounds every intermediate of step k: |left| <= 3 M^(2k+1),
    |h_m| <= (m+1) M^m with m = 2k-2, and |products * sum h| <= B(k).
    """
    if not all(type(x) is int for x in values):
        return 0
    m = max((abs(x) for x in values), default=0)
    k = 0
    while k < k_max and 3 * (2 * k + 1) * m ** (2 * k + 3) <= INT64_MAX:
        k += 1
    return k


def _carried_sides(values: np.ndarray, i1, i2, i3, i13, i23, k_max: int):
    """Yield (k, rows, power sums, factored forms) over the triads
    (values[i1], values[i2], values[i3]) for k = 1..k_max, SCAN_BLOCK
    triads (the slice rows) at a time.

    values is an object array of distinct exact numbers.  Row t of the h
    table is the pair (values[i1[t]], values[i2[t]]); i13 and i23 name the
    rows of each triad's pairs (xi1, xi3) and (xi2, xi3).  Each side is
    carried over from k-1, once per distinct input: the powers
    x^(2k+1) = x^(2k-1) x^2 and (-y)^m once per value, the complete sums
    h_m(x, -y) = sum_{i+j=m} x^i (-y)^j by h_m = x h_{m-1} + (-y)^m once per
    pair, two steps per k since m = 2k-2.  The factored form is
    xi1 xi2 xi3 (h_m(xi1, -xi2) + h_m(xi1, -xi3) + h_m(xi2, -xi3)).  Every
    value is exact, never a float: Python int values are carried as int64
    while the bound of _int64_steps fits, and all carried arrays turn into
    object arrays of Python ints at once before the first k past it;
    Fraction values stay in object arrays throughout.
    """
    blocks = [slice(start, start + SCAN_BLOCK)
              for start in range(0, i1.size, SCAN_BLOCK)]
    exact_steps = _int64_steps(values, k_max)
    if exact_steps:
        values = values.astype(np.int64)
    minus, squares = -values, values * values
    powers = values                                    # x^(2k-1)
    signed = np.full(values.size, 1, dtype=values.dtype)  # (-y)^m, m = 0
    h = np.full(i1.size, 1, dtype=values.dtype)        # h_0
    products = np.empty(i1.size, dtype=values.dtype)
    for rows in blocks:
        products[rows] = values[i1[rows]] * values[i2[rows]] * values[i3[rows]]
    for k in range(1, k_max + 1):
        if exact_steps and k == exact_steps + 1:
            values, minus, squares, powers, signed = (
                a.astype(object) for a in (values, minus, squares, powers, signed))
            h = h.astype(object)  # one triad-long int64 copy alive at a time
            products = products.astype(object)
        if k > 1:
            odd = signed * minus                      # (-y)^(m-1)
            signed = odd * minus
            for rows in blocks:
                x, y = values[i1[rows]], i2[rows]
                h[rows] = x * (x * h[rows] + odd[y]) + signed[y]
        powers = powers * squares
        for rows in blocks:
            left = powers[i1[rows]] + powers[i2[rows]] + powers[i3[rows]]
            yield k, rows, left, products[rows] * (
                h[rows] + h[i13[rows]] + h[i23[rows]])


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

    The scan covers all 3r^2+3r+1 integer triads with
    |xi_i| <= r = coordinate_range on the hyperplane for k = 1..k_max, one
    exact array pass per k (_carried_sides); the proof evaluates power_sum
    and factored_form themselves at the 2k+2 triads (t, 1, -t-1),
    t = 0..2k+1.  Both are exact: the scan runs in int64 while its bound
    fits and in Python ints after, never in floats.  Memory grows as r^2:
    the h table of one exact int per triad, the triad products and five
    index arrays; the per-k temporaries are SCAN_BLOCK triads long.  At
    k_max = 20 the scan takes about 1.6 ms at r = 10 (int64 to k = 8;
    2.1 ms in Python ints throughout) and 1.7 s at a 75 MB peak RSS at
    r = 300 (int64 to k = 3) on a 2-core machine.  Raises IdentityViolation
    with the counterexample (triad, k, left, right), its sides Python ints,
    first in the order xi1, then xi2, then k; a range too large to allocate
    raises MemoryError.
    """
    if k_max < 1:
        raise InvalidInput(f"k_max must be >= 1, got {k_max}")
    if coordinate_range < 1:
        raise InvalidInput(f"coordinate_range must be >= 1, got {coordinate_range}")
    if symbolic_k_max < 0:
        raise InvalidInput(f"symbolic_k_max must be >= 0, got {symbolic_k_max}")
    r = coordinate_range
    i1, i2, i3, i13, i23 = _hyperplane(r)
    values = np.arange(-r, r + 1).astype(object)
    first = None  # (row, k, left, right): a later k counts only at an earlier row
    for k, rows, left, right in _carried_sides(values, i1, i2, i3, i13, i23, k_max):
        bad = np.flatnonzero(left != right)
        if bad.size and (first is None or rows.start + bad[0] < first[0]):
            first = (rows.start + int(bad[0]), k, int(left[bad[0]]),
                     int(right[bad[0]]))
    if first is not None:
        row, k, left, right = first
        triad = Triad(*(values[index[row]] for index in (i1, i2, i3)))
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
    return IdentityReport(triads_tested=int(i1.size), all_equal=True, max_defect=0)


def _coordinate_term(x, sigma: float):
    """x sinh(sigma x)^2: the closed form's term of one coordinate."""
    return x * np.sinh(sigma * x) ** 2


def symmetrized_weight(x1, x2, x3, sigma: float) -> np.ndarray:
    """Closed form of the symmetrized weight series at triads (x1, x2, x3).

    sum_{k>=1} (2 sigma)^{2k} / (2k)! * (x1^{2k+1} + x2^{2k+1} + x3^{2k+1})
    = sum_i x_i (cosh(2 sigma x_i) - 1) = 2 sum_i x_i sinh(sigma x_i)^2,
    one _coordinate_term per coordinate.  Raises OverflowRisk rather than
    return inf or NaN.
    """
    with _overflow_guard("sinh(sigma*xi)^2"):
        return 2.0 * (_coordinate_term(x1, sigma) + _coordinate_term(x2, sigma)
                      + _coordinate_term(x3, sigma))


@dataclass(frozen=True)
class FabBoundCalibration:
    """Empirical constant for the sigma^{3/2} series bound."""

    usable: int
    max_ratio: float


def _refuse_sigma(sigma: float) -> None:
    if not sigma > 0:
        raise InvalidInput(f"sigma must be positive, got {sigma}")


def check_fab_bounds(samples: int, sigmas, seed: int = 20240823
                     ) -> list[FabBoundCalibration]:
    """check_fab_bound at each sigma in order, on one seeded draw: the
    results == [check_fab_bound(samples, sigma, seed) for sigma in sigmas].

    The draw, the usable triads' coordinates and the two sigma-free factors
    |xi1 xi2 xi3|^{5/6} and sum|xi| are computed once; each sigma computes
    only its series, its envelope and their largest ratio.  Each sigma
    raises, in list order, what its check_fab_bound call raises.
    """
    if not sigmas:
        return []
    _refuse_sigma(sigmas[0])
    if samples < 1:
        raise InvalidInput(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-FAB_COORDINATE_RANGE, FAB_COORDINATE_RANGE, samples)
    x2 = rng.uniform(-FAB_COORDINATE_RANGE, FAB_COORDINATE_RANGE, samples)
    x3 = -x1 - x2
    product = np.abs(x1 * x2 * x3)
    usable = product > 0
    x1, x2, x3 = x1[usable], x2[usable], x3[usable]
    scale = product[usable] ** (5.0 / 6.0)
    total = np.abs(x1) + np.abs(x2) + np.abs(x3)
    del product, usable
    results = []
    for sigma in sigmas:
        _refuse_sigma(sigma)
        series = symmetrized_weight(x1, x2, x3, sigma)
        if np.any(np.abs(series) < np.finfo(np.float64).tiny):
            raise InvalidInput(f"sigma = {sigma}: the series underflows")
        with _overflow_guard("exp(sigma*sum|xi|) or the series/envelope ratio"):
            envelope = sigma**1.5 * scale * np.exp(sigma * total)
            if not np.all(envelope > 0):
                raise InvalidInput(f"sigma = {sigma}: the envelope underflows to 0")
            ratios = np.abs(series) / envelope
        max_ratio = float(np.max(ratios)) if ratios.size else 0.0
        results.append(FabBoundCalibration(usable=x1.size, max_ratio=max_ratio))
    return results


def check_fab_bound(samples: int, sigma: float,
                    seed: int = 20240823) -> FabBoundCalibration:
    """Measure max |series| / (sigma^{3/2} |xi1 xi2 xi3|^{5/6} e^{sigma*sum|xi|}).

    The series is the symmetrized weight, in closed form.  Samples xi1, xi2
    uniform on [-R, R] (R = FAB_COORDINATE_RANGE) with xi3 = -xi1-xi2
    (seeded); degenerate triads with a zero coordinate are 0/0 on both sides
    and are excluded from the ratio statistics.  Raises OverflowRisk if the
    series, the envelope or their ratio overflows, and InvalidInput when the
    series of a usable triad underflows below the smallest normal double (a
    sigma below about 1e-150) or the envelope underflows to 0.  The one-sigma
    case of check_fab_bounds, which measures several sigma on one draw.
    """
    (calibration,) = check_fab_bounds(samples, [sigma], seed)
    return calibration


def fractional_bound_exponents(alpha: float) -> tuple[float, float, float]:
    """(epsilon0, beta, mu) for dispersion order alpha.

    epsilon0 = min(alpha/2 - 1/6, 1);
    beta = 3(alpha-1)/2 below the knee alpha = 7/3, else 2;
    mu = 1/beta, i.e. 2/(3(alpha-1)) below the knee, else 1/2.
    """
    if not 1 < alpha < math.inf:
        raise InvalidInput(f"alpha must be finite and > 1, got {alpha}")
    epsilon0 = min(alpha / 2.0 - 1.0 / 6.0, 1.0)
    if alpha < 7.0 / 3.0:
        beta = 1.5 * (alpha - 1.0)
        mu = 2.0 / (3.0 * (alpha - 1.0))
    else:
        beta = 2.0
        mu = 0.5
    return epsilon0, beta, mu
