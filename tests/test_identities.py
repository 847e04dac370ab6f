import math
from fractions import Fraction

import numpy as np
import pytest

from gevrey_bbm import identities
from gevrey_bbm.errors import InvalidInput, SeriesDivergence
from gevrey_bbm.identities import (
    Triad,
    check_fab_bound,
    factored_form,
    fractional_bound_exponents,
    power_sum,
    psi,
    series_symmetrized,
    series_symmetrized_values,
    verify_factor_identity,
)

T112 = Triad(Fraction(1), Fraction(1), Fraction(-2))


class TestTriad:
    def test_off_hyperplane_rejected(self):
        with pytest.raises(InvalidInput):
            Triad(Fraction(1), Fraction(1), Fraction(1))

    def test_integers_stay_integers(self):
        t = Triad(1, 1, -2)
        assert all(type(x) is int for x in (t.xi1, t.xi2, t.xi3))
        assert type(Triad(1.5, -1, Fraction(-1, 2)).xi1) is Fraction

    def test_accepts_rationals(self):
        t = Triad(Fraction(1, 3), Fraction(1, 6), Fraction(-1, 2))
        assert t.as_floats() == (pytest.approx(1 / 3), pytest.approx(1 / 6),
                                 pytest.approx(-0.5))


class TestPowerSum:
    def test_integer_values(self):
        assert power_sum(T112, 1) == Fraction(-6)   # 1 + 1 - 8
        assert power_sum(T112, 2) == Fraction(-30)  # 1 + 1 - 32

    def test_degenerate_cancels(self):
        t = Triad(Fraction(5), Fraction(-5), Fraction(0))
        for k in (1, 2, 3, 7):
            assert power_sum(t, k) == 0

    def test_k_validated(self):
        with pytest.raises(InvalidInput):
            power_sum(T112, 0)


class TestFactoredForm:
    def test_matches_power_sum_on_examples(self):
        assert factored_form(T112, 1) == Fraction(-6)
        assert factored_form(T112, 2) == Fraction(-30)

    def test_k1_closed_form(self):
        # the factored sum collapses to 3*xi1*xi2*xi3 at k = 1
        for a, b in [(1, 1), (2, -5), (3, 7), (-4, 9)]:
            t = Triad(Fraction(a), Fraction(b), Fraction(-a - b))
            assert factored_form(t, 1) == 3 * t.xi1 * t.xi2 * t.xi3

    def test_k2_closed_form(self):
        # ... and to -5*xi1*xi2*xi3*(xi1*xi2 + xi1*xi3 + xi2*xi3) at k = 2
        for a, b in [(1, 1), (2, -5), (3, 7), (-4, 9)]:
            t = Triad(Fraction(a), Fraction(b), Fraction(-a - b))
            e2 = t.xi1 * t.xi2 + t.xi1 * t.xi3 + t.xi2 * t.xi3
            assert factored_form(t, 2) == -5 * t.xi1 * t.xi2 * t.xi3 * e2

    def test_degenerate_vanishes(self):
        t = Triad(Fraction(5), Fraction(-5), Fraction(0))
        assert factored_form(t, 4) == 0


class TestVerifyFactorIdentity:
    def test_small_exhaustive(self):
        report = verify_factor_identity(1, 3)
        assert report.all_equal and report.max_defect == 0
        assert report.triads_tested > 0

    def test_symbolic_expansion_to_k3(self):
        report = verify_factor_identity(3, 2, symbolic_k_max=3)
        assert report.all_equal

    def test_symbolic_k_max_zero_skips_the_symbolic_check(self, monkeypatch):
        def refuse(k):
            raise AssertionError(f"symbolic check called at k={k}")

        monkeypatch.setattr(identities, "_symbolic_defect", refuse)
        report = verify_factor_identity(3, 2, symbolic_k_max=0)
        assert report.all_equal

    def test_inputs_validated(self):
        with pytest.raises(InvalidInput):
            verify_factor_identity(0, 3)
        with pytest.raises(InvalidInput):
            verify_factor_identity(1, 0)


class TestSeriesSymmetrized:
    def test_sigma_zero_is_empty_series(self):
        assert series_symmetrized(T112, 0.0) == 0.0

    def test_degenerate_triad_vanishes(self):
        t = Triad(Fraction(3), Fraction(-3), Fraction(0))
        assert series_symmetrized(t, 0.7) == pytest.approx(0.0, abs=1e-15)

    def test_small_sigma_leading_coefficient(self):
        # series = (2 sigma)^2/2! * (power sum at k=1) + O(sigma^4),
        # so value/sigma^2 -> 2 * (-6) = -12
        r1 = series_symmetrized(T112, 1e-3) / 1e-6
        r2 = series_symmetrized(T112, 1e-4) / 1e-8
        assert r1 == pytest.approx(-12.0, rel=1e-3)
        assert r2 == pytest.approx(-12.0, rel=1e-5)
        assert r1 / r2 == pytest.approx(1.0, abs=1e-4)

    def test_scalar_and_vectorized_agree(self):
        triads = [(1.0, 1.0, -2.0), (0.5, 2.5, -3.0), (4.0, -1.5, -2.5)]
        for sigma in (0.05, 0.3, 1.0):
            vec = series_symmetrized_values(
                np.array([t[0] for t in triads]),
                np.array([t[1] for t in triads]),
                np.array([t[2] for t in triads]), sigma)
            for value, (a, b, c) in zip(vec, triads):
                t = Triad(Fraction(a), Fraction(b), Fraction(c))
                assert value == pytest.approx(series_symmetrized(t, sigma),
                                              rel=1e-12, abs=1e-300)

    def test_divergence_guard(self):
        t = Triad(Fraction(500), Fraction(500), Fraction(-1000))
        with pytest.raises(SeriesDivergence):
            series_symmetrized(t, 1.0)


class TestPsi:
    def test_degenerate_vanishes(self):
        assert psi(Triad(Fraction(2), Fraction(-2), Fraction(0))) == 0.0

    def test_against_long_summation(self):
        # independent fixed 500-term accumulation in exact rational
        # arithmetic, no early termination
        total = sum(
            Fraction(4**k, math.factorial(2 * k + 1))
            * (1 + 1 + Fraction(2) ** (2 * k))
            for k in range(500)
        )
        expected = 2.0 ** (1.0 / 6.0) * float(total)
        assert psi(T112) == pytest.approx(expected, rel=1e-12)
        assert psi(T112) > 0

    def test_exponential_envelope(self):
        rng = np.random.default_rng(20240823)
        worst = 0.0
        for _ in range(10_000):
            a, b = rng.uniform(-20, 20, 2)
            # build the third coordinate in exact arithmetic: float(-a - b)
            # rounds and would land off the hyperplane
            t = Triad(Fraction(a), Fraction(b), -Fraction(a) - Fraction(b))
            bound = math.exp(abs(a) + abs(b) + abs(a + b))
            worst = max(worst, psi(t) / bound)
        assert math.isfinite(worst)
        assert worst < 10.0


class TestFabBound:
    def test_degenerate_triads_excluded(self):
        cal = check_fab_bound(200, 0.1)
        assert 0 < cal.usable <= cal.samples
        assert math.isfinite(cal.max_ratio)

    def test_ratio_stable_in_sigma(self):
        ratios = [check_fab_bound(2000, s).max_ratio for s in (0.01, 0.1, 0.5)]
        assert max(ratios) / min(ratios) < 3.0

    def test_inputs_validated(self):
        with pytest.raises(InvalidInput):
            check_fab_bound(100, 0.0)
        with pytest.raises(InvalidInput):
            check_fab_bound(0, 0.1)


class TestFractionalExponents:
    def test_alpha_two(self):
        assert fractional_bound_exponents(2.0) == (5.0 / 6.0, 1.5, 2.0 / 3.0)

    def test_knee_is_continuous(self):
        knee = 7.0 / 3.0
        assert fractional_bound_exponents(knee)[1:] == (2.0, 0.5)
        eps0, beta, mu = fractional_bound_exponents(knee - 1e-9)
        assert beta == pytest.approx(2.0, abs=1e-8)
        assert mu == pytest.approx(0.5, abs=1e-8)

    def test_alpha_three(self):
        assert fractional_bound_exponents(3.0) == (1.0, 2.0, 0.5)

    def test_alpha_validated(self):
        with pytest.raises(InvalidInput):
            fractional_bound_exponents(1.0)
