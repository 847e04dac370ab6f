import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevrey_bbm import identities
from gevrey_bbm.errors import IdentityViolation, InvalidInput
from gevrey_bbm.identities import (
    Triad,
    check_fab_bound,
    factored_form,
    fractional_bound_exponents,
    power_sum,
    symmetrized_weight,
    verify_factor_identity,
)

T112 = Triad(Fraction(1), Fraction(1), Fraction(-2))


def _record_power_sum(monkeypatch):
    """Route identities.power_sum through a recorder of its (triad, k) calls."""
    seen = []

    def recording(t, k):
        seen.append(((t.xi1, t.xi2, t.xi3), k))
        return power_sum(t, k)

    monkeypatch.setattr(identities, "power_sum", recording)
    return seen


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
        assert (t.xi1, t.xi2, t.xi3) == (Fraction(1, 3), Fraction(1, 6),
                                         Fraction(-1, 2))


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
        report = verify_factor_identity(1, 3, 1)
        assert report.all_equal and report.max_defect == 0
        assert type(report.max_defect) is int
        assert report.triads_tested > 0

    def test_the_proof_finds_a_planted_error(self, monkeypatch):
        # prod_{s=0..2k} (xi1 - s xi2) is homogeneous of the sides' degree
        # 2k+1 and vanishes at (t, 1) for t = 0..2k: of the 2k+2 points
        # t = 0..2k+1, only the last one sees it, where it is (2k+1)!
        k = 3
        factored = identities.factored_form

        def planted(t, j):
            extra = math.prod(t.xi1 - s * t.xi2 for s in range(2 * k + 1))
            return factored(t, j) + (extra if j == k else 0)

        monkeypatch.setattr(identities, "factored_form", planted)
        with pytest.raises(IdentityViolation) as caught:
            verify_factor_identity(1, 1, symbolic_k_max=k + 1)
        t = Triad(2 * k + 1, 1, -2 * k - 2)
        assert caught.value.counterexample == (
            t, k, power_sum(t, k), factored(t, k) + math.factorial(2 * k + 1))

    def test_the_scan_stops_at_the_first_planted_error(self, monkeypatch):
        # the scan runs triad by triad with k inside, so (-2, 1, 1) at k = 3
        # comes before (-1, -1, 2) at k = 1, and nothing after it is looked at
        carried = identities._carried_sides
        planted = {((-1, -1, 2), 1), ((-2, 1, 1), 3)}
        seen = []

        def corrupted(t, k_max):
            for k, left, right in carried(t, k_max):
                seen.append(((t.xi1, t.xi2, t.xi3), k))
                yield k, left, right + (seen[-1] in planted)

        monkeypatch.setattr(identities, "_carried_sides", corrupted)
        with pytest.raises(IdentityViolation) as caught:
            verify_factor_identity(3, 2, symbolic_k_max=0)
        t = Triad(-2, 1, 1)
        assert caught.value.counterexample == (
            t, 3, power_sum(t, 3), factored_form(t, 3) + 1)
        assert seen[-1] == ((-2, 1, 1), 3)
        assert ((-1, -1, 2), 1) not in seen

    def test_symbolic_expansion_to_k3(self, monkeypatch):
        # the scan never calls power_sum, the proof calls it once per point:
        # (t, 1, -t-1) for t = 0..2k+1 at each k = 1..symbolic_k_max
        seen = _record_power_sum(monkeypatch)
        report = verify_factor_identity(3, 2, symbolic_k_max=3)
        assert report.all_equal
        assert seen == [((t, 1, -t - 1), k)
                        for k in range(1, 4) for t in range(2 * k + 2)]

    def test_symbolic_k_max_zero_skips_the_symbolic_check(self, monkeypatch):
        seen = _record_power_sum(monkeypatch)
        report = verify_factor_identity(3, 2, symbolic_k_max=0)
        assert report.all_equal
        assert seen == []

    def test_inputs_validated(self):
        with pytest.raises(InvalidInput):
            verify_factor_identity(0, 3, 1)
        with pytest.raises(InvalidInput):
            verify_factor_identity(1, 0, 1)
        with pytest.raises(InvalidInput):
            verify_factor_identity(1, 2, symbolic_k_max=-3)


class TestCarriedSides:
    @settings(max_examples=100, deadline=None)
    @given(a=st.fractions(-20, 20, max_denominator=60),
           b=st.fractions(-20, 20, max_denominator=60))
    def test_matches_the_definitions_on_rational_triads(self, a, b):
        # neither the integer scan nor the proof reaches a non-integer
        # triad; the carried pass must hold there too
        t = Triad(a, b, -a - b)
        sides = list(identities._carried_sides(t, 12))
        assert [k for k, _, _ in sides] == list(range(1, 13))
        for k, left, right in sides:
            assert left == power_sum(t, k) and right == factored_form(t, k)
            assert left == right


class TestSeriesSymmetrized:
    """The symmetrized weight series, through its closed form."""

    def test_sigma_zero_is_empty_series(self):
        assert symmetrized_weight(1.0, 1.0, -2.0, 0.0) == 0.0

    def test_degenerate_triad_vanishes(self):
        assert symmetrized_weight(3.0, -3.0, 0.0, 0.7) == pytest.approx(
            0.0, abs=1e-15)

    def test_small_sigma_leading_coefficient(self):
        # series = (2 sigma)^2/2! * (power sum at k=1) + O(sigma^4),
        # so value/sigma^2 -> 2 * power_sum(T112, 1) = -12
        leading = 2 * float(power_sum(T112, 1))
        r1 = symmetrized_weight(1.0, 1.0, -2.0, 1e-3) / 1e-6
        r2 = symmetrized_weight(1.0, 1.0, -2.0, 1e-4) / 1e-8
        assert r1 == pytest.approx(leading, rel=1e-3)
        assert r2 == pytest.approx(leading, rel=1e-5)
        assert r1 / r2 == pytest.approx(1.0, abs=1e-4)


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
        with pytest.raises(InvalidInput):  # the envelope underflows: 0/0 ratios
            check_fab_bound(100, 1e-308)

    @pytest.mark.parametrize("sigma", [1e-160, 1e-200])
    def test_an_underflowing_series_is_refused(self, sigma):
        # the envelope stays positive but sinh(sigma xi)^2 does not: the
        # ratio once read 0.0, a constant that measures nothing
        with pytest.raises(InvalidInput, match="series underflows"):
            check_fab_bound(100, sigma)
        assert check_fab_bound(100, 1e-150).max_ratio > 0


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
