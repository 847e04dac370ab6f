import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevrey_bbm import identities
from gevrey_bbm.errors import IdentityViolation, InvalidInput, OverflowRisk
from gevrey_bbm.identities import (
    Triad,
    check_fab_bound,
    check_fab_bounds,
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
        for r in range(1, 13):
            report = verify_factor_identity(1, r, 0)
            assert report.triads_tested == 3 * r * r + 3 * r + 1

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
        # the scan runs k by k over all triads, so (-1, -1, 2) fails at k = 1
        # before (-2, 1, 1) fails at k = 3; the report is still the first
        # failing triad in xi1-then-xi2 order, here rows 1 and 3 of the scan
        # in two blocks of two
        monkeypatch.setattr(identities, "SCAN_BLOCK", 2)
        carried = identities._carried_sides
        planted = {((-1, -1, 2), 1), ((-2, 1, 1), 3)}
        failed = []

        def corrupted(values, i1, i2, i3, i13, i23, k_max):
            for k, rows, left, right in carried(values, i1, i2, i3, i13, i23,
                                                k_max):
                triads = list(zip(values[i1[rows]], values[i2[rows]],
                                  values[i3[rows]]))
                failed.extend((t, k) for t in triads if (t, k) in planted)
                hits = [int((t, k) in planted) for t in triads]
                yield k, rows, left, right + np.array(hits, dtype=object)

        monkeypatch.setattr(identities, "_carried_sides", corrupted)
        with pytest.raises(IdentityViolation) as caught:
            verify_factor_identity(3, 2, symbolic_k_max=0)
        t = Triad(-2, 1, 1)
        assert caught.value.counterexample == (
            t, 3, power_sum(t, 3), factored_form(t, 3) + 1)
        assert failed == [((-1, -1, 2), 1), ((-2, 1, 1), 3)]

    def test_the_scan_builds_no_triad_per_point(self, monkeypatch):
        # a loop over the 331 triads would build one Triad each
        built = []

        class Counted(Triad):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(identities, "Triad", Counted)
        assert verify_factor_identity(20, 10, 0).all_equal
        assert built == []

    def test_a_counterexample_holds_python_ints(self, monkeypatch):
        # at r = 2 every side is int64; the report turns them into int
        carried = identities._carried_sides

        def corrupted(*args):
            for k, rows, left, right in carried(*args):
                assert right.dtype == np.int64
                yield k, rows, left, right + 1

        monkeypatch.setattr(identities, "_carried_sides", corrupted)
        with pytest.raises(IdentityViolation) as caught:
            verify_factor_identity(1, 2, symbolic_k_max=0)
        triad, k, left, right = caught.value.counterexample
        assert (triad, k, left, right) == (Triad(-2, 0, 2), 1, 0, 1)
        assert type(left) is int and type(right) is int

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


def _scanned(values, i1, i2, i3, i13, i23, k_max):
    """Every (triad, k, left, right) the carried pass yields, in its order."""
    return [((values[i1[t]], values[i2[t]], values[i3[t]]), k, left[j], right[j])
            for k, rows, left, right
            in identities._carried_sides(values, i1, i2, i3, i13, i23, k_max)
            for j, t in enumerate(range(*rows.indices(i1.size)))]


class TestCarriedSides:
    @pytest.mark.parametrize("block", [5, identities.SCAN_BLOCK])
    def test_matches_the_definitions_on_every_small_integer_triad(
            self, block, monkeypatch):
        # in blocks of 5, a triad's pairs (xi1, xi3) and (xi2, xi3) mostly
        # lie in other blocks than its own
        monkeypatch.setattr(identities, "SCAN_BLOCK", block)
        for r in range(1, 4):
            values = np.arange(-r, r + 1).astype(object)
            sides = _scanned(values, *identities._hyperplane(r), 12)
            triads = [(a, b, -a - b) for a in range(-r, r + 1)
                      for b in range(-r, r + 1) if abs(a + b) <= r]
            assert [(t, k) for t, k, _, _ in sides] == [
                (t, k) for k in range(1, 13) for t in triads]
            for t, k, left, right in sides:
                triad = Triad(*t)
                assert (left, right) == (power_sum(triad, k),
                                         factored_form(triad, k))

    def test_int64_exactly_while_the_bound_fits(self):
        # at r = 10, B(k) = 3(2k-1) 10^(2k+1) <= 2^63-1 for k <= 8 only: a
        # k = 9 in int64 wraps (10^19 > 2^63-1), so one step of promotion
        # too late breaks the sides, and one too early only costs time
        r = 10
        values = np.arange(-r, r + 1).astype(object)
        tables = identities._hyperplane(r)
        assert identities._int64_steps(values, 20) == 8
        triads = [(a, b, -a - b) for a in range(-r, r + 1)
                  for b in range(-r, r + 1) if abs(a + b) <= r]
        assert len(triads) == 331
        ks = []
        for k, rows, left, right in identities._carried_sides(values, *tables, 20):
            ks.append(k)
            assert rows == slice(0, identities.SCAN_BLOCK)
            if k <= 8:
                assert left.dtype == right.dtype == np.int64
            else:
                assert left.dtype == right.dtype == object
                assert all(type(x) is int for x in (*left, *right))
            for t, lk, rk in zip(triads, left, right, strict=True):
                triad = Triad(*t)
                assert lk == power_sum(triad, k) and rk == factored_form(triad, k)
        assert ks == list(range(1, 21))

    def test_the_int64_steps_are_those_whose_bound_fits(self):
        top = round((identities.INT64_MAX / 3) ** (1 / 3))
        while 3 * top**3 > identities.INT64_MAX:
            top -= 1
        while 3 * (top + 1) ** 3 <= identities.INT64_MAX:
            top += 1
        for m, steps in [(top, 1), (top + 1, 0), (10, 5), (1, 5), (0, 5)]:
            values = np.array(sorted({-m, 0, m}), dtype=object)
            assert identities._int64_steps(values, 5) == steps

    def test_fraction_values_stay_object(self):
        # an integer-valued Fraction is not an int: no int64 step
        values = np.array([Fraction(x) for x in range(-2, 3)], dtype=object)
        assert identities._int64_steps(values, 12) == 0
        for k, rows, left, right in identities._carried_sides(
                values, *identities._hyperplane(2), 12):
            assert left.dtype == right.dtype == object
            assert all(type(x) is Fraction for x in (*left, *right))
            assert list(left) == list(right)

    @settings(max_examples=100, deadline=None)
    @given(a=st.fractions(-20, 20, max_denominator=60),
           b=st.fractions(-20, 20, max_denominator=60))
    def test_matches_the_definitions_on_rational_triads(self, a, b):
        # neither the integer scan nor the proof reaches a non-integer
        # triad; the carried pass must hold there too.  The permutations of
        # a triad are closed under its pairs: (xi1, xi3) of one is (xi1, xi2)
        # of another
        triads = sorted(set(itertools.permutations((a, b, -a - b))))
        values = sorted(set(triads[0]))
        index = {x: i for i, x in enumerate(values)}
        row = {(x, y): t for t, (x, y, _) in enumerate(triads)}
        arrays = [np.array([index[t[i]] for t in triads]) for i in range(3)]
        arrays += [np.array([row[t[i], t[2]] for t in triads]) for i in (0, 1)]
        sides = _scanned(np.array(values, dtype=object), *arrays, 12)
        assert [k for _, k, _, _ in sides] == [
            k for k in range(1, 13) for _ in triads]
        for t, k, left, right in sides:
            triad = Triad(*t)
            assert left == power_sum(triad, k) and right == factored_form(triad, k)
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
        assert 0 < cal.usable <= 200
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


class TestFabBounds:
    @pytest.mark.parametrize("seed", [0, 7, 20240823])
    def test_equals_the_per_sigma_calls_on_one_draw(self, seed, monkeypatch):
        sigmas = (0.01, 0.1, 0.5)
        expected = [check_fab_bound(2000, sigma, seed) for sigma in sigmas]
        draws = []
        default_rng = np.random.default_rng

        def counted(*args):
            draws.append(args)
            return default_rng(*args)

        monkeypatch.setattr(np.random, "default_rng", counted)
        assert check_fab_bounds(2000, sigmas, seed) == expected
        assert check_fab_bounds(2000, [0.1], seed) == [expected[1]]
        assert draws == [(seed,), (seed,)]

    def test_no_sigma_no_result(self):
        assert check_fab_bounds(100, []) == []

    @pytest.mark.parametrize("sigmas, error, match", [
        ((0.1, 20.0), OverflowRisk, "overflows"),
        ((20.0, -1.0), OverflowRisk, "overflows"),
        ((-1.0, 20.0), InvalidInput, "sigma must be positive"),
        ((0.1, 1e-200), InvalidInput, "series underflows"),
    ])
    def test_each_sigma_raises_in_list_order(self, sigmas, error, match):
        with pytest.raises(error, match=match):
            check_fab_bounds(100, sigmas)

    def test_sigma_refused_before_samples(self):
        with pytest.raises(InvalidInput, match="sigma must be positive"):
            check_fab_bounds(0, [-1.0, 0.1])
        with pytest.raises(InvalidInput, match="samples must be >= 1"):
            check_fab_bounds(0, [0.1, -1.0])


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
