import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevrey_bbm.analytics import random_band_limited_field
from gevrey_bbm.errors import InvalidInput, OverflowRisk
from gevrey_bbm.evolution import gaussian_data
from gevrey_bbm.identities import fractional_bound_exponents
from gevrey_bbm.multipliers import (
    GevreyWeight,
    ModelParams,
    SymbolKind,
    apply_I,
    phi_symbol,
    semigroup,
)
from gevrey_bbm.norms import energy, gevrey_norm, hs_norm, l2_norm
from gevrey_bbm.spectral import Grid, SpectralField, forward_transform, zero_field


class TestPhiSymbol:
    def test_zero_frequency(self):
        assert phi_symbol(0.0, 2.0) == 0.0

    def test_unit_frequency(self):
        assert phi_symbol(1.0, 2.0) == pytest.approx(0.5j)

    def test_odd(self):
        assert phi_symbol(-1.0, 2.0) == pytest.approx(-0.5j)

    def test_alpha_validated(self):
        with pytest.raises(InvalidInput):
            phi_symbol(1.0, 0.5)

    def test_huge_alpha_is_its_limit_without_a_warning(self, grid128):
        # |xi|^alpha overflows to inf above |xi| = 1: phi is 0 there, i*xi
        # below, and no RuntimeWarning escapes
        xi = grid128.wavenumbers
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = phi_symbol(xi, 1e308)
        assert np.array_equal(value, np.where(xi < 1.0, 1j * xi, 0.0))

    def test_bounded_symbol(self, grid128):
        # |xi|/(1+xi^2) <= 1/2 for alpha = 2: the system is never stiff
        assert np.max(np.abs(phi_symbol(grid128.wavenumbers, 2.0))) <= 0.5


class TestApplyPhi:
    def test_zero_field(self, grid64):
        from gevrey_bbm.multipliers import apply_phi
        assert np.all(apply_phi(zero_field(grid64), 2.0).coeffs == 0)

    def test_single_cosine_scaling(self, grid64):
        from gevrey_bbm.multipliers import apply_phi
        from gevrey_bbm.spectral import inverse_transform
        xi1 = 2 * np.pi / 64.0
        samples = np.cos(xi1 * grid64.points)
        out = apply_phi(forward_transform(samples, grid64), 2.0)
        expected = -xi1 / (1 + xi1**2) * np.sin(xi1 * grid64.points)
        np.testing.assert_allclose(inverse_transform(out), expected, atol=1e-12)


class TestSemigroup:
    def test_identity_at_zero_time(self, random_field):
        out = semigroup(random_field, 0.0, 2.0)
        np.testing.assert_array_equal(out.coeffs, random_field.coeffs)

    def test_isometry(self, random_field):
        for s in (0.0, 1.0, 1.5):
            before = hs_norm(random_field, s)
            after = hs_norm(semigroup(random_field, 7.3, 2.0), s)
            assert abs(after - before) <= 1e-13 * before

    def test_group_law(self, random_field):
        one = semigroup(semigroup(random_field, 1.2, 2.0), 3.4, 2.0)
        two = semigroup(random_field, 4.6, 2.0)
        assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-12 * np.max(
            np.abs(random_field.coeffs))


class TestGevreyWeight:
    def test_rejects_negative_sigma(self):
        with pytest.raises(InvalidInput):
            GevreyWeight(-0.1)

    @pytest.mark.parametrize("sigma, s", [(math.nan, 0.0), (math.inf, 0.0),
                                          (0.1, math.nan), (0.1, math.inf),
                                          (0.1, -math.inf)])
    def test_rejects_a_non_finite_sigma_or_s(self, sigma, s):
        # a NaN sigma passed sigma < 0, and its norms came out nan
        with pytest.raises(InvalidInput, match="must be finite"):
            GevreyWeight(sigma, s)

    def test_sigma_zero_cosh_is_identity(self, random_field):
        out = apply_I(random_field, GevreyWeight(0.0))
        np.testing.assert_array_equal(out.coeffs, random_field.coeffs)

    def test_single_mode_scaling(self, grid64):
        xi1 = 2 * np.pi / 64.0
        coeffs = np.zeros(33, dtype=complex)
        coeffs[1] = 1.0  # stands for the pair j = +-1
        out = apply_I(SpectralField(grid64, coeffs), GevreyWeight(1.0))
        assert out.coeffs[1] == pytest.approx(np.cosh(xi1))

    def test_overflow_refused_on_linear_path(self, grid128):
        xi_max = np.max(np.abs(grid128.wavenumbers))
        weight = GevreyWeight(701.0 / xi_max)
        with pytest.raises(OverflowRisk):
            weight.symbol(grid128.wavenumbers)

    def test_log_symbol_matches_log_of_symbol(self, grid128):
        xi = grid128.wavenumbers
        for kind in SymbolKind:
            w = GevreyWeight(0.4, s=1.0, kind=kind)
            np.testing.assert_allclose(w.log_symbol(xi), np.log(w.symbol(xi)),
                                       atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(sigma=st.floats(0.0, 10.0), xi=st.floats(-70.0, 70.0))
    def test_cosh_trap(self, sigma, xi):
        # e^(sigma|xi|)/2 <= cosh(sigma xi) <= e^(sigma|xi|) on all of
        # sigma|xi| <= 700, up to one rounding where e^(-sigma|xi|) is below
        # an ulp and cosh and exp/2 may round apart
        bound = np.exp(sigma * abs(xi))
        value = GevreyWeight(sigma).symbol(xi)
        assert bound / 2.0 * (1.0 - 2.0 * np.finfo(float).eps) <= value <= bound

    def test_equivalence_ratio_in_half_one(self, grid128, rng):
        # cosh(sigma*xi) is trapped between exp(sigma|xi|)/2 and exp(sigma|xi|)
        exp_weight = GevreyWeight(0.1, kind=SymbolKind.EXP)
        cosh_weight = GevreyWeight(0.1, kind=SymbolKind.COSH)
        for _ in range(50):
            u = random_band_limited_field(grid128, rng)
            ratio = l2_norm(apply_I(u, cosh_weight)) / gevrey_norm(u, exp_weight)
            assert 0.5 - 1e-12 <= ratio <= 1.0 + 1e-12


class TestModelParams:
    def test_validation(self, grid64):
        with pytest.raises(InvalidInput):
            ModelParams(1.0, grid64, 1e-3, 1.0)
        with pytest.raises(InvalidInput):
            ModelParams(2.0, grid64, 0.0, 1.0)
        with pytest.raises(InvalidInput):
            ModelParams(2.0, grid64, 1e-3, -1.0)
        for t_end in (np.inf, np.nan):
            with pytest.raises(InvalidInput):
                ModelParams(2.0, grid64, 1e-3, t_end)

    @pytest.mark.parametrize("dt", [np.inf, np.nan])
    def test_non_finite_dt_rejected_by_name(self, grid64, dt):
        with pytest.raises(InvalidInput, match=r"^dt must be finite"):
            ModelParams(2.0, grid64, dt, 1.0)


@pytest.mark.parametrize("entry", [
    lambda alpha: phi_symbol(1.0, alpha),
    lambda alpha: ModelParams(alpha, Grid(64), 1e-2, 1.0),
    lambda alpha: energy(gaussian_data(Grid(64), 0.5, 4.0), 0.1, alpha),
    lambda alpha: fractional_bound_exponents(alpha),
], ids=["phi_symbol", "ModelParams", "energy", "fractional_bound_exponents"])
def test_infinite_alpha_is_refused(entry):
    # each once tested only alpha > 1: ModelParams was built, and stepping
    # or measuring it raised OverflowRisk; energy warned of an invalid value
    with pytest.raises(InvalidInput, match=r"^alpha must be finite and > 1"):
        entry(math.inf)
