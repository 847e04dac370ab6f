import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevrey_bbm.errors import InvalidInput
from gevrey_bbm.evolution import gaussian_data, lifespan
from gevrey_bbm.multipliers import GevreyWeight, SymbolKind, apply_I
from gevrey_bbm.norms import (
    LOG_DOMAIN_CROSSOVER,
    _hs_norms,
    energy,
    gevrey_norm,
    hs_norm,
    l2_norm,
    norm_report,
)
from gevrey_bbm.spectral import (
    Grid,
    SpectralField,
    forward_transform,
    inverse_transform,
    zero_field,
)


def single_mode(grid, j, amplitude=1.0):
    """The pair of modes +-j, both of the given amplitude."""
    coeffs = np.zeros(grid.n_points // 2 + 1, dtype=complex)
    coeffs[j] = amplitude
    return SpectralField(grid, coeffs)


def full_wavenumbers(grid):
    """xi_j for every mode j = -n/2 .. n/2 - 1, in FFT order."""
    return 2 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)


def gevrey_at(s, kind):
    """gevrey_norm(field, sigma) for the given s and symbol kind."""
    return lambda field, sigma: gevrey_norm(
        field, GevreyWeight(sigma, s, SymbolKind(kind)))


def energy_at(alpha):
    """energy(field, sigma) at the given alpha."""
    return lambda field, sigma: energy(field, sigma, alpha)


CROSSOVER_NORMS = (
    [pytest.param(gevrey_at(s, kind), id=f"{s}-{kind}")
     for s in (0.0, 1.0) for kind in ("cosh", "exp")]
    + [pytest.param(energy_at(alpha), id=f"energy-{alpha}")
       for alpha in (1.5, 2.0, 3.0)]
)


class TestSobolevNorms:
    def test_zero_field(self, grid64):
        assert hs_norm(zero_field(grid64), 1.0) == 0.0

    def test_s_zero_is_l2(self, random_field):
        assert hs_norm(random_field, 0.0) == pytest.approx(
            l2_norm(random_field), rel=1e-14)

    def test_single_mode_closed_form(self, grid64):
        a = 3.0
        field = single_mode(grid64, 5, a)
        xi0 = abs(grid64.wavenumbers[5])
        # two modes of amplitude a, Parseval weight 1/L
        expected = a * (1.0 + xi0) * np.sqrt(2.0 / 64.0)
        assert hs_norm(field, 1.0) == pytest.approx(expected, rel=1e-13)


class TestTinyData:
    # |coeff|^2 underflows below about 1e-162, where the norms themselves
    # are still far inside double range
    NORMS = [pytest.param(lambda u: hs_norm(u, 0.0), id="l2"),
             pytest.param(lambda u: hs_norm(u, 1.0), id="h1"),
             pytest.param(lambda u: gevrey_norm(u, GevreyWeight(0.1, 1.0)),
                          id="gevrey")]

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("scale", [1e-170, 1e-200, 1e-300])
    def test_norm_scales_with_the_data(self, random_field, norm, scale):
        tiny = random_field.with_coeffs(scale * random_field.coeffs)
        assert norm(tiny) > 0.0
        assert norm(tiny) == pytest.approx(scale * norm(random_field), rel=1e-13,
                                          abs=0.0)

    def test_a_tiny_row_moves_no_bit_of_the_others(self, random_field):
        # the rescaled sum is taken for the tiny row alone
        coeffs = random_field.coeffs
        stack = np.stack([coeffs, 1e-170 * coeffs, 0.0 * coeffs, 2.0 * coeffs])
        rows = _hs_norms(random_field.grid, stack, 1.0)
        assert rows[0] == hs_norm(random_field, 1.0)
        assert rows[1] == pytest.approx(1e-170 * rows[0], rel=1e-13, abs=0.0)
        assert rows[2] == 0.0
        assert rows[3] == hs_norm(random_field.with_coeffs(2.0 * coeffs), 1.0)

    def test_tiny_data_has_a_finite_lifespan(self, grid64):
        # a zero norm once made the lifespan of nonzero data +inf
        u0 = gaussian_data(grid64, 1e-170, 4.0)
        delta = lifespan(u0, GevreyWeight(0.1), 2.0, 0.2)
        assert math.isfinite(delta)
        assert delta == pytest.approx(
            1e170 * lifespan(gaussian_data(grid64, 1.0, 4.0),
                             GevreyWeight(0.1), 2.0, 0.2), rel=1e-13)


class TestGevreyNorm:
    def test_infinite_sigma_rejected(self, random_field):
        # it gave nan after RuntimeWarnings
        with pytest.raises(InvalidInput, match="sigma must be finite"):
            gevrey_norm(random_field, GevreyWeight(math.inf))

    def test_sigma_zero_is_l2(self, random_field):
        weight = GevreyWeight(0.0, s=0.0)
        assert gevrey_norm(random_field, weight) == pytest.approx(
            l2_norm(random_field), rel=1e-14)

    @pytest.mark.parametrize("kind", list(SymbolKind))
    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_linear_path_is_the_weighted_hs_norm(self, random_field, s, kind):
        # below the crossover the norm is the H^s norm of I u, bit for bit:
        # the lifespan, the defect bound and C1 rest on this.  The exp symbol
        # carries (1+|xi|)^s itself, so its H^s weight is s = 0
        weight = GevreyWeight(0.15, s, kind)
        hs = s if kind is SymbolKind.COSH else 0.0
        assert gevrey_norm(random_field, weight) == hs_norm(
            apply_I(random_field, weight), hs)

    def test_cosh_vs_exp_ratio(self, random_field):
        cosh = gevrey_norm(random_field, GevreyWeight(0.15, kind=SymbolKind.COSH))
        exp = gevrey_norm(random_field, GevreyWeight(0.15, kind=SymbolKind.EXP))
        assert 0.5 - 1e-12 <= cosh / exp <= 1.0 + 1e-12

    def test_exponential_spectrum_against_direct_sum(self, grid128):
        xi = grid128.wavenumbers
        field = SpectralField(grid128, np.exp(-xi))
        weight = GevreyWeight(0.5, s=0.0, kind=SymbolKind.EXP)
        # independent accumulation over every mode, plain python loop
        total = sum(
            np.exp(2 * 0.5 * abs(x)) * abs(np.exp(-abs(x))) ** 2
            for x in full_wavenumbers(grid128)
        )
        expected = np.sqrt(total / grid128.domain_length)
        assert gevrey_norm(field, weight) == pytest.approx(expected, rel=1e-10)

    def test_log_path_matches_linear_path(self):
        # sigma*xi_max ~ 350 forces the log-domain branch; the linear-scale
        # weights still fit in double precision so a direct sum is possible
        grid = Grid(256, 64.0)
        xi = grid.wavenumbers
        xi_max = np.max(np.abs(xi))
        sigma = 350.0 / xi_max
        coeffs = np.exp(-1.2 * sigma * np.abs(xi))
        field = SpectralField(grid, coeffs)
        weight = GevreyWeight(sigma, kind=SymbolKind.EXP)
        xi_all = np.abs(full_wavenumbers(grid))
        direct = np.sqrt(np.sum(np.exp(2 * sigma * xi_all)
                                * np.exp(-1.2 * sigma * xi_all) ** 2)
                         / grid.domain_length)
        assert gevrey_norm(field, weight) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("norm", CROSSOVER_NORMS)
    def test_continuous_across_the_log_domain_crossover(self, norm):
        # sigma*xi_max just below and just above the crossover: linear path
        # on one side, log path on the other
        grid = Grid(256, 64.0)
        xi = grid.wavenumbers
        field = SpectralField(grid, np.exp(-30.0 * xi))
        sigma = LOG_DOMAIN_CROSSOVER / np.max(xi)
        below, above = (norm(field, sigma * f) for f in (1.0 - 1e-9, 1.0 + 1e-9))
        assert above / below == pytest.approx(1.0, abs=1e-7)

    def test_single_mode_past_exp_overflow(self):
        # the weight exp(2*sigma*xi0) = e^1000 overflows a double; the norm
        # a*e^500*sqrt(2/L) does not
        grid = Grid(256, 64.0)
        xi0 = grid.wavenumbers[10]
        sigma = 500.0 / xi0
        field = single_mode(grid, 10, 0.25)
        expected = 0.25 * np.exp(500.0) * np.sqrt(2.0 / 64.0)
        norm = gevrey_norm(field, GevreyWeight(sigma, 0.0, SymbolKind.EXP))
        assert norm == pytest.approx(expected, rel=1e-12)

    def test_zero_field_on_the_log_path(self):
        grid = Grid(256, 64.0)
        assert 50.0 * np.max(grid.wavenumbers) > LOG_DOMAIN_CROSSOVER
        field = zero_field(grid)
        for kind in SymbolKind:
            assert gevrey_norm(field, GevreyWeight(50.0, 1.0, kind)) == 0.0
        assert energy(field, 50.0, 2.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.sampled_from([8, 64, 256]),
           length=st.sampled_from([16.0, 64.0]),
           decay=st.floats(0.5, 3.0), kind=st.sampled_from(list(SymbolKind)),
           s=st.floats(0.0, 2.0))
    def test_paths_agree_on_random_decaying_spectra(self, data, n, length,
                                                    decay, kind, s):
        # |coeff(j)| = m_j exp(-decay * sigma_c * xi_j) with random m_j and
        # phases, where sigma_c puts sigma*xi_max at the crossover
        grid = Grid(n, length)
        xi = grid.wavenumbers
        size = n // 2 + 1
        mags = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=size,
                                           max_size=size)))
        phases = np.array(data.draw(st.lists(st.floats(0.0, 2 * np.pi),
                                             min_size=size, max_size=size)))
        phases[0] = 0.0
        sigma = LOG_DOMAIN_CROSSOVER / np.max(xi)
        field = SpectralField(grid, mags * np.exp(1j * phases - decay * sigma * xi))
        below, above = (sigma * (1.0 - 1e-12), sigma * (1.0 + 1e-12))
        assert below * np.max(xi) <= LOG_DOMAIN_CROSSOVER < above * np.max(xi)
        linear, log = (gevrey_norm(field, GevreyWeight(x, s, kind))
                       for x in (below, above))
        assert log / linear == pytest.approx(1.0, abs=1e-7)


class TestEnergy:
    def test_zero_field(self, grid64):
        assert energy(zero_field(grid64), 0.1, 2.0) == 0.0

    def test_single_mode_closed_form(self, grid64):
        a = 2.0
        field = single_mode(grid64, 3, a)
        xi0 = abs(grid64.wavenumbers[3])
        expected = a**2 * (1.0 + xi0**2) * 2.0 / 64.0
        assert energy(field, 0.0, 2.0) == pytest.approx(expected, rel=1e-13)

    def test_sigma_zero_alpha_two_is_h1_invariant(self, random_field):
        # int (u^2 + u_x^2) dx by quadrature, exact for a band-limited field
        grid = random_field.grid
        u = inverse_transform(random_field)
        ux = inverse_transform(random_field.with_coeffs(
            1j * grid.wavenumbers * random_field.coeffs))
        expected = grid.dx * np.sum(u**2 + ux**2)
        assert energy(random_field, 0.0, 2.0) == pytest.approx(expected,
                                                               rel=1e-12)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, random_field, sigma):
        # a NaN sigma gave a nan energy, and so a nan defect for its window
        with pytest.raises(InvalidInput, match="sigma must be finite"):
            energy(random_field, sigma, 2.0)

    @pytest.mark.parametrize("alpha", [1.0, math.nan])
    def test_alpha_above_one_only(self, grid64, alpha):
        # the same rule as ModelParams and phi_symbol
        with pytest.raises(InvalidInput):
            energy(zero_field(grid64), 0.1, alpha)


class TestH1Invariant:
    """The alpha = 2 invariant int (u^2 + u_x^2) dx is energy(f, 0, 2)."""

    def test_zero_field(self, grid64):
        assert energy(zero_field(grid64), 0.0, 2.0) == 0.0

    def test_cosine_closed_form(self, grid64):
        xi1 = 2 * np.pi / 64.0
        samples = np.cos(xi1 * grid64.points)
        field = forward_transform(samples, grid64)
        # int cos^2 = L/2, int (xi1 sin)^2 = xi1^2 L/2
        expected = 64.0 / 2.0 + xi1**2 * 64.0 / 2.0
        assert energy(field, 0.0, 2.0) == pytest.approx(expected, rel=1e-12)


def test_norm_report_is_consistent(random_field):
    report = norm_report(random_field, GevreyWeight(0.1), 2.0)
    assert report.l2 == l2_norm(random_field)
    assert report.h1 == hs_norm(random_field, 1.0)
    assert report.energy == energy(random_field, 0.1, 2.0)
    assert report.h1_invariant == energy(random_field, 0.0, 2.0)
