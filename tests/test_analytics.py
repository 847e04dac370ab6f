import itertools
import math
import warnings

import numpy as np
import pytest
from conftest import peak_bytes

from gevrey_bbm import analytics, evolution, norms, spectral
from gevrey_bbm.analytics import (
    Calibration,
    calibrate_bilinear_constant,
    default_band,
    default_calibration,
    defect_scaling_fit,
    estimate_radius,
    loglog_slope,
    measure_defects,
    random_band_limited_field,
    schedule_sigma,
    track_radius,
    trilinear_defect_rate,
)
from gevrey_bbm.errors import (
    CrossCheckFailure,
    InsufficientData,
    InvalidInput,
    OverflowRisk,
)
from gevrey_bbm.evolution import Trajectory, gaussian_data, sech2_data, simulate
from gevrey_bbm.identities import (
    _coordinate_term,
    fractional_bound_exponents,
    symmetrized_weight,
)
from gevrey_bbm.multipliers import (
    GevreyWeight,
    ModelParams,
    apply_I,
    apply_phi,
    phi_symbol,
    semigroup,
)
from gevrey_bbm.norms import LOG_DOMAIN_CROSSOVER, energy, gevrey_norm, hs_norm
from gevrey_bbm.spectral import (
    Grid,
    SpectralField,
    dealias,
    forward_transform,
    inverse_transform,
    zero_field,
    zero_nyquist,
)


def _full_plane_triads(field, sigma):
    """The triad route as one sum over the whole (2b+1)^2 plane of triads,
    every triad on its own: the oracle of the convolution."""
    grid = field.grid
    n, L = grid.n_points, grid.domain_length
    band = grid.dealias_cutoff
    c = field.coeffs
    a = np.concatenate([c, np.conj(c[-2:0:-1])]) / L
    j = np.arange(-band, band + 1)
    j1, j2 = np.meshgrid(j, j, indexing="ij")
    j3 = -j1 - j2
    valid = np.abs(j3) <= band
    j1, j2, j3 = j1[valid], j2[valid], j3[valid]
    scale = 2.0 * np.pi / L
    series = symmetrized_weight(scale * j1, scale * j2, scale * j3, sigma)
    total = np.sum(series * a[j1 % n] * a[j2 % n] * a[j3 % n])
    return float(np.real(1j * L / 6.0 * total))


class TestTrilinearDefectRate:
    def test_sigma_zero_conserves(self, random_field):
        # no weight, no defect: both routes must return (numerically) zero
        rate = trilinear_defect_rate(random_field, 0.0, 2.0)
        assert abs(rate) < 1e-10

    def test_zero_field(self, grid64):
        assert trilinear_defect_rate(zero_field(grid64), 0.1, 2.0) == 0.0

    def test_single_mode_has_no_resonant_triad(self, grid64):
        coeffs = np.zeros(33, dtype=complex)
        coeffs[2] = 1.0  # stands for the pair j = +-2
        rate = trilinear_defect_rate(SpectralField(grid64, coeffs), 0.2, 2.0)
        assert abs(rate) < 1e-10

    def test_routes_agree_on_random_fields(self, rng):
        grid = Grid(64)
        for _ in range(5):
            field = random_band_limited_field(grid, rng)
            trilinear_defect_rate(field, 0.1, 2.0)  # raises on disagreement

    def test_even_data_have_rate_zero(self):
        # dE/dt vanishes exactly on even data: the physical route returns
        # its round-off alone, which the absolute floor must absorb
        for data in (gaussian_data, sech2_data):
            for n in (64, 128, 256):
                for amplitude, width in ((0.5, 4.0), (1.0, 2.0)):
                    field = data(Grid(n), amplitude, width)
                    for sigma in (0.05, 0.1, 0.3):
                        rate = trilinear_defect_rate(field, sigma, 2.0)
                        assert abs(rate) < 1e-14

    def test_the_relative_test_binds_on_random_fields(self, rng, monkeypatch):
        # a disagreement of twice rtol is no round-off: the floor must not
        # absorb it
        triads = analytics._defect_rate_triads
        monkeypatch.setattr(analytics, "_defect_rate_triads",
                            lambda field, sigma: triads(field, sigma) * (1 + 2e-6))
        for _ in range(5):
            field = random_band_limited_field(Grid(128), rng)
            with pytest.raises(CrossCheckFailure):
                trilinear_defect_rate(field, 0.1, 2.0, rtol=1e-6)

    def test_alpha_independent(self, rng):
        grid = Grid(64)
        field = random_band_limited_field(grid, rng)
        r2 = trilinear_defect_rate(field, 0.1, 2.0)
        r3 = trilinear_defect_rate(field, 0.1, 3.0)
        assert r2 == pytest.approx(r3, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_the_rate_integrates_to_the_defect(self, alpha):
        # E_sigma(T) - E_sigma(0) = int_0^T R_sigma(u(t)) dt along the
        # semi-discrete flow at every alpha, since the dispersive term
        # cancels in dE/dt; composite Simpson over every step of the run
        sigma, dt, grid = 0.3, 4e-3, Grid(128, 64.0)
        params = ModelParams(alpha, grid, dt, 2.0)
        traj = simulate(gaussian_data(grid, 1.0, 4.0), params,
                        GevreyWeight(sigma), sample_every=1)
        band = grid.dealias_cutoff

        def band_energy(state):
            # the rate sees the state on the alias-free band; so must E
            coeffs = state.coeffs.copy()
            coeffs[band + 1:] = 0.0
            return energy(state.with_coeffs(coeffs), sigma, alpha)

        rates = np.array([trilinear_defect_rate(s, sigma, alpha)
                          for s in traj.states])
        assert len(rates) % 2 == 1
        integral = dt / 3.0 * (rates[0] + rates[-1] + 4.0 * np.sum(rates[1:-1:2])
                               + 2.0 * np.sum(rates[2:-1:2]))
        defect = band_energy(traj.states[-1]) - band_energy(traj.states[0])
        assert abs(defect - integral) < 1e-8 * abs(defect)

    @pytest.mark.parametrize("sigma, alpha", [(0.3, 2.0), (0.5, 1.5), (0.2, 3.0)])
    def test_the_rate_is_the_flows_on_a_grid_that_3_divides(self, sigma,
                                                            alpha):
        # the flow and the triad route truncate to one band: at n = 96 a
        # narrow Gaussian has content at the cutoff, and the rate equals a
        # centred difference of E along simulate to the difference's O(dt^2)
        # error, 1e-7 here.  With the flow on |j| <= 32 and the triads on
        # |j| <= 31 the two disagreed by 4e-2 to 9e-2, relative
        dt, grid = 1e-3, Grid(96, 48.0)
        u0 = gaussian_data(grid, 0.8, 0.7)
        assert abs(u0.coeffs[grid.dealias_cutoff]) > 1e-3 * abs(u0.coeffs[0])
        states = simulate(u0, ModelParams(alpha, grid, dt, 0.2),
                          GevreyWeight(sigma)).states
        for k in (1, 100, 199):
            change = (energy(states[k + 1], sigma, alpha)
                      - energy(states[k - 1], sigma, alpha))
            rate = trilinear_defect_rate(states[k], sigma, alpha)
            assert change / (2.0 * dt) == pytest.approx(rate, rel=1e-6)

    def test_negative_sigma_rejected(self, random_field):
        with pytest.raises(InvalidInput):
            trilinear_defect_rate(random_field, -0.1, 2.0)

    @pytest.mark.parametrize("name, value", [("sigma", math.nan),
                                             ("sigma", math.inf),
                                             ("rtol", math.nan),
                                             ("rtol", -1.0)])
    def test_bad_sigma_and_rtol_rejected(self, random_field, name, value):
        # an input error, not a cross-check failure or an overflow
        args = {"sigma": 0.1, "rtol": 1e-6, name: value}
        with np.errstate(all="raise"), pytest.raises(InvalidInput, match=name):
            trilinear_defect_rate(random_field, args["sigma"], 2.0,
                                  rtol=args["rtol"])

    @pytest.mark.parametrize("mode, value", [(0, math.nan), (0, -math.inf),
                                             (3, math.nan),
                                             (3, complex(1.0, math.inf)),
                                             (60, math.inf)])
    def test_non_finite_field_rejected_before_either_route(
            self, random_field, monkeypatch, mode, value):
        # mode 60 lies past the band, where the field is cleared before
        # the routes run; an input error, not a cross-check failure
        def no_route(*args, **kwargs):
            raise AssertionError("a defect-rate route ran")

        for name in ("_defect_rate_physical", "_defect_rate_triads"):
            monkeypatch.setattr(analytics, name, no_route)
        coeffs = random_field.coeffs.copy()
        coeffs[mode] = value
        with pytest.raises(InvalidInput, match="non-finite"):
            trilinear_defect_rate(random_field.with_coeffs(coeffs), 0.1, 2.0)

    @pytest.mark.parametrize("n", [64, 96, 128, 256, 1024])
    @pytest.mark.parametrize("sigma", [0.01, 0.1, 0.3])
    def test_blocked_route_equals_the_full_plane_sum(self, rng, n, sigma):
        # the convolution adds the full plane's terms in another order; 3
        # divides n = 96, whose band stops short of n/3
        field = random_band_limited_field(Grid(n), rng)
        oracle = _full_plane_triads(field, sigma)
        assert analytics._defect_rate_triads(field, sigma) == pytest.approx(
            oracle, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [64, 96, 1024])
    def test_triad_route_weighs_each_band_mode_once_and_makes_no_transform(
            self, rng, monkeypatch, n):
        grid = Grid(n)
        field = random_band_limited_field(grid, rng)
        band = grid.dealias_cutoff
        evaluated = []

        def counting(x, sigma):
            evaluated.append(np.size(x))
            return _coordinate_term(x, sigma)

        def no_transform(*args, **kwargs):
            raise AssertionError("the triad route made a transform")

        monkeypatch.setattr(analytics, "_coordinate_term", counting)
        for module in (analytics, spectral):
            for name in ("_to_samples", "_rfft"):
                monkeypatch.setattr(module, name, no_transform)
        analytics._defect_rate_triads(field, 0.1)
        assert evaluated == [2 * band + 1]

    def test_triad_route_memory_is_bounded(self, rng):
        # O(band), not O(band^2): the full plane at n = 2048 peaks near 98 MiB
        field = random_band_limited_field(Grid(2048), rng)
        assert peak_bytes(lambda: analytics._defect_rate_triads(field, 0.1)) \
            < 256 * 2 ** 10

    def test_a_fault_in_the_transforms_fails_the_cross_check(self, rng,
                                                             monkeypatch):
        # every inverse transform goes through spectral._to_samples; a
        # relative fault of twice rtol there moves the physical route's
        # triple product alone, since the triad route makes no transform
        to_samples = spectral._to_samples
        monkeypatch.setattr(spectral, "_to_samples",
                            lambda *args: to_samples(*args) * (1 + 2e-6))
        for _ in range(5):
            field = random_band_limited_field(Grid(128), rng)
            with pytest.raises(CrossCheckFailure):
                trilinear_defect_rate(field, 0.1, 2.0, rtol=1e-6)

    def test_an_overflowing_triad_sum_raises(self, grid64):
        # sinh stays finite at sigma = 0.1; the products of the coefficients
        # overflow in np.convolve, which sets no floating-point flag
        coeffs = np.zeros(33, dtype=complex)
        coeffs[1:4] = 1e160j
        with pytest.raises(OverflowRisk):
            analytics._defect_rate_triads(SpectralField(grid64, coeffs), 0.1)

    @pytest.mark.parametrize("sigma", [0.01, 0.1, 0.3])
    def test_closed_form_matches_the_series(self, sigma):
        # every alias-free triad at n = 256, against the first 30 terms of
        # the series: 2 sigma |xi| <= 5.01, so the rest is below 1e-40
        band, scale = 85, 2.0 * np.pi / 64.0
        j = np.arange(-band, band + 1)
        j1, j2 = np.meshgrid(j, j, indexing="ij")
        j3 = -j1 - j2
        keep = np.abs(j3) <= band
        x1, x2, x3 = (scale * a[keep] for a in (j1, j2, j3))
        series = sum(
            (2.0 * sigma) ** (2 * k) / math.factorial(2 * k)
            * (x1 ** (2 * k + 1) + x2 ** (2 * k + 1) + x3 ** (2 * k + 1))
            for k in range(1, 31)
        )
        closed = symmetrized_weight(x1, x2, x3, sigma)
        assert np.max(np.abs(closed - series)) <= 1e-13 * np.max(np.abs(series))

    def test_overflow_raises_instead_of_passing_inf_on(self):
        x = np.array([400.0, 1.0])
        with pytest.raises(OverflowRisk):
            symmetrized_weight(x, -0.5 * x, -0.5 * x, 1.0)

    def test_overflowing_triad_route_raises(self, random_field):
        # each route's guard raises whatever the caller's floating-point state
        with np.errstate(all="ignore"), pytest.raises(OverflowRisk):
            trilinear_defect_rate(random_field, 400.0, 2.0)

    @pytest.mark.parametrize("n", [128, 256, 96])
    def test_no_weight_above_the_band(self, rng, n):
        # sigma xi_K = 300 keeps the band's weight finite, but cosh(sigma
        # xi)^2 overflows on the modes above it, which the projection zeroes:
        # an inf weight times 0 there made the physical route NaN
        grid = Grid(n)
        sigma = 300.0 / grid.wavenumbers[grid.dealias_cutoff]
        assert sigma * grid.wavenumbers[-1] > 360.0  # cosh^2 overflows past 355.6
        field = random_band_limited_field(grid, rng)
        assert trilinear_defect_rate(field, sigma, 2.0) == pytest.approx(
            analytics._defect_rate_triads(field, sigma), rel=1e-6)

    def test_an_overflowing_band_weight_raises_with_no_warning(self, rng):
        grid = Grid(128)
        sigma = 400.0 / grid.wavenumbers[grid.dealias_cutoff]
        field = random_band_limited_field(grid, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRisk):
                trilinear_defect_rate(field, sigma, 2.0)


class TestMeasureDefect:
    def test_the_bound_is_the_projected_datums(self):
        # the flow starts from dealias(u0), and so does the bound's norm: a
        # datum with 33% of its peak above the band gave a bound 28% above
        # its projection's
        grid = Grid(64, 64.0)
        u0 = forward_transform(0.5 * np.exp(-((grid.points - 32.0) / 1.0) ** 2),
                               grid)
        runs = [(u0, 2.0, [(0.1, 0.5)]), (dealias(u0), 2.0, [(0.1, 0.5)])]
        raw, projected = measure_defects(runs, grid, 1e-2)
        assert raw == projected

    def test_sigma_zero_below_discretization_floor(self):
        grid = Grid(128)
        u0 = gaussian_data(grid, 0.5, 4.0)
        ((report,),) = measure_defects([(u0, 2.0, [(0.0, 1.0)])], grid, 2e-3)
        assert report.defect_abs < 1e-8 * energy(u0, 0.0, 2.0)
        assert report.bound_satisfied

    def test_gaussian_within_calibrated_bound(self):
        grid = Grid(128)
        cal = default_calibration()
        u0 = gaussian_data(grid, 0.5, 4.0)
        ((report,),) = measure_defects([(u0, 2.0, [(0.1, 2.0)])], grid, 2e-3,
                                       c_cal=cal.c2)
        assert report.defect_abs > 0
        assert report.bound_satisfied

    def test_leading_quadratic_scaling(self):
        # doubling sigma quadruples the defect while the sigma^2 term leads
        grid = Grid(128)
        u0 = gaussian_data(grid, 0.5, 4.0)
        small = measure_defects([(u0, 2.0, [(0.02, 1.0)])], grid, 2e-3)[0][0]
        large = measure_defects([(u0, 2.0, [(0.04, 1.0)])], grid, 2e-3)[0][0]
        small, large = small.defect_abs, large.defect_abs
        assert 3.5 <= large / small <= 4.5

    def test_a_datum_on_another_grid_is_refused(self, grid64):
        # it would step on grid but be measured on its own grid
        u0 = gaussian_data(Grid(64, 50.0), 0.5, 4.0)
        with pytest.raises(InvalidInput, match=r"domain_length=50\.0.*"
                           r"domain_length=64\.0"):
            measure_defects([(u0, 2.0, [(0.1, 1.0)])], grid64, 1e-2)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, grid64, sigma):
        # a NaN sigma gave a window whose defect and bound were nan
        u0 = gaussian_data(grid64, 0.5, 4.0)
        with pytest.raises(InvalidInput, match="sigma must be finite"):
            measure_defects([(u0, 2.0, [(sigma, 0.1)])], grid64, 1e-2)

    def test_delta_validated(self, grid64):
        # 4e-3 is under half a step: it would take no step at all
        for delta in (0.0, np.inf, np.nan, 4e-3):
            with pytest.raises(InvalidInput):
                measure_defects([(zero_field(grid64), 2.0, [(0.1, delta)])],
                                grid64, 1e-2)

    @pytest.mark.parametrize("c_cal", [math.nan, math.inf, 0.0, -1.0])
    def test_c_cal_validated_before_any_step(self, grid64, c_cal, monkeypatch):
        # a nan c_cal gave a nan bound and -1 a negative one, each reported
        # as a bound that does not hold, not refused
        def no_step(*args):
            raise AssertionError("stepped before refusing c_cal")

        monkeypatch.setattr(analytics, "_march", no_step)
        u0 = gaussian_data(grid64, 0.5, 4.0)
        with pytest.raises(InvalidInput, match="c_cal"):
            measure_defects([(u0, 2.0, [(0.1, 0.1)])], grid64, 1e-2,
                            c_cal=c_cal)
        with pytest.raises(InvalidInput, match="c_cal"):
            defect_scaling_fit(u0, [0.05, 0.1], 0.1,
                               ModelParams(2.0, grid64, 1e-2, 0.1), c_cal=c_cal)

    def test_one_trajectory_serves_every_sigma(self, grid64):
        # sigma does not enter the flow: the defects read off the shared
        # trajectory equal those of a run that carries the weight itself.
        # 200 steps of dt = 1e-2 are sampled every 200 // 40 = 5 steps.
        u0 = gaussian_data(grid64, 0.5, 4.0)
        params = ModelParams(2.0, grid64, 1e-2, 2.0)
        sigmas = [0.0, 0.05, 0.2]
        windows = [(sigma, 2.0) for sigma in sigmas]
        (reports,) = measure_defects([(u0, 2.0, windows)], grid64, 1e-2)
        for sigma, report in zip(sigmas, reports):
            traj = simulate(u0, params, GevreyWeight(sigma), sample_every=5)
            energies = np.array([r.energy for r in traj.reports])
            assert len(energies) == 41
            assert report.sigma == sigma
            assert report.defect == float(np.max(energies - energies[0]))
            assert report.defect_abs == float(
                np.max(np.abs(energies - energies[0])))


    # 93, 127 and 205 steps of dt = 1e-2, sampled every 2, 3 and 5 steps
    WINDOWS = [(0.05, 0.93), (0.2, 1.27), (0.1, 2.05), (0.0, 1.27)]

    def test_windows_match_one_window_calls(self, grid64):
        u0 = gaussian_data(grid64, 0.5, 4.0)
        (reports,) = measure_defects([(u0, 2.0, self.WINDOWS)], grid64, 1e-2,
                                     c_cal=0.01)
        assert reports == [measure_defects([(u0, 2.0, [window])], grid64, 1e-2,
                                           c_cal=0.01)[0][0]
                           for window in self.WINDOWS]

    def test_one_run_keeps_only_the_union_of_sample_steps(self, grid64, monkeypatch):
        runs, steps = [], []

        def counting_march(*args):
            runs.append(evolution._march(*args))
            return runs[-1]

        def counting_rk4(*args):
            steps.append(None)
            return rk4(*args)

        rk4 = evolution._rk4
        monkeypatch.setattr(analytics, "_march", counting_march)
        monkeypatch.setattr(evolution, "_rk4", counting_rk4)
        u0 = gaussian_data(grid64, 0.5, 4.0)
        measure_defects([(u0, 2.0, self.WINDOWS)], grid64, 1e-2)
        union = set()
        for n_steps in (93, 127, 205):
            union |= set(range(0, n_steps + 1, n_steps // 40)) | {n_steps}
        assert len(runs) == 1
        assert len(steps) == 205
        (kept,) = runs[0]
        assert sorted(kept) == sorted(union)

    def test_kept_states_are_distinct_arrays_of_the_step_loop(self, grid64,
                                                              monkeypatch):
        runs = []

        def keeping_march(*args):
            runs.append(evolution._march(*args))
            return runs[-1]

        monkeypatch.setattr(analytics, "_march", keeping_march)
        u0 = gaussian_data(grid64, 0.5, 4.0)
        measure_defects([(u0, 2.0, self.WINDOWS[:3])], grid64, 1e-2)
        ((kept,),) = runs
        arrays = [kept[step].coeffs for step in sorted(kept)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        state = u0
        for step in range(1, max(kept) + 1):
            state = evolution.step_rk4(state, 1e-2, 2.0)
            if step in kept:
                assert kept[step].coeffs.tobytes() == state.coeffs.tobytes()

    def test_reports_equal_per_state_energies(self, grid64):
        # sigma = 96 puts sigma * xi_max = 301.6 past the crossover; a
        # dealiased datum keeps the modes above K exactly zero, so the
        # log-domain energies have zero moduli and stay finite
        u0 = dealias(gaussian_data(grid64, 0.5, 4.0))
        assert 96.0 * np.max(grid64.wavenumbers) > LOG_DOMAIN_CROSSOVER
        windows = self.WINDOWS + [(96.0, 0.93)]
        window_steps = analytics._window_steps(windows, 1e-2)
        (kept,) = evolution._march([u0], [2.0], [set().union(*window_steps)],
                                   grid64, 1e-2)
        reports = analytics._defect_reports(windows, window_steps, kept,
                                            2.0, 0.01)
        assert len(reports) == len(windows)
        for (sigma, delta), steps, report in zip(windows, window_steps, reports):
            energies = np.array([energy(kept[step], sigma, 2.0) for step in steps])
            assert np.all(np.isfinite(energies))
            assert report.defect == float(np.max(energies - energies[0]))
            assert report.defect_abs == float(np.max(np.abs(energies - energies[0])))

    def test_runs_equal_one_run_calls_in_one_march(self, grid64, monkeypatch):
        # data, alphas and windows differ per run; a run with no window
        # keeps its place in the batch
        runs = [(gaussian_data(grid64, 0.5, 4.0), 2.0, self.WINDOWS),
                (sech2_data(grid64, 0.5, 3.0), 3.0, self.WINDOWS[:2]),
                (gaussian_data(grid64, 0.5, 4.0), 1.5, []),
                (gaussian_data(grid64, 1.0, 2.0), 2.5, [(0.1, 0.5)])]
        singles = [measure_defects([run], grid64, 1e-2, c_cal=0.01)[0]
                   for run in runs]
        calls = []

        def counting_march(*args):
            calls.append(args)
            return evolution._march(*args)

        monkeypatch.setattr(analytics, "_march", counting_march)
        assert measure_defects(runs, grid64, 1e-2, c_cal=0.01) == singles
        assert len(calls) == 1 and singles[2] == []

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.inf, np.nan])
    def test_dt_validated(self, grid64, dt):
        with pytest.raises(InvalidInput, match="dt must be finite and positive"):
            measure_defects([(gaussian_data(grid64), 2.0, [(0.1, 1.0)])],
                            grid64, dt)

    def test_no_window_takes_no_step(self, grid64, monkeypatch):
        monkeypatch.setattr(analytics, "_march", None)
        assert measure_defects([(zero_field(grid64), 2.0, [])], grid64,
                               1e-2) == [[]]


class TestScalingFit:
    def test_synthetic_quadratic_slope(self):
        sigmas = np.geomspace(0.01, 0.3, 8)
        assert loglog_slope(sigmas, 7.3 * sigmas**2) == pytest.approx(
            2.0, abs=0.01)

    def test_insufficient_points_raises(self, grid64):
        # zero data has a zero defect at every sigma: all sit at the floor
        params = ModelParams(2.0, grid64, 1e-2, 1.0)
        with pytest.raises(InsufficientData):
            defect_scaling_fit(zero_field(grid64), [0.01, 0.02, 0.04, 0.08],
                               0.5, params)

    def test_sigma_list_validated(self, grid64):
        # a repeated sigma once fitted a slope through a poorly conditioned
        # polyfit and exited 0
        params = ModelParams(2.0, grid64, 1e-2, 1.0)
        for sigmas in [0.1], [0.1, 0.1, 0.1, 0.1], [0.3, 0.1, 0.2, 0.1]:
            with pytest.raises(InvalidInput):
                defect_scaling_fit(zero_field(grid64), sigmas, 1.0, params)

    def test_simulates_once(self, grid64, monkeypatch):
        calls = []

        def counting_march(*args):
            calls.append(args)
            return evolution._march(*args)

        monkeypatch.setattr(analytics, "_march", counting_march)
        u0 = gaussian_data(grid64, 0.5, 4.0)
        params = ModelParams(2.0, grid64, 1e-2, 0.5)
        _, reports = defect_scaling_fit(u0, np.geomspace(0.01, 0.3, 6), 0.5,
                                        params)
        assert len(reports) == 6
        assert len(calls) == 1


class TestBilinearCalibration:
    def test_reproducible(self, grid64):
        weight = GevreyWeight(0.1)
        one = calibrate_bilinear_constant(100, weight, 2.0, grid64)
        two = calibrate_bilinear_constant(100, weight, 2.0, grid64)
        assert one == two > 0

    def test_resolution_stability(self):
        weight = GevreyWeight(0.1)
        values = [calibrate_bilinear_constant(100, weight, 2.0, Grid(n))
                  for n in (64, 128, 256)]
        assert max(values) / min(values) < 2.0

    def test_sigma_stability(self, grid64):
        values = [calibrate_bilinear_constant(100, GevreyWeight(s), 2.0, grid64)
                  for s in (0.0, 0.1, 0.3)]
        assert max(values) / min(values) < 2.0

    def test_sample_budget_validated(self, grid64):
        with pytest.raises(InvalidInput):
            calibrate_bilinear_constant(50, GevreyWeight(0.1), 2.0, grid64)

    def test_nan_sigma_rejected(self, grid64):
        # C1 came out nan
        with pytest.raises(InvalidInput, match="sigma must be finite"):
            calibrate_bilinear_constant(100, GevreyWeight(math.nan), 2.0,
                                        grid64)

    def test_shipped_c1_lies_in_its_bracket(self):
        # C1 is the largest ratio over 200 random pairs: a lower estimate of
        # the supremum of ||phi I(uv)|| / (||Iu|| ||Iv||) in H^{alpha/2} over
        # the alias-free band.  One structured field already reaches 5.5x
        # it; cosh(a + b) <= 2 cosh(a) cosh(b) and Cauchy-Schwarz bound it
        # by 2 sqrt(sup_j M_j^2 K_j / L)
        cal = default_calibration()
        grid = Grid(cal.n_points, cal.domain_length)
        sigma, alpha, s = cal.sigma_ref, cal.alpha, cal.alpha / 2.0
        band = grid.dealias_cutoff
        assert (grid.n_points, grid.domain_length, sigma, alpha, band) == (
            128, 64.0, 0.1, 2.0, 42)
        xi = grid.wavenumbers
        u = SpectralField(grid, np.where(grid.mode_numbers <= band,
                                         (1.0 + xi) ** -2 / np.cosh(sigma * xi),
                                         0.0).astype(complex))
        # the ratio as calibrate_bilinear_constant takes it
        product = dealias(forward_transform(inverse_transform(u) ** 2, grid))
        numerator = norms._hs_norms(grid, apply_phi(
            apply_I(product, GevreyWeight(sigma)), alpha).coeffs, s)
        ratio = numerator / norms._gevrey_norms(grid, u.coeffs,
                                                GevreyWeight(sigma, s)) ** 2
        # M_j = (1+|xi_j|)^(alpha/2) |phi(xi_j)| and
        # K_j = sum_m (1+|xi_m|)^-alpha (1+|xi_{j-m}|)^-alpha, over the band
        xi_band = 2.0 * np.pi * np.arange(-band, band + 1) / grid.domain_length
        decay = (1.0 + np.abs(xi_band)) ** -alpha
        k = np.convolve(decay, decay)[band:3 * band + 1]
        m = (1.0 + np.abs(xi_band)) ** s * np.abs(phi_symbol(xi_band, alpha))
        bound = 2.0 * math.sqrt(np.max(m**2 * k) / grid.domain_length)
        assert cal.c1 == pytest.approx(0.03673, abs=1e-5)
        assert ratio == pytest.approx(0.2028, abs=1e-4)
        assert bound == pytest.approx(0.5411, abs=1e-4)
        assert cal.c1 <= ratio <= bound

    def test_random_fields_are_real_and_band_limited(self, grid128, rng):
        field = random_band_limited_field(grid128, rng)
        high = np.abs(grid128.mode_numbers) > grid128.dealias_cutoff
        assert np.all(field.coeffs[high] == 0)

    @pytest.mark.parametrize("n, count", [
        *(pytest.param(n, 5, id=str(n)) for n in (64, 128, 256, 512)),
        # (64, 513) complex is 525 KiB, past the 256 KiB from which numpy
        # may reuse a temporary in place with a product's operands swapped
        pytest.param(1024, 64, id="1024-64"),
    ])
    def test_batched_draws_equal_single_draws(self, n, count):
        grid = Grid(n)
        batch_rng, single_rng = (np.random.default_rng(7) for _ in range(2))
        batch = analytics._random_fields(grid, batch_rng, count)
        singles = [random_band_limited_field(grid, single_rng)
                   for _ in range(count)]
        assert batch.tobytes() == np.array([f.coeffs for f in singles]).tobytes()
        # and both leave the generator in the same state
        assert batch_rng.random() == single_rng.random()

    @staticmethod
    def per_pair_loop(samples, weight, alpha, grid, seed=20240823):
        """calibrate_bilinear_constant as one pair at a time."""
        rng = np.random.default_rng(seed)
        s = alpha / 2.0
        best = 0.0
        for _ in range(samples):
            u = random_band_limited_field(grid, rng)
            v = random_band_limited_field(grid, rng)
            nu = gevrey_norm(u, GevreyWeight(weight.sigma, s))
            nv = gevrey_norm(v, GevreyWeight(weight.sigma, s))
            if nu == 0.0 or nv == 0.0:
                continue
            product = dealias(forward_transform(
                inverse_transform(u) * inverse_transform(v), grid))
            num = hs_norm(apply_phi(apply_I(product, GevreyWeight(weight.sigma)),
                                    alpha), s)
            best = max(best, num / (nu * nv))
        return best

    @pytest.mark.parametrize("sigma", [0.0, 0.1, 1.0])
    def test_equals_the_per_pair_loop(self, grid128, sigma):
        weight = GevreyWeight(sigma)
        assert calibrate_bilinear_constant(100, weight, 2.0, grid128) == \
            self.per_pair_loop(100, weight, 2.0, grid128)

    def test_denominators_are_gevrey_norm_past_the_crossover(self, grid64,
                                                             monkeypatch):
        calls = []

        def recording_norms(grid, coeffs, weight):
            calls.append((coeffs, weight, gevrey_norms(grid, coeffs, weight)))
            return calls[-1][2]

        gevrey_norms = analytics._gevrey_norms
        monkeypatch.setattr(analytics, "_gevrey_norms", recording_norms)
        sigma = 96.0
        assert sigma * np.max(grid64.wavenumbers) > LOG_DOMAIN_CROSSOVER
        c1 = calibrate_bilinear_constant(100, GevreyWeight(sigma), 2.0, grid64)
        assert 0.0 < c1 < math.inf
        # the us and the vs of each block of pairs: 32, 32, 32 and 4 rows
        assert analytics.CALIBRATION_BLOCK == 32
        assert [len(norms) for _, _, norms in calls] == [32] * 6 + [4] * 2
        for coeffs, weight, norms in calls:
            assert weight == GevreyWeight(sigma, 1.0)
            assert list(norms) == [gevrey_norm(SpectralField(grid64, row), weight)
                                   for row in coeffs]

    @pytest.mark.parametrize("samples", [100, 250])
    def test_one_transform_pass_for_every_pair(self, grid64, monkeypatch,
                                               samples):
        calls = []
        for name in ("_rfft", "_to_samples"):
            def counted(*args, _name=name, _function=getattr(analytics, name)):
                calls.append(_name)
                return _function(*args)
            monkeypatch.setattr(analytics, name, counted)
        calibrate_bilinear_constant(samples, GevreyWeight(0.1), 2.0, grid64)
        blocks = -(-samples // analytics.CALIBRATION_BLOCK)
        assert calls == ["_to_samples", "_to_samples", "_rfft"] * blocks

    def test_memory_does_not_grow_with_the_pairs(self, grid128):
        # O(CALIBRATION_BLOCK) pairs at a time: all 200 at once peak near
        # 2.7 MiB here
        weight = GevreyWeight(0.1)
        assert peak_bytes(lambda: calibrate_bilinear_constant(
            200, weight, 2.0, grid128)) <= 2 ** 20


class TestEstimateRadius:
    def test_rational_corrected_spectrum(self):
        grid = Grid(8192, 64.0)
        xi = grid.wavenumbers
        field = SpectralField(grid, np.exp(-0.5 * np.abs(xi)) / (1 + xi**2))
        sigma_est, r2 = estimate_radius(field, 100.0, 400.0,
                                        noise_floor=1e-200)
        assert sigma_est == pytest.approx(0.5, abs=0.01)
        assert r2 > 0.999

    def test_zero_field_is_too_thin(self, grid128):
        with pytest.raises(InsufficientData):
            estimate_radius(zero_field(grid128), 0.1, 10.0)

    def test_scale_invariance(self):
        grid = Grid(1024, 64.0)
        xi = grid.wavenumbers
        field = SpectralField(grid, np.exp(-0.7 * np.abs(xi)))
        scaled = field.with_coeffs(10.0 * field.coeffs)
        lo, hi = default_band(field, 1e-14)
        one, _ = estimate_radius(field, lo, hi)
        lo, hi = default_band(scaled, 1e-13)
        two, _ = estimate_radius(scaled, lo, hi, noise_floor=1e-13)
        assert one == pytest.approx(two, rel=1e-12)

    def test_band_validated(self, random_field):
        with pytest.raises(InvalidInput):
            estimate_radius(random_field, 5.0, 1.0)

    @pytest.mark.parametrize("noise_floor", [-1.0, math.nan, math.inf])
    def test_noise_floor_validated(self, random_field, noise_floor):
        # below 0 the log-fit would take log|0|; nan and inf select nothing
        with pytest.raises(InvalidInput):
            default_band(random_field, noise_floor)
        with pytest.raises(InvalidInput):
            estimate_radius(random_field, 1.0, 5.0, noise_floor)

    def test_default_band_rejects_zero_field(self, grid128):
        with pytest.raises(InsufficientData):
            default_band(zero_field(grid128), 1e-14)

    def test_default_band_rejects_a_single_mode(self, grid64):
        # one mode inside [10 * noise_floor, 1e-2 * peak] makes lo == hi,
        # which is no band to fit over
        coeffs = np.zeros(33, dtype=complex)
        coeffs[1] = 1.0
        coeffs[5] = 1e-3
        with pytest.raises(InsufficientData):
            default_band(SpectralField(grid64, coeffs), 1e-14)
        coeffs = coeffs.copy()  # SpectralField froze the first array
        coeffs[6] = 1e-4
        assert default_band(SpectralField(grid64, coeffs), 1e-14) == (
            grid64.wavenumbers[5], grid64.wavenumbers[6])


def free_flow(u0: SpectralField, params: ModelParams,
              sample_every: int = 1) -> Trajectory:
    """The exact free flow semigroup(t) u0 at the times simulate samples."""
    steps = evolution._sample_steps(round(params.t_end / params.dt), sample_every)
    times = [step * params.dt for step in steps]
    state = zero_nyquist(u0)
    return Trajectory(np.asarray(times),
                      [semigroup(state, t, params.alpha) for t in times], params)


class TestTrackRadius:
    def test_linear_flow_keeps_radius_constant(self):
        # the free flow is unimodular, so the spectrum never changes shape:
        # sigma_est is constant in t and the fitted decay exponent vanishes
        grid = Grid(256)
        # width 2 keeps the tail from the periodic truncation (the profile
        # is not exactly periodic) far below the fitting band
        u0 = sech2_data(grid, 0.5, 2.0)
        params = ModelParams(2.0, grid, 0.1, 20.0)
        traj = free_flow(u0, params, sample_every=10)
        fit = track_radius(traj, noise_floor=1e-11)
        assert abs(fit.mu_fit) < 0.02
        assert fit.pointwise_ok
        estimates = [s for _, s, _ in fit.samples]
        assert max(estimates) - min(estimates) < 1e-8 * max(estimates)

    def test_needs_enough_samples(self, grid64):
        u0 = sech2_data(grid64, 0.5, 4.0)
        params = ModelParams(2.0, grid64, 0.1, 0.2)
        traj = free_flow(u0, params)
        with pytest.raises(InvalidInput):
            track_radius(traj)

    def test_no_fit_when_everything_is_transient(self):
        # all samples before t = 1 are excluded by the fit policy
        grid = Grid(256)
        u0 = sech2_data(grid, 0.5, 2.0)
        params = ModelParams(2.0, grid, 0.01, 0.5)
        traj = free_flow(u0, params, sample_every=4)
        with pytest.raises(InsufficientData):
            track_radius(traj, noise_floor=1e-11)


class TestScheduleSigma:
    def test_two_window_formula(self):
        # C1 = C2 = 1, ||I u0|| = 1: delta = 1/8, T = 0.2 spans n = 1 windows
        result = schedule_sigma(0.2, sigma0=5.0, C1=1.0, C2=1.0)
        assert result.n_steps == 1
        assert result.delta == pytest.approx(0.125)
        # (2 C1 / (C2 * 2))^(2/3) = 1
        assert result.sigma_assigned == pytest.approx(1.0)
        assert all(ok for _, _, _, ok in result.per_step_checks)

    def test_sigma0_caps_assignment(self):
        result = schedule_sigma(0.2, sigma0=0.3, C1=1.0, C2=1.0)
        assert result.sigma_assigned == 0.3

    def test_large_horizon_decay_exponents(self):
        for alpha, mu in ((2.0, 2.0 / 3.0), (3.0, 0.5)):
            horizons = [1e2, 1e3, 1e4, 1e5]
            sigmas = [schedule_sigma(T, 1e9, 1.0, 1.0, alpha=alpha).sigma_assigned
                      for T in horizons]
            slope = loglog_slope(horizons, sigmas)
            assert slope == pytest.approx(-mu, abs=0.01)

    def test_inputs_validated(self):
        with pytest.raises(InvalidInput):
            schedule_sigma(-1.0, 1.0, 1.0, 1.0)

    def test_non_finite_window_count_rejected(self):
        with pytest.raises(InvalidInput):  # 8 * C1 * u0_norm overflows
            schedule_sigma(1.0, 1.0, 1e308, 1.0, u0_norm=1e10)
        with pytest.raises(InvalidInput):  # T / delta = 8e310 overflows
            schedule_sigma(1e300, 1.0, 1e10, 1.0)
        # delta = 1/8: 10^7 + 1 and 8e300 windows take one check each
        for T in ((10**7 + 1) / 8.0, 1e300):
            result = schedule_sigma(T, 1.0, 1.0, 1.0)
            (check,) = result.per_step_checks
            assert check[0] == result.n_steps and check[3]

    @staticmethod
    def per_window_checks(T, sigma0, C1, C2, alpha, u0_norm):
        """Every window's check k = 1..n, one by one: the reference that the
        single binding check is held to."""
        _, beta, _ = fractional_bound_exponents(alpha)
        delta = 1.0 / (8.0 * C1 * u0_norm)
        n = int(math.floor(T / delta))
        sigma = min(sigma0, (2.0 * C1 / (C2 * (n + 1))) ** (1.0 / beta))
        checks = []
        for k in range(1, n + 1):
            lhs = (k + 1) * C2 * delta * 8.0 * sigma**beta * u0_norm**3
            rhs = 3.0 * u0_norm**2
            checks.append((k, float(lhs), float(rhs),
                           bool(lhs <= rhs * (1 + 1e-12))))
        return checks

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.0])
    def test_binding_check_equals_the_last_of_every_window(self, alpha):
        cal = default_calibration()
        for T, sigma0, u0_norm, (C1, C2) in itertools.product(
                (0.01, 0.2, 7.5, 100.0, 1e3), (1e9, 0.05), (0.5, 1.0, 3.0),
                ((1.0, 1.0), (cal.c1, cal.c2))):
            result = schedule_sigma(T, sigma0, C1, C2, alpha=alpha,
                                    u0_norm=u0_norm)
            every = self.per_window_checks(T, sigma0, C1, C2, alpha, u0_norm)
            assert result.per_step_checks == every[-1:]
            assert len(every) == result.n_steps
            # T < delta: no window ends before T, so there is no check
            assert bool(result.per_step_checks) == (T >= result.delta)
            if every:  # the last window's increment is the largest
                assert every[-1][1] == max(check[1] for check in every)

    def test_reaches_the_power_law_regime(self):
        # T = 1e12 spans 2.9e11 windows at the shipped constants
        cal = default_calibration()
        result = schedule_sigma(1e12, 1.0, cal.c1, cal.c2)
        n = result.n_steps
        assert n == math.floor(1e12 / result.delta) > 10**11
        expected = (2.0 * cal.c1 / (cal.c2 * (n + 1))) ** (1.0 / 1.5)
        assert result.sigma_assigned == expected  # beta = 3/2 at alpha = 2
        ((k, _, _, ok),) = result.per_step_checks
        assert k == n and ok

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("position", range(5))
    def test_non_finite_inputs_rejected(self, bad, position):
        # an infinite horizon used to overflow in floor(T / delta)
        args = [1.0, 1.0, 1.0, 1.0, 1.0]
        args[position] = bad
        T, sigma0, C1, C2, u0_norm = args
        with pytest.raises(InvalidInput):
            schedule_sigma(T, sigma0, C1, C2, u0_norm=u0_norm)


class TestRunCalibration:
    def test_reproduces_the_shipped_file(self):
        assert analytics.run_calibration() == default_calibration()

    def test_steps_each_initial_datum_once(self, monkeypatch):
        runs, steps = [], []

        def counting_march(*args):
            runs.append((args, evolution._march(*args)))
            return runs[-1][1]

        def counting_rk4(*args):
            steps.append(None)
            return rk4(*args)

        rk4 = evolution._rk4
        monkeypatch.setattr(analytics, "_march", counting_march)
        monkeypatch.setattr(evolution, "_rk4", counting_rk4)
        analytics.run_calibration()
        # one batched run of the three data, each to its longest sigma window
        (((u0s, _, wanted, _, _), kept),) = runs
        assert len(u0s) == len(wanted) == len(kept) == 3
        assert len(steps) == 1367
        assert [max(states) for states in kept] == [1259, 751, 1367]


class TestCalibrationFile:
    def test_round_trip(self, tmp_path):
        cal = Calibration(c1=0.5, c2=0.25, alpha=2.0, sigma_ref=0.1,
                          n_points=128, domain_length=64.0, seed=7)
        path = tmp_path / "cal.txt"
        cal.save(path)
        loaded = Calibration.load(path)
        assert loaded == cal
        assert type(loaded.n_points) is int and type(loaded.alpha) is float

    def test_key_value_lines(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# comment\n\n[one]\n a = 1 \nb=\n[two]\na = x = y\n")
        assert analytics.read_key_values(path) == {"a": "x = y", "b": ""}
        path.write_text("a = 1\nb: 2\n")
        with pytest.raises(InvalidInput) as caught:
            analytics.read_key_values(path)
        assert str(caught.value) == f"{path}, line 2: expected key = value, got 'b: 2'"

    def test_packaged_constants_load(self):
        cal = default_calibration()
        assert cal.c1 > 0 and cal.c2 > 0
        assert cal.alpha == 2.0 and cal.n_points == 128
