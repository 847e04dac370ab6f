import math

import numpy as np
import pytest

from gevrey_bbm import analytics, evolution
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
from gevrey_bbm.identities import symmetrized_weight
from gevrey_bbm.multipliers import GevreyWeight, ModelParams, semigroup
from gevrey_bbm.norms import energy
from gevrey_bbm.spectral import Grid, SpectralField, zero_field, zero_nyquist


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
        band = analytics._active_band(grid)

        def band_energy(state):
            # the rate sees the state truncated to the active band; so must E
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

    def test_negative_sigma_rejected(self, random_field):
        with pytest.raises(InvalidInput):
            trilinear_defect_rate(random_field, -0.1, 2.0)

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
        # the physical route overflows quietly here; the triad route must not
        with np.errstate(all="ignore"), pytest.raises(OverflowRisk):
            trilinear_defect_rate(random_field, 400.0, 2.0)


class TestMeasureDefect:
    def test_sigma_zero_below_discretization_floor(self):
        grid = Grid(128)
        u0 = gaussian_data(grid, 0.5, 4.0)
        params = ModelParams(2.0, grid, 2e-3, 1.0)
        (report,) = measure_defects(u0, [(0.0, 1.0)], params)
        assert report.defect_abs < 1e-8 * energy(u0, 0.0, 2.0)
        assert report.bound_satisfied

    def test_gaussian_within_calibrated_bound(self):
        grid = Grid(128)
        cal = default_calibration()
        u0 = gaussian_data(grid, 0.5, 4.0)
        params = ModelParams(2.0, grid, 2e-3, 1.0)
        (report,) = measure_defects(u0, [(0.1, 2.0)], params, c_cal=cal.c2)
        assert report.defect_abs > 0
        assert report.bound_satisfied

    def test_leading_quadratic_scaling(self):
        # doubling sigma quadruples the defect while the sigma^2 term leads
        grid = Grid(128)
        u0 = gaussian_data(grid, 0.5, 4.0)
        params = ModelParams(2.0, grid, 2e-3, 1.0)
        small = measure_defects(u0, [(0.02, 1.0)], params)[0].defect_abs
        large = measure_defects(u0, [(0.04, 1.0)], params)[0].defect_abs
        assert 3.5 <= large / small <= 4.5

    def test_delta_validated(self, grid64):
        params = ModelParams(2.0, grid64, 1e-2, 1.0)
        # 4e-3 is under half a step: it would take no step at all
        for delta in (0.0, np.inf, np.nan, 4e-3):
            with pytest.raises(InvalidInput):
                measure_defects(zero_field(grid64), [(0.1, delta)], params)

    def test_one_trajectory_serves_every_sigma(self, grid64):
        # sigma does not enter the flow: the defects read off the shared
        # trajectory equal those of a run that carries the weight itself.
        # 200 steps of dt = 1e-2 are sampled every 200 // 40 = 5 steps.
        u0 = gaussian_data(grid64, 0.5, 4.0)
        params = ModelParams(2.0, grid64, 1e-2, 2.0)
        sigmas = [0.0, 0.05, 0.2]
        reports = measure_defects(u0, [(sigma, 2.0) for sigma in sigmas], params)
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
        params = ModelParams(2.0, grid64, 1e-2, 1.0)
        reports = measure_defects(u0, self.WINDOWS, params, c_cal=0.01)
        assert reports == [measure_defects(u0, [window], params, c_cal=0.01)[0]
                           for window in self.WINDOWS]

    def test_one_run_keeps_only_the_union_of_sample_steps(self, grid64, monkeypatch):
        runs, steps = [], []

        def counting_march(u0, params, wanted):
            runs.append(evolution._march(u0, params, wanted))
            return runs[-1]

        def counting_rk4(*args):
            steps.append(None)
            return rk4(*args)

        rk4 = evolution._rk4
        monkeypatch.setattr(analytics, "_march", counting_march)
        monkeypatch.setattr(evolution, "_rk4", counting_rk4)
        u0 = gaussian_data(grid64, 0.5, 4.0)
        measure_defects(u0, self.WINDOWS, ModelParams(2.0, grid64, 1e-2, 1.0))
        union = set()
        for n_steps in (93, 127, 205):
            union |= set(range(0, n_steps + 1, n_steps // 40)) | {n_steps}
        assert len(runs) == 1
        assert len(steps) == 205
        assert sorted(runs[0]) == sorted(union)

    def test_kept_states_are_distinct_arrays_of_the_step_loop(self, grid64,
                                                              monkeypatch):
        runs = []

        def keeping_march(*args):
            runs.append(evolution._march(*args))
            return runs[-1]

        monkeypatch.setattr(analytics, "_march", keeping_march)
        u0 = gaussian_data(grid64, 0.5, 4.0)
        measure_defects(u0, self.WINDOWS[:3], ModelParams(2.0, grid64, 1e-2, 1.0))
        (kept,) = runs
        arrays = [kept[step].coeffs for step in sorted(kept)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        state = u0
        for step in range(1, max(kept) + 1):
            state = evolution.step_rk4(state, 1e-2, 2.0)
            if step in kept:
                assert kept[step].coeffs.tobytes() == state.coeffs.tobytes()

    def test_no_window_takes_no_step(self, grid64, monkeypatch):
        monkeypatch.setattr(analytics, "_march", None)
        assert measure_defects(zero_field(grid64), [],
                               ModelParams(2.0, grid64, 1e-2, 1.0)) == []


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
        params = ModelParams(2.0, grid64, 1e-2, 1.0)
        with pytest.raises(InvalidInput):
            defect_scaling_fit(zero_field(grid64), [0.1], 1.0, params)

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

    def test_random_fields_are_real_and_band_limited(self, grid128, rng):
        field = random_band_limited_field(grid128, rng)
        high = np.abs(grid128.mode_numbers) > grid128.dealias_cutoff
        assert np.all(field.coeffs[high] == 0)


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

    def test_too_many_windows_rejected(self):
        # delta = 1/8, so T = (MAX + 1) / 8 spans one window over the limit
        limit = analytics.MAX_SCHEDULE_WINDOWS
        with pytest.raises(InvalidInput):
            schedule_sigma((limit + 1) / 8.0, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidInput):
            schedule_sigma(1e300, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidInput):  # 8 * C1 * u0_norm overflows
            schedule_sigma(1.0, 1.0, 1e308, 1.0, u0_norm=1e10)

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
            runs.append(args)
            return evolution._march(*args)

        def counting_rk4(*args):
            steps.append(None)
            return rk4(*args)

        rk4 = evolution._rk4
        monkeypatch.setattr(analytics, "_march", counting_march)
        monkeypatch.setattr(evolution, "_rk4", counting_rk4)
        analytics.run_calibration()
        # one run per initial datum, each to its longest sigma window
        assert len(runs) == 3
        assert len(steps) == 3377


class TestCalibrationFile:
    def test_round_trip(self, tmp_path):
        cal = Calibration(c1=0.5, c2=0.25, alpha=2.0, sigma_ref=0.1,
                          n_points=128, domain_length=64.0, seed=7)
        path = tmp_path / "cal.txt"
        cal.save(path)
        assert Calibration.load(path) == cal

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
