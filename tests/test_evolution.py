import math
import warnings

import numpy as np
import pytest

from gevrey_bbm import evolution
from gevrey_bbm.analytics import DEFAULT_NOISE_FLOOR, default_band, estimate_radius
from gevrey_bbm.errors import BlowupDetected, InvalidInput, NoConvergence
from gevrey_bbm.evolution import (
    INITIAL_DATA,
    cosine_data,
    gaussian_data,
    lifespan,
    picard_solve,
    rhs,
    sech2_data,
    simulate,
    step_rk4,
)
from gevrey_bbm.multipliers import GevreyWeight, ModelParams, apply_I, phi_symbol
from gevrey_bbm.norms import energy, gevrey_norm, hs_norm, l2_norm
from gevrey_bbm.spectral import (
    Grid,
    SpectralField,
    forward_transform,
    inverse_transform,
    zero_field,
)


class TestNonlinearTerm:
    def test_zero(self, grid64):
        assert np.all(evolution._square(zero_field(grid64).coeffs, grid64) == 0)

    def test_cosine_squared_modes(self, grid64):
        # cos(kx)^2 = 1/2 + cos(2kx)/2: only j in {0, 2k} survive
        k = 3
        field = forward_transform(
            np.cos(2 * np.pi * k * grid64.points / 64.0), grid64)
        out = evolution._square(field.coeffs, grid64)
        mags = np.abs(out)
        live = set(grid64.mode_numbers[mags > 1e-10 * mags.max()].tolist())
        assert live == {0, 2 * k}
        assert out[0] == pytest.approx(0.5 * 64.0)

    def test_output_is_dealiased(self, random_field):
        grid = random_field.grid
        out = evolution._square(random_field.coeffs, grid)
        high = np.abs(grid.mode_numbers) > grid.dealias_cutoff
        assert np.all(out[high] == 0)

    def test_batched_square_matches_rows_bitwise(self, grid128, rng):
        coeffs = (rng.standard_normal((5, 65))
                  + 1j * rng.standard_normal((5, 65)))
        coeffs[:, 0] = coeffs[:, 0].real
        batched = evolution._square(coeffs, grid128)
        for row, expected in zip(coeffs, batched):
            single = evolution._square(row, grid128)
            np.testing.assert_array_equal(single, expected)


def allocating_rk4(coeffs, dt, grid, symbol):
    """The RK4 kernel as plain expressions, one temporary per operation."""
    n, length = grid.n_points, grid.domain_length

    def rhs_(c):
        samples = np.fft.irfft(c, n, axis=-1) * (n / length)
        square = np.fft.rfft(samples * samples, axis=-1) * (length / n)
        square[..., grid.dealias_cutoff + 1:] = 0.0
        return -symbol * (c + 0.5 * square)

    k1 = rhs_(coeffs)
    k2 = rhs_(coeffs + 0.5 * dt * k1)
    k3 = rhs_(coeffs + 0.5 * dt * k2)
    k4 = rhs_(coeffs + dt * k3)
    return coeffs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestInPlaceKernel:
    @pytest.mark.parametrize("n", [8, 128, 1024])
    @pytest.mark.parametrize("rows", [None, 3])
    def test_rk4_matches_the_allocating_formula_bitwise(self, n, rows):
        # one workspace reused for 50 steps, as in a run, on a half-spectrum
        # or on a (nodes x modes) stack
        grid = Grid(n)
        u0 = gaussian_data(grid, 0.5, 4.0).coeffs
        coeffs = u0 if rows is None else np.outer([0.1, 0.3, 0.5], u0)
        symbol = phi_symbol(grid.wavenumbers, 2.0)
        work = evolution._workspace(coeffs.shape, grid)
        got = want = coeffs
        for _ in range(50):
            got = evolution._rk4(got, 0.05, grid, -symbol, work)
            want = allocating_rk4(want, 0.05, grid, symbol)
            assert got.tobytes() == want.tobytes()
            assert not any(np.shares_memory(got, buffer) for buffer in work)


class TestRhs:
    def test_zero(self, grid64):
        assert np.all(rhs(zero_field(grid64), 2.0).coeffs == 0)

    def test_preserves_reality(self, random_field):
        # a real DC entry is the one reality condition a half-spectrum can
        # break; phi(0) = 0 keeps it exactly zero (mass conservation)
        assert rhs(random_field, 2.0).coeffs[0] == 0.0

    def test_small_mode_is_pure_phase_rotation(self, grid64):
        # amplitude 1e-6: quadratic feedback on mode 1 is ~1e-18, so the
        # mode must rotate with amplitude drift below 1e-10 over 1000 steps
        state = cosine_data(grid64, amplitude=1e-6, mode=1)
        a0 = abs(state.coeffs[1])
        for _ in range(1000):
            state = step_rk4(state, 0.05, 2.0)
        assert abs(abs(state.coeffs[1]) - a0) / a0 < 1e-10


class TestStepRk4:
    def test_dt_zero_identity(self, random_field):
        out = step_rk4(random_field, 0.0, 2.0)
        np.testing.assert_array_equal(out.coeffs, random_field.coeffs)

    def test_negative_dt_rejected(self, random_field):
        with pytest.raises(InvalidInput):
            step_rk4(random_field, -0.1, 2.0)

    def test_warns_when_dt_exceeds_the_stability_margin(self, grid64):
        # max|phi| is just below 1/2 at alpha = 2, so dt = 2.5 gives ~1.25
        u0 = gaussian_data(grid64, 0.01, 4.0)
        with pytest.warns(UserWarning, match=r"dt\*max\|phi\|"):
            step_rk4(u0, 2.5, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step_rk4(u0, 1.0, 2.0)

    def test_fourth_order_convergence(self):
        grid = Grid(64)
        u0 = gaussian_data(grid, amplitude=1.0, width=4.0)
        t_end = 0.8

        def endpoint(dt):
            state = u0
            for _ in range(int(round(t_end / dt))):
                state = step_rk4(state, dt, 2.0)
            return state

        reference = endpoint(0.0125)  # dt/16
        err_coarse = l2_norm(endpoint(0.2).with_coeffs(
            endpoint(0.2).coeffs - reference.coeffs))
        err_fine = l2_norm(endpoint(0.1).with_coeffs(
            endpoint(0.1).coeffs - reference.coeffs))
        assert 12.0 <= err_coarse / err_fine <= 20.0

    def test_invariant_drift_is_tiny(self):
        grid = Grid(256)
        u0 = gaussian_data(grid, amplitude=0.5, width=4.0)
        e0 = energy(u0, 0.0, 2.0)
        state = u0
        for _ in range(1000):
            state = step_rk4(state, 1e-3, 2.0)
        assert abs(energy(state, 0.0, 2.0) - e0) / e0 < 1e-10


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_reported_invariant_is_conserved(alpha):
    grid = Grid(128)
    u0 = gaussian_data(grid, amplitude=0.5, width=4.0)
    params = ModelParams(alpha, grid, 2e-3, 1.0)
    traj = simulate(u0, params, GevreyWeight(0.1), sample_every=50)
    values = np.array([r.h1_invariant for r in traj.reports])
    assert np.max(np.abs(values - values[0])) / values[0] < 1e-10


class TestLifespan:
    def test_formula(self, grid64):
        weight = GevreyWeight(0.0)
        u0 = gaussian_data(grid64, 0.5, 4.0)
        norm = hs_norm(apply_I(u0, weight), 1.0)
        scaled = u0.with_coeffs(u0.coeffs / norm)  # ||I u0|| = 1
        assert lifespan(scaled, weight, 2.0, 1.0) == pytest.approx(0.125)

    def test_doubling_data_halves_delta(self, grid64):
        weight = GevreyWeight(0.1)
        u0 = gaussian_data(grid64, 0.5, 4.0)
        doubled = u0.with_coeffs(2.0 * u0.coeffs)
        assert lifespan(doubled, weight, 2.0, 1.0) == pytest.approx(
            0.5 * lifespan(u0, weight, 2.0, 1.0), rel=1e-12)

    def test_finite_where_the_linear_weights_overflow(self):
        # sigma * xi_max ~ 402: cosh(sigma xi)^2 overflows a double, the
        # norm (about 1.8e158) does not, so the window is tiny but real
        grid = Grid(1024, 64.0)
        u0 = gaussian_data(grid, 0.5, 4.0)
        assert 8.0 * np.max(grid.wavenumbers) > 355.0
        delta = lifespan(u0, GevreyWeight(8.0), 2.0, 0.5)
        assert 0.0 < delta < math.inf
        assert delta == 1.0 / (8.0 * 0.5 * gevrey_norm(u0, GevreyWeight(8.0, 1.0)))

    def test_zero_data_never_expires(self, grid64):
        assert lifespan(zero_field(grid64), GevreyWeight(0.0), 2.0, 1.0) == np.inf

    def test_constant_validated(self, grid64):
        with pytest.raises(InvalidInput):
            lifespan(zero_field(grid64), GevreyWeight(0.0), 2.0, 0.0)


class TestPicardSolve:
    def test_zero_data_converges_immediately(self, grid64):
        traj, diag = picard_solve(zero_field(grid64), 1.0, 2.0, GevreyWeight(0.0))
        assert diag.iterate_distances[-1] < evolution.PICARD_TOL
        assert len(diag.iterate_distances) == 1
        assert all(np.all(s.coeffs == 0) for s in traj.states)

    def test_small_data_contracts(self):
        grid = Grid(128)
        weight = GevreyWeight(0.1)
        u0 = gaussian_data(grid, 0.1, 4.0)
        traj, diag = picard_solve(u0, 2.0, 2.0, weight)
        assert diag.iterate_distances[-1] < evolution.PICARD_TOL
        assert diag.contraction_factor <= 0.5
        assert traj.times[-1] == pytest.approx(2.0)

    @pytest.mark.parametrize("n_nodes", [8, 64])
    def test_recursion_matches_the_direct_trapezoid(self, n_nodes):
        grid = Grid(64)
        u0 = gaussian_data(grid, 0.1, 4.0)
        traj, diag = picard_solve(u0, 2.0, 2.0, GevreyWeight(0.1),
                                  n_nodes=n_nodes)
        # the same number of iterations of the O(nodes^2) quadrature
        symbol = phi_symbol(grid.wavenumbers, 2.0)
        times = np.linspace(0.0, 2.0, n_nodes + 1)
        dtau = times[1] - times[0]
        free = np.exp(-np.outer(times, symbol)) * u0.coeffs
        iterate = free
        for _ in diag.iterate_distances:
            nl = np.array([symbol * evolution._square(c, grid) for c in iterate])
            new = free.copy()
            for k in range(1, n_nodes + 1):
                weights = np.full(k + 1, dtau)
                weights[[0, -1]] *= 0.5
                phases = np.exp(-np.outer(times[k] - times[:k + 1], symbol))
                new[k] -= 0.5 * np.sum(weights[:, None] * phases * nl[:k + 1],
                                       axis=0)
            iterate = new
        got = np.array([s.coeffs for s in traj.states])
        assert np.max(np.abs(got - iterate)) <= 1e-13 * np.max(np.abs(iterate))

    def test_rejects_nonpositive_window(self, grid64):
        with pytest.raises(InvalidInput):
            picard_solve(zero_field(grid64), 0.0, 2.0, GevreyWeight(0.0))

    @pytest.mark.parametrize("n_nodes, alpha", [(0, 2.0), (-3, 2.0), (16, 1.0)])
    def test_inputs_checked_before_iterating(self, grid64, monkeypatch,
                                             n_nodes, alpha):
        def no_iteration(*args, **kwargs):
            raise AssertionError("picard_solve iterated")

        monkeypatch.setattr(evolution, "_square", no_iteration)
        with pytest.raises(InvalidInput):
            picard_solve(zero_field(grid64), 1.0, alpha, GevreyWeight(0.0),
                         n_nodes=n_nodes)

    @pytest.mark.parametrize("amplitude, delta", [(2.0, 10.0), (3.0, 40.0)])
    def test_a_non_finite_iterate_is_no_convergence(self, amplitude, delta):
        # a NaN row is never the max of the per-node distances, so without
        # the cap check both runs end on a distance below the tolerance
        # with non-finite states
        u0 = gaussian_data(Grid(64), amplitude, 4.0)
        with pytest.raises(NoConvergence) as info:
            picard_solve(u0, delta, 2.0, GevreyWeight(0.1), n_nodes=16)
        distances = info.value.diagnostics.iterate_distances
        assert all(math.isfinite(d) for d in distances)
        assert distances[-1] > evolution.PICARD_TOL


class TestSimulate:
    def test_sample_cap_counts_the_samples_it_would_keep(self, monkeypatch):
        # a cap one below the number of samples raises, a cap equal to it
        # does not
        for n_steps in range(13):
            for every in (1, 2, 5, 13):
                expected = sorted(set(range(0, n_steps + 1, every)) | {n_steps})
                monkeypatch.setattr(evolution, "MAX_SAMPLES", len(expected) - 1)
                with pytest.raises(InvalidInput):
                    evolution._sample_steps(n_steps, every)
                monkeypatch.setattr(evolution, "MAX_SAMPLES", len(expected))
                assert evolution._sample_steps(n_steps, every) == expected

    def test_zero_horizon_single_state(self, grid64):
        u0 = gaussian_data(grid64, 0.5, 4.0)
        params = ModelParams(2.0, grid64, 1e-2, 0.0)
        traj = simulate(u0, params, GevreyWeight(0.0))
        assert len(traj.states) == 1 and traj.times[0] == 0.0

    def test_solitary_profile_stays_bounded(self):
        grid = Grid(256)
        u0 = sech2_data(grid, 0.5, 4.0)
        params = ModelParams(2.0, grid, 0.01, 50.0)
        traj = simulate(u0, params, GevreyWeight(0.0), sample_every=500)
        h1s = [r.h1 for r in traj.reports]
        assert max(h1s) <= 2.0 * h1s[0]

    def test_weighted_norm_doubling_bound_on_lifespan_window(self):
        from gevrey_bbm.analytics import default_calibration
        grid = Grid(128)
        weight = GevreyWeight(0.1)
        u0 = gaussian_data(grid, 0.3, 4.0)
        delta = lifespan(u0, weight, 2.0, default_calibration().c1)
        params = ModelParams(2.0, grid, delta / 400.0, delta)
        traj = simulate(u0, params, weight, sample_every=20)
        norms = [hs_norm(apply_I(s, weight), 1.0) for s in traj.states]
        assert max(norms) <= 2.0 * norms[0]

    def test_samples_equal_a_step_rk4_loop_bitwise(self, grid64):
        u0 = gaussian_data(grid64, 0.5, 4.0)
        params = ModelParams(2.0, grid64, 0.05, 1.0)
        traj = simulate(u0, params, GevreyWeight(0.1), sample_every=3)
        state, expected = u0, [u0.coeffs]
        for step in range(1, 21):
            state = step_rk4(state, 0.05, 2.0)
            if step % 3 == 0 or step == 20:
                expected.append(state.coeffs)
        assert len(traj.states) == len(expected)
        for got, want in zip(traj.states, expected):
            np.testing.assert_array_equal(got.coeffs, want)

    def test_unstable_dt_warns_once_per_run(self, grid64):
        u0 = gaussian_data(grid64, 0.01, 4.0)
        params = ModelParams(2.0, grid64, 2.5, 50.0)  # 20 steps
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulate(u0, params, GevreyWeight(0.0))
        assert len(caught) == 1
        assert "dt*max|phi|" in str(caught[0].message)
        assert caught[0].filename == __file__

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2e12])
    def test_blowup_reports_its_time(self, grid64, bad):
        coeffs = gaussian_data(grid64, 0.5, 4.0).coeffs.copy()
        coeffs[3] = bad
        params = ModelParams(2.0, grid64, 1e-2, 1.0)
        with np.errstate(all="ignore"), pytest.raises(BlowupDetected) as info:
            simulate(SpectralField(grid64, coeffs), params, GevreyWeight(0.0))
        assert info.value.time == 1e-2

    def test_blowup_detection(self, grid64):
        coeffs = np.full(33, 1e13, dtype=complex)
        coeffs[32] = 0.0
        bad = SpectralField(grid64, coeffs)
        params = ModelParams(2.0, grid64, 1e-2, 1.0)
        with pytest.raises(BlowupDetected):
            simulate(bad, params, GevreyWeight(0.0))

    def test_sample_every_validated(self, grid64):
        params = ModelParams(2.0, grid64, 1e-2, 1.0)
        with pytest.raises(InvalidInput):
            simulate(zero_field(grid64), params, GevreyWeight(0.0), sample_every=0)


class TestInitialData:
    def test_registry_names(self):
        assert set(INITIAL_DATA) == {"gaussian", "cosine", "sech2"}

    def test_profiles_are_real_and_centered(self, grid64):
        for factory in (gaussian_data, sech2_data):
            field = factory(grid64, 1.0, 4.0)
            samples = inverse_transform(field)
            assert abs(np.argmax(samples) * grid64.dx - 32.0) <= grid64.dx

    @pytest.mark.parametrize("factory", [gaussian_data, sech2_data])
    @pytest.mark.parametrize("width", [0.0, -1.0, np.nan])
    def test_width_validated(self, grid64, factory, width):
        with pytest.raises(InvalidInput):
            factory(grid64, 1.0, width)

    def test_cosine_is_single_mode(self, grid64):
        field = cosine_data(grid64, 2.0, mode=3)
        mags = np.abs(field.coeffs)
        live = set(grid64.mode_numbers[mags > 1e-10 * mags.max()].tolist())
        assert live == {3}


class TestSolitaryWave:
    """The exact BBM solitary wave (Benjamin, Bona & Mahony 1972),
    u = 3(c-1) sech^2(k(x - x0 - ct)) with k = sqrt((c-1)/c)/2, at alpha = 2."""

    c, T = 1.5, 10.0
    grid = Grid(512, 128.0)

    def wave(self, t):
        k = 0.5 * math.sqrt((self.c - 1.0) / self.c)
        x0 = self.grid.domain_length / 2.0 - self.c * self.T / 2.0
        return 3.0 * (self.c - 1.0) / np.cosh(
            k * (self.grid.points - x0 - self.c * t)) ** 2

    def final_state(self, dt):
        u0 = forward_transform(self.wave(0.0), self.grid)
        params = ModelParams(2.0, self.grid, dt, self.T)
        traj = simulate(u0, params, GevreyWeight(0.0),
                        sample_every=round(self.T / dt))
        return traj.states[-1]

    def test_rk4_converges_to_the_wave_at_fourth_order(self):
        exact = self.wave(self.T)
        errors = [np.max(np.abs(inverse_transform(self.final_state(dt)) - exact))
                  for dt in (0.08, 0.04, 0.02)]
        assert errors[0] < 1e-6 and errors[1] < 7e-8 and errors[2] < 5e-9
        for coarse, fine in zip(errors, errors[1:]):
            assert 14.0 <= coarse / fine <= 18.0

    def test_radius_estimate_within_ten_percent(self):
        # the exact radius is pi / (2k); the affine log-fit reads about 5% low
        state = self.final_state(0.04)
        lo, hi = default_band(state, DEFAULT_NOISE_FLOOR)
        sigma_est, _ = estimate_radius(state, lo, hi)
        exact = math.pi * math.sqrt(self.c / (self.c - 1.0))
        assert abs(sigma_est - exact) <= 0.1 * exact
