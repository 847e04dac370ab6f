import gc
import math
import re
import sys
import warnings

import numpy as np
import pytest
from conftest import peak_bytes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gevrey_bbm import evolution, spectral
from gevrey_bbm.analytics import (
    DEFAULT_NOISE_FLOOR,
    default_band,
    default_calibration,
    estimate_radius,
    measure_defects,
)
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
    dealias,
    forward_transform,
    inverse_transform,
    zero_field,
)


def square(coeffs, grid):
    """evolution._square into fresh arrays."""
    return evolution._square(coeffs, grid)


class TestNonlinearTerm:
    def test_zero(self, grid64):
        assert np.all(square(zero_field(grid64).coeffs, grid64) == 0)

    def test_cosine_squared_modes(self, grid64):
        # cos(kx)^2 = 1/2 + cos(2kx)/2: only j in {0, 2k} survive
        k = 3
        field = forward_transform(
            np.cos(2 * np.pi * k * grid64.points / 64.0), grid64)
        out = square(field.coeffs, grid64)
        mags = np.abs(out)
        live = set(grid64.mode_numbers[mags > 1e-10 * mags.max()].tolist())
        assert live == {0, 2 * k}
        assert out[0] == pytest.approx(0.5 * 64.0)

    def test_output_is_dealiased(self, random_field):
        grid = random_field.grid
        out = square(random_field.coeffs, grid)
        high = np.abs(grid.mode_numbers) > grid.dealias_cutoff
        assert np.all(out[high] == 0)

    def test_batched_square_matches_rows_bitwise(self, grid128, rng):
        coeffs = (rng.standard_normal((5, 65))
                  + 1j * rng.standard_normal((5, 65)))
        coeffs[:, 0] = coeffs[:, 0].real
        batched = square(coeffs, grid128)
        for row, expected in zip(coeffs, batched):
            single = square(row, grid128)
            np.testing.assert_array_equal(single, expected)


def allocating_rhs(c, grid, symbol):
    """The right-hand side as plain expressions, one temporary per
    operation."""
    n, length = grid.n_points, grid.domain_length
    samples = np.fft.irfft(c, n, axis=-1) * (n / length)
    square = np.fft.rfft(samples * samples, axis=-1) * (length / n)
    square[..., grid.dealias_cutoff + 1:] = 0.0
    return -symbol * (c + 0.5 * square)


def allocating_rk4(coeffs, dt, grid, symbol):
    """The RK4 kernel as plain expressions, one temporary per operation."""
    def rhs_(c):
        return allocating_rhs(c, grid, symbol)

    k1 = rhs_(coeffs)
    k2 = rhs_(coeffs + 0.5 * dt * k1)
    k3 = rhs_(coeffs + 0.5 * dt * k2)
    k4 = rhs_(coeffs + dt * k3)
    return coeffs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def kernel_cases():
    """(n, L, data) for the in-place kernel: power-of-two grids fold 1/n *
    n/L into one inverse scale 1/L; 96 and 100 points keep n/L apart, and
    folding it there changes the bits.  Cosine and zero data have modes that
    are exactly zero.  Gaussian data on L = 64 is named by n alone."""
    for n, length in [(8, 64.0), (128, 64.0), (1024, 64.0), (96, 64.0),
                      (128, 50.0), (100, 30.0)]:
        for data in ("gaussian", "cosine", "zero"):
            plain = (length, data) == (64.0, "gaussian")
            yield pytest.param(n, length, data,
                               id=str(n) if plain else f"{n}-{length:g}-{data}")


def kernel_datum(grid, data):
    """The initial datum of a kernel case, as its half-spectrum; the cosine
    has mode 3, or the cutoff K where that is lower (mode 2 at n = 8)."""
    mode = min(3, grid.dealias_cutoff)
    return {"gaussian": lambda: gaussian_data(grid, 0.5, 4.0),
            "cosine": lambda: cosine_data(grid, 0.5, mode),
            "zero": lambda: zero_field(grid)}[data]().coeffs


class TestInPlaceKernel:
    @pytest.mark.parametrize("n, length, data", kernel_cases())
    @pytest.mark.parametrize("rows", [None, 3])
    def test_rk4_matches_the_allocating_formula_bitwise(self, n, length, rows,
                                                        data):
        # one workspace reused for 50 steps, as in a run, on a band
        # half-spectrum or on a (nodes x modes) stack: the full-length
        # formula keeps the modes above K zero, and the band kernel gives
        # its band bit for bit
        grid = Grid(n, length)
        band = evolution._band(grid)
        u0 = kernel_datum(grid, data)
        coeffs = u0 if rows is None else np.outer([0.1, 0.3, 0.5], u0)
        symbol = phi_symbol(grid.wavenumbers, 2.0)
        work = evolution._workspace(coeffs[..., :band].shape, grid, 0.05)
        got, want = coeffs[..., :band], coeffs
        for _ in range(50):
            got = evolution._rk4(got, -symbol[:band], work)
            want = allocating_rk4(want, 0.05, grid, symbol)
            assert np.all(want[..., band:] == 0)
            assert got.tobytes() == want[..., :band].tobytes()
            assert not any(np.shares_memory(got, buffer) for buffer in work)


class TestPhiCache:
    def test_step_rk4_follows_each_calls_alpha_and_dt(self, grid128):
        # one grid, alpha and dt alternating: every step must use its own
        # call's -phi and scalars, never a cached earlier call's
        state = gaussian_data(grid128, 0.5, 4.0)
        want = state.coeffs
        for step in range(8):
            alpha, dt = (2.0, 3.0)[step % 2], (0.05, 0.02)[step // 2 % 2]
            state = step_rk4(state, dt, alpha)
            want = allocating_rk4(want, dt, grid128,
                                  phi_symbol(grid128.wavenumbers, alpha))
            assert state.coeffs.tobytes() == want.tobytes()

    def test_cached_minus_phi_is_read_only(self, grid64):
        minus_phi, max_phi = evolution._minus_phi(grid64, 2.0)
        assert evolution._minus_phi(grid64, 2.0)[0] is minus_phi
        assert max_phi == np.max(np.abs(phi_symbol(grid64.wavenumbers, 2.0)))
        with pytest.raises(ValueError):
            minus_phi[1] = 0.0

    def test_unstable_dt_warns_on_every_step_rk4_call(self, grid64):
        u0 = gaussian_data(grid64, 0.01, 4.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                step_rk4(u0, 2.5, 2.0)
        assert len(caught) == 3
        assert all("dt*max|phi|" in str(w.message) and w.filename == __file__
                   for w in caught)


def test_no_run_calls_the_np_fft_wrapper(grid64, monkeypatch):
    # every FFT goes to numpy's kernels through spectral._rfft and _to_samples;
    # the np.fft wrapper costs more than the transform at small n
    def refuse(*args, **kwargs):
        raise AssertionError("np.fft wrapper called")

    monkeypatch.setattr(np.fft, "rfft", refuse)
    monkeypatch.setattr(np.fft, "irfft", refuse)
    u0 = gaussian_data(grid64, 0.5, 4.0)  # forward_transform
    inverse_transform(u0)
    params = ModelParams(2.0, grid64, 0.05, 0.2)
    simulate(u0, params, GevreyWeight(0.1))
    u0s = [u0, sech2_data(grid64, 0.5, 3.0), cosine_data(grid64, 0.3, 2)]
    kept = evolution._march(u0s, [2.0] * 3, [{0, 2}, {4}, {1, 3}], grid64, 0.05)
    assert [sorted(k) for k in kept] == [[0, 2], [0, 4], [0, 1, 3]]
    measure_defects([(u0, 2.0, [(0.1, 0.2)])], grid64, 0.05)
    picard_solve(u0, 0.2, 2.0, GevreyWeight(0.1), n_nodes=8)


class TestRhs:
    def test_zero(self, grid64):
        assert np.all(rhs(zero_field(grid64), 2.0).coeffs == 0)

    def test_result_holds_no_workspace(self, random_field):
        assert rhs(random_field, 2.0).coeffs.base is None

    @pytest.mark.parametrize("n, length, data", kernel_cases())
    def test_equals_the_allocating_formulas_k1_bitwise(self, n, length, data):
        grid = Grid(n, length)
        u0 = SpectralField(grid, kernel_datum(grid, data))
        want = allocating_rhs(u0.coeffs, grid, phi_symbol(grid.wavenumbers, 2.0))
        assert rhs(u0, 2.0).coeffs.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
    def test_non_finite_dt_rejected(self, random_field, dt):
        # a NaN dt stepped to an all-NaN state, and an infinite one to NaN
        # after overflow warnings
        with pytest.raises(InvalidInput, match="finite"):
            step_rk4(random_field, dt, 2.0)

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


def hamiltonian(field):
    """int(u^2/2 + u^3/6) dx as a grid sum; exact for dealiased states."""
    u = inverse_transform(field)
    return float(np.sum(u * u / 2.0 + u**3 / 6.0) * field.grid.dx)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_reported_invariant_is_conserved(alpha):
    # all three exact invariants, for every alpha: the reported H^1
    # quantity, the Hamiltonian to c03's bound, and the mass exactly, as
    # phi(0) = 0 leaves coeff(0) untouched
    grid = Grid(128)
    u0 = gaussian_data(grid, amplitude=0.5, width=4.0)
    params = ModelParams(alpha, grid, 2e-3, 1.0)
    traj = simulate(u0, params, GevreyWeight(0.1), sample_every=50)
    values = np.array([r.h1_invariant for r in traj.reports])
    assert np.max(np.abs(values - values[0])) / values[0] < 1e-10
    energies = np.array([hamiltonian(s) for s in traj.states])
    assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-8
    assert all(s.coeffs[0] == u0.coeffs[0] for s in traj.states)


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

    def test_nan_sigma_rejected(self, grid64):
        # the window came out nan
        u0 = gaussian_data(grid64, 0.5, 4.0)
        with pytest.raises(InvalidInput, match="sigma must be finite"):
            lifespan(u0, GevreyWeight(math.nan), 2.0, 0.03)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, math.nan, math.inf])
    def test_alpha_validated(self, alpha, grid64):
        # alpha = 1 gave a window of 3.40, and a NaN one a message naming s
        u0 = gaussian_data(grid64, 0.5, 4.0)
        with pytest.raises(InvalidInput, match="alpha must be finite and > 1"):
            lifespan(u0, GevreyWeight(0.1), alpha, 0.03)


def c05_datum():
    """c05's datum, window and weight: a Gaussian on Grid(256) scaled to
    ||I u0||_{H^1} = 0.1, over half its lifespan under the shipped C1."""
    grid, weight = Grid(256), GevreyWeight(0.1)
    raw = gaussian_data(grid, 0.5, 4.0)
    u0 = raw.with_coeffs(0.1 / hs_norm(apply_I(raw, weight), 1.0) * raw.coeffs)
    return u0, 0.5 * lifespan(u0, weight, 2.0, default_calibration().c1), weight


def sup_distance(grid, weighted, alpha):
    return max(hs_norm(SpectralField(grid, row), alpha / 2.0) for row in weighted)


def whole_array_picard(u0, delta, alpha, weight, n_nodes, iterations):
    """picard_solve's iteration on every node at once, as the plain
    expressions evaluate; from about 256 KiB up, numpy reuses a temporary
    in place and so computes flow * (dtau * sums) as (dtau * sums) * flow,
    which can differ in the last bit.  The final iterate and the distances."""
    grid = u0.grid
    symbol = phi_symbol(grid.wavenumbers, alpha)
    times = np.linspace(0.0, delta, n_nodes + 1)
    dtau = times[1] - times[0]
    flow = np.exp(-np.outer(times, symbol))
    back = np.conj(flow) * symbol
    free = flow * u0.coeffs[None, :]
    i_symbol = GevreyWeight(weight.sigma).symbol(grid.wavenumbers)
    iterate, distances = free, []
    for _ in range(iterations):
        # the trapezoid as a cumulative sum of g_m = S(-t_m) phi u_m^2
        g = back * square(iterate, grid)
        sums = np.cumsum(g, axis=0)
        sums -= 0.5 * (g[0] + g)
        new = free - 0.5 * (flow * (dtau * sums))
        distances.append(sup_distance(grid, (new - iterate) * i_symbol, alpha))
        iterate = new
    return iterate, distances


def named_formula_picard(u0, delta, alpha, weight, n_nodes, iterations):
    """whole_array_picard with every temporary named, so that numpy reuses
    none in place: the written formula, operand for operand."""
    grid = u0.grid
    symbol = phi_symbol(grid.wavenumbers, alpha)
    times = np.linspace(0.0, delta, n_nodes + 1)
    dtau = times[1] - times[0]
    outer = np.outer(times, symbol)
    exponent = -outer
    flow = np.exp(exponent)
    conj = np.conj(flow)
    back = conj * symbol
    free = flow * u0.coeffs[None, :]
    i_symbol = GevreyWeight(weight.sigma).symbol(grid.wavenumbers)
    iterate, distances = free, []
    for _ in range(iterations):
        squared = square(iterate, grid)
        g = back * squared
        sums = np.cumsum(g, axis=0)
        ends = g[0] + g
        half_ends = 0.5 * ends
        trapezoid = sums - half_ends
        scaled = dtau * trapezoid
        flowed = flow * scaled
        halved = 0.5 * flowed
        new = free - halved
        difference = new - iterate
        weighted = difference * i_symbol
        distances.append(sup_distance(grid, weighted, alpha))
        iterate = new
    return iterate, distances


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

    @pytest.mark.parametrize("n_nodes", [8, 64, 256])
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
            nl = np.array([symbol * square(c, grid) for c in iterate])
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

    @pytest.mark.parametrize("n_nodes", [8, 64])
    def test_distances_equal_the_per_node_loop_bitwise(self, n_nodes):
        grid = Grid(128)
        weight = GevreyWeight(0.1)
        u0 = gaussian_data(grid, 0.3, 4.0)
        _, diag = picard_solve(u0, 2.0, 2.0, weight, n_nodes=n_nodes)
        _, distances = whole_array_picard(u0, 2.0, 2.0, weight, n_nodes,
                                          len(diag.iterate_distances))
        assert len(distances) > 3
        assert distances == diag.iterate_distances

    def test_equals_the_whole_array_iteration_at_c05(self):
        u0, delta, weight = c05_datum()
        traj, diag = picard_solve(u0, delta, 2.0, weight)
        iterate, distances = whole_array_picard(u0, delta, 2.0, weight, 64,
                                                len(diag.iterate_distances))
        assert np.array([s.coeffs for s in traj.states]).tobytes() == \
            iterate.tobytes()
        assert distances == diag.iterate_distances

    @pytest.mark.parametrize("n_nodes", [8, 63, 64, 65, 128, 256, 300])
    def test_equals_the_named_formula_bitwise(self, n_nodes):
        # blocks of 64 steps after node 0: one partial block, one full
        # block (64 nodes), a last block of 1 node, and 2 to 4 full blocks
        # with and without a partial one after them
        u0, delta, weight = c05_datum()
        traj, diag = picard_solve(u0, delta, 2.0, weight, n_nodes=n_nodes)
        iterate, distances = named_formula_picard(
            u0, delta, 2.0, weight, n_nodes, len(diag.iterate_distances))
        assert np.array([s.coeffs for s in traj.states]).tobytes() == \
            iterate.tobytes()
        assert distances == diag.iterate_distances

    def test_one_batched_square_per_iteration(self, monkeypatch):
        calls = []

        def counting_square(*args):
            calls.append(args[0].shape)
            return square(*args)

        square = evolution._square
        monkeypatch.setattr(evolution, "_square", counting_square)
        u0 = gaussian_data(Grid(128), 0.3, 4.0)
        _, diag = picard_solve(u0, 2.0, 2.0, GevreyWeight(0.1), n_nodes=32)
        assert len(diag.iterate_distances) > 3
        assert calls == [(33, 65)] * len(diag.iterate_distances)

    def test_one_square_per_block_per_iteration(self, monkeypatch):
        calls = []

        def counting_square(*args):
            calls.append(args[0].shape)
            return square(*args)

        square = evolution._square
        monkeypatch.setattr(evolution, "_square", counting_square)
        u0 = gaussian_data(Grid(128), 0.3, 4.0)
        _, diag = picard_solve(u0, 2.0, 2.0, GevreyWeight(0.1), n_nodes=200)
        assert evolution.PICARD_BLOCK == 64
        blocks = [(65, 65), (64, 65), (64, 65), (8, 65)]  # 201 nodes
        assert calls == blocks * len(diag.iterate_distances)

    def test_memory_is_bounded_by_the_blocks(self):
        # flow and iterate at every node plus O(PICARD_BLOCK) scratch: the
        # whole-array iteration peaks near 8.2 MiB here
        u0, delta, weight = c05_datum()
        assert peak_bytes(lambda: picard_solve(u0, delta, 2.0, weight,
                                               n_nodes=256)) <= 2.5 * 2 ** 20

    def test_rejects_nonpositive_window(self, grid64):
        with pytest.raises(InvalidInput):
            picard_solve(zero_field(grid64), 0.0, 2.0, GevreyWeight(0.0))

    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_window_before_building_arrays(
            self, grid64, monkeypatch, delta):
        def no_symbol(*args, **kwargs):
            raise AssertionError("picard_solve built the symbol")

        monkeypatch.setattr(evolution, "phi_symbol", no_symbol)
        with pytest.raises(InvalidInput, match="delta"):
            picard_solve(zero_field(grid64), delta, 2.0, GevreyWeight(0.0))

    @pytest.mark.parametrize("n_nodes, alpha", [(0, 2.0), (-3, 2.0), (16, 1.0)])
    def test_inputs_checked_before_iterating(self, grid64, monkeypatch,
                                             n_nodes, alpha):
        def no_iteration(*args, **kwargs):
            raise AssertionError("picard_solve iterated")

        monkeypatch.setattr(evolution, "_square", no_iteration)
        with pytest.raises(InvalidInput):
            picard_solve(zero_field(grid64), 1.0, alpha, GevreyWeight(0.0),
                         n_nodes=n_nodes)

    @pytest.mark.parametrize("n_nodes", [2.5, 64.0])
    def test_rejects_a_node_count_that_is_not_an_integer(self, grid64,
                                                         n_nodes):
        # 2.5 raised TypeError from inside numpy
        with pytest.raises(InvalidInput, match="n_nodes must be an integer"):
            picard_solve(zero_field(grid64), 1.0, 2.0, GevreyWeight(0.0),
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

    def test_an_overflowing_iterate_is_no_convergence(self, grid64):
        # u^2 overflows on the first iteration: the cap check reports it,
        # and no numpy warning (an error under this suite) comes first
        u0 = gaussian_data(grid64, 1e200, 4.0)
        with pytest.raises(NoConvergence) as info:
            picard_solve(u0, 0.01, 2.0, GevreyWeight(0.1), n_nodes=16)
        assert info.value.diagnostics.iterate_distances == []


def test_only_rk4_steps_build_a_workspace(monkeypatch):
    # rhs, the dealiased square and picard_solve square through their own
    # buffers; the RK4 workspace is _rk4's alone
    def refuse(*args):
        raise AssertionError("an RK4 workspace was built")

    monkeypatch.setattr(evolution, "_workspace", refuse)
    u0, delta, weight = c05_datum()
    rhs(u0, 2.0)
    square(u0.coeffs, u0.grid)
    for n_nodes in (64, 200):
        picard_solve(u0, delta, 2.0, weight, n_nodes=n_nodes)


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

    def test_a_datum_on_another_grid_is_refused(self, grid64):
        # its states would come back relabelled as states on params.grid
        u0 = gaussian_data(Grid(64, 50.0), 0.5, 4.0)
        params = ModelParams(2.0, grid64, 1e-2, 0.1)
        with pytest.raises(InvalidInput, match=r"domain_length=50\.0.*"
                           r"domain_length=64\.0"):
            simulate(u0, params, GevreyWeight(0.0))

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
        with pytest.raises(BlowupDetected) as info:
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

    @pytest.mark.parametrize("every", [2.0, 1.5, "2", None])
    def test_rejects_a_sample_every_that_is_not_an_integer(self, grid64, every):
        # 2.0 raised a bare TypeError from inside range
        params = ModelParams(2.0, grid64, 1e-2, 1.0)
        message = f"sample_every must be an integer, got {every!r}"
        with pytest.raises(InvalidInput, match=re.escape(message)):
            simulate(zero_field(grid64), params, GevreyWeight(0.0),
                     sample_every=every)


class TestBatchedMarch:
    # last steps 20, 11, 0, 20 and 11: rows of different lengths, two pairs
    # that leave the stack at the same step and a row that takes no step
    STEPS = [{0, 3, 7, 20}, {5, 11}, {0}, range(0, 21, 4), {2, 9, 11}]

    def data(self, grid):
        return [gaussian_data(grid, 0.5, 4.0), sech2_data(grid, 0.5, 3.0),
                cosine_data(grid, 0.3, 2), gaussian_data(grid, 1.0, 2.0),
                gaussian_data(grid, 0.2, 6.0)]

    @pytest.mark.parametrize("n", [64, 96])  # 96: the inverse's n/L multiply
    def test_rows_equal_single_runs_bitwise(self, n):
        # one alpha for every row, then an alpha per row: each row steps
        # under its own -phi, whichever rows share the stack with it
        grid = Grid(n)
        u0s = self.data(grid)
        for alphas in [2.0] * 5, [2.0, 3.0, 2.0, 1.5, 2.5]:
            batched = evolution._march(u0s, alphas, self.STEPS, grid, 0.05)
            assert len(batched) == len(u0s)
            assert batched[2] == {0: u0s[2]}
            for u0, alpha, steps, kept in zip(u0s, alphas, self.STEPS, batched):
                (single,) = evolution._march([u0], [alpha], [steps], grid, 0.05)
                assert sorted(kept) == sorted(single) == sorted(set(steps) | {0})
                for step, state in single.items():
                    assert kept[step].coeffs.tobytes() == state.coeffs.tobytes()

    def test_kept_states_share_no_memory(self, grid64, monkeypatch):
        spaces = []

        def recording_workspace(*args):
            spaces.append(workspace(*args))
            return spaces[-1]

        workspace = evolution._workspace
        monkeypatch.setattr(evolution, "_workspace", recording_workspace)
        batched = evolution._march(self.data(grid64), [2.0] * 5, self.STEPS,
                                   grid64, 0.05)
        # a fresh workspace for the five-row stack and for the two rows that
        # step on past 11; the stage input has the stack's shape, over the
        # band j <= K
        assert [space[2].shape for space in spaces] == [(4, 22), (2, 22)]
        buffers = [buffer for space in spaces for buffer in space
                   if isinstance(buffer, np.ndarray)]
        arrays = [state.coeffs for kept in batched for state in kept.values()]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
            assert not any(np.shares_memory(a, buffer) for buffer in buffers)
        # a kept row is its own array, not a view that holds the stack
        assert all(state.coeffs.base is None
                   for kept in batched for step, state in kept.items() if step)

    def test_single_state_steps_its_1d_array(self, grid64, monkeypatch):
        shapes = []

        def recording_rk4(coeffs, *args):
            shapes.append(coeffs.shape)
            return rk4(coeffs, *args)

        rk4 = evolution._rk4
        monkeypatch.setattr(evolution, "_rk4", recording_rk4)
        (kept,) = evolution._march([gaussian_data(grid64, 0.5, 4.0)], [2.0],
                                   [{0, 4, 10}], grid64, 0.05)
        # the band j <= K is stepped, and a kept state is a full one
        assert shapes == [(22,)] * 10
        assert [kept[step].coeffs.shape for step in (0, 4, 10)] == [(33,)] * 3

    def test_blowup_names_its_row(self, grid64, monkeypatch):
        # row 0 leaves the stack after step 2; a NaN planted at step 6 in
        # the first row of the remaining stack is in row 1
        calls = []

        def planting_rk4(*args):
            out = rk4(*args)
            calls.append(None)
            if len(calls) == 6:
                out[0, 3] = np.nan
            return out

        rk4 = evolution._rk4
        monkeypatch.setattr(evolution, "_rk4", planting_rk4)
        with pytest.raises(BlowupDetected) as info:
            evolution._march(self.data(grid64)[:3], [2.0] * 3, [{2}, {10}, {10}],
                             grid64, 0.05)
        assert info.value.row == 1 and info.value.time == 6 * 0.05
        assert str(info.value) == f"non-finite state detected at t={6 * 0.05} in row 1"

    def test_single_state_blowup_names_no_row(self, grid64):
        coeffs = gaussian_data(grid64, 0.5, 4.0).coeffs.copy()
        coeffs[3] = np.nan
        with pytest.raises(BlowupDetected) as info:
            evolution._march([SpectralField(grid64, coeffs)], [2.0], [{5}],
                             grid64, 1e-2)
        assert info.value.row is None
        assert str(info.value) == "non-finite state detected at t=0.01"

    def test_unstable_dt_warns_once_per_batch(self, grid64):
        u0s = [gaussian_data(grid64, 0.01, 4.0), cosine_data(grid64, 0.01, 1)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evolution._march(u0s, [2.0] * 2, [{20}, {5, 12}], grid64, 2.5)
        assert len(caught) == 1
        assert "dt*max|phi|" in str(caught[0].message)

    def test_only_the_unstable_rows_margin_is_warned(self, grid64):
        # max|phi| is 0.4999 at alpha = 2 and 0.5291 at 1.5 on this grid:
        # at dt = 1.95 only the second row, the lower alpha, is past 1
        u0s = [gaussian_data(grid64, 0.01, 4.0), cosine_data(grid64, 0.01, 1)]
        margins = [1.95 * evolution._minus_phi(grid64, alpha)[1]
                   for alpha in (2.0, 1.5)]
        assert margins[0] < 1.0 <= margins[1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evolution._march(u0s, [2.0, 1.5], [{5}, {3}], grid64, 1.95)
        assert len(caught) == 1
        assert str(caught[0].message).startswith(
            f"dt*max|phi| = {margins[1]:.3g} >= 1")


class CountingNumpy:
    """numpy for the evolution and spectral modules, naming each multiply,
    add and add.reduce call in calls, and keeping each multiply and add
    call's (inputs, output) in operands."""

    def __init__(self):
        self.calls = []
        self.operands = []
        self.multiply = self._counted(np.multiply)
        self.add = self._counted(np.add)

    def _counted(self, ufunc):
        calls, operands = self.calls, self.operands

        class Counted:
            def __call__(self, *args):
                calls.append(ufunc.__name__)
                result = ufunc(*args)
                operands.append((args[:2], result))
                return result

            def reduce(self, *args):
                calls.append(ufunc.__name__ + ".reduce")
                return ufunc.reduce(*args)

        return Counted()

    def __getattr__(self, name):
        return getattr(np, name)


class TestOperationCounts:
    """Counts and memory that do not drift with the host's speed: a
    reintroduced per-step transform or a state kept per step fails these."""

    @pytest.mark.parametrize("rows", [1, 3])
    def test_march_makes_four_transform_pairs_per_step(self, grid64,
                                                       monkeypatch, rows):
        calls = []
        for name in ("_rfft", "_to_samples"):
            def counted(*args, _name=name, _function=getattr(evolution, name)):
                calls.append(_name)
                return _function(*args)
            monkeypatch.setattr(evolution, name, counted)
        u0s = [gaussian_data(grid64, 0.5, 4.0)] * rows
        evolution._march(u0s, [2.0] * rows, [{0, 4, 9}] * rows, grid64, 0.05)
        assert calls.count("_rfft") == calls.count("_to_samples") == 4 * 9

    @pytest.mark.parametrize("n, calls", [(64, 22), (96, 26)])
    @pytest.mark.parametrize("rows", [None, 3])
    def test_rk4_step_makes_22_ufunc_calls_26_off_powers_of_two(
            self, monkeypatch, n, calls, rows):
        # the transforms apply every scaling but n/L off a power-of-two
        # grid, 4 multiplies a step in spectral._to_samples; as separate
        # multiplies a step made 34
        grid = Grid(n)
        band = evolution._band(grid)
        u0 = gaussian_data(grid, 0.5, 4.0).coeffs[:band]
        coeffs = u0 if rows is None else np.outer([0.1, 0.3, 0.5], u0)
        minus_phi = evolution._minus_phi(grid, 2.0)[0][:band]
        work = evolution._workspace(coeffs.shape, grid, 0.05)
        counting = CountingNumpy()
        monkeypatch.setattr(evolution, "np", counting)
        monkeypatch.setattr(spectral, "np", counting)
        for _ in range(3):
            coeffs = evolution._rk4(coeffs, minus_phi, work)
        assert len(counting.calls) == 3 * calls
        assert set(counting.calls) == {"multiply", "add", "add.reduce"}

    @staticmethod
    def march_operands(monkeypatch, n, rows):
        """Each multiply and add call's (inputs, output) over 3 _march steps
        of rows initial states on Grid(n)."""
        grid = Grid(n)
        u0s = [gaussian_data(grid, 0.5, 4.0), sech2_data(grid, 0.5, 3.0),
               cosine_data(grid, 0.3, 2)][:rows]
        counting = CountingNumpy()
        monkeypatch.setattr(evolution, "np", counting)
        monkeypatch.setattr(spectral, "np", counting)
        evolution._march(u0s, [2.0] * rows, [{3}] * rows, grid, 0.05)
        assert len(counting.calls) == 3 * (22 if n == 64 else 26)
        return counting.operands

    @pytest.mark.parametrize("n", [64, 96])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_march_step_casts_no_operand(self, monkeypatch, n, rows):
        # numpy casts a float64 0-d array against a complex128 state on
        # every call: a complex128 dt/2, dt, 2 and dt/6 cast nothing
        for inputs, output in self.march_operands(monkeypatch, n, rows):
            assert all(isinstance(a, np.ndarray) for a in inputs)
            assert [a.dtype for a in inputs] == [output.dtype] * 2

    @pytest.mark.parametrize("n", [64, 96])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_march_step_broadcasts_no_operand(self, monkeypatch, n, rows):
        # a stack is stepped with -phi in its (rows, band) shape, not the
        # cached (n/2+1,) one
        for inputs, output in self.march_operands(monkeypatch, n, rows):
            assert all(a.shape == output.shape for a in inputs if a.ndim)

    @pytest.mark.parametrize("n", [64, 96])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_march_step_passes_over_no_mode_above_the_band(self, monkeypatch,
                                                           n, rows):
        # every complex pass is over the modes j <= K; the real ones are
        # the n samples' square and, off a power of two, their n/L
        band = evolution._band(Grid(n))
        for inputs, output in self.march_operands(monkeypatch, n, rows):
            size = band if output.dtype == np.complex128 else n
            assert output.shape[-1] == size
            assert all(a.shape[-1] == size for a in inputs if a.ndim)

    @staticmethod
    def march_events(grid, steps):
        """The profiler's events of one _march of a Gaussian to steps on
        grid, with a call of ndarray.fill as "fill".  The collector is off:
        a collection runs the callbacks other libraries register with gc."""
        u0 = gaussian_data(grid, 0.5, 4.0)
        events = []
        gc.disable()
        sys.setprofile(lambda frame, event, arg: events.append(
            "fill" if event == "c_call" and arg.__name__ == "fill" else event))
        try:
            evolution._march([u0], [2.0], [{steps}], grid, 0.05)
        finally:
            sys.setprofile(None)
            gc.enable()
        return events

    def test_march_step_makes_nine_python_calls(self, grid64):
        # _rk4, and the transforms' 4 _to_samples and 4 _rfft: the stages run
        # inline, and the blowup check calls np.vecdot and np.maximum.reduce,
        # not np.dot or ndarray.max (numpy's Python dispatcher or _amax); a
        # helper call per stage and _amax made 18
        self.march_events(grid64, 1)  # fill the caches first

        def python_calls(steps):
            return self.march_events(grid64, steps).count("call")

        assert python_calls(20) - python_calls(10) == 9 * 10

    @pytest.mark.parametrize("n", [64, 96])
    def test_march_step_clears_no_tail(self, n):
        # the band kernel holds no mode above K to clear: the full-length
        # kernel made 4 tail fills a step
        grid = Grid(n)
        self.march_events(grid, 1)  # fill the caches first
        fills = [self.march_events(grid, steps).count("fill")
                 for steps in (10, 20)]
        assert fills == [0, 0]

    def test_lone_steps_reuse_one_idle_workspace(self, grid64, monkeypatch):
        built = []

        def counting_workspace(*args):
            built.append(args)
            return workspace(*args)

        workspace = evolution._workspace
        monkeypatch.setattr(evolution, "_workspace", counting_workspace)
        monkeypatch.setattr(evolution, "_idle", [])
        state = gaussian_data(grid64, 0.5, 4.0)
        for _ in range(10):
            state = step_rk4(state, 0.05, 2.0)
        assert len(built) == 1
        step_rk4(state, 0.02, 2.0)  # a new dt
        other = gaussian_data(Grid(64, 50.0), 0.5, 4.0)
        step_rk4(other, 0.02, 2.0)  # a new grid
        step_rk4(state, 0.02, 2.0)  # the grid of the idle one it replaced
        assert len(built) == 4
        assert len(evolution._idle) == 1

    def test_a_reentrant_step_builds_its_own_workspace(self, grid64,
                                                      monkeypatch):
        # a step_rk4 call made inside the third stage of another, when
        # k1 and k2 are in the outer step's workspace, with the same key
        def reentrant(*args):
            calls.append(None)
            if len(calls) == 3:
                inner.append(step_rk4(u1, 0.05, 2.0))
            return to_samples(*args)

        calls, inner = [], []
        to_samples = evolution._to_samples
        u0, u1 = gaussian_data(grid64, 0.5, 4.0), sech2_data(grid64, 0.5, 3.0)
        step_rk4(u0, 0.05, 2.0)  # leave an idle workspace with that key
        monkeypatch.setattr(evolution, "_to_samples", reentrant)
        outer = step_rk4(u0, 0.05, 2.0)
        assert len(inner) == 1
        symbol = phi_symbol(grid64.wavenumbers, 2.0)
        for got, u in ((outer, u0), (inner[0], u1)):
            want = allocating_rk4(u.coeffs, 0.05, grid64, symbol)
            assert got.coeffs.tobytes() == want.tobytes()

    def test_lone_steps_share_no_memory_with_the_idle_workspace(self, grid64):
        state, states = gaussian_data(grid64, 0.5, 4.0), []
        for _ in range(3):
            state = step_rk4(state, 0.05, 2.0)
            states.append(state.coeffs)
        ((_, work),) = evolution._idle
        buffers = [buffer for buffer in work if isinstance(buffer, np.ndarray)]
        assert not any(np.shares_memory(a, buffer)
                       for a in states for buffer in buffers)

    def test_march_memory_does_not_grow_with_the_steps(self):
        grid = Grid(1024, 256.0)
        u0 = gaussian_data(grid, 0.5, 4.0)
        evolution._march([u0], [2.0], [{1}], grid, 0.02)  # fill the caches first
        peaks = {steps: peak_bytes(lambda: evolution._march(
                     [u0], [2.0], [{steps}], grid, 0.02))
                 for steps in (10, 1000)}
        band = u0.coeffs[:evolution._band(grid)]
        work = evolution._workspace(band.shape, grid, 0.02)
        workspace = sum(a.nbytes for a in work
                        if isinstance(a, np.ndarray) and a.base is None)
        state = band.nbytes
        # the same peak up to Python's small-integer bookkeeping (a kept
        # state per step would add 8 KiB each), and under the workspace plus
        # two band states and a full one: the peak is the workspace with a
        # step's old and new band states, or with the last one and its
        # full-length kept copy, so a band-sized temporary alive beside
        # either crosses it
        assert abs(peaks[1000] - peaks[10]) < 1024
        assert peaks[1000] < workspace + 2 * state + u0.coeffs.nbytes


def shifted(field, offset):
    """field translated by offset: u(x - offset)."""
    return field.with_coeffs(
        field.coeffs * np.exp(-1j * field.grid.wavenumbers * offset))


class TestGalerkinFlow:
    """The flow is the Galerkin truncation onto the alias-free band
    |j| <= K, K = Grid.dealias_cutoff = (n-1)//3 the largest K with 3K < n,
    so its quadratic invariant and translation equivariance hold for any
    datum, up to RK4's truncation error.  Stepped with the modes above K, a
    narrow Gaussian drifted 3e-2 and commuted with a shift to 3e-3; with
    K = n/3 on grids that 3 divides, its energy drifted 5.7e-6 at n = 96 and
    1.4e-6 at n = 192 (t <= 20, alpha = 2), against 1.3e-12 at n = 128."""

    GRID = Grid(128, 64.0)

    def run(self, u0, alpha):
        params = ModelParams(alpha, self.GRID, 1e-2, 20.0)
        return simulate(u0, params, GevreyWeight(0.0), sample_every=100).states

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_under_resolved_data_conserve_the_quadratic_invariant(self, alpha):
        u0 = gaussian_data(self.GRID, 0.8, 0.7)
        energies = [energy(s, 0.0, alpha) for s in self.run(u0, alpha)]
        assert max(abs(e - energies[0]) for e in energies) < 1e-10 * energies[0]

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_under_resolved_data_commute_with_a_shift(self, alpha):
        u0 = gaussian_data(self.GRID, 0.8, 0.7)
        offset = 0.37 * self.GRID.dx
        for state, moved in zip(self.run(u0, alpha),
                                self.run(shifted(u0, offset), alpha)):
            peak = np.max(np.abs(inverse_transform(state)))
            gap = inverse_transform(moved) - inverse_transform(
                shifted(state, offset))
            assert np.max(np.abs(gap)) < 1e-13 * peak

    def test_step_rk4_steps_the_projection_bitwise(self, grid128, rng):
        # a full half-spectrum, with modes above K and a real Nyquist mode
        coeffs = rng.standard_normal(65) + 1j * rng.standard_normal(65)
        coeffs[[0, 64]] = coeffs[[0, 64]].real
        u = SpectralField(grid128, 0.1 * coeffs)
        band = evolution._band(grid128)
        for alpha in (1.5, 2.0):
            got, want = step_rk4(u, 0.05, alpha), step_rk4(dealias(u), 0.05, alpha)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert np.all(got.coeffs[band:] == 0)

    @pytest.mark.parametrize("n", [64, 96])
    def test_every_kept_state_has_a_zero_tail(self, n):
        # a lone row and a stack; the datum with a tail above K is
        # stepped as its projection
        grid = Grid(n)
        band = evolution._band(grid)
        tailed = forward_transform(np.exp(-((grid.points - 32.0) / 0.5) ** 2),
                                   grid)
        assert np.any(tailed.coeffs[band:] != 0)
        u0s = [gaussian_data(grid, 0.8, 0.7), tailed, sech2_data(grid, 0.5, 1.0)]
        steps = [{0, 3, 7}, {2, 5, 9}, {1, 4}]
        for rows in (slice(0, 1), slice(None)):
            kept = evolution._march(u0s[rows], [2.0, 3.0, 1.5][rows],
                                    steps[rows], grid, 0.05)
            for states in kept:
                assert all(np.all(s.coeffs[band:] == 0)
                           for step, s in states.items() if step)
        (projected,) = evolution._march([dealias(tailed)], [3.0], [steps[1]],
                                        grid, 0.05)
        for step in steps[1]:
            assert kept[1][step].coeffs.tobytes() == projected[step].coeffs.tobytes()

    @staticmethod
    def band_datum(grid, seed, amplitude):
        """A random real field with a flat spectrum over the whole band, so
        that its top modes carry as much as any, scaled to max|u| =
        amplitude."""
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(grid.n_points // 2 + 1, dtype=complex)
        band = evolution._band(grid)
        coeffs[:band] = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        coeffs[0] = coeffs[0].real
        field = SpectralField(grid, coeffs)
        return field.with_coeffs(
            coeffs * (amplitude / np.max(np.abs(inverse_transform(field)))))

    # every grid the flow may run on, with the ones that 3 divides drawn as
    # often as the others
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.one_of(st.integers(2, 33).map(lambda k: 6 * k),
                       st.integers(4, 100).map(lambda k: 2 * k)),
           length=st.floats(4.0, 128.0),
           alphas=st.tuples(st.floats(1.0, 4.0, exclude_min=True),
                            st.floats(1.0, 4.0, exclude_min=True)),
           seed=st.integers(0, 2**32 - 1),
           amplitude=st.floats(0.1, 1.0))
    @example(n=96, length=48.0, alphas=(2.0, 3.0), seed=0, amplitude=0.8)
    def test_oracle_on_any_grid(self, n, length, alphas, seed, amplitude):
        # 50 steps of dt = 0.02 leave RK4 an error of at most 1.3e-11 in
        # each invariant; on the band K = n/3 the explicit example's energy
        # drifted 5.4e-6
        grid, dt, steps = Grid(n, length), 0.02, range(0, 51, 10)
        u0 = self.band_datum(grid, seed, amplitude)
        moved = shifted(u0, 0.37 * grid.dx)
        alpha, other = alphas
        lone = [evolution._march([datum], [a], [steps], grid, dt)[0]
                for datum, a in ((u0, alpha), (moved, alpha), (u0, other))]
        states = [lone[0][step] for step in steps]
        assert all(s.coeffs[0] == u0.coeffs[0] for s in states)  # the mass
        for invariant in (lambda s: energy(s, 0.0, alpha), hamiltonian):
            values = np.array([invariant(s) for s in states])
            assert np.max(np.abs(values - values[0])) < 1e-9 * abs(values[0])
        # a shift by a fraction of dx commutes with the flow
        for step in steps:
            state = lone[0][step]
            peak = np.max(np.abs(inverse_transform(state)))
            gap = (inverse_transform(lone[1][step])
                   - inverse_transform(shifted(state, 0.37 * grid.dx)))
            assert np.max(np.abs(gap)) < 1e-12 * peak
        # a stack of three rows, each with its own alpha and last step,
        # gives each row bit for bit its lone run
        wanted = [set(steps), {0, 10, 20}, {0, 30, 50}]
        stacked = evolution._march([u0, moved, u0], [alpha, alpha, other],
                                   wanted, grid, dt)
        for row, alone, keep in zip(stacked, lone, wanted):
            assert set(row) == keep
            for step in keep:
                assert row[step].coeffs.tobytes() == alone[step].coeffs.tobytes()


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

    @pytest.mark.parametrize("mode", [22, 32, -22])
    def test_cosine_above_the_band_is_refused(self, grid64, mode):
        # the 2/3 rule would project it to zero data
        with pytest.raises(InvalidInput, match="mode"):
            cosine_data(grid64, 1.0, mode)

    @pytest.mark.parametrize("mode", [1.5, 1.0, np.float64(2.0), "1"])
    def test_cosine_refuses_a_mode_that_is_not_an_integer(self, grid64, mode):
        # 1.5 gave a field of 22 modes that is not periodic on the box
        message = f"mode must be an integer, got {mode!r}"
        with pytest.raises(InvalidInput, match=re.escape(message)):
            cosine_data(grid64, 1.0, mode)

    def test_cosine_stops_short_of_n_over_3_when_3_divides_n(self):
        # at n = 48 the alias-free band is |j| <= 15: mode 16 = n/3 would
        # square onto -n/3
        grid = Grid(48)
        assert np.argmax(np.abs(cosine_data(grid, 1.0, np.int64(15)).coeffs)) == 15
        with pytest.raises(InvalidInput, match="alias-free band"):
            cosine_data(grid, 1.0, 16)

    @pytest.mark.parametrize("factory", [gaussian_data, sech2_data, cosine_data])
    def test_data_are_projected_onto_the_band(self, grid64, factory):
        # the narrowest profile keeps a tail above K before the projection
        field = factory(grid64, 1.0, grid64.dealias_cutoff if factory is cosine_data
                        else 0.7)
        assert np.all(field.coeffs[evolution._band(grid64):] == 0)
        assert np.any(field.coeffs[grid64.dealias_cutoff] != 0)


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
