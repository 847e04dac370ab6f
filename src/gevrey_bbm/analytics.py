"""Quantitative measurements: energy-defect rate and scaling, bilinear
constant calibration, analytic-radius estimation, and sigma scheduling.

The analytic radius of a field is read off as the exponential decay rate of
its Fourier magnitudes; the theory guarantees only that a suitable radius
exists, so the spectral-slope estimator here is our own construction and is
validated against planted synthetic spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .errors import (
    CrossCheckFailure,
    InsufficientData,
    InvalidInput,
    _overflow_guard,
)
from .evolution import (
    Trajectory,
    _march,
    _sample_steps,
    _step_count,
    gaussian_data,
    lifespan,
    sech2_data,
)
from .identities import fractional_bound_exponents, symmetrized_weight
from .multipliers import GevreyWeight, ModelParams, phi_symbol
from .norms import _energies, _gevrey_norms, _hs_norms, gevrey_norm
from .spectral import (
    Grid,
    SpectralField,
    _rfft,
    _scales,
    _to_samples,
    dealias,
    inverse_transform,
)

DEFAULT_NOISE_FLOOR = 1e-14
FIT_T_MIN = 1.0
FIT_R2_MIN = 0.98
POINTWISE_SLACK = 0.99
DEFECT_SAMPLES = 40  # energy samples per defect window
RANDOM_FIELD_DECAY = 0.5  # e^(-decay |xi|) envelope of the random fields
CALIBRATION_SAMPLES = 200  # random pairs behind C1
CALIBRATION_BLOCK = 32  # pairs per block of calibrate_bilinear_constant
CALIBRATION_DT = 2e-3  # RK4 step of the defect suite behind C2
TRIAD_BLOCK = 2 ** 14  # triads per block of the triad route


# --- energy defect rate: two independent routes ----------------------------


def _active_band(grid: Grid) -> int:
    """Largest |j| for which triple products stay alias-free in quadrature."""
    cutoff = grid.dealias_cutoff
    return cutoff if 3 * cutoff < grid.n_points else cutoff - 1


def _defect_rate_physical(field: SpectralField, sigma: float) -> tuple[float, float]:
    """-2 * integral( u * u_x * I^2 u ) dx via pointwise products, and the
    integral of the integrand's modulus, which sets the sum's round-off."""
    grid = field.grid
    xi = grid.wavenumbers
    u = inverse_transform(field)
    ux = inverse_transform(field.with_coeffs(1j * xi * field.coeffs))
    i2u = inverse_transform(field.with_coeffs(np.cosh(sigma * xi) ** 2 * field.coeffs))
    product = u * ux * i2u
    return (float(-2.0 * grid.dx * np.sum(product)),
            float(2.0 * grid.dx * np.sum(np.abs(product))))


def _defect_rate_triads(field: SpectralField, sigma: float) -> float:
    """(i L / 6) * sum over grid triads of the symmetrized weight series.

    Once per conjugate pair: the field is real, a(-j) = conj a(j), and the
    series is odd in xi, so the triads (j1, j2, j3) and (-j1, -j2, -j3) add
    the same real part, -(L/6) * series * Im(a1 a2 a3).  The sum runs over
    the rows j1 >= 1 and is doubled: (T - 2b - 1) / 2 of the
    T = (2b+1)^2 - b(b+1) triads of the band |j| <= b.  Row j1 = 0, its own
    mirror image, adds nothing: its triads (0, j, -j) have series 0 and a
    real a(0)|a(j)|^2.  The rows are walked in blocks of at most TRIAD_BLOCK
    triads (one row at least), so every temporary is O(max(TRIAD_BLOCK, b)),
    not O(b^2); the blocks' partial sums are added in row order, so reruns
    are bitwise identical.  The series is evaluated by symmetrized_weight on
    each block's triads, which raises OverflowRisk; no transform is made.
    """
    grid = field.grid
    L = grid.domain_length
    band = _active_band(grid)
    if sigma == 0.0:
        return 0.0  # empty series: exact conservation
    # Fourier-series coefficients a(j) and wavenumbers of |j| <= band, at j + band
    c = field.coeffs[:band + 1] / L
    a = np.concatenate([np.conj(c[:0:-1]), c])
    x = 2.0 * np.pi / L * np.arange(-band, band + 1)
    width = 2 * band + 1  # row j1 >= 0 holds j2 = -band .. band - j1
    rows_per_block = max(1, TRIAD_BLOCK // width)
    total = 0.0
    for first in range(1, band + 1, rows_per_block):
        rows = np.arange(first, min(first + rows_per_block, band + 1))
        lengths = width - rows
        starts = np.cumsum(lengths) - lengths
        i1 = np.repeat(rows + band, lengths)
        i2 = np.arange(lengths.sum()) - np.repeat(starts, lengths)
        i3 = 3 * band - i1 - i2  # j3 = -j1 - j2
        series = symmetrized_weight(x[i1], x[i2], x[i3], sigma)
        total += float(np.sum(series * (a[i1] * a[i2] * a[i3]).imag))
    return -L / 3.0 * total


def trilinear_defect_rate(field: SpectralField, sigma: float, alpha: float,
                          rtol: float = 1e-6) -> float:
    """dE/dt of the I-weighted energy, computed two independent ways.

    Route (a) evaluates -2*int(u u_x I^2 u) dx in physical space, with three
    inverse transforms; route (b) sums the symmetrized weight series over
    every on-grid frequency triad, once per conjugate pair, in blocks of at
    most TRIAD_BLOCK triads: O(b^2) time in the band b, O(max(TRIAD_BLOCK,
    b)) memory (see _defect_rate_triads).  The field is dealiased first so
    the quadrature in (a) is exact.  Returns the physical-space value after
    asserting agreement; the rate does not depend on alpha (the dispersive
    term cancels exactly in the energy).  A non-finite or negative sigma,
    a NaN or negative rtol and a field with a non-finite coefficient are
    InvalidInput, raised before either route runs.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InvalidInput(f"sigma must be finite and >= 0, got {sigma}")
    if not rtol >= 0:
        raise InvalidInput(f"rtol must be >= 0, got {rtol}")
    if not np.isfinite(field.coeffs).all():
        raise InvalidInput("field has a non-finite coefficient")
    coeffs = field.coeffs.copy()
    coeffs[_active_band(field.grid) + 1:] = 0.0
    field = field.with_coeffs(coeffs)
    value_a, magnitude = _defect_rate_physical(field, sigma)
    value_b = _defect_rate_triads(field, sigma)
    # where the exact rate is 0 (even data, sigma = 0, one mode) only the
    # physical route's round-off is left: an absolute floor of a few ulps of
    # the integrand's modulus, far below rtol * |rate| on generic data
    floor = 16.0 * np.finfo(np.float64).eps * magnitude
    if not abs(value_a - value_b) <= max(rtol * max(abs(value_a), abs(value_b)),
                                         floor):
        raise CrossCheckFailure(
            f"defect-rate routes disagree: physical={value_a!r}, triads={value_b!r}",
            value_a=value_a, value_b=value_b,
        )
    return value_a


# --- defect measurement and scaling ----------------------------------------


@dataclass(frozen=True)
class ConservationReport:
    """Measured energy defect over one local window vs its predicted bound."""

    sigma: float
    defect: float
    defect_abs: float
    predicted_bound: float
    bound_satisfied: bool


def measure_defects(runs, grid: Grid, dt: float,
                    c_cal: float = 1.0) -> list[list[ConservationReport]]:
    """I-weighted energy defect over each (sigma, delta) window of each run
    (u0, alpha, windows) on grid; one report list per run.

    sigma does not enter the flow, so each run is one row of a single
    batched RK4 march (evolution._march) to its longest window, from the
    projection of its u0 onto the modes j <= n/3 (spectral.dealias), the
    Galerkin flow that simulate steps.  A window of
    n_steps = round(delta/dt) steps is sampled every n_steps // DEFECT_SAMPLES
    steps and at its last step, and only these states are kept.

    defect is sup_t E(t) - E(0); defect_abs is sup_t |E(t) - E(0)| (the
    magnitude used for scaling fits, since the signed defect can vanish when
    the energy only decreases).  The bound check uses the calibrated c_cal:
    defect_abs <= c_cal * delta * sigma^beta * ||I u0||^3_{H^{alpha/2}}.
    An energy or a bound that overflows raises OverflowRisk; a dt or c_cal
    that is not finite and positive raises InvalidInput before any step.
    """
    if not 0 < dt < math.inf:
        raise InvalidInput(f"dt must be finite and positive, got {dt}")
    if not 0 < c_cal < math.inf:
        raise InvalidInput(f"c_cal must be finite and positive, got {c_cal}")
    runs = [(u0, alpha, list(windows)) for u0, alpha, windows in runs]
    run_steps = [_window_steps(windows, dt) for _, _, windows in runs]
    if not any(run_steps):
        return [[] for _ in runs]
    kept = _march([dealias(u0) for u0, _, _ in runs],
                  [alpha for _, alpha, _ in runs],
                  [{0}.union(*steps) for steps in run_steps], grid, dt)
    return [_defect_reports(u0, windows, steps, states, alpha, c_cal)
            for (u0, alpha, windows), steps, states
            in zip(runs, run_steps, kept)]


def _window_steps(windows, dt: float) -> list[list[int]]:
    """The sample steps of each (sigma, delta) window: every
    n_steps // DEFECT_SAMPLES steps of its n_steps = round(delta/dt), and
    the last."""
    window_steps = []
    for _, delta in windows:
        if not 0 < delta < math.inf:
            raise InvalidInput(f"delta must be positive and finite, got {delta}")
        n_steps = _step_count(delta, dt)
        if n_steps == 0:
            raise InvalidInput(f"delta = {delta} rounds to zero steps of dt = {dt}")
        window_steps.append(_sample_steps(n_steps,
                                          max(n_steps // DEFECT_SAMPLES, 1)))
    return window_steps


def _defect_reports(u0: SpectralField, windows, window_steps, kept,
                    alpha: float, c_cal: float) -> list[ConservationReport]:
    """The ConservationReport of each window, from the kept states of u0's
    flow at its sample steps.  The moduli of all kept states are taken once,
    as one stacked array, and each window's energies are one batched energy
    over its rows (norms._energies, energy's formula)."""
    _, beta, _ = fractional_bound_exponents(alpha)
    row = {step: i for i, step in enumerate(kept)}
    mags = np.abs(np.stack([state.coeffs for state in kept.values()]))
    reports = []
    for (sigma, delta), steps in zip(windows, window_steps):
        with _overflow_guard(f"sigma = {sigma}: the energy or its bound"):
            energies = _energies(u0.grid, mags[[row[step] for step in steps]],
                                 sigma, alpha)
            e0 = energies[0]
            defect = float(np.max(energies - e0))
            defect_abs = float(np.max(np.abs(energies - e0)))
            u0_norm = gevrey_norm(u0, GevreyWeight(sigma, alpha / 2.0))
            # a numpy product, so that an overflow raises rather than gives inf
            bound = float(np.float64(c_cal) * delta * sigma**beta * u0_norm**3)
        reports.append(ConservationReport(
            sigma=sigma,
            defect=defect,
            defect_abs=defect_abs,
            predicted_bound=bound,
            bound_satisfied=bool(defect_abs <= bound * (1.0 + 1e-9)) if sigma > 0
            else bool(defect_abs <= 1e-8 * max(e0, 1.0)),
        ))
    return reports


def defect_scaling_fit(u0: SpectralField, sigma_list, delta: float,
                       params: ModelParams, c_cal: float = 1.0
                       ) -> tuple[float, list[ConservationReport]]:
    """Log-log slope of the defect magnitude against sigma.

    sigma values whose defect sits below the discretization floor (measured
    at sigma = 0 on the same trajectory) are dropped; fewer than 4 usable
    points raises InsufficientData; a repeated sigma, which leaves the fit
    degenerate, raises InvalidInput.  Returns (slope, per-sigma reports).
    """
    sigma_list = sorted(float(s) for s in sigma_list)
    if len(sigma_list) < 2 or min(sigma_list) <= 0:
        raise InvalidInput("sigma_list must contain >= 2 positive values")
    if len(set(sigma_list)) < len(sigma_list):
        raise InvalidInput(f"sigma_list (sigma_grid) must not repeat a value, "
                           f"got {sigma_list}")
    windows = [(s, delta) for s in [0.0] + sigma_list]
    ((base, *reports),) = measure_defects([(u0, params.alpha, windows)],
                                          params.grid, params.dt, c_cal=c_cal)
    floor = 10.0 * base.defect_abs + 1e-14
    usable = [(s, r.defect_abs) for s, r in zip(sigma_list, reports)
              if r.defect_abs > floor]
    if len(usable) < 4:
        raise InsufficientData(
            f"only {len(usable)} sigma points above the defect floor {floor:.3e}"
        )
    slope = loglog_slope([s for s, _ in usable], [d for _, d in usable])
    return slope, reports


def loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(x, dtype=float)),
                            np.log(np.asarray(y, dtype=float)), 1)[0])


# --- bilinear constant calibration ------------------------------------------


def _random_fields(grid: Grid, rng: np.random.Generator,
                   count: int) -> np.ndarray:
    """The half-spectra, shape (count, n/2+1), of count random real fields
    with modes confined to the alias-free band.

    Each field draws the magnitudes and then the phases of every mode +-j in
    FFT order, so the generator is consumed as by count single draws."""
    n, length = grid.n_points, grid.domain_length
    modes = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    xi = 2.0 * np.pi * modes / length
    draws = rng.uniform([[0.1], [0.0]], [[1.0], [2.0 * np.pi]], (count, 2, n))
    coeffs = draws[:, 0] * np.exp(-RANDOM_FIELD_DECAY * np.abs(xi))
    coeffs = coeffs * np.exp(1j * draws[:, 1])
    coeffs[:, np.abs(modes) > _active_band(grid)] = 0.0
    # hermitian-symmetrize and rescale the modes j = 0..n/2; take, unlike
    # fancy indexing, keeps the rows contiguous, so that a row's norm sums
    # in the order of a single field's
    mirror = np.conj(np.take(coeffs, -np.arange(n // 2 + 1) % n, axis=-1))
    return 0.5 * (coeffs[:, :n // 2 + 1] + mirror) * length


def random_band_limited_field(grid: Grid,
                              rng: np.random.Generator) -> SpectralField:
    """Random real field with modes confined to the alias-free band; one
    draw of _random_fields."""
    return SpectralField(grid, _random_fields(grid, rng, 1)[0])


def calibrate_bilinear_constant(samples: int, weight: GevreyWeight,
                                alpha: float, grid: Grid,
                                seed: int = 20240823) -> float:
    """Max of ||phi(D) I(uv)||_{H^{a/2}} / (||Iu||_{H^{a/2}} ||Iv||_{H^{a/2}})
    over seeded random band-limited pairs; this is the constant feeding the
    lifespan formula.  Only weight.sigma enters: I is cosh(sigma D) in the
    numerator and both denominators.

    The pairs are drawn and measured in blocks of at most CALIBRATION_BLOCK
    pairs, u then v of each pair, so memory does not grow with samples:
    consecutive draws consume the generator as one draw of 2*samples fields
    would.  A block is one array pass: one inverse transform of its us and
    one of its vs, one forward transform of their products, and one batched
    norm for each of the numerator and the two denominators (gevrey_norm's).
    Every ratio is measured per row, so the largest of the blocks' maxima
    does not depend on the block size.  A pair with a zero denominator is
    skipped.
    """
    if samples < 100:
        raise InvalidInput(f"samples must be >= 100, got {samples}")
    rng = np.random.default_rng(seed)
    s = alpha / 2.0
    xi = grid.wavenumbers
    norm_weight = GevreyWeight(weight.sigma, s)
    i_symbol = GevreyWeight(weight.sigma).symbol(xi)
    symbol = phi_symbol(xi, alpha)
    scales = _scales(grid)
    peaks = []
    for first in range(0, samples, CALIBRATION_BLOCK):
        pairs = min(CALIBRATION_BLOCK, samples - first)
        fields = _random_fields(grid, rng, 2 * pairs)
        us, vs = fields[0::2], fields[1::2]
        nu = _gevrey_norms(grid, us, norm_weight)
        nv = _gevrey_norms(grid, vs, norm_weight)
        # the arithmetic of inverse_transform(u) * inverse_transform(v), its
        # transform with L/n as the kernel's factor, dealias, apply_I and
        # apply_phi
        product = _to_samples(us, scales)
        product *= _to_samples(vs, scales)
        product = _rfft(product, None, scales.forward)
        product[:, grid.dealias_cutoff + 1:] = 0.0
        product = product * i_symbol
        num = _hs_norms(grid, product * symbol, s)
        usable = (nu != 0.0) & (nv != 0.0)
        peaks.append(np.max(num[usable] / (nu[usable] * nv[usable]), initial=0.0))
    return float(np.max(peaks))


# --- analytic-radius estimation ---------------------------------------------


def estimate_radius(field: SpectralField, xi_lo: float, xi_hi: float,
                    noise_floor: float = DEFAULT_NOISE_FLOOR
                    ) -> tuple[float, float]:
    """Exponential decay rate of |coeff(xi)| over the band [xi_lo, xi_hi].

    Least-squares fit of log|coeff| against -sigma*xi + offset using
    positive-frequency modes above the noise floor; the affine offset
    absorbs overall field scaling.  Returns (sigma_est, r_squared); fewer
    than 8 usable modes raises InsufficientData.
    """
    if not 0 <= xi_lo < xi_hi:
        raise InvalidInput(f"need 0 <= xi_lo < xi_hi, got {(xi_lo, xi_hi)}")
    if not 0 <= noise_floor < math.inf:
        raise InvalidInput(f"noise_floor must be finite and >= 0, got {noise_floor}")
    xi = field.grid.wavenumbers
    mags = np.abs(field.coeffs)
    mask = (xi >= xi_lo) & (xi <= xi_hi) & (xi > 0) & (mags > noise_floor)
    if np.sum(mask) < 8:
        raise InsufficientData(
            f"only {int(np.sum(mask))} usable modes in band [{xi_lo}, {xi_hi}]"
        )
    x = xi[mask]
    y = np.log(mags[mask])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(-slope), float(r2)


def default_band(field: SpectralField, noise_floor: float) -> tuple[float, float]:
    """Band policy: modes with |coeff| in [10*noise_floor, 1e-2 * max|coeff|].

    Excludes both the round-off plateau and the low-frequency modes where
    the decay is not yet asymptotic.  Raises InsufficientData when fewer than
    2 modes fall inside, since one mode makes no band.
    """
    if not 0 <= noise_floor < math.inf:
        raise InvalidInput(f"noise_floor must be finite and >= 0, got {noise_floor}")
    xi = field.grid.wavenumbers
    mags = np.abs(field.coeffs)
    peak = float(np.max(mags))
    mask = (xi > 0) & (mags >= 10.0 * noise_floor) & (mags <= 1e-2 * peak)
    count = int(np.count_nonzero(mask))
    if count < 2:
        raise InsufficientData(f"only {count} modes inside the band-policy window")
    return float(np.min(xi[mask])), float(np.max(xi[mask]))


def _sample_radius(field: SpectralField, noise_floor: float) -> tuple | None:
    """estimate_radius over the field's default_band: (sigma_est, r2, band),
    or None when the spectrum is too thin for either."""
    try:
        band = default_band(field, noise_floor)
        return (*estimate_radius(field, *band, noise_floor), band)
    except InsufficientData:
        return None


@dataclass(frozen=True)
class RadiusFit:
    """Per-time radius estimates with the fitted decay law sigma = c * t^-mu."""

    samples: list[tuple[float, float, float]]  # (t, sigma_est, r2)
    mu_fit: float
    c_fit: float
    band: tuple[float, float]
    c_check: float
    pointwise_ok: bool


def track_radius(traj: Trajectory, noise_floor: float = DEFAULT_NOISE_FLOOR,
                 reference_mu: float = 2.0 / 3.0) -> RadiusFit:
    """Estimate the analytic radius along a trajectory and fit its decay.

    Each sample is fit over its default_band; a sample whose spectrum is too
    thin for either is skipped.  Only samples with r^2 >= 0.98 enter the
    (c, mu) fit, restricted to t >= 1 (the transient below that makes a
    power law meaningless); fewer than 2 raises InsufficientData.  The
    pointwise lower-bound check sigma_est(t) >= c_check * t^-reference_mu
    calibrates c_check from the earliest valid sample (with a 1% slack for
    estimator noise).  mu_fit is reported, never asserted: the theory is a
    one-sided bound.
    """
    if len(traj.states) < 10:
        raise InvalidInput("trajectory must be sampled at >= 10 times")
    samples: list[tuple[float, float, float]] = []
    for t, state in zip(traj.times, traj.states):
        fit = _sample_radius(state, noise_floor)
        if fit is not None:
            sigma_est, r2, band = fit
            samples.append((float(t), sigma_est, r2))
    fit_pts = [(t, s) for (t, s, r2) in samples
               if r2 >= FIT_R2_MIN and t >= FIT_T_MIN and s > 0]
    if len(fit_pts) < 2:
        raise InsufficientData("fewer than 2 samples passed the fit policy")
    logt = np.log([t for t, _ in fit_pts])
    logs = np.log([s for _, s in fit_pts])
    slope, intercept = np.polyfit(logt, logs, 1)
    mu_fit = float(-slope)
    c_fit = float(np.exp(intercept))
    t0, s0 = fit_pts[0]
    c_check = POINTWISE_SLACK * s0 * t0**reference_mu
    pointwise_ok = all(
        s >= c_check * t**-reference_mu for t, s in fit_pts
    )
    return RadiusFit(
        samples=samples,
        mu_fit=mu_fit,
        c_fit=c_fit,
        band=band,
        c_check=float(c_check),
        pointwise_ok=bool(pointwise_ok),
    )


# --- sigma scheduling (global bootstrap) -------------------------------------


@dataclass(frozen=True)
class ScheduleResult:
    """Radius assignment for a horizon T from the induction bookkeeping;
    per_step_checks holds the binding window's check, none if n_steps = 0."""

    n_steps: int
    delta: float
    sigma_assigned: float
    per_step_checks: list[tuple[int, float, float, bool]]


def schedule_sigma(T: float, sigma0: float, C1: float, C2: float,
                   alpha: float = 2.0, u0_norm: float = 1.0) -> ScheduleResult:
    """Assign the radius sustainable up to time T.

    delta = 1/(8 C1 ||I u0||), n the unique integer with T in [n*delta,
    (n+1)*delta), and sigma = min(sigma0, (2 C1 / (C2 (n+1)))^{1/beta}).
    The check of window k weighs the induction increment against the slack
    that keeps the norm-doubling bound alive through it:

        (k+1) * C2 * delta * 8 * sigma^beta * N^3  <=  3 N^2,

    since sup^2 <= N^2 + increment must stay below (2N)^2.  The increment
    grows with k, so only the binding check k = n is computed; with the
    sigma above its increment is at most 2 N^2.  A non-finite T/delta raises
    InvalidInput, an overflowing increment OverflowRisk.
    """
    if not all(0 < x < math.inf for x in (T, sigma0, C1, C2, u0_norm)):
        raise InvalidInput("all schedule inputs must be positive and finite")
    _, beta, _ = fractional_bound_exponents(alpha)
    delta = 1.0 / (8.0 * C1 * u0_norm)
    # delta is 0 when 8 * C1 * u0_norm overflows
    if delta == 0.0 or T / delta == math.inf:
        raise InvalidInput(f"T / delta = {T} / {delta} is not finite")
    n = int(math.floor(T / delta))
    sigma = min(sigma0, (2.0 * C1 / (C2 * (n + 1))) ** (1.0 / beta))
    checks = []
    if n > 0:  # a numpy product, so that an overflow or a NaN raises
        with _overflow_guard("the schedule's increment"):
            lhs = np.float64(n + 1) * C2 * delta * 8.0 * sigma**beta * u0_norm**3
            rhs = 3.0 * u0_norm**2
        checks.append((n, float(lhs), float(rhs), bool(lhs <= rhs * (1 + 1e-12))))
    return ScheduleResult(n_steps=n, delta=float(delta),
                          sigma_assigned=float(sigma), per_step_checks=checks)


# --- calibration file ---------------------------------------------------------


def read_key_values(path) -> dict[str, str]:
    """The ``key = value`` lines of a text file, keys and values stripped.

    Blank lines, ``#`` comment lines and ``[section]`` header lines are
    skipped, and a later key replaces an earlier one.  Any other line raises
    InvalidInput naming the file and the line number.
    """
    values = {}
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#") or (
                    line.startswith("[") and line.endswith("]")):
                continue
            key, equals, value = line.partition("=")
            if not equals or not key.strip():
                raise InvalidInput(f"{path}, line {number}: expected "
                                   f"key = value, got {line!r}")
            values[key.strip()] = value.strip()
    return values


@dataclass(frozen=True)
class Calibration:
    """Frozen constants: C1 from the bilinear estimate, C2 from the defect
    suite, together with the exact setup that produced them."""

    c1: float
    c2: float
    alpha: float
    sigma_ref: float
    n_points: int
    domain_length: float
    seed: int

    def save(self, path) -> None:
        """One ``key = repr(value)`` line per field, in field order."""
        with open(path, "w") as handle:
            handle.writelines(f"{f.name} = {getattr(self, f.name)!r}\n"
                              for f in fields(self))

    @classmethod
    def load(cls, path) -> "Calibration":
        """Each field read by its annotated type."""
        values = read_key_values(path)
        return cls(**{name: kind(values[name])
                      for name, kind in get_type_hints(cls).items()})


def default_calibration() -> Calibration:
    """The frozen constants shipped with the package (see data/calibration.txt)."""
    from importlib import resources

    path = resources.files("gevrey_bbm").joinpath("data/calibration.txt")
    with resources.as_file(path) as file_path:
        return Calibration.load(file_path)


def run_calibration(alpha: float = 2.0, sigma_ref: float = 0.1,
                    n_points: int = 128, domain_length: float = 64.0,
                    seed: int = 20240823) -> Calibration:
    """Measure C1 (bilinear, CALIBRATION_SAMPLES pairs) and C2 (defect suite,
    RK4 at CALIBRATION_DT) on the reference grid.

    C2 is the maximum of defect_abs / (delta * sigma^beta * ||I u0||^3)
    over a small suite of initial data and sigma values, doubled for margin.
    Each sigma has its own window, the lifespan 1 / (8 C1 ||I u0||), and the
    suite is one measure_defects call.
    """
    grid = Grid(n_points, domain_length)
    weight = GevreyWeight(sigma_ref)
    c1 = calibrate_bilinear_constant(CALIBRATION_SAMPLES, weight, alpha, grid,
                                     seed=seed)
    suite = [gaussian_data(grid, 0.5, 4.0), gaussian_data(grid, 1.0, 2.0),
             sech2_data(grid, 0.5, 3.0)]
    runs = [(u0, alpha, [(sigma, lifespan(u0, GevreyWeight(sigma), alpha, c1))
                         for sigma in (0.05, 0.1, 0.3)]) for u0 in suite]
    # at c_cal = 1 the predicted bound is delta * sigma^beta * ||I u0||^3
    worst = max(report.defect_abs / report.predicted_bound
                for reports in measure_defects(runs, grid, CALIBRATION_DT)
                for report in reports)
    return Calibration(c1=float(c1), c2=float(2.0 * worst), alpha=alpha,
                       sigma_ref=sigma_ref, n_points=n_points,
                       domain_length=domain_length, seed=seed)
