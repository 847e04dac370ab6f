"""Quantitative measurements: energy-defect rate and scaling, bilinear
constant calibration, analytic-radius estimation, and sigma scheduling.

The analytic radius of a field is read off as the exponential decay rate of
its Fourier magnitudes; the theory guarantees only that a suitable radius
exists, so the spectral-slope estimator here is our own construction and is
validated against planted synthetic spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .multipliers import GevreyWeight, ModelParams, apply_I, apply_phi
from .norms import energy, gevrey_norm, hs_norm
from .spectral import (
    Grid,
    SpectralField,
    dealias,
    forward_transform,
    inverse_transform,
    zero_nyquist,
)

DEFAULT_NOISE_FLOOR = 1e-14
FIT_T_MIN = 1.0
FIT_R2_MIN = 0.98
POINTWISE_SLACK = 0.99
DEFECT_SAMPLES = 40  # energy samples per defect window
RANDOM_FIELD_DECAY = 0.5  # e^(-decay |xi|) envelope of the random fields
CALIBRATION_SAMPLES = 200  # random pairs behind C1
CALIBRATION_DT = 2e-3  # RK4 step of the defect suite behind C2
MAX_SCHEDULE_WINDOWS = 10**7  # schedule_sigma keeps a check per window


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
    """(i L / 6) * sum over grid triads of the symmetrized weight series."""
    grid = field.grid
    n = grid.n_points
    L = grid.domain_length
    band = _active_band(grid)
    if sigma == 0.0:
        return 0.0  # empty series: exact conservation
    # Fourier-series coefficients of every mode, in FFT order
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


def trilinear_defect_rate(field: SpectralField, sigma: float, alpha: float,
                          rtol: float = 1e-6) -> float:
    """dE/dt of the I-weighted energy, computed two independent ways.

    Route (a) evaluates -2*int(u u_x I^2 u) dx in physical space; route (b)
    sums the symmetrized weight series over all on-grid frequency triads.
    The field is dealiased first so the quadrature in (a) is exact.  Returns
    the physical-space value after asserting agreement; the rate does not
    depend on alpha (the dispersive term cancels exactly in the energy).
    """
    if sigma < 0:
        raise InvalidInput(f"sigma must be >= 0, got {sigma}")
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


def measure_defects(u0: SpectralField, windows, params: ModelParams,
                    c_cal: float = 1.0) -> list[ConservationReport]:
    """I-weighted energy defect of u0's flow over each (sigma, delta) window.

    sigma does not enter the flow and every window starts from u0 with the
    same dt, so one RK4 run to the longest window serves them all.  A window
    of n_steps = round(delta/dt) steps is sampled every
    n_steps // DEFECT_SAMPLES steps and at its last step; the run keeps only
    the states at the union of these sample steps.  params supplies alpha,
    the grid and dt.

    defect is sup_t E(t) - E(0); defect_abs is sup_t |E(t) - E(0)| (the
    magnitude used for scaling fits, since the signed defect can vanish when
    the energy only decreases).  The bound check uses the calibrated c_cal:
    defect_abs <= c_cal * delta * sigma^beta * ||I u0||^3_{H^{alpha/2}}.
    An energy or a bound that overflows raises OverflowRisk.
    """
    alpha, dt = params.alpha, params.dt
    windows = list(windows)
    if not windows:
        return []
    window_steps = []
    for _, delta in windows:
        if not 0 < delta < math.inf:
            raise InvalidInput(f"delta must be positive and finite, got {delta}")
        n_steps = _step_count(delta, dt)
        if n_steps == 0:
            raise InvalidInput(f"delta = {delta} rounds to zero steps of dt = {dt}")
        window_steps.append(_sample_steps(n_steps,
                                          max(n_steps // DEFECT_SAMPLES, 1)))
    kept = _march(zero_nyquist(u0), params, set().union(*window_steps))
    _, beta, _ = fractional_bound_exponents(alpha)
    reports = []
    for (sigma, delta), steps in zip(windows, window_steps):
        with _overflow_guard(f"sigma = {sigma}: the energy or its bound"):
            energies = np.array([energy(kept[step], sigma, alpha)
                                 for step in steps])
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
    points raises InsufficientData.  Returns (slope, per-sigma reports).
    """
    sigma_list = sorted(float(s) for s in sigma_list)
    if len(sigma_list) < 2 or min(sigma_list) <= 0:
        raise InvalidInput("sigma_list must contain >= 2 positive values")
    base, *reports = measure_defects(u0, [(s, delta) for s in [0.0] + sigma_list],
                                     params, c_cal=c_cal)
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


def random_band_limited_field(grid: Grid,
                              rng: np.random.Generator) -> SpectralField:
    """Random real field with modes confined to the alias-free band."""
    n = grid.n_points
    band = _active_band(grid)
    # draw every mode +-j in FFT order, symmetrize, then keep j = 0..n/2
    modes = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    xi = 2.0 * np.pi * modes / grid.domain_length
    mags = rng.uniform(0.1, 1.0, n) * np.exp(-RANDOM_FIELD_DECAY * np.abs(xi))
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    coeffs = mags * np.exp(1j * phases)
    coeffs[np.abs(modes) > band] = 0.0
    # hermitian-symmetrize and rescale
    mirror = np.conj(coeffs[(-np.arange(n)) % n])
    coeffs = 0.5 * (coeffs + mirror) * grid.domain_length
    return SpectralField(grid, coeffs[: n // 2 + 1])


def calibrate_bilinear_constant(samples: int, weight: GevreyWeight,
                                alpha: float, grid: Grid,
                                seed: int = 20240823) -> float:
    """Max of ||phi(D) I(uv)||_{H^{a/2}} / (||Iu||_{H^{a/2}} ||Iv||_{H^{a/2}})
    over seeded random band-limited pairs; this is the constant feeding the
    lifespan formula.  Only weight.sigma enters: I is cosh(sigma D) in the
    numerator and both denominators."""
    if samples < 100:
        raise InvalidInput(f"samples must be >= 100, got {samples}")
    rng = np.random.default_rng(seed)
    s = alpha / 2.0
    cosh_weight = GevreyWeight(weight.sigma)
    norm_weight = GevreyWeight(weight.sigma, s)
    best = 0.0
    for _ in range(samples):
        u = random_band_limited_field(grid, rng)
        v = random_band_limited_field(grid, rng)
        nu = gevrey_norm(u, norm_weight)
        nv = gevrey_norm(v, norm_weight)
        if nu == 0.0 or nv == 0.0:
            continue
        product = forward_transform(
            inverse_transform(u) * inverse_transform(v), grid
        )
        product = dealias(product)
        num = hs_norm(apply_phi(apply_I(product, cosh_weight), alpha), s)
        best = max(best, num / (nu * nv))
    return best


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
        try:
            lo, hi = default_band(state, noise_floor)
            sigma_est, r2 = estimate_radius(state, lo, hi, noise_floor)
        except InsufficientData:
            continue
        samples.append((float(t), sigma_est, r2))
        band = (lo, hi)
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
    """Radius assignment for a horizon T from the induction bookkeeping."""

    n_steps: int
    delta: float
    sigma_assigned: float
    per_step_checks: list[tuple[int, float, float, bool]]


def schedule_sigma(T: float, sigma0: float, C1: float, C2: float,
                   alpha: float = 2.0, u0_norm: float = 1.0) -> ScheduleResult:
    """Assign the radius sustainable up to time T.

    delta = 1/(8 C1 ||I u0||), n the unique integer with T in [n*delta,
    (n+1)*delta), and sigma = min(sigma0, (2 C1 / (C2 (n+1)))^{1/beta}).
    Each per-step check records the induction increment against the slack
    that keeps the norm-doubling bound alive through window k:

        (k+1) * C2 * delta * 8 * sigma^beta * N^3  <=  3 N^2,

    since sup^2 <= N^2 + increment must stay below (2N)^2.  With the sigma
    assignment above the increment at k = n is exactly 2 N^2, so the
    inequality holds with margin at every window.  More than
    MAX_SCHEDULE_WINDOWS windows raises InvalidInput.
    """
    if not all(0 < x < math.inf for x in (T, sigma0, C1, C2, u0_norm)):
        raise InvalidInput("all schedule inputs must be positive and finite")
    _, beta, _ = fractional_bound_exponents(alpha)
    delta = 1.0 / (8.0 * C1 * u0_norm)
    # floor(T / delta) > MAX exactly when T / delta >= MAX + 1 (inf included);
    # delta is 0 when 8 * C1 * u0_norm overflows
    if delta == 0.0 or T / delta >= MAX_SCHEDULE_WINDOWS + 1:
        raise InvalidInput(f"T / delta windows exceed the limit of "
                           f"{MAX_SCHEDULE_WINDOWS}")
    n = int(math.floor(T / delta))
    sigma = min(sigma0, (2.0 * C1 / (C2 * (n + 1))) ** (1.0 / beta))
    checks = []
    for k in range(1, n + 1):
        lhs = (k + 1) * C2 * delta * 8.0 * sigma**beta * u0_norm**3
        rhs = 3.0 * u0_norm**2
        checks.append((k, float(lhs), float(rhs), bool(lhs <= rhs * (1 + 1e-12))))
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
        lines = [f"{key} = {getattr(self, key)!r}"
                 for key in ("c1", "c2", "alpha", "sigma_ref", "n_points",
                             "domain_length", "seed")]
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "Calibration":
        values = read_key_values(path)
        return cls(
            c1=float(values["c1"]),
            c2=float(values["c2"]),
            alpha=float(values["alpha"]),
            sigma_ref=float(values["sigma_ref"]),
            n_points=int(values["n_points"]),
            domain_length=float(values["domain_length"]),
            seed=int(values["seed"]),
        )


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
    Each sigma has its own window, the lifespan 1 / (8 C1 ||I u0||); the
    windows of one initial datum are read off a single measure_defects run.
    """
    grid = Grid(n_points, domain_length)
    weight = GevreyWeight(sigma_ref)
    c1 = calibrate_bilinear_constant(CALIBRATION_SAMPLES, weight, alpha, grid,
                                     seed=seed)
    worst = 0.0
    suite = [gaussian_data(grid, 0.5, 4.0), gaussian_data(grid, 1.0, 2.0),
             sech2_data(grid, 0.5, 3.0)]
    for u0 in suite:
        windows = [(sigma, lifespan(u0, GevreyWeight(sigma), alpha, c1))
                   for sigma in (0.05, 0.1, 0.3)]
        params = ModelParams(alpha, grid, CALIBRATION_DT,
                             max(delta for _, delta in windows))
        # at c_cal = 1 the predicted bound is delta * sigma^beta * ||I u0||^3
        for report in measure_defects(u0, windows, params):
            worst = max(worst, report.defect_abs / report.predicted_bound)
    return Calibration(c1=float(c1), c2=float(2.0 * worst), alpha=alpha,
                       sigma_ref=sigma_ref, n_points=n_points,
                       domain_length=domain_length, seed=seed)
