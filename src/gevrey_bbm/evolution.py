"""Time evolution of the (fractional) BBM equation.

Two solvers are provided:

* ``step_rk4`` / ``simulate``: classical four-stage Runge-Kutta on the
  spectral ODE system u_t = -phi(D)(u + u^2/2).  The dispersive symbol is
  bounded, so the system is non-stiff and explicit stepping is adequate;
  this is the production integrator.
* ``picard_solve``: fixed-point iteration of the integral (Duhamel) form
  on a uniform time sub-grid with composite trapezoidal quadrature.  Used
  for verification over a single local-existence window, not for long runs.

Both run on one private kernel over raw half-spectrum arrays (the last
axis holds the modes j = 0..n/2): ``_square`` is the dealiased u^2 (2/3
rule; linear multipliers need no dealiasing), ``_rhs`` the right-hand side
and ``_rk4`` one step.  ``rhs`` and ``step_rk4`` are thin ``SpectralField``
wrappers over it.  ``_march`` is the one stepping loop: it computes -phi
once and keeps a ``SpectralField`` only at a given set of steps.
``simulate`` runs it on every ``sample_every``-th step (at most
MAX_SAMPLES of them) and ``analytics.measure_defects`` on the union of its
windows' sample steps; neither takes more than MAX_STEPS steps.
``picard_solve`` squares every time node in one batched ``_square`` call.

The kernel allocates nothing it does not return.  A ``_workspace`` holds
the four RK4 stages, the stage input and the real samples; the FFTs write
into it through ``out=`` and every scaling, the square and the stage
combinations are in-place ufuncs.  ``_march`` makes one workspace per run;
``step_rk4``, ``rhs`` and ``picard_solve`` get fresh buffers per call.  The
ufuncs take their operands in the order of the plain expressions, so every
state is bit for bit what the allocating formula gives.  The new state of
a step is the one fresh array, so no kept state shares memory with the
workspace.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BlowupDetected, InvalidInput, NoConvergence, _overflow_guard
from .multipliers import GevreyWeight, ModelParams, phi_symbol
from .norms import NormReport, gevrey_norm, hs_norm, norm_report
from .spectral import Grid, SpectralField, forward_transform, zero_nyquist

BLOWUP_CAP = 1e12
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 50
MAX_SAMPLES = 10**6  # _sample_steps builds the sample set before stepping
# _step_count's cap: about a day of _march at the fastest step measured,
# 91-107 us at n = 8-64 on 2 cores
MAX_STEPS = 10**9


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of one simulation, times strictly increasing from 0."""

    times: np.ndarray
    states: list[SpectralField]
    params: ModelParams
    reports: list[NormReport] | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if len(times) != len(self.states):
            raise InvalidInput("times and states must have equal length")
        if len(times) == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise InvalidInput("times must start at 0 and strictly increase")
        object.__setattr__(self, "times", times)


@dataclass(frozen=True)
class PicardDiagnostics:
    """Per-iteration sup-in-time distances of the fixed-point iteration."""

    iterate_distances: list[float]
    contraction_factor: float


def _workspace(shape: tuple[int, ...], grid: Grid) -> tuple[np.ndarray, ...]:
    """Scratch arrays for RK4 on half-spectra of the given shape: the four
    stages k1..k4, the stage input and the real samples of u."""
    stages = tuple(np.empty(shape, dtype=np.complex128) for _ in range(5))
    return stages + (np.empty(shape[:-1] + (grid.n_points,)),)


def _square(coeffs: np.ndarray, grid: Grid, samples: np.ndarray | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """Dealiased u^2 of half-spectra along the last axis (any leading shape),
    written into out; samples is the real scratch array.  Either may be None
    for a fresh array.

    The same arithmetic as forward_transform(inverse_transform(u)**2)
    followed by dealias (which clears the Nyquist mode too), on raw arrays.
    """
    n, length = grid.n_points, grid.domain_length
    samples = np.fft.irfft(coeffs, n, axis=-1, out=samples)
    np.multiply(samples, n / length, out=samples)
    np.multiply(samples, samples, out=samples)
    square = np.fft.rfft(samples, axis=-1, out=out)
    np.multiply(square, length / n, out=square)
    square[..., grid.dealias_cutoff + 1:] = 0.0
    return square


def _rhs(coeffs: np.ndarray, grid: Grid, minus_phi: np.ndarray,
         samples: np.ndarray | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """-phi(D)(u + u^2/2) on a raw half-spectrum, written into out."""
    value = _square(coeffs, grid, samples, out)
    np.multiply(0.5, value, out=value)  # 0.5 * u^2
    np.add(coeffs, value, out=value)  # u + 0.5 * u^2
    np.multiply(minus_phi, value, out=value)  # -phi * (u + 0.5 * u^2)
    return value


def _rk4(coeffs: np.ndarray, dt: float, grid: Grid, minus_phi: np.ndarray,
         work: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """One classical RK4 step on raw half-spectra, using the scratch arrays
    of work (a fresh _workspace when None).  Returns a new array."""
    if work is None:
        work = _workspace(coeffs.shape, grid)
    k1, k2, k3, k4, stage, samples = work
    _rhs(coeffs, grid, minus_phi, samples, k1)
    for scale, k_in, k_out in ((0.5 * dt, k1, k2), (0.5 * dt, k2, k3),
                               (dt, k3, k4)):
        np.multiply(scale, k_in, out=stage)
        np.add(coeffs, stage, out=stage)
        _rhs(stage, grid, minus_phi, samples, k_out)
    np.multiply(2.0, k2, out=k2)
    np.add(k1, k2, out=k2)  # k1 + 2*k2
    np.multiply(2.0, k3, out=k3)
    np.add(k2, k3, out=k3)  # k1 + 2*k2 + 2*k3
    np.add(k3, k4, out=k4)  # k1 + 2*k2 + 2*k3 + k4
    np.multiply(dt / 6.0, k4, out=k4)
    return np.add(coeffs, k4)


def _warn_if_unstable(dt: float, symbol: np.ndarray, stacklevel: int = 3) -> None:
    """Warn when dt*max|phi| >= 1.  The default stacklevel names the caller
    of the public function that calls this one directly."""
    margin = dt * float(np.max(np.abs(symbol)))
    if margin >= 1.0:
        warnings.warn(f"dt*max|phi| = {margin:.3g} >= 1; accuracy may degrade",
                      stacklevel=stacklevel)


def rhs(field: SpectralField, alpha: float) -> SpectralField:
    """-phi(D)(u + u^2/2), the full spectral right-hand side."""
    symbol = phi_symbol(field.grid.wavenumbers, alpha)
    return field.with_coeffs(_rhs(field.coeffs, field.grid, -symbol))


def step_rk4(field: SpectralField, dt: float, alpha: float) -> SpectralField:
    """One classical RK4 step of the spectral ODE system; warns when
    dt*max|phi| >= 1."""
    if dt < 0:
        raise InvalidInput(f"dt must be >= 0, got {dt}")
    if dt == 0:
        return field
    symbol = phi_symbol(field.grid.wavenumbers, alpha)
    _warn_if_unstable(dt, symbol)
    return field.with_coeffs(_rk4(field.coeffs, dt, field.grid, -symbol))


def lifespan(u0: SpectralField, weight: GevreyWeight, alpha: float, c: float) -> float:
    """Local-existence window 1/(8c ||I u0||_{H^{alpha/2}}); only weight.sigma enters.

    Returns +inf for zero initial data and raises OverflowRisk only when the
    norm itself exceeds double range.  The constant c is never given
    numerically by the theory; feed the calibrated bilinear constant.
    """
    if not c > 0:
        raise InvalidInput(f"c must be positive, got {c}")
    with _overflow_guard("||I u0||"):
        norm = gevrey_norm(u0, GevreyWeight(weight.sigma, alpha / 2.0))
    if norm == 0.0:
        return math.inf
    return 1.0 / (8.0 * c * norm)


def _picard_diagnostics(distances: list[float]) -> PicardDiagnostics:
    """The contraction factor is the largest ratio of successive distances
    whose first is above 100 * PICARD_TOL, or 0.0 when there is none."""
    ratios = [
        distances[i + 1] / distances[i]
        for i in range(len(distances) - 1)
        if distances[i] > 100.0 * PICARD_TOL
    ]
    return PicardDiagnostics(distances, max(ratios) if ratios else 0.0)


def picard_solve(
    u0: SpectralField,
    delta: float,
    alpha: float,
    weight: GevreyWeight,
    n_nodes: int = 64,
) -> tuple[Trajectory, PicardDiagnostics]:
    """Iterate the Duhamel map to a fixed point on [0, delta].

    Gamma(u)(t) = S(t) u0 - (1/2) int_0^t S(t-tau) phi(D)(u(tau)^2) dtau,
    with composite trapezoidal quadrature on n_nodes+1 uniform tau nodes.
    On a uniform grid the trapezoid J_k at node k obeys the recursion

        J_k = S(dtau) J_{k-1} + dtau/2 (S(dtau) nl_{k-1} + nl_k),  J_0 = 0,

    with S(dtau) = exp(-dtau*phi), so an iteration costs O(n_nodes * n):
    one batched u^2 over every node, then one pass of the recursion.
    Successive iterates are compared in the sup-in-time H^{alpha/2} norm of
    the difference weighted by cosh(sigma D), the metric of the contraction
    argument; only weight.sigma enters.  Stops when the distance drops below
    PICARD_TOL.  Raises NoConvergence after PICARD_MAX_ITER iterations, or as
    soon as an iterate has a coefficient above BLOWUP_CAP or NaN.
    """
    if not delta > 0:
        raise InvalidInput(f"delta must be positive, got {delta}")
    if n_nodes < 1:
        raise InvalidInput(f"n_nodes must be >= 1, got {n_nodes}")
    grid = u0.grid
    xi = grid.wavenumbers
    symbol = phi_symbol(xi, alpha)
    times = np.linspace(0.0, delta, n_nodes + 1)
    dtau = times[1] - times[0]
    shift = np.exp(-dtau * symbol)  # S(dtau)
    # free flow S(t_k) u0 at every node
    free = np.exp(-np.outer(times, symbol)) * u0.coeffs[None, :]
    iterate = free
    i_symbol = GevreyWeight(weight.sigma).symbol(xi)
    distances: list[float] = []
    for _ in range(PICARD_MAX_ITER):
        nl = symbol * _square(iterate, grid)  # phi(D)(u^2) at every node
        new = free.copy()
        integral = np.zeros_like(nl[0])
        for k in range(1, len(times)):
            integral = shift * integral + 0.5 * dtau * (shift * nl[k - 1] + nl[k])
            new[k] -= 0.5 * integral
        if not np.abs(new).max() <= BLOWUP_CAP:  # and NaN
            raise NoConvergence(
                f"Picard iterate {len(distances) + 1} exceeds the blowup cap",
                diagnostics=_picard_diagnostics(distances))
        weighted = (new - iterate) * i_symbol
        distances.append(max(hs_norm(SpectralField(grid, row), alpha / 2.0)
                             for row in weighted))
        iterate = new
        if distances[-1] < PICARD_TOL:
            break
    diagnostics = _picard_diagnostics(distances)
    if not distances[-1] < PICARD_TOL:
        raise NoConvergence(
            f"Picard iteration did not reach tol={PICARD_TOL} in "
            f"{PICARD_MAX_ITER} iterations",
            diagnostics=diagnostics,
        )
    states = [SpectralField(grid, iterate[k]) for k in range(len(times))]
    traj = Trajectory(times, states, ModelParams(alpha, grid, dtau, delta))
    return traj, diagnostics


def _step_count(span: float, dt: float) -> int:
    """round(span / dt); a quotient that overflows to inf or rounds above
    MAX_STEPS is InvalidInput."""
    quotient = span / dt
    if not math.isfinite(quotient):
        raise InvalidInput(f"{span} / {dt} is not a finite number of steps")
    steps = round(quotient)
    if steps > MAX_STEPS:
        raise InvalidInput(f"{span} / {dt} is more than {MAX_STEPS} steps")
    return steps


def _sample_steps(n_steps: int, every: int) -> list[int]:
    """Steps 0, every, 2*every, ... up to n_steps, plus n_steps itself.

    More than MAX_SAMPLES of them raises InvalidInput before any is built.
    """
    count = n_steps // every + 1 + (n_steps % every > 0)
    if count > MAX_SAMPLES:
        raise InvalidInput(f"{count} samples exceed the cap of {MAX_SAMPLES}")
    return sorted(set(range(0, n_steps + 1, every)) | {n_steps})


def _march(u0: SpectralField, params: ModelParams, steps) -> dict[int, SpectralField]:
    """RK4 from u0 to the largest of steps, keeping u0 (step 0) and the
    state at each of steps.

    Only the requested states are stored, so memory follows len(steps), not
    the number of steps taken.  Raises BlowupDetected as soon as a
    coefficient exceeds BLOWUP_CAP or is NaN; warns once when dt*max|phi| >= 1.
    """
    grid, dt = params.grid, params.dt
    minus_phi = -phi_symbol(grid.wavenumbers, params.alpha)
    wanted = set(steps)
    last = max(wanted)
    if last > 0:
        _warn_if_unstable(dt, minus_phi, stacklevel=4)
    kept = {0: u0}
    coeffs = u0.coeffs
    work = _workspace(coeffs.shape, grid)
    modulus = work[-1][:coeffs.size]  # the samples are free between steps
    for step in range(1, last + 1):
        coeffs = _rk4(coeffs, dt, grid, minus_phi, work)
        if not np.abs(coeffs, out=modulus).max() <= BLOWUP_CAP:  # and NaN
            raise BlowupDetected(step * dt)
        if step in wanted:
            kept[step] = SpectralField(grid, coeffs)
    return kept


def simulate(
    u0: SpectralField,
    params: ModelParams,
    weight: GevreyWeight,
    sample_every: int = 1,
) -> Trajectory:
    """RK4 driver recording states and NormReports every sample_every steps
    and at the last step; a report that overflows raises OverflowRisk."""
    if sample_every < 1:
        raise InvalidInput(f"sample_every must be >= 1, got {sample_every}")
    steps = _sample_steps(_step_count(params.t_end, params.dt), sample_every)
    times = [step * params.dt for step in steps]
    kept = _march(zero_nyquist(u0), params, steps)
    states = [kept[step] for step in steps]
    with _overflow_guard("the energy"):
        reports = [norm_report(s, weight, params.alpha) for s in states]
    return Trajectory(np.asarray(times), states, params, reports)


# --- initial-data library -------------------------------------------------


def gaussian_data(grid: Grid, amplitude: float = 1.0,
                  width: float = 4.0) -> SpectralField:
    """a * exp(-(x-x0)^2 / w^2), centered in the box (x0 = L/2); w > 0."""
    if not width > 0:
        raise InvalidInput(f"width must be positive, got {width}")
    x0 = grid.domain_length / 2.0
    samples = amplitude * np.exp(-((grid.points - x0) ** 2) / width**2)
    return zero_nyquist(forward_transform(samples, grid))


def cosine_data(grid: Grid, amplitude: float = 1.0, mode: int = 1) -> SpectralField:
    """a * cos(2*pi*mode*x / L)."""
    samples = amplitude * np.cos(2.0 * np.pi * mode * grid.points / grid.domain_length)
    return zero_nyquist(forward_transform(samples, grid))


def sech2_data(grid: Grid, amplitude: float = 1.0,
               width: float = 4.0) -> SpectralField:
    """a * sech((x-x0)/w)^2, a solitary-wave-like profile centered in the
    box (x0 = L/2); w > 0."""
    if not width > 0:
        raise InvalidInput(f"width must be positive, got {width}")
    x0 = grid.domain_length / 2.0
    samples = amplitude / np.cosh((grid.points - x0) / width) ** 2
    return zero_nyquist(forward_transform(samples, grid))


INITIAL_DATA = {
    "gaussian": gaussian_data,
    "cosine": cosine_data,
    "sech2": sech2_data,
}
