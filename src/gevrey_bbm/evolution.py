"""Time evolution of the (fractional) BBM equation.

Two solvers are provided:

* ``step_rk4`` / ``simulate``: classical four-stage Runge-Kutta on the
  spectral ODE system u_t = -phi(D)(u + u^2/2).  The dispersive symbol is
  bounded, so the system is non-stiff and explicit stepping is adequate;
  this is the production integrator.
* ``picard_solve``: fixed-point iteration of the integral (Duhamel) form
  on a uniform time sub-grid with composite trapezoidal quadrature.  Used
  for verification over a single local-existence window, not for long runs.

The flow is the Galerkin truncation of the equation onto the alias-free
band |j| <= K that the 2/3 rule keeps, K = ``Grid.dealias_cutoff`` =
(n-1)//3, the largest K with 3K < n: ``simulate``, ``step_rk4``,
``picard_solve``, ``analytics.measure_defects`` and the data factories all
project onto it (``spectral.dealias``, which clears j = n/2 too).  On
that band u^2 is computed without aliasing onto the band, and
J = -d(1 + D^alpha)^-1 is skew and commutes with the projection, so the
mass, the quadratic invariant energy(u, 0, alpha) and the Hamiltonian are
invariants of the semi-discrete flow for every datum and on every grid,
left only to the time stepper's error.  Stepped with its modes in (K, n/2),
a datum that is not resolved there aliases them into u^2 and loses all
three; so does a band with K = n/3 when 3 divides n, whose modes +-n/3
square onto -+n/3.

Both solvers run on one private kernel over raw arrays: ``_square`` is the
dealiased u^2 of half-spectra (the last axis holds the modes j = 0..n/2;
linear multipliers need no dealiasing), written into the buffers its
caller passes or into fresh ones, and ``_rk4`` is one step on the band
alone (the last axis holds j = 0..K, ``_band`` of them), with the same
square written inline, in the scratch of a ``_workspace``.  ``_workspace``
and ``_rk4`` know the workspace's whole layout; ``_march`` knows one slot of
it, the real samples (slot 5), which are free between steps and into which
it takes the modulus of its blowup check.  ``rhs`` (``_square`` into fresh
arrays, then its add and multiply) and ``step_rk4`` are thin
``SpectralField`` wrappers over the kernel.  ``_minus_phi`` builds -phi and
max|phi| once per (grid, alpha) and caches them read-only; ``_march``,
``step_rk4`` and ``rhs`` all read that cache, the first two only its band.
``_march`` is the one stepping loop: it keeps a ``SpectralField`` only at a
given set of steps, its band padded back to n/2+1 modes with zeros.
``simulate`` runs it on every ``sample_every``-th step (at most MAX_SAMPLES
of them) and ``analytics.measure_defects`` on the union of each run's
window sample steps; neither takes more than MAX_STEPS steps.
``picard_solve`` walks its time nodes in blocks of PICARD_BLOCK steps: one
batched ``_square`` per block into the block's rows of a square and a
samples buffer sized for the largest block, and the
trapezoid as a cumulative sum in the interaction picture, seeded with the
previous block's last sum, so an iteration has no loop over single nodes
and holds only the flow and the iterate at every node.

``_march`` has a batch axis: it takes several initial states on one grid,
each with its own alpha and step set.  A single state is stepped as its 1-D
band.  Several are stacked to shape (rows, band), with each row's -phi
stacked beside them, and stepped as one array, which the kernel handles
unchanged, because it works along the last axis and batched real FFTs give
each row bit for bit its single-row result.  Each row stops at its own last
step: the stack is re-sliced without it, with a fresh workspace, so no row
takes a step past its own.  A blowup names the first failing row.

The kernel allocates nothing it does not return, and at small n a step
pays for its arithmetic, not for numpy's set-up of its calls or for Python
frames: 8 FFTs and 22 ufunc calls on a power-of-two grid, 26 on any other,
each complex one over the band only, so the modes above K are never
stored, cleared or stepped (``_rk4`` says why that keeps every bit).
``_rk4`` runs its four stages as one flat loop with the dealiased square
written inline.  ``_march``
screens for blowup with the sum of |c|^2 over the stack, one
``np.vecdot``, and takes the exact max|c| with ``np.maximum.reduce`` only
when the screen fails (as a NaN, an inf or an overflow does), so what
raises, and when, is what the max alone decides.  Both are ufuncs, where
``np.dot`` and ``ndarray.max`` enter Python functions (numpy's dispatcher
and ``_amax``), so a ``_march`` step makes 9 Python calls: ``_rk4`` and the
transforms' 4 ``_to_samples`` and 4 ``_rfft``.  A
``_workspace`` is built once per run with what every step would otherwise
rebuild: the four RK4 stages as one (4, ...) array, the stage input, the
forward transform's full-length buffer and a view of its band, the real
samples, prebuilt views of the stages' rows, the
grid's transform scalings (``spectral._scales``) and every scalar of a
step as a 0-d array of the dtype of the call's output: a ufunc converts a
Python float on every call, and casts a float64 0-d array against a
complex128 state (at n = 128 on 2 cores a multiply took 0.72 us with the
float64 scalar and 0.45 with a complex128 one).  So dt/2, dt, 2 and dt/6
are complex128, and only the halved forward scale, the real FFT's
``fct``, is float64.  For the same reason a stack's -phi has the stack's
(rows, band) shape: broadcasting a 1-D -phi cost 3.2 us a multiply at
3 x 65 modes against 1.0.  Neither moves a bit: numpy multiplies a
complex array by a float s as by (s + 0j), and broadcasting does not
change any element's product.
The FFTs write into it: the inverse ones through ``spectral._to_samples``,
and the forward ones through ``spectral._rfft`` with L/n as the kernel's
own factor, or L/(2n) in a stage, which folds in the 1/2 of u^2/2.
The square and the stage combinations are in-place ufuncs with ``out``
given positionally (cheaper than as a keyword).  k1 + 2 k2 + 2 k3 + k4 is
one x2 on the middle rows and one ``np.add.reduce`` over the stages, which
adds the rows in order.  ``_march`` makes one workspace per stack, and
``step_rk4`` keeps the workspace of its last call as the idle one, keyed by
(shape, grid, dt): a call with that key takes it out and puts it back only
after its step, so a re-entrant or concurrent call finds no spare and
builds its own, and a call with another key replaces it.  At most one idle
workspace is held.  ``step_rk4`` writes the step into the band of a zeroed
full-length array, so a lone step pays no copy.  The ufuncs take their
operands in the
order of the plain expressions, and each folded factor rounds as the
separate multiplies did: a factor 1/2, or a power of two n in 1/n times
n/L, commutes with rounding outside the subnormal range (below about
2.2e-308).  So every state is bit for bit what the allocating formula
gives, with one exception that compares equal: the kernel scales each
real component, where a complex array times a real scalar is a complex
multiply by (s + 0j), so an exactly zero component can come out -0.0
where the formula gives +0.0, or the reverse.  The new state of a step is
the one fresh array, and a kept state is a fresh full-length array, so no
kept state shares memory with the workspace or with another kept state.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BlowupDetected, InvalidInput, NoConvergence, _overflow_guard
from .multipliers import GevreyWeight, ModelParams, phi_symbol
from .norms import NormReport, _hs_norms, gevrey_norm, norm_report
from .spectral import (
    Grid,
    SpectralField,
    _index,
    _read_only,
    _rfft,
    _scales,
    _to_samples,
    dealias,
    forward_transform,
)

BLOWUP_CAP = 1e12
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 50
PICARD_BLOCK = 64  # steps dtau (nodes past node 0) per block of picard_solve
MAX_SAMPLES = 10**6  # _sample_steps builds the sample set before stepping
# _step_count's cap: 10-20 hours of _march at the fastest step measured,
# 35-70 us at n = 8-64 on 2 cores (the host's core speed drifts)
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


def _band(grid: Grid) -> int:
    """The number of modes j = 0..K of the alias-free band
    (K = Grid.dealias_cutoff): the length of the last axis that _rk4
    steps."""
    return grid.dealias_cutoff + 1


def _workspace(shape: tuple[int, ...], grid: Grid, dt: float) -> tuple:
    """Scratch for RK4 steps of size dt on band half-spectra of the given
    shape (the last axis holds the modes j <= K, see _band), built once
    per run (per stack of _march, and per change of step_rk4's idle
    workspace) so that a step makes no array but its new state and converts
    no Python float.  _rk4 reads it all; _march reads only the real samples
    (slot 5), as the buffer of its blowup modulus between steps.

    In order: the stages k1..k4 as one (4, *shape) array and its middle
    rows k2, k3; the stage input; the rows k1..k4; the forward transform's
    full half-spectra (modes j <= n/2, which the real FFT writes); the real
    samples of u; the band of the forward half-spectra; the grid's
    spectral._scales; the forward scale halved, a float64 0-d array (the
    real samples' fct); and dt/2, dt, 2 and dt/6 as complex128 0-d arrays,
    the dtype of the states they multiply.
    """
    scales = _scales(grid)
    stages = np.empty((4, *shape), dtype=np.complex128)
    forward = np.empty(shape[:-1] + (grid.n_points // 2 + 1,),
                       dtype=np.complex128)
    scalars = (0.5 * dt, dt, 2.0, dt / 6.0)
    return (stages, stages[1:3], np.empty(shape, dtype=np.complex128),
            tuple(stages), forward, np.empty(shape[:-1] + (grid.n_points,)),
            forward[..., :shape[-1]], scales, np.array(0.5 * scales.forward),
            *(np.array(s, np.complex128) for s in scalars))


def _square(coeffs: np.ndarray, grid: Grid, scale: np.ndarray | None = None,
            out: np.ndarray | None = None,
            samples: np.ndarray | None = None) -> np.ndarray:
    """Dealiased u^2 of half-spectra along the last axis, written into out
    through the real samples of u in samples (fresh arrays when None); scale
    is the forward transform's, the grid's L/n when None.

    The same arithmetic as forward_transform(inverse_transform(u)**2)
    followed by dealias (which clears the Nyquist mode too), on raw arrays.
    """
    scales = _scales(grid)
    samples = _to_samples(coeffs, scales, samples)
    np.multiply(samples, samples, samples)
    square = _rfft(samples, out, scales.forward if scale is None else scale)
    square[..., _band(grid):].fill(0.0)
    return square


def _rk4(coeffs: np.ndarray, minus_phi: np.ndarray, work: tuple,
         out: np.ndarray | None = None) -> np.ndarray:
    """One classical RK4 step of size dt on band half-spectra (modes
    j <= K), with the scratch arrays and the dt of work.  Returns the new
    state, written into out (a fresh array when None).  minus_phi is -phi on
    the band and broadcasts to coeffs; it is fastest in coeffs' own shape.

    Stage k is -phi(D)(u + u^2/2) at its input u, written into row k: the
    dealiased square, inline.  The inverse FFT reads the band and takes
    every mode above it as zero; the forward FFT, with the scale L/(2n),
    writes the full half-spectrum, and only its band is read.  So no ufunc
    touches a mode above K, and each band mode is bit for bit what the
    full-length step gives a state whose modes above K are zero."""
    (stages, middle, stage, rows, forward, samples, band, scales,
     half_forward, half_dt, dt, two, sixth_dt) = work
    u = coeffs
    for row, scale in zip(rows, (None, half_dt, half_dt, dt)):
        if scale is not None:  # u = coeffs + scale * the previous stage
            np.multiply(scale, previous, stage)
            np.add(coeffs, stage, stage)
            u = stage
        _to_samples(u, scales, samples)
        np.multiply(samples, samples, samples)
        _rfft(samples, forward, half_forward)  # 0.5 * u^2, by L/(2n)
        np.add(u, band, row)  # u + 0.5 * u^2
        np.multiply(minus_phi, row, row)  # -phi * (u + 0.5 * u^2)
        previous = row
    np.multiply(two, middle, middle)  # 2*k2, 2*k3
    # the rows in order: ((k1 + 2*k2) + 2*k3) + k4
    np.add.reduce(stages, 0, None, stage)
    np.multiply(sixth_dt, stage, stage)
    return np.add(coeffs, stage, out)


@functools.lru_cache(maxsize=64)
def _minus_phi(grid: Grid, alpha: float) -> tuple[np.ndarray, float]:
    """-phi on the grid's modes (read-only) and max|phi|, built once per
    (grid, alpha)."""
    symbol = phi_symbol(grid.wavenumbers, alpha)
    return _read_only(-symbol), float(np.max(np.abs(symbol)))


def _warn_if_unstable(dt: float, max_phi: float, stacklevel: int = 3) -> None:
    """Warn when dt*max|phi| >= 1.  The default stacklevel names the caller
    of the public function that calls this one directly."""
    margin = dt * max_phi
    if margin >= 1.0:
        warnings.warn(f"dt*max|phi| = {margin:.3g} >= 1; accuracy may degrade",
                      stacklevel=stacklevel)


def rhs(field: SpectralField, alpha: float) -> SpectralField:
    """-phi(D)(u + u^2/2), the full spectral right-hand side."""
    grid = field.grid
    minus_phi, _ = _minus_phi(grid, alpha)
    # 0.5 * u^2, by L/(2n)
    value = _square(field.coeffs, grid, 0.5 * _scales(grid).forward)
    np.add(field.coeffs, value, value)  # u + 0.5 * u^2
    np.multiply(minus_phi, value, value)  # -phi * (u + 0.5 * u^2)
    return field.with_coeffs(value)


# The workspace of the last step_rk4 call as [((shape, grid, dt), work)];
# [] before the first call and while a call has it out.
_idle: list[tuple[tuple, tuple]] = []


def step_rk4(field: SpectralField, dt: float, alpha: float) -> SpectralField:
    """One classical RK4 step of the spectral ODE system from the projection
    of field onto the alias-free band j <= K (spectral.dealias): the
    Galerkin flow that simulate steps.  The new state's modes above K are
    zero, and a dt of 0 returns field as it is.  Warns when
    dt*max|phi| >= 1.

    A call takes the idle workspace out when its (shape, grid, dt) match,
    and leaves its own as the idle one after its step, so a re-entrant or
    concurrent call never shares the workspace of a step in progress."""
    if not 0 <= dt < math.inf:
        raise InvalidInput(f"dt must be finite and >= 0, got {dt}")
    if dt == 0:
        return field
    grid = field.grid
    minus_phi, max_phi = _minus_phi(grid, alpha)
    _warn_if_unstable(dt, max_phi)
    band = _band(grid)
    key = (field.coeffs.shape, grid, dt)
    try:
        idle_key, work = _idle.pop()
    except IndexError:
        idle_key = None
    if idle_key != key:
        work = _workspace((band,), grid, dt)
    new = np.zeros(key[0], np.complex128)  # the step is written into its band
    _rk4(field.coeffs[:band], minus_phi[:band], work, new[:band])
    _idle[:] = [(key, work)]
    return field.with_coeffs(new)


def lifespan(u0: SpectralField, weight: GevreyWeight, alpha: float, c: float) -> float:
    """Local-existence window 1/(8c ||I u0||_{H^{alpha/2}}); only weight.sigma enters.

    Returns +inf for zero initial data and raises OverflowRisk only when the
    norm itself exceeds double range; an alpha that is not finite and > 1 is
    InvalidInput.  The constant c is never given numerically by the theory;
    feed the calibrated bilinear constant.
    """
    if not 1 < alpha < math.inf:
        raise InvalidInput(f"alpha must be finite and > 1, got {alpha}")
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
    with composite trapezoidal quadrature on n_nodes+1 uniform tau nodes,
    from the projection of u0 onto the alias-free band (spectral.dealias):
    the Galerkin flow that the RK4 route steps, by an independent route.
    phi is imaginary, so S(t) = exp(-t*phi) is unimodular and
    S(-t) = conj(S(t)); with g_m = S(-t_m) phi(D)(u_m^2) the trapezoid at
    node k is one cumulative sum in the interaction picture,

        J_k = S(t_k) dtau (sum_{m<=k} g_m - (g_0 + g_k)/2),

    so an iteration costs O(n_nodes * n).  It walks the nodes in order, in
    blocks of PICARD_BLOCK steps dtau (the first block holds node 0 too, so
    the default n_nodes is one block): one batched u^2 per block, the
    block's running sums seeded with the previous block's last, and the
    block of the new iterate written over the old one.  Node k of the new
    iterate depends only on nodes <= k of the old, so the overwrite is
    safe, and only the flow S(t_k) and the iterate are held at every node.
    Each ufunc takes its operands in the order of the formula above with
    every temporary named, so every state and distance is bit for bit what
    that formula gives (a plain expression on arrays from about 256 KiB up
    may reuse a temporary in place with the operands of a product swapped,
    which can move the last bit).
    Successive iterates are compared in the sup-in-time H^{alpha/2} norm of
    the difference weighted by cosh(sigma D), the metric of the contraction
    argument; only weight.sigma enters.  Stops when the distance drops below
    PICARD_TOL.  Raises NoConvergence after PICARD_MAX_ITER iterations, or as
    soon as an iterate has a coefficient above BLOWUP_CAP or NaN.  A delta
    that is not finite and positive, or an n_nodes that is not an integer
    >= 1, is InvalidInput.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise InvalidInput(f"delta must be finite and positive, got {delta}")
    if _index(n_nodes, "n_nodes") < 1:
        raise InvalidInput(f"n_nodes must be >= 1, got {n_nodes}")
    u0 = dealias(u0)
    grid = u0.grid
    xi = grid.wavenumbers
    symbol = phi_symbol(xi, alpha)
    times = np.linspace(0.0, delta, n_nodes + 1)
    dtau = times[1] - times[0]
    flow = np.outer(times, symbol)
    np.exp(np.negative(flow, flow), flow)  # S(t_k) at every node
    iterate = flow * u0.coeffs  # the free flow S(t_k) u0
    i_symbol = GevreyWeight(weight.sigma).symbol(xi)
    # per block: the square, its real samples, g and the running sums
    bounds = [0, *range(PICARD_BLOCK + 1, len(times), PICARD_BLOCK), len(times)]
    size = min(PICARD_BLOCK + 1, len(times))
    square, g, sums = np.empty((3, size, len(xi)), dtype=np.complex128)
    samples = np.empty((size, grid.n_points))
    blocks = [(slice(start, stop),
               *(a[:stop - start] for a in (square, samples, g, sums)))
              for start, stop in zip(bounds, bounds[1:])]
    first, carry = np.empty((2, len(xi)), dtype=np.complex128)
    node_distances = np.empty(len(times))
    distances: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(PICARD_MAX_ITER):
            for nodes, square, samples, g, sums in blocks:
                old, f = iterate[nodes], flow[nodes]
                # S(-t_k) phi, then S(-t_k) phi(D)(u^2)
                np.multiply(np.conj(f, g), symbol, g)
                np.multiply(g, _square(old, grid, None, square, samples), g)
                np.copyto(sums, g)
                if nodes.start == 0:
                    np.copyto(first, g[0])
                else:  # np.cumsum's order: carry + g[start] first
                    np.add(carry, sums[0], sums[0])
                np.cumsum(sums, 0, None, sums)
                np.copyto(carry, sums[-1])
                np.multiply(0.5, np.add(first, g, g), g)  # (g_0 + g_k)/2
                np.subtract(sums, g, sums)
                # new = free - 0.5 * (flow * (dtau * sums)), into g
                np.multiply(dtau, sums, sums)
                np.multiply(f, sums, sums)
                np.multiply(0.5, sums, sums)
                new = np.subtract(np.multiply(f, u0.coeffs, g), sums, g)
                if not np.abs(new).max() <= BLOWUP_CAP:  # and NaN
                    raise NoConvergence(
                        f"Picard iterate {len(distances) + 1} exceeds the blowup cap",
                        diagnostics=_picard_diagnostics(distances))
                weighted = np.multiply(np.subtract(new, old, sums), i_symbol, sums)
                node_distances[nodes] = _hs_norms(grid, weighted, alpha / 2.0)
                old[...] = new
            distances.append(float(np.max(node_distances)))
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


def _march(u0s: list[SpectralField], alphas, steps, grid: Grid,
           dt: float) -> list[dict[int, SpectralField]]:
    """RK4 from each initial state in u0s, under its own alpha, to the
    largest step of its own step set in steps, keeping the state (step 0
    included) at each of them; one kept-state dict per state.  Only each
    state's alias-free band j <= K is stepped, so callers pass projected
    states (spectral.dealias); step 0 is kept as given, and every later kept
    state is zero above K.

    A single state is stepped as its 1-D band.  Several are stacked to shape
    (rows, band) and stepped together; a row leaves the stack after its last
    step, so no row steps past it.  Only the requested states are stored, so
    memory follows the kept steps, not the steps taken.  Raises
    BlowupDetected, naming the row when there are several, as soon as a
    coefficient exceeds BLOWUP_CAP or is NaN; warns once when dt*max|phi| >= 1
    for the largest max|phi| of the rows that step.  Raises InvalidInput,
    naming both grids, for a state that lives on a grid other than grid.
    """
    for u0 in u0s:
        if u0.grid != grid:
            raise InvalidInput(f"initial state on {u0.grid} cannot step on {grid}")
    band, size = _band(grid), grid.n_points // 2 + 1
    phis = [_minus_phi(grid, alpha) for alpha in alphas]
    wanted = [set(s) for s in steps]
    lasts = [max(w) for w in wanted]
    kept = [{0: u0} for u0 in u0s]
    live = [row for row, last in enumerate(lasts) if last > 0]
    if live:
        _warn_if_unstable(dt, max(phis[row][1] for row in live), stacklevel=4)
    rows = [u0s[row].coeffs[:band] for row in live]
    # a sum of squares at most this bounds every modulus by BLOWUP_CAP/sqrt(2)
    screen = BLOWUP_CAP * BLOWUP_CAP / 2.0
    first = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while live:
            # the live rows and their -phi, stacked, so that no multiply
            # broadcasts; a lone row stays 1-D
            if len(rows) == 1:
                coeffs, stack_phi = rows[0], phis[live[0]][0][:band]
            else:
                coeffs = np.stack(rows)
                stack_phi = np.stack([phis[row][0][:band] for row in live])
            work = _workspace(coeffs.shape, grid, dt)
            modulus = work[5][..., :band]  # samples are free between steps
            stop = min(lasts[row] for row in live)
            for step in range(first, stop + 1):
                coeffs = _rk4(coeffs, stack_phi, work)
                # sum |c|^2 over the stack screens the exact max: a NaN, an
                # inf or an overflow fails the screen, and only the max
                # decides what raises.  The max per row is taken only to name
                # the row once the max over the stack fails.  np.vecdot and
                # np.maximum.reduce are ufuncs, where np.dot and ndarray.max
                # enter a Python function on every call
                flat = coeffs.reshape(-1)
                if not np.vecdot(flat, flat).real <= screen:
                    peak = np.maximum.reduce(np.abs(coeffs, modulus), None)
                    if not peak <= BLOWUP_CAP:  # and NaN
                        row = live[int(np.argmin(
                            modulus.max(axis=-1) <= BLOWUP_CAP))]
                        raise BlowupDetected(step * dt,
                                             row if len(u0s) > 1 else None)
                for i, row in enumerate(live):
                    if step in wanted[row]:
                        state = np.zeros(size, np.complex128)
                        state[:band] = coeffs if coeffs.ndim == 1 else coeffs[i]
                        kept[row][step] = SpectralField(grid, state)
            stacked = coeffs if coeffs.ndim == 2 else [coeffs]
            rows = [state for state, row in zip(stacked, live) if lasts[row] > stop]
            live = [row for row in live if lasts[row] > stop]
            first = stop + 1
    return kept


def simulate(
    u0: SpectralField,
    params: ModelParams,
    weight: GevreyWeight,
    sample_every: int = 1,
) -> Trajectory:
    """RK4 driver recording states and NormReports every sample_every steps
    and at the last step, from the projection of u0 onto the alias-free
    band (spectral.dealias), which is the first state; a report that
    overflows raises OverflowRisk; a sample_every that is not an integer
    >= 1 is InvalidInput."""
    if _index(sample_every, "sample_every") < 1:
        raise InvalidInput(f"sample_every must be >= 1, got {sample_every}")
    steps = _sample_steps(_step_count(params.t_end, params.dt), sample_every)
    times = [step * params.dt for step in steps]
    (kept,) = _march([dealias(u0)], [params.alpha], [steps], params.grid,
                     params.dt)
    states = [kept[step] for step in steps]
    with _overflow_guard("the energy"):
        reports = [norm_report(s, weight, params.alpha) for s in states]
    return Trajectory(np.asarray(times), states, params, reports)


# --- initial-data library -------------------------------------------------
# Each profile is sampled on the grid and projected onto the alias-free band
# j <= K (spectral.dealias), the band that the flow evolves.


def gaussian_data(grid: Grid, amplitude: float = 1.0,
                  width: float = 4.0) -> SpectralField:
    """a * exp(-(x-x0)^2 / w^2), centered in the box (x0 = L/2); w > 0."""
    if not width > 0:
        raise InvalidInput(f"width must be positive, got {width}")
    x0 = grid.domain_length / 2.0
    samples = amplitude * np.exp(-((grid.points - x0) ** 2) / width**2)
    return dealias(forward_transform(samples, grid))


def cosine_data(grid: Grid, amplitude: float = 1.0, mode: int = 1) -> SpectralField:
    """a * cos(2*pi*mode*x / L); a mode outside the alias-free band, which
    the 2/3 rule projects to zero, or one that is not an integer, and so
    not periodic on the box, is InvalidInput."""
    mode = _index(mode, "mode")
    if not abs(mode) <= grid.dealias_cutoff:
        raise InvalidInput(f"mode must lie in the alias-free band |j| <= "
                           f"(n-1)//3 = {grid.dealias_cutoff}, got {mode}")
    samples = amplitude * np.cos(2.0 * np.pi * mode * grid.points / grid.domain_length)
    return dealias(forward_transform(samples, grid))


def sech2_data(grid: Grid, amplitude: float = 1.0,
               width: float = 4.0) -> SpectralField:
    """a * sech((x-x0)/w)^2, a solitary-wave-like profile centered in the
    box (x0 = L/2); w > 0."""
    if not width > 0:
        raise InvalidInput(f"width must be positive, got {width}")
    x0 = grid.domain_length / 2.0
    samples = amplitude / np.cosh((grid.points - x0) / width) ** 2
    return dealias(forward_transform(samples, grid))


INITIAL_DATA = {
    "gaussian": gaussian_data,
    "cosine": cosine_data,
    "sech2": sech2_data,
}
