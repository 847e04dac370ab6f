"""The three benchmark workloads of gevrey-bbm, their output checks and
their traced replays.

Each workload has two paths over the same work:

* ``case`` is what a user runs: ``cli.main`` with the workload's config
  (plus, for ``defect_verification``, the library calls the acceptance
  suite makes).  End-to-end metrics time this path.
* ``replay`` makes the same computation through the package's public
  functions, with a span around each call into a layer.  Per-layer metrics
  come from it, from the CLI spans of ``case`` and from ``probe``, which
  times the inner layers (transform pair, ``phi_symbol``, ``rhs``,
  ``norm_report``) on the workload's own states at its n.

Nothing in ``gevrey_bbm`` is patched: every figure is taken from outside,
around the benchmark's own calls.  Both paths raise ``GateFailure`` when an
output check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from time import perf_counter

import numpy as np
import sympy

from gevrey_bbm import analytics, cli, evolution, identities, spectral
from gevrey_bbm.multipliers import GevreyWeight, ModelParams, apply_I, phi_symbol
from gevrey_bbm.norms import hs_norm, norm_report
from gevrey_bbm.spectral import Grid

BENCH_DIR = Path(__file__).resolve().parent
CALIBRATION_FILE = BENCH_DIR.parent / "src" / "gevrey_bbm" / "data" / "calibration.txt"
REFERENCE_FILE = BENCH_DIR / "reference.json"


class GateFailure(Exception):
    """An output of the program failed one of the benchmark's checks."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans of one case, kept in memory; run.py writes them out at exit.

    A disabled tracer records nothing, so the untraced path pays only a
    no-op context manager per call it wraps.
    """

    enabled: bool = True
    spans: list[Span] = dataclass_field(default_factory=list)
    _open: list[int] = dataclass_field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append(Span(name, self._open[-1] if self._open else None,
                               perf_counter()))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def seconds(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.seconds(name))


def clear_caches() -> None:
    """Start each case as cold as a fresh CLI process: sympy's expression
    cache would let every case after the first skip the symbolic work."""
    sympy.core.cache.clear_cache()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with its JSON report captured instead of printed."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def per_call_us(fn, inputs, repeat: int) -> float:
    """Median wall microseconds of one call of fn over every input."""
    times = []
    for args in inputs:
        for _ in range(repeat):
            start = perf_counter()
            fn(*args)
            times.append(perf_counter() - start)
    return 1e6 * statistics.median(times)


def stepper_probe(states, alpha: float, weight: GevreyWeight,
                  repeat: int = 20) -> dict[str, float]:
    """Inner stepper layers timed one call at a time on the given states."""
    grid = states[0].grid
    samples = [spectral.inverse_transform(s) for s in states]
    xi = grid.wavenumbers
    return {
        "spectral.transform_pair_us": per_call_us(
            lambda s: spectral.forward_transform(spectral.inverse_transform(s), grid),
            [(s,) for s in states], repeat),
        "spectral.fft_floor_us": per_call_us(
            lambda x: np.fft.irfft(np.fft.rfft(x), grid.n_points),
            [(x,) for x in samples], repeat),
        "multipliers.phi_symbol_us": per_call_us(
            phi_symbol, [(xi, alpha)], repeat * len(states)),
        "evolution.rhs_us": per_call_us(
            evolution.rhs, [(s, alpha) for s in states], repeat),
        "norms.norm_report_us": per_call_us(
            norm_report, [(s, weight, alpha) for s in states], repeat),
    }


def step_metrics(tracer: Tracer, floor_us: float) -> dict[str, float]:
    """Per-step percentiles of the replay's step_rk4 spans."""
    steps_us = 1e6 * np.asarray(tracer.seconds("evolution.step_rk4"))
    p50 = float(np.percentile(steps_us, 50))
    return {
        "evolution.step_rk4_us_p50": p50,
        "evolution.step_rk4_us_p99": float(np.percentile(steps_us, 99)),
        "evolution.step_over_floor": p50 / (4.0 * floor_us),
    }


def load_reference() -> dict:
    """Stored outputs the gates compare against.  The calibration is read
    from the package's own data file, so it is that of the commit measured."""
    with open(REFERENCE_FILE) as handle:
        reference = json.load(handle)
    reference["calibration"] = analytics.Calibration.load(CALIBRATION_FILE)
    return reference


# --- long_trajectory -----------------------------------------------------------


class LongTrajectory:
    """cli radius at the c09 config: 5000 RK4 steps at n = 1024, 21 samples."""

    n_points = 1024
    domain_length = 256.0
    dt = 0.02
    t_end = 100.0
    sample_every = 250
    alpha = 2.0
    sigma = 0.1  # the CLI default weight; it enters only the norm reports

    def __init__(self, seed: int, reference: dict):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.amplitude = float(rng.uniform(0.4, 0.6))
        self.width = float(rng.uniform(3.5, 4.5))
        radius = reference["radius"]
        self.reference = radius if seed == radius["seed"] else None
        self.grid = Grid(self.n_points, self.domain_length)
        self.u0 = evolution.gaussian_data(self.grid, self.amplitude, self.width)
        self.argv = [
            "radius", "--n_points", str(self.n_points),
            "--domain_length", repr(self.domain_length), "--dt", repr(self.dt),
            "--t_end", repr(self.t_end), "--sample_every", str(self.sample_every),
            "--amplitude", repr(self.amplitude), "--width", repr(self.width),
            "--seed", str(seed),
        ]
        self.first_output: str | None = None
        self.states: list[spectral.SpectralField] = []

    def environment(self) -> dict:
        return {"n_points": self.n_points, "dt": self.dt, "t_end": self.t_end,
                "amplitude": self.amplitude, "width": self.width}

    def case(self, tracer: Tracer) -> dict[str, float]:
        with tracer.span("cli.radius"):
            code, output = run_cli(self.argv)
        check(code == 0, f"radius exited {code}")
        report = json.loads(output)
        check(report["pointwise_ok"], "radius: pointwise lower bound fails")
        if self.first_output is None:
            self.first_output = output
        check(output == self.first_output, "radius: rerun is not byte-identical")
        self._check_reference(report)
        return {"cli.radius_s": tracer.total("cli.radius"),
                "cli.report_bytes": len(output.encode())}

    def _check_reference(self, fit: dict) -> None:
        """At the reference seed, mu_fit and c_check must match the stored
        values within their stated tolerances (not bitwise: a valid change
        of round-off, such as a real-FFT stepper, must still pass)."""
        if self.reference is None:
            return
        for key in ("mu_fit", "c_check"):
            ref = self.reference[key]
            allowed = ref["atol"] + ref["rtol"] * abs(ref["value"])
            check(abs(fit[key] - ref["value"]) <= allowed,
                  f"radius: {key} {fit[key]!r} differs from the "
                  f"reference {ref['value']!r} by more than {allowed:.3g}")

    def replay(self, tracer: Tracer) -> dict[str, float]:
        """simulate, unrolled: step_rk4 one step at a time, norm_report at
        each sample, then track_radius on the resulting trajectory."""
        weight = GevreyWeight(self.sigma)
        params = ModelParams(self.alpha, self.grid, self.dt, self.t_end)
        n_steps = int(round(self.t_end / self.dt))
        with tracer.span("evolution.simulate"):
            state = spectral.zero_nyquist(self.u0)
            times, states = [0.0], [state]
            with tracer.span("norms.norm_report"):
                reports = [norm_report(state, weight, self.alpha)]
            for step in range(1, n_steps + 1):
                with tracer.span("evolution.step_rk4"):
                    state = evolution.step_rk4(state, self.dt, self.alpha)
                coeffs = state.coeffs
                if not np.all(np.isfinite(coeffs)) or \
                        np.max(np.abs(coeffs)) > evolution.BLOWUP_CAP:
                    raise GateFailure(f"replay blew up at step {step}")
                if step % self.sample_every == 0 or step == n_steps:
                    times.append(step * self.dt)
                    states.append(state)
                    with tracer.span("norms.norm_report"):
                        reports.append(norm_report(state, weight, self.alpha))
        traj = evolution.Trajectory(np.asarray(times), states, params, reports)
        with tracer.span("analytics.track_radius"):
            fit = analytics.track_radius(traj)
        check(self.first_output is not None, "replay: no CLI report to compare")
        report = json.loads(self.first_output)
        check(fit.mu_fit == report["mu_fit"] and fit.c_check == report["c_check"]
              and fit.pointwise_ok == report["pointwise_ok"],
              "replay: radius fit differs from the CLI report")
        self._check_reference({"mu_fit": fit.mu_fit, "c_check": fit.c_check})
        self.states = states
        used = sum(1 for t, s, r2 in fit.samples
                   if r2 >= analytics.FIT_R2_MIN and t >= analytics.FIT_T_MIN and s > 0)
        steps = len(tracer.seconds("evolution.step_rk4"))
        return {
            "evolution.rk4_steps": steps,
            "multipliers.phi_symbol_calls": 5 * steps,
            "evolution.simulate_calls": len(tracer.seconds("evolution.simulate")),
            "evolution.simulate_busy_s": tracer.total("evolution.simulate"),
            "norms.norm_report_calls": len(tracer.seconds("norms.norm_report")),
            "analytics.track_radius_ms": 1e3 * tracer.total("analytics.track_radius"),
            "analytics.radius_samples_rejected": len(traj.states) - used,
        }

    def probe(self, tracer: Tracer) -> dict[str, float]:
        layers = stepper_probe(self.states, self.alpha, GevreyWeight(self.sigma))
        layers.update(step_metrics(tracer, layers["spectral.fft_floor_us"]))
        return layers


# --- defect_verification -------------------------------------------------------


def triad_count(n_points: int) -> int:
    """On-grid triads in the alias-free band of the triad route (computed)."""
    cutoff = n_points // 3
    band = cutoff if 3 * cutoff < n_points else cutoff - 1
    return (2 * band + 1) ** 2 - band * (band + 1)


class DefectVerification:
    """The jobs behind c05/c06/c07/c10 and the shipped calibration."""

    n_points = 128          # conservation and calibration grid
    dt = 2e-3
    picard_n_points = 256   # c05 grid; the stepper probes run here
    picard_nodes = (64, 128, 256)
    reference_steps = 2048
    trilinear_n = (128, 256, 512)
    slopes = ((2.0, 1.4), (3.0, 1.9))
    sigma = 0.1

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.sigmas = [float(s) for s in np.geomspace(0.01, 0.3, 6)]
        self.calibration = analytics.default_calibration()
        self.reference_calibration = reference["calibration"]
        self.grid = Grid(self.n_points)
        self.u0 = evolution.gaussian_data(self.grid, 0.5, 4.0)
        weight = GevreyWeight(self.sigma)
        # the window the conservation CLI derives from its default weight
        self.deltas = {alpha: evolution.lifespan(self.u0, weight, alpha,
                                                 self.calibration.c1)
                       for alpha, _ in self.slopes}
        picard_grid = Grid(self.picard_n_points)
        raw = evolution.gaussian_data(picard_grid, 0.5, 4.0)
        scale = 0.1 / hs_norm(apply_I(raw, weight), 1.0)
        self.picard_u0 = raw.with_coeffs(scale * raw.coeffs)  # ||I u0||_{H^1} = 0.1
        self.picard_delta = 0.5 * evolution.lifespan(
            self.picard_u0, weight, 2.0, self.calibration.c1)
        rng = np.random.default_rng(seed)
        self.fields = [analytics.random_band_limited_field(Grid(n), rng)
                       for n in self.trilinear_n]
        self.states: list[spectral.SpectralField] = []

    def environment(self) -> dict:
        return {"n_points": self.n_points, "dt": self.dt,
                "picard_n_points": self.picard_n_points,
                "picard_dt": self.picard_delta / self.reference_steps,
                "trilinear_n_points": list(self.trilinear_n)}

    def conservation_argv(self, alpha: float) -> list[str]:
        return ["conservation", "--n_points", str(self.n_points),
                "--dt", repr(self.dt), "--alpha", repr(alpha),
                "--sigma_grid", ",".join(repr(s) for s in self.sigmas),
                "--seed", str(self.seed)]

    def case(self, tracer: Tracer) -> dict[str, float]:
        report_bytes = 0
        for alpha, min_slope in self.slopes:
            with tracer.span("cli.conservation"):
                code, output = run_cli(self.conservation_argv(alpha))
            check(code == 0, f"conservation alpha={alpha} exited {code}")
            report = json.loads(output)
            self._check_scaling(alpha, min_slope, report["slope"],
                                [r["bound_satisfied"] for r in report["reports"]])
            report_bytes += len(output.encode())
        self._calibration_and_crosschecks(tracer)
        return {"cli.conservation_s": tracer.total("cli.conservation"),
                "cli.report_bytes": report_bytes}

    def replay(self, tracer: Tracer) -> dict[str, float]:
        for alpha, min_slope in self.slopes:
            delta = self.deltas[alpha]
            params = ModelParams(alpha, self.grid, self.dt, delta)
            with tracer.span("analytics.defect_scaling_fit"):
                slope, reports = analytics.defect_scaling_fit(
                    self.u0, self.sigmas, delta, params, c_cal=self.calibration.c2)
            self._check_scaling(alpha, min_slope, slope,
                                [r.bound_satisfied for r in reports])
        iterations = self._calibration_and_crosschecks(tracer)
        return {
            "evolution.picard_iterations": iterations,
            "analytics.defect_scaling_fit_s": tracer.total("analytics.defect_scaling_fit"),
            "analytics.measure_defect_calls": len(self.slopes) * (len(self.sigmas) + 1),
            "analytics.run_calibration_s": tracer.total("analytics.run_calibration"),
            "evolution.picard_solve_s": tracer.total("evolution.picard_solve"),
            **{f"analytics.trilinear_defect_rate_ms.n{n}":
               1e3 * tracer.total(f"analytics.trilinear_defect_rate.n{n}")
               for n in self.trilinear_n},
            "analytics.triads": sum(triad_count(n) for n in self.trilinear_n),
        }

    def probe(self, tracer: Tracer) -> dict[str, float]:
        """Stepper layers on the RK4 reference states at n = 256, and one
        direct simulate at the alpha = 2 conservation config."""
        weight = GevreyWeight(self.sigma)
        layers = stepper_probe(self.states, 2.0, weight)
        layers.update(step_metrics(tracer, layers["spectral.fft_floor_us"]))
        delta = self.deltas[2.0]
        n_steps = max(int(round(delta / self.dt)), 1)
        params = ModelParams(2.0, self.grid, self.dt, delta)
        probe = Tracer()
        with probe.span("evolution.simulate"):
            traj = evolution.simulate(self.u0, params, weight,
                                      sample_every=max(n_steps // 40, 1))
        steps = self.reference_steps + n_steps
        layers.update({
            "evolution.simulate_calls": 1,
            "evolution.simulate_busy_s": probe.total("evolution.simulate"),
            "evolution.rk4_steps": steps,
            "multipliers.phi_symbol_calls": 5 * steps,
            "norms.norm_report_calls": len(traj.reports),
        })
        return layers

    def _check_scaling(self, alpha, min_slope, slope, bounds_ok) -> None:
        check(slope is not None and slope >= min_slope,
              f"alpha={alpha}: defect slope {slope} below {min_slope}")
        check(all(bounds_ok), f"alpha={alpha}: a predicted defect bound fails")

    def _calibration_and_crosschecks(self, tracer: Tracer) -> int:
        """The parts both paths share; returns the Picard iterations made.

        The calibration always runs with the seed stored in the calibration
        file, because that file is its reference.  trilinear_defect_rate
        raises CrossCheckFailure when its two routes disagree.
        """
        ref = self.reference_calibration
        with tracer.span("analytics.run_calibration"):
            measured = analytics.run_calibration(
                alpha=ref.alpha, sigma_ref=ref.sigma_ref, n_points=ref.n_points,
                domain_length=ref.domain_length, seed=ref.seed)
        check(measured == ref,
              f"run_calibration() {measured} differs from {CALIBRATION_FILE.name}")
        iterations = self._picard(tracer)
        for n, fld in zip(self.trilinear_n, self.fields):
            with tracer.span(f"analytics.trilinear_defect_rate.n{n}"):
                rate = analytics.trilinear_defect_rate(fld, self.sigma, 2.0, rtol=1e-6)
            check(np.isfinite(rate), f"trilinear rate at n={n} is not finite")
        return iterations

    def _picard(self, tracer: Tracer) -> int:
        """RK4 reference of 2048 steps, then picard_solve at each node count
        (the c05 config); returns the Picard iterations made."""
        weight = GevreyWeight(self.sigma)
        u0, delta = self.picard_u0, self.picard_delta
        dt = delta / self.reference_steps
        state, states = u0, [u0]
        for step in range(1, self.reference_steps + 1):
            with tracer.span("evolution.step_rk4"):
                state = evolution.step_rk4(state, dt, 2.0)
            if step % 128 == 0:
                states.append(state)
        self.states = states
        u0_norm = hs_norm(apply_I(u0, weight), 1.0)
        distances, iterations = [], 0
        for nodes in self.picard_nodes:
            with tracer.span("evolution.picard_solve"):
                traj, diag = evolution.picard_solve(u0, delta, 2.0, weight,
                                                    n_nodes=nodes)
            distance = hs_norm(state.with_coeffs(
                state.coeffs - traj.states[-1].coeffs), 1.0)
            sup_norm = max(hs_norm(apply_I(s, weight), 1.0) for s in traj.states)
            check(diag.contraction_factor <= 0.5,
                  f"picard n_nodes={nodes}: contraction {diag.contraction_factor}")
            check(distance < 1e-5, f"picard n_nodes={nodes}: RK4 distance {distance}")
            check(sup_norm <= 2.0 * u0_norm, f"picard n_nodes={nodes}: norm doubled")
            distances.append(distance)
            iterations += len(diag.iterate_distances)
        for coarse, fine in zip(distances, distances[1:]):
            check(coarse >= 3.0 * fine,
                  f"picard distance falls only {coarse / fine:.2f}x per node doubling")
        return iterations


# --- exact_identities ----------------------------------------------------------


class ExactIdentities:
    """verify-identities at its defaults, then schedule: Fraction and sympy
    work only, no spectral layer."""

    k_max = 20
    coordinate_range = 10
    symbolic_k_max = 6
    fab_samples = 10000
    fab_sigmas = (0.01, 0.1, 0.5)

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.calibration = analytics.default_calibration()
        self.expected_triads = reference["triads_tested_r10"]

    def environment(self) -> dict:
        return {"n_points": None, "dt": None, "k_max": self.k_max,
                "coordinate_range": self.coordinate_range,
                "fab_samples": self.fab_samples}

    def case(self, tracer: Tracer) -> dict[str, float]:
        with tracer.span("cli.verify-identities"):
            code, output = run_cli(["verify-identities", "--seed", str(self.seed)])
        check(code == 0, f"verify-identities exited {code}")
        report = json.loads(output)
        identity = report["identity"]
        self._check_identity(identity["all_equal"], identity["triads_tested"],
                             [v["max_ratio"] for v in report["series_bound"].values()])
        with tracer.span("cli.schedule"):
            code, schedule = run_cli(["schedule", "--seed", str(self.seed)])
        check(code == 0, f"schedule exited {code}")
        check(json.loads(schedule)["all_checks_ok"], "schedule: a window check fails")
        return {"cli.verify-identities_s": tracer.total("cli.verify-identities"),
                "cli.schedule_s": tracer.total("cli.schedule"),
                "cli.report_bytes": len(output.encode()) + len(schedule.encode())}

    def replay(self, tracer: Tracer) -> dict[str, float]:
        with tracer.span("identities.verify_factor_identity"):
            report = identities.verify_factor_identity(
                self.k_max, self.coordinate_range, self.symbolic_k_max)
        ratios = []
        for sigma in self.fab_sigmas:
            with tracer.span("identities.check_fab_bound"):
                ratios.append(identities.check_fab_bound(
                    self.fab_samples, sigma, seed=self.seed).max_ratio)
        self._check_identity(report.all_equal, report.triads_tested, ratios)
        cal = self.calibration
        with tracer.span("analytics.schedule_sigma"):
            result = analytics.schedule_sigma(100.0, 1.0, cal.c1, cal.c2)
        check(all(c[3] for c in result.per_step_checks),
              "schedule: a window check fails")
        return {
            "identities.verify_factor_identity_s":
                tracer.total("identities.verify_factor_identity"),
            "identities.triads_tested": report.triads_tested,
            "identities.check_fab_bound_s": tracer.total("identities.check_fab_bound"),
        }

    def probe(self, tracer: Tracer) -> dict[str, float]:
        """identities.symbolic_s: the replay's verify_factor_identity(20, 10, 6)
        minus a cold verify_factor_identity(20, 10, 1).

        symbolic_k_max=0 must not be used for the second call: the package
        reads it with ``or``, so 0 silently means the default of 6.
        """
        sympy.core.cache.clear_cache()
        start = perf_counter()
        identities.verify_factor_identity(self.k_max, self.coordinate_range, 1)
        exact_only = perf_counter() - start
        return {"identities.symbolic_s":
                tracer.total("identities.verify_factor_identity") - exact_only}

    def _check_identity(self, all_equal, triads_tested, ratios) -> None:
        check(all_equal, "factor identity: not all equal")
        check(triads_tested == self.expected_triads,
              f"factor identity: {triads_tested} triads tested, "
              f"expected {self.expected_triads}")
        spread = max(ratios) / min(ratios)
        check(spread < 3.0, f"series envelope ratio spread {spread:.3f} >= 3")


WORKLOADS = {
    "long_trajectory": LongTrajectory,
    "defect_verification": DefectVerification,
    "exact_identities": ExactIdentities,
}
