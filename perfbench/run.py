"""Benchmark runner for gevrey-bbm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The named workload runs
closed-loop, one case at a time in this one process, until another case
would end past S seconds (at least one case runs).  Every case's outputs
are checked; a failed check is counted and never stops the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, each a median
over the run's cases (``attempted`` is the sample count).  Their times are
reference seconds: wall or CPU seconds scaled by the speed of this core
while they were measured, as a fixed yardstick timed alongside shows it
(see ``SpeedSampler``).  With ``--trace 1`` each round runs one CLI case
and one traced replay of it, and the metrics are the per-layer metrics,
medians over the rounds, in plain wall time; the spans are written to
``.perfbench/`` when the run ends.  The line before
the result records the seed, the environment and every case.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter, process_time

# BLAS/OpenMP pools are pinned to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning above)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 20240823
SETUP_REPEATS = 5

# The yardstick: fixed work that does not use gevrey_bbm, small-array FFTs
# plus pure-Python arithmetic in about the proportions of RK4 steps at
# n = 128 to a pure-Python loop.  On the shared 2-vCPU host this benchmark
# was built on, core speed drifts by up to 1.5x over tens of seconds; over
# seven minutes the 35 s medians of n = 1024 RK4 steps spread 0.13
# (quartiles over median), their ratio to such a mix 0.014.
YARDSTICK_X = np.sin(np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False))
YARDSTICK_K = 1.0 / (1.0 + np.arange(65.0) ** 2)
# A round figure near the median of one timed yardstick call on that host,
# so that reference seconds read roughly as seconds there.
YARDSTICK_REF_S = 1.25e-4
SAMPLE_INTERVAL_S = 0.025
MIN_SAMPLES = 10


def yardstick_work() -> int:
    x = YARDSTICK_X
    for _ in range(5):
        x = np.fft.irfft(np.fft.rfft(x * x) * YARDSTICK_K, 128) + YARDSTICK_X
    total = 0
    for i in range(300):
        total += i * i % 7
    return total


def yardstick() -> float:
    """Wall seconds of one yardstick call, made straight after an untimed
    one.  Timing the first call instead would measure how much of it the
    interrupted work had evicted from the caches: on sympy-heavy cases that
    varied more than the case times themselves."""
    yardstick_work()
    start = perf_counter()
    yardstick_work()
    return perf_counter() - start


class SpeedSampler:
    """Samples the speed of this core while the measured work runs.

    Every SAMPLE_INTERVAL_S of wall time a SIGALRM handler, which runs on
    this thread between two bytecodes of the work, times one yardstick
    call.  The handler's own wall and CPU time are kept so the caller can
    take them out of its measurement (about 1% of it).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _tick(self, signum, frame):
        cpu0, start = process_time(), perf_counter()
        self.samples.append(yardstick())
        self.wall_s += perf_counter() - start
        self.cpu_s += process_time() - cpu0

    def __enter__(self):
        # numpy imports numpy.fft lazily: import it here, never from the
        # handler, which may interrupt an import that has it half done.
        yardstick_work()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Reference seconds per second measured.  Work shorter than
        MIN_SAMPLES intervals is topped up with samples taken after it."""
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(yardstick())
        return reference_scale(self.samples)


def reference_scale(samples: list[float]) -> float:
    """Reference seconds per second, from yardstick times sampled evenly in
    wall time.  Work done in a second is proportional to the core's speed,
    1 / yardstick time, so the scale is the mean speed over the samples
    times YARDSTICK_REF_S; a sample slowed by an interrupt weighs little."""
    return YARDSTICK_REF_S * statistics.fmean(1.0 / y for y in samples)


@dataclass
class Case:
    kind: str
    wall_s: float
    cpu_s: float
    scale: float | None  # reference seconds per second; None when traced
    error: str | None
    values: dict


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def prepare(name: str, seed: int, reference: dict | None = None):
    """Everything a run does before its first case: import the package,
    load config, calibration and reference, build the initial data."""
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    if reference is None:
        reference = workloads.load_reference()
    return workloads, workloads.WORKLOADS[name](seed, reference)


def time_setup(name: str, seed: int) -> tuple[float, float]:
    """Wall seconds of prepare() in a fresh interpreter, net of the speed
    sampler the child runs, and the same in reference seconds."""
    start = perf_counter()
    child = subprocess.run([sys.executable, __file__, "--setup-only", "--workload",
                            name, "--seed", str(seed)],
                           check=True, stdout=subprocess.PIPE, text=True)
    wall = perf_counter() - start
    speed = json.loads(child.stdout.splitlines()[-1])
    wall -= speed["sampler_s"]
    return wall, wall * reference_scale(speed["samples"])


def run_case(workloads, kind: str, fn, tracer, sample_speed: bool) -> Case:
    """One case; with sample_speed its times are net of the sampler's and
    the case records the scale to reference seconds."""
    workloads.clear_caches()
    gc.collect()  # the previous case's garbage is not this case's cost
    sampler = SpeedSampler()
    cpu0, start = cpu_seconds(), perf_counter()
    with sampler if sample_speed else contextlib.nullcontext():
        try:
            values, error = fn(tracer), None
        except Exception as exc:  # a failing case is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            values, error = {}, f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - start - sampler.wall_s
    cpu = cpu_seconds() - cpu0 - sampler.cpu_s
    return Case(kind, wall, cpu, sampler.scale() if sample_speed else None,
                error, values)


def keep_going(start: float, seconds: float, durations: list[float]) -> bool:
    """Start another case only if it should end within the time budget."""
    if not durations:
        return True
    return perf_counter() - start + statistics.median(durations) <= seconds


def measure(workloads, workload, seconds: float) -> tuple[list[Case], dict]:
    cases: list[Case] = []
    start = perf_counter()
    while keep_going(start, seconds, [c.wall_s for c in cases]):
        cases.append(run_case(workloads, "cli", workload.case,
                              workloads.Tracer(enabled=False), sample_speed=True))
    return cases, {}


def measure_traced(workloads, workload, seconds: float) -> tuple[list[Case], dict]:
    """Rounds of (CLI case, traced replay, inner-layer probes), with no
    speed sampler: per-layer figures are plain wall times."""
    cases: list[Case] = []
    rounds: list[dict] = []
    spans: list[dict] = []
    durations: list[float] = []
    start = perf_counter()
    while keep_going(start, seconds, durations):
        round_start = perf_counter()
        base_tracer, replay_tracer = workloads.Tracer(), workloads.Tracer()
        base = run_case(workloads, "cli", workload.case, base_tracer, False)
        replay = run_case(workloads, "replay", workload.replay, replay_tracer, False)
        layers = {**base.values, **replay.values}
        if replay.error is None:
            try:
                layers.update(workload.probe(replay_tracer))
            except Exception as exc:  # a failing probe fails its round
                traceback.print_exc(file=sys.stderr)
                replay.error = f"probe: {type(exc).__name__}: {exc}"
        if base.error is None and replay.error is None:
            layers["trace_overhead_frac"] = replay.wall_s / base.wall_s - 1.0
        cases += [base, replay]
        rounds.append(layers)
        for number, tracer in ((len(cases) - 2, base_tracer),
                               (len(cases) - 1, replay_tracer)):
            spans += [{"case": number, **asdict(s)} for s in tracer.spans]
        durations.append(perf_counter() - round_start)
    return cases, {"rounds": rounds, "spans": spans}


def environment(workload) -> dict:
    import numpy
    import scipy
    import sympy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        **workload.environment(),
    }


def median_of(rounds: list[dict], name: str) -> float:
    """Median over the rounds that measured the metric; a layer that the
    workload never calls reads 0."""
    values = [r[name] for r in rounds if name in r]
    return float(statistics.median(values)) if values else 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None, reference: dict | None = None) -> int:
    """Run one workload and print its result; reference replaces the stored
    reference outputs (the self-tests use it)."""
    args = parse_args(argv)
    if not (SRC / "gevrey_bbm" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        sampler = SpeedSampler()
        with sampler:
            prepare(args.workload, args.seed)
        sampler.scale()  # tops the samples up
        print(json.dumps({"sampler_s": sampler.wall_s, "samples": sampler.samples}))
        return 0

    setups = [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    workloads, workload = prepare(args.workload, args.seed, reference)
    run = measure_traced if args.trace else measure
    cases, trace = run(workloads, workload, args.seconds)
    failed = sum(c.error is not None for c in cases)

    if args.trace:
        table = spec["per_layer"]
        rounds = trace["rounds"]
        unknown = {k for r in rounds for k in r} - {m["name"] for m in table}
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values = {m["name"]: median_of(rounds, m["name"]) for m in table}
    else:
        table = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(ref for _, ref in setups),
            "case_s": statistics.median(c.wall_s * c.scale for c in cases),
            "case_cpu_s": statistics.median(c.cpu_s * c.scale for c in cases),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(workload),
        "yardstick_ref_s": YARDSTICK_REF_S,
        "setup_wall_s": [wall for wall, _ in setups],
        "setup_ref_s": [ref for _, ref in setups],
        "cases": [{k: v for k, v in asdict(c).items() if k != "values"}
                  for c in cases],
    }
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace_{args.workload}_{args.seed}.json"
        path.write_text(json.dumps({**record, **trace}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(cases),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
