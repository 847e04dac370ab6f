"""Self-tests of the benchmark itself, kept out of the package's test suite:

    python3 -m pytest perfbench

Each workload is run once with a perturbed reference, untraced and traced:
every case must fail its output check, and the metric names printed must be
exactly those of BENCHMARK.json.  The speed sampler must sample and put the
SIGALRM handler back.  About two minutes on two cores.
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def result(workload: str, trace: int, reference: dict | None = None) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(["--workload", workload, "--seed", str(run.DEFAULT_SEED),
                         "--seconds", "1", "--trace", str(trace)],
                        reference=reference)
    assert code == 0
    return json.loads(buffer.getvalue().splitlines()[-1])


def perturbed(workload: str) -> dict:
    workloads, _ = run.prepare(workload, run.DEFAULT_SEED)
    reference = workloads.load_reference()
    if workload == "long_trajectory":
        reference["radius"]["c_check"]["value"] *= 1.01
    elif workload == "defect_verification":
        cal = reference["calibration"]
        # one ulp: the calibration must reproduce bit for bit
        reference["calibration"] = dataclasses.replace(
            cal, c2=math.nextafter(cal.c2, math.inf))
    else:
        reference["triads_tested_r10"] += 1
    return reference


def test_workload_names_match():
    assert sorted(WORKLOADS) == sorted(run.prepare(WORKLOADS[0], 0)[0].WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_fails_every_case(workload, trace):
    out = result(workload, trace, perturbed(workload))
    assert out["attempted"] >= 1
    assert out["failed"] == out["attempted"]  # failed_frac = 1
    assert out["correct"] is False
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in table]
    for m in table:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_stored_reference_passes():
    out = result("exact_identities", 0)
    assert (out["correct"], out["failed"]) == (True, 0)


def test_speed_sampler_samples_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = run.SpeedSampler()
    with sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert 0.0 < sampler.wall_s < 0.3
    assert run.reference_scale([run.YARDSTICK_REF_S] * 3) == pytest.approx(1.0)


def test_refuses_to_run_without_sources():
    """A directory holding only BENCHMARK.json and perfbench/ gets no result."""
    bare = run.OUT_DIR / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
