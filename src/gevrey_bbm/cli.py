"""Batch front door: config files, verification subcommands, CSV/JSON output.

Usage:
    gevrey-bbm <simulate|verify-identities|conservation|radius|schedule|sweep>
               --config PATH [--key value ...]

Config files are flat ``key = value`` lines (``analytics.read_key_values``:
blank lines, ``#`` comments and ``[section]`` headers are skipped, a later key
wins, any other line is a config error).  Every key can also be overridden
on the command line by a flag of the same name; keys are case-sensitive and
one not in KEYS, the table of every key's default text and reader, is a
config error.  Every value is read by its key's reader before the command
runs: a number must be finite; an empty C1, C2 or delta means its
default, and one given must be > 0.  So a bad value is a config error
whatever the command, and so is an output path that cannot be written: one
that names a directory or lies in a missing directory is refused before the
run, one that breaks during the run when it is written.
Each command returns its report body: its result record's fields as they
are (``_fields``), beside any input it echoes, so a field list lives only in
its dataclass (the simulate CSV's columns are NormReport's).  ``main`` alone
adds the full resolved config (seed included) and writes the JSON.

Exit-code map (public contract): 0 ok, 2 config error, 3 simulation failure,
4 identity violation, 5 insufficient data, 6 cross-check failure.  A size
too large to allocate is a config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

from . import analytics, errors, evolution, identities
from .multipliers import GevreyWeight, ModelParams
from .norms import NormReport
from .spectral import Grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_IDENTITY = 4
EXIT_DATA = 5
EXIT_CROSSCHECK = 6

def _check_key(key: str) -> str:
    if key not in KEYS:
        raise errors.InvalidInput(f"unknown config key {key!r}")
    return key


def load_config(path: str | None) -> dict[str, str]:
    resolved = {key: default for key, (default, _) in KEYS.items()}
    if path:
        try:
            entries = analytics.read_key_values(path)
        except FileNotFoundError:
            raise errors.InvalidInput(f"config file not found: {path}") from None
        for key, value in entries.items():
            resolved[_check_key(key)] = value
    return resolved


def apply_overrides(config: dict[str, str], extra: list[str]) -> dict[str, str]:
    if len(extra) % 2 != 0:
        raise errors.InvalidInput(f"dangling override flag: {extra[-1]!r}")
    for flag, value in zip(extra[::2], extra[1::2]):
        if not flag.startswith("--"):
            raise errors.InvalidInput(f"expected --key value overrides, got {flag!r}")
        config[_check_key(flag[2:].replace("-", "_"))] = value
    return config


def _finite(text: str) -> float:
    """float(text), refusing nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise errors.InvalidInput("not a finite number")
    return value


def _grid_values(text: str) -> list[float]:
    """The values of a comma-separated grid; none, or a repeated one (its
    result would be computed again and overwritten), is a config error."""
    values = [_finite(x) for x in text.split(",") if x.strip()]
    if not values:
        raise errors.InvalidInput("no values")
    if len(set(values)) < len(values):
        raise errors.InvalidInput("a value repeats")
    return values


def _data_name(text: str) -> str:
    if text not in evolution.INITIAL_DATA:
        raise errors.InvalidInput("unknown initial data")
    return text


def _optional(text: str) -> float | None:
    """Empty for the default: the calibration's constant, or the lifespan.
    A value given must be > 0."""
    if not text:
        return None
    value = _finite(text)
    if not value > 0:
        raise errors.InvalidInput("must be > 0")
    return value


# Every config key: its default text and the reader of that text.
KEYS = {
    "n_points": ("256", int),
    "domain_length": ("64.0", _finite),
    "alpha": ("2.0", _finite),
    "dt": ("1e-3", _finite),
    "t_end": ("10.0", _finite),
    "sigma": ("0.1", _finite),
    "data": ("gaussian", _data_name),
    "amplitude": ("0.5", _finite),
    "width": ("4.0", _finite),
    "sample_every": ("100", int),
    "seed": ("20240823", int),
    "noise_floor": ("1e-14", _finite),
    "output_csv": ("", str),
    "output_json": ("", str),
    "sigma_grid": ("0.01,0.0207,0.0429,0.0889,0.1842,0.3", _grid_values),
    "alpha_grid": ("2.0", _grid_values),
    "k_max": ("20", int),
    "coordinate_range": ("10", int),
    "symbolic_k_max": ("6", int),
    "fab_samples": ("10000", int),
    "fab_sigmas": ("0.01,0.1,0.5", _grid_values),
    "T": ("100.0", _finite),
    "sigma0": ("1.0", _finite),
    "C1": ("", _optional),
    "C2": ("", _optional),
    "u0_norm": ("1.0", _finite),
    "delta": ("", _optional),
}


def _parse(config: dict[str, str]) -> dict:
    """Every key of config read by its reader; a bad value is InvalidInput."""
    values = {}
    for key, text in config.items():
        try:
            values[key] = KEYS[key][1](text)
        except (errors.InvalidInput, ValueError) as exc:
            raise errors.InvalidInput(f"{key} = {text!r}: {exc}") from None
    return values


def _initial_data(v):
    """The datum named by data, on the grid of n_points and domain_length."""
    grid = Grid(v["n_points"], v["domain_length"])
    name = v["data"]
    factory = evolution.INITIAL_DATA[name]
    with errors._overflow_guard("the initial data"):
        if name == "cosine":
            return factory(grid, v["amplitude"])
        return factory(grid, v["amplitude"], v["width"])


def _calibration(v) -> analytics.Calibration:
    cal = analytics.default_calibration()
    return dataclasses.replace(
        cal, c1=cal.c1 if v["C1"] is None else v["C1"],
        c2=cal.c2 if v["C2"] is None else v["C2"])


def _trajectory(v, sigma: float) -> evolution.Trajectory:
    """The run behind simulate and radius; sigma weights its reports' energy."""
    u0 = _initial_data(v)
    params = ModelParams(v["alpha"], u0.grid, v["dt"], v["t_end"])
    return evolution.simulate(u0, params, GevreyWeight(sigma),
                              sample_every=v["sample_every"])


def _window(v, u0, alpha: float, c1: float) -> float:
    """The defect window: --delta when given, else the lifespan of u0,
    which is infinite for a zero datum."""
    if v["delta"] is not None:
        return v["delta"]
    delta = evolution.lifespan(u0, GevreyWeight(v["sigma"]), alpha, c1)
    if delta == math.inf:
        raise errors.InvalidInput("zero data has an infinite lifespan: set delta")
    return delta


def _check_output_paths(v: dict) -> None:
    """Refuse an output path that names a directory or whose parent directory
    does not exist, before the run and without creating or truncating it; a
    path that breaks during the run still fails when it is written."""
    for key in ("output_csv", "output_json"):
        path = v[key]
        if path and (os.path.isdir(path)
                     or not os.path.isdir(os.path.dirname(path) or ".")):
            raise errors.InvalidInput(f"{key} = {path!r}: not a writable file path")


def _fields(record) -> dict:
    """A result record's fields by name, the values themselves: one shallow
    level, where dataclasses.asdict would deep-copy every tuple."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


CSV_HEADER = ["t", *(f.name for f in dataclasses.fields(NormReport)), "sigma_est"]


def cmd_simulate(v: dict) -> dict:
    traj = _trajectory(v, v["sigma"])
    rows = []
    for t, state, report in zip(traj.times, traj.states, traj.reports):
        fit = analytics._sample_radius(state, v["noise_floor"])
        rows.append([repr(float(t)), *map(repr, _fields(report).values()),
                     repr(math.nan if fit is None else fit[0])])
    if v["output_csv"]:
        with open(v["output_csv"], "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
    return {"samples": len(rows),
            "final": {"t": float(traj.times[-1]), **_fields(traj.reports[-1])}}


def cmd_verify_identities(v: dict) -> dict:
    report = identities.verify_factor_identity(
        v["k_max"], v["coordinate_range"], v["symbolic_k_max"])
    fab = {repr(sigma): _fields(cal) for sigma, cal in zip(
        v["fab_sigmas"], identities.check_fab_bounds(
            v["fab_samples"], v["fab_sigmas"], seed=v["seed"]))}
    return {
        "identity": {
            "k_max": v["k_max"],
            "coordinate_range": v["coordinate_range"],
            **_fields(report),
            "max_defect": str(report.max_defect),
            "special_cases": {
                "k=1": "3·ξ₁ξ₂ξ₃",
                "k=2": "−5·ξ₁ξ₂ξ₃·e₂",
            },
        },
        "series_bound": fab,
    }


def cmd_conservation(v: dict) -> dict:
    cal = _calibration(v)
    alpha = v["alpha"]
    u0 = _initial_data(v)
    delta = _window(v, u0, alpha, cal.c1)
    sigmas = v["sigma_grid"]
    if len(sigmas) == 1:
        (reports,) = analytics.measure_defects(
            [(u0, alpha, [(sigmas[0], delta)])], u0.grid, v["dt"], c_cal=cal.c2)
        slope = None
    else:
        slope, reports = analytics.defect_scaling_fit(
            u0, sigmas, delta, ModelParams(alpha, u0.grid, v["dt"], delta),
            c_cal=cal.c2)
    return {
        "delta": delta,
        "calibration": {"c1": cal.c1, "c2": cal.c2},
        "slope": slope,
        "reports": [_fields(r) for r in reports],
    }


def cmd_radius(v: dict) -> dict:
    _, _, mu = identities.fractional_bound_exponents(v["alpha"])
    # the fit reads no report, and at sigma 0 their energy cannot overflow
    return _fields(analytics.track_radius(
        _trajectory(v, 0.0), noise_floor=v["noise_floor"], reference_mu=mu))


def cmd_schedule(v: dict) -> dict:
    cal = _calibration(v)
    result = analytics.schedule_sigma(v["T"], v["sigma0"], cal.c1, cal.c2,
                                      alpha=v["alpha"], u0_norm=v["u0_norm"])
    return {"horizon_T": v["T"], **_fields(result),
            "all_checks_ok": all(c[3] for c in result.per_step_checks)}


def cmd_sweep(v: dict) -> dict:
    cal = _calibration(v)
    u0 = _initial_data(v)
    alphas = v["alpha_grid"]
    deltas = [_window(v, u0, alpha, cal.c1) for alpha in alphas]
    runs = [(u0, alpha, [(sigma, delta) for sigma in v["sigma_grid"]])
            for alpha, delta in zip(alphas, deltas)]
    reports = analytics.measure_defects(runs, u0.grid, v["dt"], c_cal=cal.c2)
    results = {f"alpha={alpha!r},sigma={r.sigma!r}":
               {"alpha": alpha, **_fields(r)}
               for alpha, run in zip(alphas, reports) for r in run}
    return {"calibration": {"c1": cal.c1, "c2": cal.c2}, "results": results}


COMMANDS = {
    "simulate": cmd_simulate,
    "verify-identities": cmd_verify_identities,
    "conservation": cmd_conservation,
    "radius": cmd_radius,
    "schedule": cmd_schedule,
    "sweep": cmd_sweep,
}


# Built once per process: building it costs several times what parsing does.
_PARSER = argparse.ArgumentParser(prog="gevrey-bbm", description=__doc__)
_PARSER.add_argument("command", choices=sorted(COMMANDS))
_PARSER.add_argument("--config", default=None, help="key = value config file")


def main(argv: list[str] | None = None) -> int:
    args, extra = _PARSER.parse_known_args(argv)
    try:
        config = apply_overrides(load_config(args.config), extra)
        values = _parse(config)
        _check_output_paths(values)
        try:
            report = COMMANDS[args.command](values)
        except errors.BlowupDetected as exc:
            write_json(config["output_json"],
                       {"config": config, "error": "blowup", "time": exc.time})
            raise
        write_json(config["output_json"], {"config": config, **report})
        return EXIT_OK
    except (errors.InvalidInput, ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (errors.BlowupDetected, errors.NoConvergence,
            errors.OverflowRisk) as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except errors.IdentityViolation as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except errors.InsufficientData as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except errors.CrossCheckFailure as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK


if __name__ == "__main__":
    sys.exit(main())
