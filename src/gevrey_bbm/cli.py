"""Batch front door: config files, verification subcommands, CSV/JSON output.

Usage:
    gevrey-bbm <simulate|verify-identities|conservation|radius|schedule|sweep>
               --config PATH [--key value ...]

Config files are flat ``key = value`` lines (``analytics.read_key_values``:
blank lines, ``#`` comments and ``[section]`` headers are skipped, a later key
wins, any other line is a config error).  Every key can also be overridden
on the command line by a flag of the same name; keys are case-sensitive and
one not in COMMON_DEFAULTS is a config error.  Every value is read by its
key's type before the command runs: a number must be finite, and an empty
C1, C2 or delta means its default.  So a bad value is a config error
whatever the command, and so is an output path that cannot be written: one
that names a directory or lies in a missing directory is refused before the
run, one that breaks during the run when it is written.
Each command returns its report body; ``main`` alone adds the full resolved
config (seed included) and writes the JSON.

Exit-code map (public contract): 0 ok, 2 config error, 3 simulation failure,
4 identity violation, 5 insufficient data, 6 cross-check failure.
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
from .spectral import Grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_IDENTITY = 4
EXIT_DATA = 5
EXIT_CROSSCHECK = 6

COMMON_DEFAULTS = {
    "n_points": "256",
    "domain_length": "64.0",
    "alpha": "2.0",
    "dt": "1e-3",
    "t_end": "10.0",
    "sigma": "0.1",
    "data": "gaussian",
    "amplitude": "0.5",
    "width": "4.0",
    "sample_every": "100",
    "seed": "20240823",
    "noise_floor": "1e-14",
    "output_csv": "",
    "output_json": "",
    "sigma_grid": "0.01,0.0207,0.0429,0.0889,0.1842,0.3",
    "alpha_grid": "2.0",
    "k_max": "20",
    "coordinate_range": "10",
    "symbolic_k_max": "6",
    "fab_samples": "10000",
    "fab_sigmas": "0.01,0.1,0.5",
    "T": "100.0",
    "sigma0": "1.0",
    "C1": "",
    "C2": "",
    "u0_norm": "1.0",
    "delta": "",
}


def _check_key(key: str) -> str:
    if key not in COMMON_DEFAULTS:
        raise errors.InvalidInput(f"unknown config key {key!r}")
    return key


def load_config(path: str | None) -> dict[str, str]:
    resolved = dict(COMMON_DEFAULTS)
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
    """The values of a comma-separated grid; none is a config error."""
    values = [_finite(x) for x in text.split(",") if x.strip()]
    if not values:
        raise errors.InvalidInput("no values")
    return values


def _data_name(text: str) -> str:
    if text not in evolution.INITIAL_DATA:
        raise errors.InvalidInput("unknown initial data")
    return text


def _optional(text: str) -> float | None:
    """Empty for the default: the calibration's constant, or the lifespan."""
    return _finite(text) if text else None


# How each key's text is read; a key not named here is a finite float.
_PARSERS = {
    **dict.fromkeys(["n_points", "sample_every", "seed", "k_max",
                     "coordinate_range", "symbolic_k_max", "fab_samples"], int),
    **dict.fromkeys(["sigma_grid", "alpha_grid", "fab_sigmas"], _grid_values),
    **dict.fromkeys(["C1", "C2", "delta"], _optional),
    "data": _data_name,
    **dict.fromkeys(["output_csv", "output_json"], str),
}


def _parse(config: dict[str, str]) -> dict:
    """Every key of config read by its parser; a bad value is InvalidInput."""
    values = {}
    for key, text in config.items():
        try:
            values[key] = _PARSERS.get(key, _finite)(text)
        except (errors.InvalidInput, ValueError) as exc:
            raise errors.InvalidInput(f"{key} = {text!r}: {exc}") from None
    return values


def _grid(v) -> Grid:
    return Grid(v["n_points"], v["domain_length"])


def _initial_data(v, grid: Grid):
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
    grid = _grid(v)
    params = ModelParams(v["alpha"], grid, v["dt"], v["t_end"])
    u0 = _initial_data(v, grid)
    return evolution.simulate(u0, params, GevreyWeight(sigma),
                              sample_every=v["sample_every"])


def _window(v, u0, alpha: float, c1: float) -> float:
    """The defect window: --delta when given, else the lifespan of u0."""
    if v["delta"] is not None:
        return v["delta"]
    return evolution.lifespan(u0, GevreyWeight(v["sigma"]), alpha, c1)


def _check_output_paths(v: dict) -> None:
    """Refuse an output path that names a directory or whose parent directory
    does not exist, before the run and without creating or truncating it; a
    path that breaks during the run still fails when it is written."""
    for key in ("output_csv", "output_json"):
        path = v[key]
        if path and (os.path.isdir(path)
                     or not os.path.isdir(os.path.dirname(path) or ".")):
            raise errors.InvalidInput(f"{key} = {path!r}: not a writable file path")


def write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


CSV_HEADER = ["t", "l2", "h1", "energy", "h1_invariant", "sigma_est"]


def cmd_simulate(v: dict) -> dict:
    traj = _trajectory(v, v["sigma"])
    rows = []
    for t, state, report in zip(traj.times, traj.states, traj.reports):
        try:
            lo, hi = analytics.default_band(state, v["noise_floor"])
            sigma_est, _ = analytics.estimate_radius(state, lo, hi,
                                                     v["noise_floor"])
        except errors.InsufficientData:
            sigma_est = math.nan
        rows.append([repr(float(t)), repr(report.l2), repr(report.h1),
                     repr(report.energy), repr(report.h1_invariant),
                     repr(sigma_est)])
    if v["output_csv"]:
        with open(v["output_csv"], "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
    final = traj.reports[-1]
    return {
        "samples": len(rows),
        "final": {"t": float(traj.times[-1]), "l2": final.l2, "h1": final.h1,
                  "energy": final.energy, "h1_invariant": final.h1_invariant},
    }


def cmd_verify_identities(v: dict) -> dict:
    report = identities.verify_factor_identity(
        v["k_max"], v["coordinate_range"], v["symbolic_k_max"])
    fab = {}
    for sigma in v["fab_sigmas"]:
        cal = identities.check_fab_bound(v["fab_samples"], sigma, seed=v["seed"])
        fab[repr(sigma)] = {"max_ratio": cal.max_ratio, "usable": cal.usable}
    return {
        "identity": {
            "k_max": v["k_max"],
            "coordinate_range": v["coordinate_range"],
            "triads_tested": report.triads_tested,
            "all_equal": report.all_equal,
            "max_defect": str(report.max_defect),
            "special_cases": {
                "k=1": "3·ξ₁ξ₂ξ₃",
                "k=2": "−5·ξ₁ξ₂ξ₃·e₂",
            },
        },
        "series_bound": fab,
    }


def _defect_row(report: analytics.ConservationReport) -> dict:
    return {"sigma": report.sigma, "defect": report.defect,
            "defect_abs": report.defect_abs,
            "predicted_bound": report.predicted_bound,
            "bound_satisfied": report.bound_satisfied}


def cmd_conservation(v: dict) -> dict:
    grid = _grid(v)
    cal = _calibration(v)
    alpha = v["alpha"]
    u0 = _initial_data(v, grid)
    delta = _window(v, u0, alpha, cal.c1)
    params = ModelParams(alpha, grid, v["dt"], delta)
    sigmas = v["sigma_grid"]
    if len(sigmas) == 1:
        reports = analytics.measure_defects(u0, [(sigmas[0], delta)], params,
                                            c_cal=cal.c2)
        slope = None
    else:
        slope, reports = analytics.defect_scaling_fit(u0, sigmas, delta, params,
                                                      c_cal=cal.c2)
    return {
        "delta": delta,
        "calibration": {"c1": cal.c1, "c2": cal.c2},
        "slope": slope,
        "reports": [_defect_row(r) for r in reports],
    }


def cmd_radius(v: dict) -> dict:
    _, _, mu = identities.fractional_bound_exponents(v["alpha"])
    # the fit reads no report, and at sigma 0 their energy cannot overflow
    fit = analytics.track_radius(_trajectory(v, 0.0),
                                 noise_floor=v["noise_floor"], reference_mu=mu)
    return {
        "mu_fit": fit.mu_fit,
        "c_fit": fit.c_fit,
        "c_check": fit.c_check,
        "pointwise_ok": fit.pointwise_ok,
        "band": list(fit.band),
        "samples": [list(s) for s in fit.samples],
    }


def cmd_schedule(v: dict) -> dict:
    cal = _calibration(v)
    result = analytics.schedule_sigma(v["T"], v["sigma0"], cal.c1, cal.c2,
                                      alpha=v["alpha"], u0_norm=v["u0_norm"])
    return {
        "horizon_T": v["T"],
        "n_steps": result.n_steps,
        "delta": result.delta,
        "sigma_assigned": result.sigma_assigned,
        "per_step_checks": [list(c) for c in result.per_step_checks],
        "all_checks_ok": all(c[3] for c in result.per_step_checks),
    }


def cmd_sweep(v: dict) -> dict:
    grid = _grid(v)
    cal = _calibration(v)
    u0 = _initial_data(v, grid)
    results = {}
    for alpha in v["alpha_grid"]:
        delta = _window(v, u0, alpha, cal.c1)
        params = ModelParams(alpha, grid, v["dt"], delta)
        windows = [(sigma, delta) for sigma in v["sigma_grid"]]
        for report in analytics.measure_defects(u0, windows, params,
                                                c_cal=cal.c2):
            results[f"alpha={alpha!r},sigma={report.sigma!r}"] = {
                "alpha": alpha, **_defect_row(report)}
    return {"calibration": {"c1": cal.c1, "c2": cal.c2}, "results": results}


COMMANDS = {
    "simulate": cmd_simulate,
    "verify-identities": cmd_verify_identities,
    "conservation": cmd_conservation,
    "radius": cmd_radius,
    "schedule": cmd_schedule,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="gevrey-bbm", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="key = value config file")
    args, extra = parser.parse_known_args(argv)
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
