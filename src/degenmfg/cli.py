"""Command-line entry point: JSON configuration in, JSON + CSV artifacts out.

Commands:
    solve            run one coupled solve and report norms and residuals
    verify-carleman  sweep the ratio of the case's estimate over (s, lam)
    stability-holder interior-time stability ladder for the default problem
    stability-log    initial-time logarithmic stability ladder
    convergence      manufactured-solution refinement study
    coeff-check      hypothesis ratios and the operator-conjugation residual

Every run writes result.json (stable key order, every number tagged with a
unit or norm name) plus one RFC-4180 CSV per curve, each CSV with a two-line
header (column names, then units).  The result document embeds the verbatim
config and its SHA-256 over a canonical serialization; apart from the
timestamp field, identical configs produce byte-identical result.json.

Exit codes: 0 success; 2 configuration read/parse/validation error (also an
a(x) <= 0 or an infinite 1/a at a node, and a ladder the experiment rejects)
or an output that cannot be written (an output path that is not a writable
directory is caught before the run); 3 solver failure (non-convergence, a
sweep that overflows the double range, a singular step); 4 more than half of
the sweep cells overflow the weight.
Errors are also emitted to stderr as a JSON diagnostic.  --threads is
accepted and recorded for provenance, but execution is serial: every command
here is deterministic and fast at desk scale, and a fixed schedule keeps
reductions ordered.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from degenmfg import __version__
from degenmfg.carleman import _S_FLOOR, _WEIGHT, CarlemanBundle, s0_estimate, sweep_parameters
from degenmfg.domain import (
    _FAMILIES,
    DegenerateCoefficient,
    _Bound,
    NormKind,
    SpaceTimeGrid,
    weighted_norm,
)
from degenmfg.manufactured import (
    IterConfig,
    _Level,
    _solve_case,
    catalog,
    convergence_study,
    make_case,
)
from degenmfg.mfg import (
    _ITER_BOUNDS,
    _LINEAR_KEYS,
    _NONLINEAR_KEYS,
    MfgCoefficients,
    check_coefficient_bounds,
    solve_linearized_mfg,
    solve_nonlinear_mfg,
)
from degenmfg.solvers import SolverError, isomorphism_residual
from degenmfg.stability import (
    _AMPLITUDE,
    _LOG_N_T_MIN,
    default_backward_spec,
    run_holder_experiment,
    run_log_experiment,
)

__all__ = ["main"]

N_X_CAP = 4096
N_T_CAP = 8192

_DATA_KEYS = ("m0", "h", "F", "G")
_ITER_KEYS = tuple(f.name for f in fields(IterConfig))
_POSITIVE = _Bound(gt=0.0)


class ConfigError(Exception):
    """Validation failure; carries one message per offending field."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# ---------------------------------------------------------------- leaf checks

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _keys(obj: dict, path: str, required, optional, errors):
    pre = path + "." if path else ""
    for k in required:
        if k not in obj:
            errors.append(f"missing required field: {pre}{k}")
    for k in obj:
        if k not in required and k not in optional:
            errors.append(f"unknown field: {pre}{k}")


def _num_field(obj, path, key, errors, bound: _Bound):
    pre = path + "." if path else ""
    if key not in obj:
        return None
    v = obj[key]
    if fault := bound.fault(v):
        errors.append(f"{pre}{key}: {fault}")
        return None
    return float(v)


def _int_field(obj, path, key, errors, lo, hi):
    pre = path + "." if path else ""
    if key not in obj:
        return None
    v = obj[key]
    if not _is_int(v) or v < lo or v > hi:
        errors.append(f"{pre}{key}: must be an integer in [{lo}, {hi}]")
        return None
    return int(v)


# --------------------------------------------------------- section validators

def _validate_problem(cfg, errors):
    prob = cfg.get("problem")
    if not isinstance(prob, dict):
        errors.append("problem: must be an object")
        return
    fam = prob.get("family")
    if not isinstance(fam, str) or fam not in _FAMILIES:
        errors.append(f"problem.family: must be one of {', '.join(_FAMILIES)}")
        return
    _keys(prob, "problem", ("family", "T", *_FAMILIES[fam]), (), errors)
    for name, bound in _FAMILIES[fam].items():
        _num_field(prob, "problem", name, errors, bound)
    _num_field(prob, "problem", "T", errors, _POSITIVE)


def _validate_grid(cfg, errors, n_t_min=3):
    grid = cfg.get("grid")
    if not isinstance(grid, dict):
        errors.append("grid: must be an object")
        return
    _keys(grid, "grid", ("n_x", "n_t"), (), errors)
    _int_field(grid, "grid", "n_x", errors, 4, N_X_CAP)
    _int_field(grid, "grid", "n_t", errors, n_t_min, N_T_CAP)


# each profile kind: its parameter keys, and its values on the nodes x for a
# spec (already validated) and the problem's coefficient
_PROFILES = {
    "zero": ((), lambda p, c, x: np.zeros_like(x)),
    "const": (("value",), lambda p, c, x: np.full_like(x, float(p["value"]))),
    "bubble": (("scale",), lambda p, c, x: float(p["scale"]) * x * (1.0 - x)),
    "a": (("scale",), lambda p, c, x: float(p["scale"]) * c.a(x)),
    "sqrt_a": (("scale",), lambda p, c, x: float(p["scale"]) * c.sqrt_a(x)),
    "sin": (("scale", "k"),
            lambda p, c, x: float(p["scale"]) * np.sin(float(p["k"]) * math.pi * x)),
    "a_sin": (("scale", "k"),
              lambda p, c, x: float(p["scale"]) * c.a(x) * np.sin(float(p["k"]) * math.pi * x)),
}


def _validate_profile(obj, path, errors):
    if not isinstance(obj, dict):
        errors.append(f"{path}: must be an object with a 'kind' field")
        return
    kind = obj.get("kind")
    if kind not in _PROFILES:
        errors.append(
            f"{path}.kind: must be one of {', '.join(sorted(_PROFILES))}"
        )
        return
    params = _PROFILES[kind][0]
    _keys(obj, path, ("kind",) + params, (), errors)
    for p in params:
        if p == "k":
            _int_field(obj, path, p, errors, 1, 64)
        else:
            _num_field(obj, path, p, errors, _Bound())


def _validate_profile_map(cfg, section, allowed, errors):
    block = cfg.get(section)
    if block is None:
        return
    if not isinstance(block, dict):
        errors.append(f"{section}: must be an object")
        return
    _keys(block, section, (), allowed, errors)
    for k, v in block.items():
        if k in allowed:
            _validate_profile(v, f"{section}.{k}", errors)


def _validate_iter(cfg, errors):
    it = cfg.get("iter")
    if it is None:
        return
    if not isinstance(it, dict):
        errors.append("iter: must be an object")
        return
    _keys(it, "iter", (), _ITER_KEYS, errors)
    _int_field(it, "iter", "max_sweeps", errors, 1, 100000)
    for name, bound in _ITER_BOUNDS.items():
        _num_field(it, "iter", name, errors, bound)


def _validate_system(cfg, errors):
    system = cfg.get("system")
    if system not in ("linear", "nonlinear"):
        errors.append("system: must be 'linear' or 'nonlinear'")
    else:
        allowed = _LINEAR_KEYS if system == "linear" else _NONLINEAR_KEYS
        _validate_profile_map(cfg, "coefficients", allowed, errors)


def _validate_data(cfg, errors):
    _validate_profile_map(cfg, "data", _DATA_KEYS, errors)


def _validate_case(cfg, errors):
    name = cfg.get("case")
    if not isinstance(name, str) or name not in catalog():
        errors.append(f"case: must be one of {', '.join(catalog())}")


def _validate_sweep_values(cfg, errors):
    for key in ("s_values", "lam_values"):
        vals = cfg.get(key)
        if not isinstance(vals, list) or not vals:
            errors.append(f"{key}: must be a non-empty list of positive numbers")
            continue
        for i, v in enumerate(vals):
            if _WEIGHT.fault(v):
                errors.append(f"{key}[{i}]: must be a positive number")
            elif key == "s_values" and (fault := _S_FLOOR.fault(v)):
                errors.append(f"{key}[{i}]: {fault} (the smallest normal double)")


def _validate_t0(cfg, errors):
    t0 = _num_field(cfg, "", "t0", errors, _POSITIVE)
    T = default_backward_spec().problem.T
    if t0 is not None and t0 >= T:
        errors.append(f"t0: must be strictly less than the horizon T={T:g}")


def _validate_alpha(cfg, errors):
    a = _num_field(cfg, "", "alpha", errors, _POSITIVE)
    if a is not None and a >= 1.0:
        errors.append("alpha: must lie strictly inside (0, 1)")


def _validate_experiment(cfg, errors):
    if "experiment" in cfg and cfg["experiment"] != "default":
        errors.append(
            "experiment: only \"default\" is supported here; use the library API "
            "for custom problems"
        )


def _validate_eps_ladder(cfg, errors):
    if "eps_ladder" not in cfg:
        return
    ladder = cfg["eps_ladder"]
    if not isinstance(ladder, list) or not ladder:
        errors.append("eps_ladder: must be a non-empty list of numbers")
        return
    for i, e in enumerate(ladder):
        if _AMPLITUDE.fault(e):
            errors.append(f"eps_ladder[{i}]: must be a number >= 0")


def _validate_mode(cfg, errors):
    if cfg.get("mode") not in ("space", "time"):
        errors.append("mode: must be 'space' or 'time'")


def _validate_ladder(cfg, errors):
    if "ladder" not in cfg:
        return
    ladder = cfg["ladder"]
    if not isinstance(ladder, list) or len(ladder) < 3:
        errors.append("ladder: must be a list of at least 3 [n_x, n_t] pairs")
        return
    for i, lvl in enumerate(ladder):
        if (
            not isinstance(lvl, list)
            or len(lvl) != 2
            or not all(_is_int(v) for v in lvl)
            or not (4 <= lvl[0] <= N_X_CAP)
            or not (3 <= lvl[1] <= N_T_CAP)
        ):
            errors.append(
                f"ladder[{i}]: must be [n_x, n_t] with "
                f"4 <= n_x <= {N_X_CAP} and 3 <= n_t <= {N_T_CAP}"
            )


def _validate_samples(cfg, errors):
    _int_field(cfg, "", "samples", errors, 1, 100000)


def _validate(cfg, command: str) -> None:
    """Check cfg against its command's row of _COMMANDS.

    The checks shared by every command run first, then the row's key lists
    and its section checks in order; every fault found is raised at once as
    one ConfigError.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(["config: top level must be an object"])
    errors: list = []
    declared = cfg.get("command")
    if declared != command:
        errors.append(
            f"command: config declares {declared!r} but the CLI invoked {command!r}"
        )
    _int_field(cfg, "", "seed", errors, 0, 2**63 - 1)
    if "out_dir" in cfg and not isinstance(cfg["out_dir"], str):
        errors.append("out_dir: must be a string")
    row = _COMMANDS[command]
    _keys(cfg, "", ("command",) + row.required, row.optional + ("seed", "out_dir"), errors)
    for check in row.checks:
        check(cfg, errors)
    if errors:
        raise ConfigError(errors)


# ------------------------------------------------------------------- builders

def _build_grid(cfg: dict, T: float) -> SpaceTimeGrid:
    return SpaceTimeGrid(cfg["grid"]["n_x"], cfg["grid"]["n_t"], T)


def _build_problem(cfg: dict):
    """The problem's coefficient and grid; a diffusion that is not positive
    with a finite 1/a at every node (one that underflows, say) is rejected."""
    prob = cfg["problem"]
    params = {k: float(prob[k]) for k in _FAMILIES[prob["family"]]}
    coeff = DegenerateCoefficient(prob["family"], **params)
    grid = _build_grid(cfg, prob["T"])
    with np.errstate(divide="ignore", over="ignore"):
        try:
            a = coeff.a(grid.x)
        except OverflowError:  # a float power of a parameter past the double range
            a = np.full(grid.n_x, math.inf)
        bad = np.flatnonzero(~(np.isfinite(a) & (a > 0.0) & np.isfinite(1.0 / a)))
    if bad.size:
        raise ConfigError([f"problem: a(x) = {a[bad[0]]:g} at the node x={grid.x[bad[0]]:g}; "
                           "the diffusion must be positive with a finite 1/a at every node"])
    return coeff, grid


def _build_iter(cfg: dict) -> IterConfig:
    base = IterConfig()
    it = cfg.get("iter") or {}
    return replace(base, **{k: type(getattr(base, k))(v) for k, v in it.items()})


def _resolve_profiles(block, coeff, x):
    """The profiles a block gives, on the nodes; a key left out takes the
    zero default of the solver or of MfgCoefficients."""
    return {k: _PROFILES[v["kind"]][1](v, coeff, x) for k, v in (block or {}).items()}


def _build_coeffs(
    cfg: dict, coeff: DegenerateCoefficient, grid: SpaceTimeGrid
) -> MfgCoefficients:
    profs = _resolve_profiles(cfg.get("coefficients"), coeff, grid.x)
    return MfgCoefficients(coeff, grid, **profs)


# --------------------------------------------------------------- result pieces

# how result.json and the CSVs spell each non-finite double, keyed by its repr
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _jnum(v):
    """JSON-safe numeric value; non-finite floats become tagged strings."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    v = float(v)
    return v if math.isfinite(v) else _NONFINITE[repr(v)]


def qty(value, unit: str):
    """Wrap a number with its unit or norm tag for result.json."""
    return {"value": _jnum(value), "unit": unit}


def _fmt_csv(v):
    """A data cell: strings and ints unchanged, other numbers as repr."""
    if type(v) is str or type(v) is int:
        return v
    r = repr(float(v))
    return _NONFINITE.get(r, r)


def _bounds_doc(report):
    """result.json's view of a coefficient-bounds report, keyed by entry name."""
    return {
        e.name: {
            "value": qty(e.value, "ratio"),
            "x": qty(e.x, "x"),
            "t": qty(e.t, "t"),
        }
        for e in report.entries
    }


# ------------------------------------------------------------------ runners

def _run_solve(cfg):
    coeff, grid = _build_problem(cfg)
    icfg = _build_iter(cfg)
    x = grid.x
    data = _resolve_profiles(cfg.get("data"), coeff, x)
    coeffs = _build_coeffs(cfg, coeff, grid)
    solver = solve_linearized_mfg if cfg["system"] == "linear" else solve_nonlinear_mfg
    sol = solver(coeffs, **data, cfg=icfg)
    if not sol.converged:
        raise SolverError(
            f"coupled sweep did not converge after {sol.sweeps} sweeps "
            f"(budget {icfg.max_sweeps}, best residual {min(sol.residual_log):.3e})"
        )
    bounds = check_coefficient_bounds(coeffs)
    uv, mv = sol.u.values, sol.m.values
    # each field's norms at t = 0 and t = T, keyed and tagged by the NormKind
    norms = {
        f"{name}_{end}_{kind.value}": qty(weighted_norm(v[:, k], kind, coeff, grid), kind.value)
        for name, v, kinds in (("u", uv, (NormKind.L2_INV_A, NormKind.H1_INV_A)),
                               ("m", mv, (NormKind.L2_A, NormKind.H1A_DIV)))
        for end, k in (("t0", 0), ("T", -1))
        for kind in kinds
    }
    results = {
        "converged": True,
        "sweeps": qty(sol.sweeps, "count"),
        "final_residual": qty(sol.residual_log[-1], "max_abs"),
        "norms": norms,
        "bounds": _bounds_doc(bounds),
    }
    csvs = [
        (
            "residuals.csv",
            ["sweep", "residual"],
            ["count", "max_abs"],
            [[i + 1, r] for i, r in enumerate(sol.residual_log)],
        ),
        (
            "profiles.csv",
            ["x", "u_t0", "u_T", "m_t0", "m_T"],
            ["x", "u", "u", "m", "m"],
            [
                [x[i], uv[i, 0], uv[i, -1], mv[i, 0], mv[i, -1]]
                for i in range(grid.n_x)
            ],
        ),
    ]
    return results, csvs, 0


def _run_verify_carleman(cfg):
    case = make_case(cfg["case"])
    grid = _build_grid(cfg, case.T)
    u, m, F, G, _ = _solve_case(_Level(case, grid), _build_iter(cfg))
    bundle = CarlemanBundle(case.coeff, grid, u=u, m=m, F=F, G=G)
    sweep = sweep_parameters(bundle, cfg["s_values"], cfg["lam_values"])
    s0 = s0_estimate(sweep)
    results = {
        "case": cfg["case"],
        "estimate": bundle.kind,
        "hypotheses_ok": case.hypotheses_ok,
        "top_half_max": qty(sweep.top_half_max, "ratio"),
        "median_to_max_increase": qty(sweep.median_to_max_increase, "1"),
        "s0": None if s0 is None else qty(s0, "1"),
        "overflow_cells": qty(sweep.overflow_cells, "count"),
        "total_cells": qty(sweep.total_cells, "count"),
    }
    csvs = [("ratios.csv", ["s", "lam", "ratio", "overflow"],
             ["1", "1", "ratio", "flag"], _ratio_rows(sweep))]
    code = 4 if sweep.overflow_cells * 2 > sweep.total_cells else 0
    return results, csvs, code


def _ratio_rows(sweep):
    """The data rows of ratios.csv (s, lam, ratio, overflow flag), rendered
    as one CSV text body: the cells _fmt_csv spells, comma-joined, CRLF
    after each row, as csv.writer would write them (no cell needs quoting).
    Each distinct s and lam is formatted once."""
    s_txt = [_fmt_csv(s) for s in sweep.s_values]
    lam_txt = [_fmt_csv(lam) for lam in sweep.lam_values]
    n_lam = len(lam_txt)
    cells = map(repr, sweep.ratios.ravel().tolist())
    return "".join([
        f"{s_txt[k // n_lam]},{lam_txt[k % n_lam]},{_NONFINITE.get(r, r)},"
        f"{'1' if r == 'nan' else '0'}\r\n"
        for k, r in enumerate(cells)
    ])


def _run_ladder(cfg):
    """The command's stability ladder on the default problem, passing only
    the t0, alpha and eps_ladder the config gives; a ladder the experiment
    rejects is a config error.  The experiment is looked up by module name at
    call time, so a wrapper over that name (bench/spans.py) sees every call."""
    log = cfg["command"] == "stability-log"
    experiment = run_log_experiment if log else run_holder_experiment
    spec = default_backward_spec()
    grid = _build_grid(cfg, spec.problem.T)
    given = {k: cfg[k] for k in ("t0", "alpha", "eps_ladder") if k in cfg}
    try:
        res = experiment(spec, grid=grid, cfg=_build_iter(cfg), **given)
    except ValueError as exc:
        raise ConfigError([f"experiment: {exc}"]) from exc
    results = {
        "mode": res.mode,
        "theta": qty(res.theta, "1"),
        "alpha": qty(res.alpha, "1"),
        "slope": qty(res.slope, "1"),
        "intercept": qty(res.intercept, "log"),
        "C_fit": qty(res.C_fit, "ratio"),
        "c_spread": qty(res.c_spread, "ratio"),
        "envelope_stable": res.envelope_stable,
        "M": qty(res.inputs.M, "mixed_H1"),
        "t0": qty(res.inputs.t0, "t"),
        "lam": qty(res.inputs.lam, "1"),
        "T": qty(res.inputs.T, "t"),
        "rungs_accepted": qty(sum(1 for r in res.rungs if r.accepted), "count"),
        "warnings": list(res.warnings),
    }
    cols = [("eps", "1"), ("D0", "mixed_H1"), ("err", "mixed_L2"), ("s_star", "1"),
            ("c_envelope", "ratio")]
    if res.mode == "log":
        cols.append(("D", "mixed_H1"))
    rows = [[getattr(r, name) for name, _ in cols] + [1 if r.accepted else 0]
            for r in res.rungs]
    names, units = zip(*cols, ("accepted", "flag"))
    csvs = [("ladder.csv", names, units, rows)]
    return results, csvs, 0


def _run_convergence(cfg):
    case = make_case(cfg["case"])
    icfg = _build_iter(cfg)
    ladder = cfg.get("ladder")
    if ladder is not None:
        ladder = tuple((int(a), int(b)) for a, b in ladder)
    try:
        res = convergence_study(case, cfg["mode"], ladder, icfg)
    except ValueError as exc:
        raise ConfigError([f"ladder: {exc}"]) from exc
    results = {
        "case": res.case_name,
        "mode": res.mode,
        "observed_order": qty(res.observed_order, "1"),
        "rates": [qty(r, "1") for r in res.rates],
        "exact": res.exact,
    }
    rows = []
    for (n_x, n_t), err, sweeps in zip(res.levels, res.errors, res.sweeps):
        g = SpaceTimeGrid(n_x, n_t, case.T)
        rows.append([n_x, n_t, g.h, g.dt, err, sweeps])
    csvs = [("errors.csv", ["n_x", "n_t", "h", "dt", "max_error", "sweeps"],
             ["count", "count", "x", "t", "max_abs", "count"], rows)]
    return results, csvs, 0


def _run_coeff_check(cfg):
    coeff, grid = _build_problem(cfg)
    coeffs = _build_coeffs(cfg, coeff, grid)
    report = check_coefficient_bounds(coeffs)
    iso = isomorphism_residual(coeff, grid)
    seed = int(cfg.get("seed", 0))
    n_samples = int(cfg.get("samples", 256))
    rng = np.random.default_rng(seed)
    xs = rng.uniform(grid.h / 2.0, 1.0 - grid.h / 2.0, n_samples)
    slope_samples = np.abs(coeff.a_x(xs)) / coeff.sqrt_a(xs)
    results = {
        "isomorphism_residual": qty(iso, "max_abs"),
        "sampled_slope_ratio_sup": qty(float(np.max(slope_samples)), "ratio"),
        "sampled_points": qty(n_samples, "count"),
        "nonnegative_on_samples": bool(np.all(coeff.a(xs) >= 0.0)),
        "bounds": _bounds_doc(report),
    }
    csvs = [("bounds.csv", ["name", "value", "x", "t"],
             ["tag", "ratio", "x", "t"], report.as_rows())]
    return results, csvs, 0


class _Command(NamedTuple):
    """One CLI command: the config keys it takes beyond ``command``, ``seed``
    and ``out_dir``, its section checks in report order, and its runner."""

    required: tuple
    optional: tuple
    checks: tuple
    run: Callable


_COMMANDS = {
    "solve": _Command(
        ("problem", "grid", "system"),
        ("coefficients", "data", "iter"),
        (_validate_problem, _validate_grid, _validate_system, _validate_data,
         _validate_iter),
        _run_solve,
    ),
    "verify-carleman": _Command(
        ("case", "grid", "s_values", "lam_values"),
        ("iter",),
        (_validate_case, _validate_grid, _validate_sweep_values, _validate_iter),
        _run_verify_carleman,
    ),
    "stability-holder": _Command(
        ("grid", "t0"),
        ("eps_ladder", "experiment", "iter"),
        (_validate_grid, _validate_t0, _validate_experiment, _validate_eps_ladder,
         _validate_iter),
        _run_ladder,
    ),
    "stability-log": _Command(
        ("grid",),
        ("alpha", "eps_ladder", "experiment", "iter"),
        # the log ladder's data norm D takes second time derivatives
        (functools.partial(_validate_grid, n_t_min=_LOG_N_T_MIN), _validate_alpha,
         _validate_experiment, _validate_eps_ladder, _validate_iter),
        _run_ladder,
    ),
    "convergence": _Command(
        ("case", "mode"),
        ("ladder", "iter"),
        (_validate_case, _validate_mode, _validate_ladder, _validate_iter),
        _run_convergence,
    ),
    "coeff-check": _Command(
        ("problem", "grid", "system"),
        ("coefficients", "samples"),
        (_validate_problem, _validate_grid, _validate_system, _validate_samples),
        _run_coeff_check,
    ),
}


# ------------------------------------------------------------------- plumbing

def _canonical_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _write_csv(path: Path, names, units, rows):
    """One CSV file: the name and unit rows, then the data rows, each cell as
    _fmt_csv spells it; rows may also be a data body already rendered as CSV
    text (see _ratio_rows), which is written as it is."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(names)
        w.writerow(units)
        if isinstance(rows, str):
            f.write(rows)
        else:
            w.writerows(map(_fmt_csv, row) for row in rows)


def _unusable_output(out_dir: Path):
    """Why out_dir cannot take the artifacts, or None: the path, or else its
    nearest existing ancestor, is not a directory or is not writable.
    Checked before a run and creating nothing, so a run that cannot write
    fails at once; the writes themselves can still fail."""
    probe = out_dir
    while not probe.exists() and probe != probe.parent:
        probe = probe.parent
    if not probe.is_dir():
        return f"{probe} exists and is not a directory"
    if not os.access(probe, os.W_OK | os.X_OK):
        return f"{probe} is not writable"
    return None


def _emit_error(code: int, message: str, details=()):
    doc = {"error": {"code": code, "message": message, "details": list(details)}}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="degenmfg",
        description="Degenerate mean-field-game laboratory: solvers, weighted "
        "estimates, and stability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--threads", type=int, default=1,
            help="worker count (recorded; execution is serial and deterministic)",
        )
    return parser


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_heap_resident() -> None:
    """Keep freed arrays in the heap for reuse, once per process.

    A command allocates and frees trajectories of 0.3-4 MB hundreds of
    times.  By default glibc maps such blocks with mmap or trims them off the
    heap top when freed, so every reuse faults in fresh pages.  This sets the
    mmap threshold to 32 MiB (glibc's 64-bit maximum) and the trim threshold
    to 64 MiB.  Both are needed: setting the trim threshold alone freezes
    the mmap threshold at its 128 KiB start (every array is mapped afresh),
    and the mmap threshold alone leaves the default trimming.  Where the C
    library has no mallopt (or cannot be opened) this does nothing; results
    never depend on it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_heap_resident()
    args = _parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _emit_error(2, f"cannot read config: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        return _emit_error(2, f"config is not valid JSON: {exc}")
    if args.threads < 1:
        return _emit_error(2, "--threads must be >= 1")
    try:
        _validate(cfg, args.command)
        out_dir = Path(args.out or cfg.get("out_dir") or "degenmfg-out")
        if problem := _unusable_output(out_dir):
            return _emit_error(2, f"cannot write output: {problem}")
        results, csvs, code = _COMMANDS[args.command].run(cfg)
    except ConfigError as exc:
        return _emit_error(2, "config validation failed", exc.errors)
    except SolverError as exc:
        return _emit_error(3, str(exc))
    doc = {
        "command": args.command,
        "package_version": __version__,
        "config": cfg,
        "config_sha256": _canonical_hash(cfg),
        "seed": cfg.get("seed", 0),
        "threads": args.threads,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "exit_code": code,
        "results": results,
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "result.json", "w", encoding="utf-8") as f:
            json.dump(doc, f, sort_keys=True, indent=2, ensure_ascii=True)
            f.write("\n")
        for fname, names, units, rows in csvs:
            _write_csv(out_dir / fname, names, units, rows)
    except OSError as exc:
        return _emit_error(2, f"cannot write output: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
