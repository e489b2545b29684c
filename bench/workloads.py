"""Workload definitions: the CLI configs of a run, drawn from the seed, and
the checks each command's outputs must pass.

``run_commands(workload, seed)`` gives the commands every pass of a run
repeats, so passes do equal work; ``pass_commands(workload, seed, k)`` gives
them in pass k's seeded order.  Both depend on nothing but their arguments.

* convergence: every non-trivial catalog case in space and time mode, on
  criterion 02's ladders scaled down so a pass takes seconds.  Scalar sweeps,
  linearized coupled solves whose step operators repeat across time levels and
  sweeps, and nonlinear coupled solves.
* stability: one stability-holder and one stability-log command on the
  default backward problem at 128x256.  Only nonlinear Picard solves, whose
  drift changes every time level and sweep, plus the weighted norms.
* carleman: verify-carleman on the six scalar cases at two fine grids with a
  wide (s, lam) grid, part of it past the overflow limit.  One scalar sweep per
  command; the rest is weighted-functional evaluation.

Stability jitter is drawn from fixed sets so that every drawn command has a
stored reference (see make_reference.py).  Carleman draws are stratified so
that every seed puts about the same share of cells past the overflow limit.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

WORKLOADS = ("convergence", "stability", "carleman")

NONTRIVIAL_CASES = (
    "decay-bubble", "drifted-well", "cosine-decay",
    "spreading-ridge", "wf-pulse", "oil-drift",
    "coupled-mild", "coupled-wf", "coupled-oil",
    "quad-hamiltonian", "wf-game", "oil-game",
)
SCALAR = NONTRIVIAL_CASES[:6]

# criterion 02's refinement patterns at a smaller size: space refines dt like
# h^2, time holds a mesh fine enough that the first-order time error shows
CONVERGENCE_LADDERS = {
    "space": ((32, 8), (64, 32), (128, 128)),
    "time": ((192, 32), (192, 64), (192, 128)),
}
# acceptance windows of criterion 02
ORDER_WINDOWS = {"space": (1.7, 2.3), "time": (0.8, 1.2)}
# "the same to 4 decimals"; a full-step Picard that meets the 1e-9 residual
# tolerance moves the orders by < 3e-6
ORDER_TOL = 5e-5

STABILITY_GRID = {"n_x": 128, "n_t": 256}
HOLDER_BASE = (1e-1, 1e-2, 1e-3, 1e-4)
LOG_BASE = (1e-2, 6e-3, 3.5e-3, 2e-3)
EPS_SCALES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
# t0 = k / n_t, on grid times around 0.5
HOLDER_T0_INDEX = tuple(range(118, 139, 2))
# relative tolerance of slope, C_fit, c_spread and M: fields converge to a 1e-9
# residual, and the smallest ladder error is ~5e-5, so 1e-9 / 5e-5 = 2e-5
# with 5x headroom
STABILITY_RTOL = 1e-4
STABILITY_KEYS = ("slope", "C_fit", "c_spread", "M")

CARLEMAN_GRIDS = ((256, 512), (512, 1024))
CARLEMAN_S_RANGE = (0.5, 300.0)  # drawn uniformly in log s
CARLEMAN_LAM_RANGE = (0.2, 3.0)  # uniform
CARLEMAN_SHAPE = (64, 40)  # number of s values, lam values
OVERFLOW_LOG_LIMIT = 700.0


def scaled_ladder(base, scale):
    return [round(scale * e, 12) for e in base]


def _stratified(rng, lo: float, hi: float, n: int) -> list:
    """n sorted draws, one uniform in each of n equal parts of [lo, hi]."""
    return [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]


def run_commands(workload: str, seed: int) -> list:
    """The (command, config) pairs every pass of a run repeats, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "convergence":
        return [
            ("convergence", {"command": "convergence", "case": c, "mode": m,
                             "ladder": [list(level) for level in CONVERGENCE_LADDERS[m]],
                             "seed": seed})
            for c in NONTRIVIAL_CASES for m in ("space", "time")
        ]
    if workload == "stability":
        k0 = rng.choice(HOLDER_T0_INDEX)
        return [
            ("stability-holder", {
                "command": "stability-holder",
                "grid": dict(STABILITY_GRID),
                "t0": k0 / STABILITY_GRID["n_t"],
                "eps_ladder": scaled_ladder(HOLDER_BASE, rng.choice(EPS_SCALES)),
                "seed": seed,
            }),
            ("stability-log", {
                "command": "stability-log",
                "grid": dict(STABILITY_GRID),
                "eps_ladder": scaled_ladder(LOG_BASE, rng.choice(EPS_SCALES)),
                "seed": seed,
            }),
        ]
    if workload == "carleman":
        lo, hi = (math.log(v) for v in CARLEMAN_S_RANGE)
        cmds = []
        for case in SCALAR:
            for n_x, n_t in CARLEMAN_GRIDS:
                s = _stratified(rng, lo, hi, CARLEMAN_SHAPE[0])
                lam = _stratified(rng, *CARLEMAN_LAM_RANGE, CARLEMAN_SHAPE[1])
                cmds.append(("verify-carleman", {
                    "command": "verify-carleman",
                    "case": case,
                    "grid": {"n_x": n_x, "n_t": n_t},
                    "s_values": [round(math.exp(v), 9) for v in s],
                    "lam_values": [round(v, 9) for v in lam],
                    "seed": seed,
                }))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


def pass_commands(workload: str, seed: int, k: int) -> list:
    """Pass k: the run's commands in a seeded order."""
    cmds = run_commands(workload, seed)
    random.Random(f"{workload}:{seed}:{k}").shuffle(cmds)
    return cmds


def warmup_commands(workload: str) -> list:
    """Small commands that load every code path of the workload once."""
    if workload == "convergence":
        ladder = [[8, 4], [16, 8], [32, 32]]
        return [
            ("convergence", {"command": "convergence", "case": c, "mode": "space", "ladder": ladder})
            for c in ("drifted-well", "spreading-ridge", "coupled-mild", "quad-hamiltonian")
        ]
    if workload == "stability":
        grid = {"n_x": 16, "n_t": 32}
        loose = {"tolerance": 1e-4}
        return [
            ("stability-holder", {"command": "stability-holder", "grid": grid, "t0": 0.5,
                                  "eps_ladder": list(HOLDER_BASE), "iter": loose}),
            ("stability-log", {"command": "stability-log", "grid": grid, "iter": loose}),
        ]
    if workload == "carleman":
        return [
            ("verify-carleman", {"command": "verify-carleman", "case": c,
                                 "grid": {"n_x": 16, "n_t": 32},
                                 "s_values": [1.0, 400.0], "lam_values": [1.0, 2.0]})
            for c in ("drifted-well", "spreading-ridge")
        ]
    raise ValueError(f"unknown workload {workload!r}")


def reference_key(cfg: dict) -> str:
    """Reference lookup key of a convergence or stability config."""
    if cfg["command"] == "convergence":
        return f"{cfg['case']}/{cfg['mode']}"
    if cfg["command"] == "stability-holder":
        scale = cfg["eps_ladder"][0] / HOLDER_BASE[0]
        return f"holder/{scale:.1f}/{round(cfg['t0'] * STABILITY_GRID['n_t'])}"
    scale = cfg["eps_ladder"][0] / LOG_BASE[0]
    return f"log/{scale:.1f}"


def holder_theta(t0: float, T: float, lam: float) -> float:
    """alpha(t0) / (3 phi(T) + alpha(t0)), phi(t) = e^(lam t), alpha = phi - 1."""
    alpha = math.exp(lam * t0) - 1.0
    return alpha / (3.0 * math.exp(lam * T) + alpha)


def overflow_cell(s: float, lam: float, T: float) -> bool:
    return 2.0 * s * math.exp(lam * T) > OVERFLOW_LOG_LIMIT


def _value(q):
    return q["value"] if isinstance(q, dict) else q


def check(command: str, cfg: dict, code: int, out_dir: Path, reference: dict, T: float = 1.0) -> list:
    """Problems found in one command's exit code and artifacts (empty if none).

    ``T`` is the horizon of the carleman case, which sets the overflow cells.
    """
    expected = 0
    cells = None
    if command == "verify-carleman":
        cells = [overflow_cell(s, lam, T) for s in cfg["s_values"] for lam in cfg["lam_values"]]
        expected = 4 if 2 * sum(cells) > len(cells) else 0
    if code != expected:
        return [f"exit code {code}, expected {expected}"]
    res = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))["results"]
    problems = []
    if command == "convergence":
        order = _value(res["observed_order"])
        lo, hi = ORDER_WINDOWS[cfg["mode"]]
        if not (isinstance(order, float) and lo <= order <= hi):
            problems.append(f"observed order {order} outside [{lo}, {hi}]")
        ref = reference["convergence"][reference_key(cfg)]
        if not abs(order - ref) <= ORDER_TOL:
            problems.append(f"observed order {order} != reference {ref}")
    elif command.startswith("stability-"):
        ref = reference["stability"][reference_key(cfg)]
        if command == "stability-holder":
            theta = holder_theta(cfg["t0"], _value(res["T"]), _value(res["lam"]))
            if not abs(_value(res["theta"]) - theta) <= 1e-12 * theta:
                problems.append(f"theta {_value(res['theta'])} != {theta}")
        elif _value(res["theta"]) != 0.0:
            problems.append("log ladder theta is not 0")
        for key in ("envelope_stable", "rungs_accepted"):
            if _value(res[key]) != ref[key]:
                problems.append(f"{key} {_value(res[key])} != reference {ref[key]}")
        for key in STABILITY_KEYS:
            got, want = _value(res[key]), ref[key]
            if not abs(got - want) <= STABILITY_RTOL * abs(want):
                problems.append(f"{key} {got} != reference {want}")
    else:
        if _value(res["overflow_cells"]) != sum(cells):
            problems.append(f"overflow_cells {_value(res['overflow_cells'])} != {sum(cells)}")
        if _value(res["total_cells"]) != len(cells):
            problems.append(f"total_cells {_value(res['total_cells'])} != {len(cells)}")
        with open(out_dir / "ratios.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))[2:]
        flags = [row[3] == "1" for row in rows]
        if flags != cells:
            problems.append("per-cell overflow flags differ from 2 s e^(lam T) > 700")
        elif any(not math.isfinite(float(row[2])) for row, over in zip(rows, cells) if not over):
            problems.append("non-finite ratio in a cell below the overflow limit")
    return problems
