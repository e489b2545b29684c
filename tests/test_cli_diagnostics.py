"""Pinned config diagnostics: the full ``details`` list for bad configs.

Each case starts from a command's sample config in ``configs/``, applies a
patch (``DROP`` removes a key), and runs it through ``degenmfg.cli.main``.
The expected list is compared whole, so the wording, the order of the
checks and the exit code are all held fixed.
"""

import json
from pathlib import Path

import pytest

from degenmfg.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DROP = object()

SAMPLES = {
    "solve": "solve_zero.json",
    "verify-carleman": "carleman_sweep.json",
    "stability-holder": "holder.json",
    "stability-log": "log.json",
    "convergence": "convergence_space.json",
    "coeff-check": "coeff_check.json",
}

SEED = "seed: must be an integer in [0, 9223372036854775807]"
N_X = "grid.n_x: must be an integer in [4, 4096]"
N_T = "grid.n_t: must be an integer in [3, 8192]"
CASE = (
    "case: must be one of decay-bubble, drifted-well, cosine-decay, "
    "spreading-ridge, wf-pulse, oil-drift, coupled-mild, coupled-wf, coupled-oil, "
    "quad-hamiltonian, wf-game, oil-game, zero"
)
KINDS = "must be one of a, a_sin, bubble, const, sin, sqrt_a, zero"
SYSTEM = "system: must be 'linear' or 'nonlinear'"
LADDER_LEVEL = "must be [n_x, n_t] with 4 <= n_x <= 4096 and 3 <= n_t <= 8192"

CASES = []


def case(command, name, patch, details):
    CASES.append(pytest.param(command, patch, details, id=f"{command}-{name}"))


for cmd in SAMPLES:
    other = "convergence" if cmd == "solve" else "solve"
    case(cmd, "top-level", None, ["config: top level must be an object"])
    case(cmd, "command", {"command": other},
         [f"command: config declares {other!r} but the CLI invoked {cmd!r}"])
    case(cmd, "command-missing", {"command": DROP},
         [f"command: config declares None but the CLI invoked {cmd!r}",
          "missing required field: command"])
    case(cmd, "seed-negative", {"seed": -1}, [SEED])
    case(cmd, "seed-bool", {"seed": True}, [SEED])
    case(cmd, "seed-float", {"seed": 1.5}, [SEED])
    case(cmd, "out_dir", {"out_dir": 3}, ["out_dir: must be a string"])
    case(cmd, "unknown", {"extraneous": 1, "zzz": None},
         ["unknown field: extraneous", "unknown field: zzz"])

for cmd in ("solve", "coeff-check"):
    case(cmd, "missing-all", {"problem": DROP, "grid": DROP, "system": DROP},
         ["missing required field: problem", "missing required field: grid",
          "missing required field: system", "problem: must be an object",
          "grid: must be an object", SYSTEM])
    case(cmd, "problem-not-object", {"problem": 1}, ["problem: must be an object"])
    case(cmd, "problem-family", {"problem": {"family": "cubic", "T": 1.0}},
         ["problem.family: must be one of power, wright_fischer, quadratic_oil"])
    case(cmd, "problem-power-missing", {"problem": {"family": "power", "T": 1.0}},
         ["missing required field: problem.beta",
          "missing required field: problem.delta"])
    case(cmd, "problem-power-range",
         {"problem": {"family": "power", "T": 0.0, "beta": 1.0, "delta": "x"}},
         ["problem.beta: must be >= 2.0", "problem.delta: must be a finite number",
          "problem.T: must be > 0.0"])
    case(cmd, "problem-oil",
         {"problem": {"family": "quadratic_oil", "T": -1, "gamma": 0.0, "beta": 2.0}},
         ["unknown field: problem.beta", "problem.gamma: must be > 0.0",
          "problem.T: must be > 0.0"])
    case(cmd, "problem-wf-extra",
         {"problem": {"family": "wright_fischer", "T": "1", "gamma": 1.0}},
         ["unknown field: problem.gamma", "problem.T: must be a finite number"])
    case(cmd, "grid-not-object", {"grid": [64, 64]}, ["grid: must be an object"])
    case(cmd, "grid-range", {"grid": {"n_x": 3, "n_t": 2, "dt": 0.1}},
         ["unknown field: grid.dt", N_X, N_T])
    case(cmd, "grid-caps", {"grid": {"n_x": 4097, "n_t": 8193}}, [N_X, N_T])
    case(cmd, "grid-types", {"grid": {"n_x": 64.0, "n_t": True}}, [N_X, N_T])
    case(cmd, "system", {"system": "quadratic"}, [SYSTEM])
    case(cmd, "coefficients-not-object", {"coefficients": []},
         ["coefficients: must be an object"])

    # a diffusion that underflows at the nodes: every bound would divide by 0
    case(cmd, "problem-diffusion-underflow",
         {"problem": {"family": "power", "T": 1.0, "beta": 1e6, "delta": 2.0},
          "grid": {"n_x": 16, "n_t": 8}},
         ["problem: a(x) = 0 at the node x=0.03125; "
          "the diffusion must be positive with a finite 1/a at every node"])
    case(cmd, "problem-diffusion-overflow",
         {"problem": {"family": "quadratic_oil", "T": 1.0, "gamma": 1e200},
          "grid": {"n_x": 16, "n_t": 8}},
         ["problem: a(x) = inf at the node x=0.03125; "
          "the diffusion must be positive with a finite 1/a at every node"])

case("solve", "coefficients-wrong-system", {"system": "nonlinear"},
     [f"unknown field: coefficients.{k}" for k in ("d1", "d2", "c1", "b")])
case("coeff-check", "coefficients-wrong-system", {"system": "linear"},
     ["unknown field: coefficients.p", "unknown field: coefficients.d"])
case("solve", "coefficients-profiles",
     {"coefficients": {
         "d1": 1,
         "d2": {"kind": "cube"},
         "c1": {"kind": "sin", "scale": "x", "k": 0},
         "c2": {"kind": "a_sin", "k": 65, "extra": 1},
         "b": {"kind": "const"},
         "rho": {"kind": "zero", "scale": 1.0},
     }},
     ["coefficients.d1: must be an object with a 'kind' field",
      f"coefficients.d2.kind: {KINDS}",
      "coefficients.c1.scale: must be a finite number",
      "coefficients.c1.k: must be an integer in [1, 64]",
      "missing required field: coefficients.c2.scale",
      "unknown field: coefficients.c2.extra",
      "coefficients.c2.k: must be an integer in [1, 64]",
      "missing required field: coefficients.b.value",
      "unknown field: coefficients.rho.scale"])
case("coeff-check", "coefficients-profiles",
     {"coefficients": {"p": {"kind": "a"}, "d1": {"kind": "zero"}}},
     ["unknown field: coefficients.d1",
      "missing required field: coefficients.p.scale"])
case("solve", "data-not-object", {"data": "a"}, ["data: must be an object"])
case("solve", "data-profiles",
     {"data": {
         "m0": {"kind": "bubble", "scale": "1"},
         "h": {},
         "F": {"kind": "sqrt_a", "scale": 1.0},
         "G": {"kind": "const", "value": None},
         "u0": {"kind": "zero"},
     }},
     ["unknown field: data.u0", "data.m0.scale: must be a finite number",
      f"data.h.kind: {KINDS}", "data.G.value: must be a finite number"])
for name, samples in (("samples-zero", 0), ("samples-big", 100001), ("samples-float", 2.0)):
    case("coeff-check", name, {"samples": samples},
         ["samples: must be an integer in [1, 100000]"])
case("coeff-check", "iter-not-allowed", {"iter": {}}, ["unknown field: iter"])

for cmd in ("solve", "verify-carleman", "stability-holder", "stability-log", "convergence"):
    case(cmd, "iter-not-object", {"iter": 5}, ["iter: must be an object"])
    case(cmd, "iter-ranges",
         {"iter": {"max_sweeps": 0, "damping": 0.0, "tolerance": 0.0,
                   "divergence_factor": 1.0, "steps": 3}},
         ["unknown field: iter.steps",
          "iter.max_sweeps: must be an integer in [1, 100000]",
          "iter.damping: must be > 0.0", "iter.tolerance: must be > 0.0",
          "iter.divergence_factor: must be > 1.0"])
case("solve", "iter-upper",
     {"iter": {"max_sweeps": 100001, "damping": 1.5, "tolerance": "1e-9",
               "divergence_factor": None}},
     ["iter.max_sweeps: must be an integer in [1, 100000]",
      "iter.damping: must be <= 1.0", "iter.tolerance: must be a finite number",
      "iter.divergence_factor: must be a finite number"])

for cmd in ("verify-carleman", "stability-holder", "stability-log"):
    case(cmd, "grid-not-object", {"grid": None}, ["grid: must be an object"])
    case(cmd, "grid-missing", {"grid": DROP},
         ["missing required field: grid", "grid: must be an object"])
    case(cmd, "grid-keys", {"grid": {"n_t": 8, "T": 1.0}},
         ["missing required field: grid.n_x", "unknown field: grid.T"])
case("verify-carleman", "grid-range", {"grid": {"n_x": 3, "n_t": 3}}, [N_X])
case("stability-holder", "grid-range", {"grid": {"n_x": 3, "n_t": 3}}, [N_X])
# the log ladder's data norm takes second time derivatives: n_t >= 4
case("stability-log", "grid-range", {"grid": {"n_x": 3, "n_t": 3}},
     [N_X, "grid.n_t: must be an integer in [4, 8192]"])

for cmd in ("verify-carleman", "convergence"):
    case(cmd, "case", {"case": "nope"}, [CASE])
    case(cmd, "case-type", {"case": 3}, [CASE])
    case(cmd, "case-missing", {"case": DROP}, ["missing required field: case", CASE])

case("verify-carleman", "values-empty", {"s_values": [], "lam_values": "1"},
     ["s_values: must be a non-empty list of positive numbers",
      "lam_values: must be a non-empty list of positive numbers"])
case("verify-carleman", "values-elements",
     {"s_values": [1.0, 0.0, -2, "x", True], "lam_values": [1.0, None]},
     [f"s_values[{i}]: must be a positive number" for i in (1, 2, 3, 4)]
     + ["lam_values[1]: must be a positive number"])
case("verify-carleman", "values-subnormal",
     {"s_values": [1.0, 5e-324, 1e-310], "lam_values": [1.0, 5e-324]},
     [f"s_values[{i}]: must be >= 2.2250738585072014e-308 (the smallest normal double)"
      for i in (1, 2)])
case("verify-carleman", "values-missing", {"s_values": DROP, "lam_values": DROP},
     ["missing required field: s_values", "missing required field: lam_values",
      "s_values: must be a non-empty list of positive numbers",
      "lam_values: must be a non-empty list of positive numbers"])

case("stability-holder", "t0-missing", {"t0": DROP}, ["missing required field: t0"])
case("stability-holder", "t0-zero", {"t0": 0.0}, ["t0: must be > 0.0"])
case("stability-holder", "t0-horizon", {"t0": 1.5},
     ["t0: must be strictly less than the horizon T=1"])
case("stability-holder", "t0-type", {"t0": "0.5"}, ["t0: must be a finite number"])
case("stability-holder", "alpha", {"alpha": 0.5}, ["unknown field: alpha"])
case("stability-log", "t0", {"t0": 0.5}, ["unknown field: t0"])
case("stability-log", "alpha-zero", {"alpha": 0.0}, ["alpha: must be > 0.0"])
case("stability-log", "alpha-one", {"alpha": 1.0},
     ["alpha: must lie strictly inside (0, 1)"])
case("stability-log", "alpha-type", {"alpha": [0.5]}, ["alpha: must be a finite number"])
for cmd in ("stability-holder", "stability-log"):
    case(cmd, "experiment", {"experiment": "custom"},
         ['experiment: only "default" is supported here; use the library API '
          "for custom problems"])
    case(cmd, "eps-ladder-empty", {"eps_ladder": []},
         ["eps_ladder: must be a non-empty list of numbers"])
    case(cmd, "eps-ladder-type", {"eps_ladder": 0.1},
         ["eps_ladder: must be a non-empty list of numbers"])
    case(cmd, "eps-ladder-elements", {"eps_ladder": [0.1, -0.01, "x", None]},
         [f"eps_ladder[{i}]: must be a number >= 0" for i in (1, 2, 3)])
# rejected by the experiment itself, before any solve
case("stability-holder", "eps-ladder-short",
     {"grid": {"n_x": 16, "n_t": 8}, "eps_ladder": [0.1, 0.01]},
     ["experiment: ladder must have >= 4 amplitudes spanning >= 2 decades"])
case("stability-log", "eps-ladder-zero",
     {"grid": {"n_x": 16, "n_t": 8}, "eps_ladder": [0.0]},
     ["experiment: perturbation ladder is empty after dropping eps=0"])
# the grid time nearest t0 is an end of the grid: also before any solve
case("stability-holder", "t0-grid-end", {"grid": {"n_x": 16, "n_t": 8}, "t0": 0.97},
     ["experiment: t0=0.97 is nearest the grid end t=1 at n_t=8; "
      "refine n_t or move t0 inward"])
# every rung solved and rejected: the rungs' own notes, not a degenerate ladder
case("stability-log", "eps-ladder-all-rejected",
     {"grid": {"n_x": 16, "n_t": 8}, "eps_ladder": [100, 10]},
     ["experiment: no rung accepted: "
      "eps=100 (data norm D=2.78e+04 >= 1; shrink the perturbation amplitude), "
      "eps=10 (data norm D=1.06e+03 >= 1; shrink the perturbation amplitude)"])

case("convergence", "mode", {"mode": "both"}, ["mode: must be 'space' or 'time'"])
case("convergence", "mode-missing", {"mode": DROP},
     ["missing required field: mode", "mode: must be 'space' or 'time'"])
case("convergence", "ladder-short", {"ladder": [[8, 8], [16, 16]]},
     ["ladder: must be a list of at least 3 [n_x, n_t] pairs"])
case("convergence", "ladder-type", {"ladder": {"a": 1}},
     ["ladder: must be a list of at least 3 [n_x, n_t] pairs"])
case("convergence", "ladder-levels",
     {"ladder": [[8, 8], [3, 8], [8, 2], [8], [8.0, 8], "x", [4097, 8], [8, 8193],
                 [True, 8]]},
     [f"ladder[{i}]: {LADDER_LEVEL}" for i in range(1, 9)])
# rejected by convergence_study itself, before any solve: no rate between
# two levels with the same fitted step
case("convergence", "ladder-repeated-n_x", {"ladder": [[8, 8], [8, 16], [8, 32]]},
     ["ladder: levels 0 and 1 share n_x = 8; "
      "a space ladder must change n_x between adjacent levels"])
case("convergence", "ladder-repeated-n_t",
     {"mode": "time", "ladder": [[8, 8], [16, 8], [32, 8]]},
     ["ladder: levels 0 and 1 share n_t = 8; "
      "a time ladder must change n_t between adjacent levels"])

# several sections at once: the checks report in a fixed order
case("solve", "combined",
     {"command": "coeff-check", "seed": "1", "out_dir": [], "grid": DROP,
      "system": "x", "extra": 0, "samples": 3},
     ["command: config declares 'coeff-check' but the CLI invoked 'solve'", SEED,
      "out_dir: must be a string", "missing required field: grid",
      "unknown field: extra", "unknown field: samples", "grid: must be an object",
      SYSTEM])


def _config(command, patch):
    if patch is None:
        return ["not", "an", "object"]
    cfg = json.loads((CONFIGS / SAMPLES[command]).read_text(encoding="utf-8"))
    for key, value in patch.items():
        if value is DROP:
            del cfg[key]
        else:
            cfg[key] = value
    return cfg


@pytest.mark.parametrize("command, patch, details", CASES)
def test_bad_config_details_are_pinned(command, patch, details, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config(command, patch)), encoding="utf-8")
    out = tmp_path / "o"
    rc = main([command, "--config", str(path), "--out", str(out)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc == {"error": {"code": 2, "message": "config validation failed",
                             "details": details}}
    assert not out.exists()
