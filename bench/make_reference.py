"""Regenerate bench/reference.json, the stored outputs the benchmark checks.

    python3 bench/make_reference.py

Convergence orders come from the 24 convergence commands, run through
``degenmfg.cli.main``.  Stability outputs come from the library calls the
CLI makes, for every t0 and eps-ladder scale the stability workload can
draw; Holder pairs do not depend on t0, so each scale is solved once.
Only rerun this when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402
from degenmfg import cli  # noqa: E402
from degenmfg.mfg import IterConfig  # noqa: E402
from degenmfg.domain import SpaceTimeGrid  # noqa: E402
from degenmfg.stability import (  # noqa: E402
    build_ladder_pairs,
    default_backward_spec,
    run_holder_experiment,
    run_log_experiment,
)


def _summary(res) -> dict:
    return {
        "slope": res.slope,
        "C_fit": res.C_fit,
        "c_spread": res.c_spread,
        "M": res.inputs.M,
        "envelope_stable": res.envelope_stable,
        "rungs_accepted": sum(1 for r in res.rungs if r.accepted),
    }


def main() -> int:
    ref = {"convergence": {}, "stability": {}}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        out = Path(tmp)
        for command, cfg in wl.run_commands("convergence", 0):
            (out / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
            code = cli.main([command, "--config", str(out / "config.json"), "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{cfg['case']}/{cfg['mode']}: exit {code}")
            res = json.loads((out / "result.json").read_text(encoding="utf-8"))
            ref["convergence"][wl.reference_key(cfg)] = res["results"]["observed_order"]["value"]
    spec = default_backward_spec()
    grid = SpaceTimeGrid(wl.STABILITY_GRID["n_x"], wl.STABILITY_GRID["n_t"], spec.problem.T)
    icfg = IterConfig()
    for scale in wl.EPS_SCALES:
        ladder = wl.scaled_ladder(wl.HOLDER_BASE, scale)
        pairs = build_ladder_pairs(spec, sorted(set(ladder), reverse=True), grid=grid, cfg=icfg)
        for k0 in wl.HOLDER_T0_INDEX:
            t0 = k0 / wl.STABILITY_GRID["n_t"]
            key = wl.reference_key({"command": "stability-holder", "t0": t0, "eps_ladder": ladder})
            ref["stability"][key] = _summary(run_holder_experiment(spec, t0, pairs=pairs))
        ladder = wl.scaled_ladder(wl.LOG_BASE, scale)
        key = wl.reference_key({"command": "stability-log", "eps_ladder": ladder})
        ref["stability"][key] = _summary(run_log_experiment(spec, 0.5, ladder, grid=grid, cfg=icfg))
        print(f"scale {scale} done", flush=True)
    path = BENCH / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
