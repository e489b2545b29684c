"""Command-line interface tests: exit codes, document schema, determinism.

Every runner call goes through degenmfg.cli.main(argv) so the tests see
exactly what a shell invocation would produce, without subprocess cost.
"""

import csv
import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from degenmfg.carleman import SweepResult
from degenmfg import cli
from degenmfg.cli import _COMMANDS, _PROFILES, _ratio_rows, _write_csv, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _load(name: str) -> dict:
    with open(CONFIGS / name, encoding="utf-8") as f:
        return json.load(f)


def _dump(cfg: dict, path: Path) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg, f)
    return str(path)


def _stderr_doc(capsys) -> dict:
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def _read_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def _is_qty(obj) -> bool:
    return (
        isinstance(obj, dict)
        and set(obj) == {"value", "unit"}
        and isinstance(obj["unit"], str)
    )


def test_solve_zero_document_schema(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--config", str(CONFIGS / "solve_zero.json"),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "result.json").read_text(encoding="utf-8"))
    assert doc["command"] == "solve"
    assert doc["exit_code"] == 0
    assert doc["seed"] == 0
    assert doc["threads"] == 1
    assert isinstance(doc["package_version"], str)
    # hash must be reproducible from the embedded config alone
    canon = json.dumps(doc["config"], sort_keys=True,
                       separators=(",", ":"), ensure_ascii=True)
    assert doc["config_sha256"] == hashlib.sha256(canon.encode()).hexdigest()
    res = doc["results"]
    assert res["converged"] is True
    assert _is_qty(res["final_residual"])
    for key in ("u_t0_L2_inv_a", "u_T_H1_inv_a", "m_t0_L2_a", "m_T_H1a_div"):
        assert _is_qty(res["norms"][key])
        assert isinstance(res["norms"][key]["value"], float)
    # curve files: one name row, one unit row, then data
    for fname in ("residuals.csv", "profiles.csv"):
        rows = _read_rows(out / fname)
        assert len(rows) > 2
        assert len(rows[0]) == len(rows[1])
        for cell in rows[2]:
            float(cell)


def test_result_deterministic_modulo_timestamp(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["solve", "--config", str(CONFIGS / "solve_zero.json"),
                   "--out", str(out)])
        assert rc == 0
        outs.append(out)

    def stripped(p: Path) -> str:
        lines = (p / "result.json").read_text(encoding="utf-8").splitlines()
        kept = [ln for ln in lines if '"timestamp"' not in ln]
        return "\n".join(kept)

    assert stripped(outs[0]) == stripped(outs[1])
    for fname in ("residuals.csv", "profiles.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_carleman_sweep_deterministic_modulo_timestamp(tmp_path):
    texts = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["verify-carleman", "--config",
                   str(CONFIGS / "carleman_sweep.json"), "--out", str(out)])
        assert rc == 0
        lines = (out / "result.json").read_text(encoding="utf-8").splitlines()
        texts.append(([ln for ln in lines if '"timestamp"' not in ln],
                      (out / "ratios.csv").read_bytes()))
    assert texts[0] == texts[1]


def test_out_flag_beats_config_out_dir(tmp_path):
    cfg = _load("solve_zero.json")
    cfg["out_dir"] = str(tmp_path / "from_config")
    path = _dump(cfg, tmp_path / "cfg.json")
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "from_flag")])
    assert rc == 0
    assert (tmp_path / "from_flag" / "result.json").exists()
    assert not (tmp_path / "from_config").exists()


def test_config_out_dir_used_without_flag(tmp_path):
    cfg = _load("coeff_check.json")
    cfg["out_dir"] = str(tmp_path / "here")
    path = _dump(cfg, tmp_path / "cfg.json")
    rc = main(["coeff-check", "--config", path])
    assert rc == 0
    assert (tmp_path / "here" / "result.json").exists()


def test_missing_field_is_named(tmp_path, capsys):
    cfg = _load("holder.json")
    del cfg["t0"]
    path = _dump(cfg, tmp_path / "cfg.json")
    rc = main(["stability-holder", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    doc = _stderr_doc(capsys)
    assert doc["error"]["code"] == 2
    assert "missing required field: t0" in doc["error"]["details"]
    assert not (tmp_path / "o").exists()


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"command": "solve",', encoding="utf-8")
    rc = main(["solve", "--config", str(path)])
    assert rc == 2
    assert "not valid JSON" in _stderr_doc(capsys)["error"]["message"]


def test_missing_config_file_exit_2(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read config" in _stderr_doc(capsys)["error"]["message"]


def test_config_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe")
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    doc = _stderr_doc(capsys)
    assert doc["error"]["code"] == 2
    assert doc["error"]["message"].startswith("cannot read config: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("blocked", ["out-flag", "out_dir-key", "result-json"])
def test_unwritable_output_exit_2(tmp_path, capsys, blocked):
    # a file where the output directory goes, or a directory where result.json goes
    out = tmp_path / "o"
    if blocked == "result-json":
        (out / "result.json").mkdir(parents=True)
    else:
        out.write_text("keep\n", encoding="utf-8")
    cfg = _load("solve_zero.json")
    argv = ["solve", "--out", str(out)]
    if blocked == "out_dir-key":
        cfg["out_dir"] = str(out)
        argv = ["solve"]
    rc = main(argv + ["--config", _dump(cfg, tmp_path / "cfg.json")])
    assert rc == 2
    doc = _stderr_doc(capsys)
    assert doc["error"]["code"] == 2
    assert doc["error"]["message"].startswith("cannot write output: ")
    if blocked != "result-json":
        assert out.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("blocked", ["file", "below-file", "read-only"])
def test_output_path_checked_before_the_run(tmp_path, capsys, monkeypatch, blocked):
    # an existing file, a directory to be made below one, a directory the
    # process may not write to: the ladder never runs and nothing is created
    path = tmp_path / "o"
    out = path / "sub" if blocked == "below-file" else path
    if blocked == "read-only":
        path.mkdir()
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: Path(p) != path and access(p, mode))
    else:
        path.write_text("keep\n", encoding="utf-8")
    ran = []
    monkeypatch.setattr(cli, "run_holder_experiment", lambda *args, **kwargs: ran.append(args))
    rc = main(["stability-holder", "--config", str(CONFIGS / "holder.json"), "--out", str(out)])
    assert rc == 2
    doc = _stderr_doc(capsys)
    assert doc["error"]["code"] == 2
    assert doc["error"]["message"] == "cannot write output: " + str(path) + (
        " is not writable" if blocked == "read-only" else " exists and is not a directory")
    assert ran == []
    if blocked == "read-only":
        assert list(path.iterdir()) == []
    else:
        assert path.read_text(encoding="utf-8") == "keep\n"


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = _load("convergence_space.json")
    cfg["extraneous"] = 1
    path = _dump(cfg, tmp_path / "cfg.json")
    rc = main(["convergence", "--config", path])
    assert rc == 2
    assert "unknown field: extraneous" in _stderr_doc(capsys)["error"]["details"]


def test_unknown_case_lists_catalog(tmp_path, capsys):
    cfg = _load("convergence_space.json")
    cfg["case"] = "nope"
    path = _dump(cfg, tmp_path / "cfg.json")
    rc = main(["convergence", "--config", path])
    assert rc == 2
    details = _stderr_doc(capsys)["error"]["details"]
    assert any(d.startswith("case: must be one of") and "drifted-well" in d
               for d in details)


def test_bad_threads_exit_2(tmp_path, capsys):
    rc = main(["coeff-check", "--config", str(CONFIGS / "coeff_check.json"),
               "--out", str(tmp_path / "o"), "--threads", "0"])
    assert rc == 2
    assert "--threads" in _stderr_doc(capsys)["error"]["message"]


def test_threads_flag_recorded(tmp_path):
    out = tmp_path / "o"
    rc = main(["coeff-check", "--config", str(CONFIGS / "coeff_check.json"),
               "--out", str(out), "--threads", "3"])
    assert rc == 0
    doc = json.loads((out / "result.json").read_text(encoding="utf-8"))
    assert doc["threads"] == 3


def test_nonconverging_solve_exit_3(tmp_path, capsys):
    cfg = _load("solve_nonlinear.json")
    cfg["grid"] = {"n_x": 32, "n_t": 32}
    cfg["data"] = {"m0": {"kind": "a", "scale": 16.0},
                   "h": {"kind": "a", "scale": 16.0}}
    cfg["iter"] = {"max_sweeps": 1, "tolerance": 1e-14}
    path = _dump(cfg, tmp_path / "cfg.json")
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 3
    doc = _stderr_doc(capsys)
    assert doc["error"]["code"] == 3
    assert "did not converge" in doc["error"]["message"]
    assert not (tmp_path / "o").exists()


def test_damping_floor_solve_exit_3(tmp_path, capsys):
    # p and d at 40x and 400x the stock values: backtracking hits the floor
    cfg = _load("solve_nonlinear.json")
    cfg["grid"] = {"n_x": 64, "n_t": 128}
    cfg["coefficients"] = {"p": {"kind": "bubble", "scale": 20.0},
                           "d": {"kind": "a", "scale": 160.0}}
    path = _dump(cfg, tmp_path / "cfg.json")
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 3
    doc = _stderr_doc(capsys)
    assert doc["error"]["code"] == 3
    assert "did not converge" in doc["error"]["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("datum, sweep", [("F", "value"), ("G", "density")])
def test_overflowing_sweep_exit_3_with_one_diagnostic(tmp_path, capsys, datum, sweep):
    # a datum at the top of the double range overflows the march; tier-1
    # turns a RuntimeWarning into an error, so a warning the sweep leaked
    # would end the command with a traceback instead of exit 3
    cfg = {"command": "solve", "problem": {"family": "wright_fischer", "T": 100.0},
           "grid": {"n_x": 16, "n_t": 8}, "system": "linear",
           "data": {datum: {"kind": "const", "value": 1e308}}}
    path = _dump(cfg, tmp_path / "cfg.json")
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": {
        "code": 3, "details": [], "message": f"{sweep} sweep produced non-finite entries"}}
    assert not (tmp_path / "o").exists()


def test_overflowing_bound_ratio_is_reported_as_infinity(tmp_path, capsys):
    # a is about 1e-274 at the first node, so d2 / a = 1e300 / a overflows
    cfg = {"command": "coeff-check",
           "problem": {"family": "power", "T": 1.0, "beta": 70.0, "delta": 2.0},
           "grid": {"n_x": 4096, "n_t": 16}, "system": "linear",
           "coefficients": {"d2": {"kind": "const", "value": 1e300}}, "samples": 16}
    out = tmp_path / "o"
    rc = main(["coeff-check", "--config", _dump(cfg, tmp_path / "cfg.json"), "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    rows = {row[0]: row[1] for row in _read_rows(out / "bounds.csv")[2:]}
    assert rows["d2_over_a"] == "Infinity"


def test_holder_base_solve_out_of_budget_exit_3(tmp_path, capsys):
    cfg = _load("holder.json")
    cfg["grid"] = {"n_x": 16, "n_t": 32}
    cfg["iter"] = {"max_sweeps": 1}
    path = _dump(cfg, tmp_path / "cfg.json")
    rc = main(["stability-holder", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert _stderr_doc(capsys)["error"]["message"] == "base solve did not converge"


def test_convergence_out_of_budget_exit_3_names_the_level(tmp_path, capsys):
    cfg = {"command": "convergence", "case": "coupled-mild", "mode": "space",
           "ladder": [[16, 8], [32, 16], [64, 32]], "iter": {"max_sweeps": 1}}
    path = _dump(cfg, tmp_path / "cfg.json")
    rc = main(["convergence", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert _stderr_doc(capsys)["error"]["message"] == (
        "case coupled-mild: coupled sweep did not converge on grid (n_x, n_t) = (16, 8)")


def test_log_ladder_with_one_usable_rung_fits_no_slope(tmp_path):
    cfg = _load("log.json")
    cfg["grid"] = {"n_x": 16, "n_t": 32}
    cfg["eps_ladder"] = [1.0, 0.01]
    out = tmp_path / "o"
    rc = main(["stability-log", "--config", _dump(cfg, tmp_path / "cfg.json"), "--out", str(out)])
    assert rc == 0
    res = json.loads((out / "result.json").read_text(encoding="utf-8"))["results"]
    assert res["rungs_accepted"]["value"] == 1
    assert res["slope"]["value"] == "NaN"
    assert "only 1 usable rungs; slope fit needs 2" in res["warnings"]


def test_holder_t0_at_horizon_rejected(tmp_path, capsys):
    cfg = _load("holder.json")
    cfg["t0"] = 1.0
    path = _dump(cfg, tmp_path / "cfg.json")
    rc = main(["stability-holder", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    details = _stderr_doc(capsys)["error"]["details"]
    assert details == ["t0: must be strictly less than the horizon T=1"]


def test_log_grid_too_coarse_rejected_before_solving(tmp_path, capsys):
    cfg = _load("log.json")
    cfg["grid"]["n_t"] = 3
    path = _dump(cfg, tmp_path / "cfg.json")
    rc = main(["stability-log", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    doc = _stderr_doc(capsys)
    assert doc["error"]["code"] == 2
    assert any(d.startswith("grid.n_t:") for d in doc["error"]["details"])
    assert not (tmp_path / "o" / "result.json").exists()


def test_weight_overflow_exit_4_still_reports(tmp_path):
    cfg = {
        "command": "verify-carleman",
        "case": "drifted-well",
        "grid": {"n_x": 32, "n_t": 32},
        "s_values": [300.0, 400.0],
        "lam_values": [2.0],
        "seed": 0,
    }
    path = _dump(cfg, tmp_path / "cfg.json")
    out = tmp_path / "o"
    rc = main(["verify-carleman", "--config", path, "--out", str(out)])
    assert rc == 4
    doc = json.loads((out / "result.json").read_text(encoding="utf-8"))
    assert doc["exit_code"] == 4
    res = doc["results"]
    assert res["overflow_cells"]["value"] == 2
    assert res["total_cells"]["value"] == 2
    # non-finite statistics survive serialization as tagged strings
    assert res["top_half_max"]["value"] == "NaN"
    rows = _read_rows(out / "ratios.csv")
    assert any("NaN" in row for row in rows[2:])


def test_convergence_command_reports_order(tmp_path):
    out = tmp_path / "o"
    rc = main(["convergence", "--config", str(CONFIGS / "convergence_space.json"),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "result.json").read_text(encoding="utf-8"))
    order = doc["results"]["observed_order"]["value"]
    assert 1.7 <= order <= 2.3
    rows = _read_rows(out / "errors.csv")
    assert rows[0] == ["n_x", "n_t", "h", "dt", "max_error", "sweeps"]
    assert rows[1][5] == "count"
    assert len(rows) >= 5
    errs = [float(r[4]) for r in rows[2:]]
    assert errs == sorted(errs, reverse=True)
    assert [r[5] for r in rows[2:]] == ["0"] * len(errs)  # a scalar case: no Picard


def test_carleman_sweep_csv(tmp_path):
    cfg = _load("carleman_sweep.json")
    cfg["grid"] = {"n_x": 48, "n_t": 48}
    path = _dump(cfg, tmp_path / "cfg.json")
    out = tmp_path / "o"
    rc = main(["verify-carleman", "--config", path, "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "result.json").read_text(encoding="utf-8"))
    res = doc["results"]
    assert res["overflow_cells"]["value"] == 0
    assert _is_qty(res["top_half_max"])
    rows = _read_rows(out / "ratios.csv")
    # one row per (s, lam) combination
    assert len(rows) - 2 == len(cfg["s_values"]) * len(cfg["lam_values"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.json"])


_KEY_TABLE_HEADER = "| command | required keys | optional keys |"


def _readme_key_table(section):
    """The rows of the table under the key table's header row, in order."""
    lines = section.splitlines()
    start = lines.index(_KEY_TABLE_HEADER) + 2  # skip the header and its rule
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = line.strip().strip("|").split("|")
        name, required, optional = (re.findall(r"`([^`]+)`", c) for c in cells)
        table[name[0]] = (tuple(required), tuple(optional))
    return list(table.items())


def test_readme_key_table_matches_the_command_table():
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    want = [(name, (row.required, row.optional)) for name, row in _COMMANDS.items()]
    assert _readme_key_table(section) == want
    # another 3-column table in the section, before or after, is not read
    other = "\n".join([
        "",
        "| kind | required | optional |",
        "| --- | --- | --- |",
        "| `sin` | `scale` | `omega` |",
        "",
    ])
    assert _readme_key_table(other + section) == want
    assert _readme_key_table(section + other) == want


@pytest.mark.parametrize("lam_values, overflow, code", [
    ([1.0, 800.0], 4, 0),  # exactly half the cells overflow: exit 0
    ([800.0, 1e6], 8, 4),  # every cell overflows: exit 4
])
def test_unrepresentable_lam_counts_overflow_cells(tmp_path, capsys, lam_values, overflow, code):
    cfg = _load("carleman_sweep.json")
    cfg["grid"] = {"n_x": 32, "n_t": 32}
    cfg["lam_values"] = lam_values
    path = _dump(cfg, tmp_path / "cfg.json")
    out = tmp_path / "o"
    rc = main(["verify-carleman", "--config", path, "--out", str(out)])
    assert rc == code
    assert capsys.readouterr().err == ""
    res = json.loads((out / "result.json").read_text(encoding="utf-8"))["results"]
    assert res["overflow_cells"]["value"] == overflow
    assert res["total_cells"]["value"] == 8
    for s, lam, ratio, flag in _read_rows(out / "ratios.csv")[2:]:
        big = float(lam) >= 800.0
        assert flag == ("1" if big else "0")
        assert (ratio == "NaN") == big


# ratios.csv tables frozen from an earlier version, whose weight tables and
# slice integrals round in another order; each config sits beside its table
FROZEN_RATIOS = Path(__file__).resolve().parent / "data" / "parent_ratios"


@pytest.mark.parametrize("case", ["drifted-well", "wf-pulse"])
def test_carleman_ratios_match_frozen_tables(tmp_path, case):
    out = tmp_path / "o"
    rc = main(["verify-carleman", "--config", str(FROZEN_RATIOS / f"{case}.json"),
               "--out", str(out)])
    assert rc == 0
    got = _read_rows(out / "ratios.csv")
    want = _read_rows(FROZEN_RATIOS / f"{case}.csv")
    assert len(got) == len(want) == 2 + 16 * 8 and got[:2] == want[:2]
    overflow = 0
    for (s, lam, ratio, flag), (s_w, lam_w, ratio_w, flag_w) in zip(got[2:], want[2:]):
        assert (s, lam, flag) == (s_w, lam_w, flag_w)
        if flag_w == "1":
            assert ratio == ratio_w == "NaN"
            overflow += 1
        else:
            r, r_w = float(ratio), float(ratio_w)
            assert math.isfinite(r_w) and abs(r - r_w) <= 1e-12 * abs(r_w), (s, lam)
    assert 0 < overflow < 16 * 8  # the tables straddle 2 s e^(lam T) = 700


def test_csv_rows_match_the_csv_module(tmp_path):
    rows = [
        [1, 0.1, np.float64(2.5e-300), math.nan, np.float64("nan")],
        [-3, math.inf, -math.inf, np.float64("-inf"), True],
        ["plain", 'with "quote"', "a,b", "line\nbreak", 1e22],
    ]
    path = tmp_path / "t.csv"
    _write_csv(path, ["a", "b", "c", "d", "e"], ["1", "1", "1", "1", "1"], rows)
    spelled = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

    def cell(c):
        if isinstance(c, str) or type(c) is int:
            return c
        return spelled.get(repr(float(c)), repr(float(c)))

    with open(tmp_path / "want.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["a", "b", "c", "d", "e"])
        w.writerow(["1", "1", "1", "1", "1"])
        w.writerows([[cell(c) for c in row] for row in rows])
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


def _full_size_ratio_grid():
    """A seeded 64 x 40 sweep, the benchmark's size: ratios over many decades
    with NaN, +-inf, +-0, subnormals, +-1e300 and an all-NaN row mixed in."""
    rng = np.random.default_rng(12)
    s_values = tuple(np.sort(np.exp(rng.uniform(math.log(0.5), math.log(300.0), 64))).tolist())
    lam_values = tuple(np.sort(rng.uniform(0.2, 3.0, 40)).tolist())
    ratios = rng.standard_normal((64, 40)) * 10.0 ** rng.integers(-300, 300, (64, 40))
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]
    for v in specials:
        ratios[tuple(rng.integers(0, [[64], [40]], (2, 20)))] = v
    ratios[17] = math.nan
    overflow = int(np.count_nonzero(np.isnan(ratios)))
    return SweepResult(s_values, lam_values, ratios, overflow, 2560, math.nan, math.nan)


def test_ratio_rows_match_per_cell_formatting(tmp_path):
    s_values = (5e-324, 0.1, 3.0, 1e300)
    lam_values = (0.25, 2.0, 1e-7)
    ratios = np.array([
        [math.nan, math.inf, -math.inf],
        [0.0, 5e-324, 1e300],
        [-0.0, 1.0 / 3.0, math.nan],
        [2.5e-300, 7.0, -1e300],
    ])
    small = SweepResult(s_values, lam_values, ratios, 3, 12, math.nan, math.nan)
    names, units = ["s", "lam", "ratio", "overflow"], ["1", "1", "ratio", "flag"]
    for sweep in (small, _full_size_ratio_grid()):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        _write_csv(got, names, units, _ratio_rows(sweep))
        per_cell = [
            [s, lam, r, 1 if math.isnan(r) else 0]
            for s, row in zip(sweep.s_values, sweep.ratios.tolist())
            for lam, r in zip(sweep.lam_values, row)
        ]
        _write_csv(want, names, units, per_cell)
        assert got.read_bytes() == want.read_bytes()
        assert len(_read_rows(got)) == 2 + sweep.ratios.size
        for cell in (b"NaN,1", b"-Infinity,0", b",Infinity,0", b",0.0,0", b",-0.0,0",
                     b",5e-324,0"):
            assert cell in got.read_bytes()


def test_readme_profile_table_matches_the_profile_kinds():
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config profiles\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = line.strip().strip("|").split("|")
        if len(cells) == 3 and re.fullmatch(r"`[a-z_]+`", cells[0].strip()):
            table[cells[0].strip().strip("`")] = tuple(re.findall(r"`([^`]+)`", cells[1]))
    assert table == {kind: keys for kind, (keys, _) in _PROFILES.items()}


def test_parser_reuse_keeps_no_state_between_calls(tmp_path):
    cfg = str(CONFIGS / "solve_zero.json")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "a"), "--threads", "2"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--out", str(tmp_path / "b"), "--threads", "3"])  # no --config
    assert exc.value.code == 2
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    docs = [json.loads((tmp_path / d / "result.json").read_text(encoding="utf-8"))
            for d in ("a", "c")]
    assert [doc["threads"] for doc in docs] == [2, 1]
    assert not (tmp_path / "b").exists()


def test_cold_solve_never_imports_scipy_linalg(tmp_path):
    """A fresh interpreter runs a solve without the scipy.linalg package (or
    the numpy.f2py and numpy.testing it pulls in): only its LAPACK
    extension is loaded."""
    import os
    import subprocess
    import sys

    root = CONFIGS.parent
    script = (
        "import json, sys\n"
        "import degenmfg.cli\n"
        "code = degenmfg.cli.main(sys.argv[1:])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy')"
        " or m in ('numpy.f2py', 'numpy.testing'))))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, "solve", "--config", str(CONFIGS / "solve_zero.json"),
         "--out", str(tmp_path / "run")],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # CPython registers the directly loaded extension under its canonical
    # name, and nothing else of scipy: no parent packages, no numpy.f2py or
    # numpy.testing
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == ["scipy.linalg._flapack"]
    assert (tmp_path / "run" / "result.json").stat().st_size > 0


def _has_mallopt() -> bool:
    import ctypes

    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_freed_arrays_are_reused_without_page_faults(tmp_path):
    """After one command, freeing and reallocating trajectory-sized arrays
    reuses resident heap: glibc's default thresholds would mmap each 320 KB
    array and fault its pages in again on every round (about 6,400 faults
    over 50 rounds).  The first round may still grow the heap, so it runs
    before the count starts."""
    import os
    import subprocess
    import sys

    root = CONFIGS.parent
    script = (
        "import resource, sys\n"
        "import numpy as np\n"
        "import degenmfg.cli\n"
        "assert degenmfg.cli.main(sys.argv[1:]) == 0\n"
        "def churn():\n"
        "    a, b, c = np.ones((256, 160)), np.ones((256, 160)), np.ones((256, 160))\n"
        "churn()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(50):\n"
        "    churn()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, "solve", "--config", str(CONFIGS / "solve_zero.json"),
         "--out", str(tmp_path / "run")],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip().splitlines()[-1]) <= 10


@pytest.mark.parametrize("libc", ["raises", "no_mallopt"])
def test_solve_without_mallopt_gives_the_same_result(tmp_path, monkeypatch, libc):
    import ctypes

    from degenmfg import cli

    opened = []

    def cdll(name):
        opened.append(name)
        if libc == "raises":
            raise OSError("no C library")
        return object()

    cfg = str(CONFIGS / "solve_zero.json")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "ref")]) == 0
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    cli._keep_heap_resident.cache_clear()
    try:
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    finally:
        cli._keep_heap_resident.cache_clear()
    assert opened == [None]
    docs = [json.loads((tmp_path / d / "result.json").read_text(encoding="utf-8"))
            for d in ("ref", "run")]
    for doc in docs:
        doc.pop("timestamp")
    assert docs[0] == docs[1]


def test_coupled_convergence_writes_fewer_sweeps_than_cold_levels(tmp_path):
    from degenmfg.domain import SpaceTimeGrid
    from degenmfg.manufactured import _Level, _solve_case, make_case
    from degenmfg.mfg import IterConfig

    ladder = [[32, 8], [64, 32], [128, 128]]
    cfg = {"command": "convergence", "case": "coupled-oil", "mode": "space", "ladder": ladder}
    out = tmp_path / "o"
    assert main(["convergence", "--config", _dump(cfg, tmp_path / "cfg.json"),
                 "--out", str(out)]) == 0
    rows = _read_rows(out / "errors.csv")
    assert rows[0][5] == "sweeps" and rows[1][5] == "count"
    sweeps = [int(r[5]) for r in rows[2:]]
    case = make_case("coupled-oil")
    cold = [_solve_case(_Level(case, SpaceTimeGrid(n_x, n_t, case.T)), IterConfig())[4]
            for n_x, n_t in ladder]
    assert sweeps[0] == cold[0]
    assert all(w < c for w, c in zip(sweeps[1:], cold[1:]))


# values at each bound of the diffusion families and of the Picard controls,
# and whether they are admissible: the library and the CLI read one table each
_FAMILY_EDGES = [
    ({"family": "power", "beta": 2.0, "delta": 2.0}, True),
    ({"family": "power", "beta": 1.999, "delta": 2.0}, False),
    ({"family": "quadratic_oil", "gamma": 1e-3}, True),
    ({"family": "quadratic_oil", "gamma": 0.0}, False),
    ({"family": "quadratic_oil", "gamma": True}, False),
]
_ITER_EDGES = [
    ({"damping": 1.0}, True),
    ({"damping": math.nextafter(1.0, 2.0)}, False),
    ({"tolerance": math.inf}, False),
    ({"tolerance": math.nan}, False),
    ({"divergence_factor": math.inf}, False),
    ({"divergence_factor": math.nan}, False),
    ({"max_sweeps": True}, False),
    ({"damping": True}, False),
]


def _edge_ids(edges):
    return [",".join(f"{k}={v}" for k, v in params.items()) for params, _ in edges]


def _library_admits(build, **kw) -> bool:
    try:
        build(**kw)
    except ValueError:
        return False
    return True


def _cli_code(tmp_path, command, cfg) -> int:
    # non-finite values reach the CLI as the NaN and Infinity tokens of json
    return main([command, "--config", _dump(cfg, tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("params, ok", _FAMILY_EDGES, ids=_edge_ids(_FAMILY_EDGES))
def test_library_and_cli_agree_at_each_family_bound(tmp_path, params, ok):
    from degenmfg.domain import DegenerateCoefficient

    assert _library_admits(DegenerateCoefficient, **params) is ok
    cfg = _load("coeff_check.json")
    cfg["problem"] = {"T": 1.0, **params}
    cfg["grid"] = {"n_x": 16, "n_t": 8}
    assert _cli_code(tmp_path, "coeff-check", cfg) == (0 if ok else 2)


@pytest.mark.parametrize("params, ok", _ITER_EDGES, ids=_edge_ids(_ITER_EDGES))
def test_library_and_cli_agree_at_each_picard_bound(tmp_path, capsys, params, ok):
    from degenmfg.mfg import IterConfig

    assert _library_admits(IterConfig, **params) is ok
    cfg = _load("solve_zero.json")
    cfg["grid"] = {"n_x": 16, "n_t": 8}
    cfg["iter"] = params
    assert _cli_code(tmp_path, "solve", cfg) == (0 if ok else 2)
    if not ok:
        [detail] = _stderr_doc(capsys)["error"]["details"]
        assert detail.startswith(f"iter.{next(iter(params))}: must be")


# ladder inputs at each bound of the stability rules (amplitudes, and the
# log ladder's n_t) and whether they are admissible
_BAD_AMPLITUDES = (math.nan, math.inf, -0.01, True)
_LADDER_EDGES = [
    ("stability-holder", {"eps_ladder": [0.1, 0.01, 0.001, 1e-4, 0.0]}, True),
    *[("stability-holder", {"eps_ladder": [0.1, 0.01, 0.001, 1e-4, e]}, False)
      for e in _BAD_AMPLITUDES],
    ("stability-log", {"eps_ladder": [0.01, 0.0]}, True),
    *[("stability-log", {"eps_ladder": [0.01, e]}, False) for e in _BAD_AMPLITUDES],
    ("stability-log", {"grid": {"n_x": 16, "n_t": 3}}, False),
    ("stability-log", {"grid": {"n_x": 16, "n_t": 4}}, True),
]


class _Solved(Exception):
    """Raised by the solve spy: the experiment passed its input checks."""


@pytest.mark.parametrize("command, params, ok", _LADDER_EDGES,
                         ids=[f"{c}:{_edge_ids([(p, ok)])[0]}" for c, p, ok in _LADDER_EDGES])
def test_library_and_cli_agree_at_each_ladder_bound(tmp_path, monkeypatch, command, params, ok):
    # the library refuses before its first solve exactly what the CLI
    # refuses with exit 2
    from degenmfg import stability
    from degenmfg.domain import SpaceTimeGrid

    cfg = {"command": command, "grid": {"n_x": 16, "n_t": 8}, **params}
    kw = {"eps_ladder": cfg["eps_ladder"]} if "eps_ladder" in cfg else {}
    holder = command == "stability-holder"
    if holder:
        cfg["t0"] = kw["t0"] = 0.5
    run = stability.run_holder_experiment if holder else stability.run_log_experiment
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        raise _Solved

    with monkeypatch.context() as m:
        m.setattr(stability, "solve_nonlinear_mfg", spy)
        with pytest.raises(_Solved if ok else ValueError):
            run(stability.default_backward_spec(), grid=SpaceTimeGrid(**cfg["grid"], T=1.0), **kw)
    assert calls == ([1] if ok else [])
    assert _cli_code(tmp_path, command, cfg) == (0 if ok else 2)


_SWEEP_EDGES = [
    ({"s_values": [2.0, 1e-3], "lam_values": [1.0, 1e-3]}, True),
    ({"s_values": [2.0, 0.0]}, False),
    ({"s_values": [2.0, math.inf]}, False),
    ({"s_values": [2.0, True]}, False),
    ({"lam_values": [1.0, math.inf]}, False),
    ({"lam_values": [1.0, True]}, False),
]


@pytest.mark.parametrize("params, ok", _SWEEP_EDGES, ids=_edge_ids(_SWEEP_EDGES))
def test_library_and_cli_agree_at_each_sweep_bound(tmp_path, params, ok):
    from degenmfg.carleman import CarlemanBundle, sweep_parameters
    from degenmfg.domain import SpaceTimeGrid
    from degenmfg.manufactured import IterConfig, _Level, _solve_case, make_case

    cfg = {"command": "verify-carleman", "case": "coupled-mild",
           "grid": {"n_x": 16, "n_t": 8}, "s_values": [2.0], "lam_values": [1.0], **params}
    case = make_case(cfg["case"])
    g = SpaceTimeGrid(16, 8, case.T)
    u, m, F, G, _ = _solve_case(_Level(case, g), IterConfig())
    bundle = CarlemanBundle(case.coeff, g, u=u, m=m, F=F, G=G)
    assert _library_admits(sweep_parameters, bundle=bundle, s_values=cfg["s_values"],
                           lam_values=cfg["lam_values"]) is ok
    assert _cli_code(tmp_path, "verify-carleman", cfg) == (0 if ok else 2)


@pytest.mark.parametrize("command, run, extra, omitted", [
    ("stability-holder", "run_holder_experiment", {"t0": 0.5}, ("eps_ladder",)),
    ("stability-log", "run_log_experiment", {}, ("alpha", "eps_ladder")),
], ids=["holder", "log"])
def test_stability_defaults_are_the_library_defaults(tmp_path, command, run, extra, omitted):
    # a config that leaves alpha or eps_ladder out runs the experiment's own
    # defaults: the same results as a config that spells them out
    import inspect

    from degenmfg import stability

    params = inspect.signature(getattr(stability, run)).parameters
    base = {"command": command, "grid": {"n_x": 16, "n_t": 8}, **extra}
    spelled = {**base, **{k: params[k].default for k in omitted}}
    results = []
    for name, cfg in (("given", base), ("spelled", spelled)):
        out = tmp_path / name
        assert main([command, "--config", _dump(cfg, tmp_path / f"{name}.json"),
                     "--out", str(out)]) == 0
        results.append(json.loads((out / "result.json").read_text(encoding="utf-8"))["results"])
    assert results[0] == results[1]
