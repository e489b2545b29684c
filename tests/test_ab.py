"""The verdict rule of tools/ab.py on synthetic paired samples, and its per-side report."""

import importlib.util
import json
from collections import defaultdict
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_a_clear_gain_on_a_lower_is_better_metric():
    head = [b - 0.10 for b in BASE]
    s = ab.verdict(BASE, head, "lower", 0.25)
    assert s["verdict"] == "gain" and s["head_wins"] == 10 and s["pairs"] == 10
    assert s["base"]["median"] == pytest.approx(1.0)
    assert s["change_frac"] == pytest.approx(-0.10)


def test_a_gain_needs_nine_wins_in_ten():
    head = [b - 0.10 for b in BASE]
    head[0] = head[1] = 2.0  # two lost pairs
    assert ab.verdict(BASE, head, "lower", 0.25)["verdict"] == "unchanged"
    head[1] = BASE[1] - 0.10  # one lost pair
    assert ab.verdict(BASE, head, "lower", 0.25)["verdict"] == "gain"


def test_a_gain_needs_a_median_gap_beyond_the_base_iqr():
    # every pair won, by less than the base quartile distance (0.01)
    head = [b - 0.001 for b in BASE]
    s = ab.verdict(BASE, head, "lower", 0.25)
    assert s["head_wins"] == 10 and s["verdict"] == "unchanged"


def test_ties_count_for_neither_side():
    s = ab.verdict(BASE, list(BASE), "lower", 0.25)
    assert s["head_wins"] == 0 and s["verdict"] == "unchanged"


def test_higher_is_better_reverses_the_comparison():
    head = [b + 0.10 for b in BASE]
    assert ab.verdict(BASE, head, "higher", 0.25)["verdict"] == "gain"
    assert ab.verdict(BASE, head, "lower", 0.05)["verdict"] == "regression"


def test_a_regression_is_a_median_worse_by_more_than_the_bound():
    head = [b * 1.3 for b in BASE]
    assert ab.verdict(BASE, head, "lower", 0.25)["verdict"] == "regression"
    assert ab.verdict(BASE, head, "lower", 0.35)["verdict"] == "unchanged"
    ok = [1.0] * 10
    assert ab.verdict(ok, [0.99] * 10, "higher", 0.005)["verdict"] == "regression"


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 1.5, 0.6, 1.4, 0.7, 1.0, 1.3, 0.8, 1.1, 0.9]
    head = [w * 0.97 if i % 2 else w * 1.02 for i, w in enumerate(wide)]
    assert ab.verdict(wide, head, "lower", 0.1)["verdict"] == "unresolved"
    # unless every head run beats every base run: a gap below the base
    # quartile distance (0.425) is then no gain, but no unresolved call either
    assert ab.verdict(wide, [0.59] * 10, "lower", 0.1)["verdict"] == "unchanged"


def test_one_pair_is_its_own_quartiles_and_shows_no_gain():
    s = ab.verdict([2.0], [1.0], "lower", 0.25)
    assert s["base"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert s["head_wins"] == 1 and s["verdict"] == "unchanged"


def test_a_gain_needs_ten_pairs():
    head = [b - 0.10 for b in BASE]
    assert ab.verdict(BASE[:9], head[:9], "lower", 0.25)["verdict"] == "unchanged"


def test_unpaired_samples_are_rejected():
    with pytest.raises(ValueError):
        ab.verdict([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        ab.verdict([], [], "lower", 0.25)


def test_each_side_line_prints_its_source_bytes(tmp_path, monkeypatch, capsys):
    # peak_rss_mb moves with the source a benchmark process compiles, so
    # each side's total src/degenmfg/*.py bytes go on its line
    for side, sizes in (("base", (10, 5)), ("head", (7,))):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("", encoding="utf-8")
        pkg = tmp_path / side / "src" / "degenmfg"
        pkg.mkdir(parents=True)
        for i, n in enumerate(sizes):
            (pkg / f"m{i}.py").write_bytes(b"#" * n)
        (pkg / "notes.txt").write_bytes(b"#" * 100)  # not Python source
    assert ab.source_bytes(tmp_path / "base") == 15
    every_metric = defaultdict(lambda: {"value": 1.0})
    monkeypatch.setattr(ab, "run_once", lambda tree, args: {"correct": True,
                                                            "metrics": every_metric})
    record = tmp_path / "ab.json"
    argv = [str(tmp_path / "base"), str(tmp_path / "head"), "--workload", "stability",
            "--pairs", "1", "--json", str(record)]
    assert ab.main(argv) == 0
    out = capsys.readouterr().out
    assert f"  base: {(tmp_path / 'base').resolve()}: src 15 bytes, correct 1/1" in out
    assert f"  head: {(tmp_path / 'head').resolve()}: src 7 bytes, correct 1/1" in out
    assert json.loads(record.read_text(encoding="utf-8"))["source_bytes"] == {"base": 15, "head": 7}


def _trees(tmp_path):
    """Two minimal trees, base and head, that ab.main accepts."""
    for side in ab.SIDES:
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("", encoding="utf-8")
        (tmp_path / side / "src" / "degenmfg").mkdir(parents=True)
    return [str(tmp_path / side) for side in ab.SIDES]


@pytest.mark.parametrize("side", ab.SIDES)
@pytest.mark.parametrize("where", ["src/degenmfg/__pycache__", "bench/__pycache__",
                                   "bench/sub/__pycache__"])
def test_a_tree_with_cached_bytecode_is_refused(tmp_path, monkeypatch, capsys, side, where):
    # cached bytecode skips compiling from source: such a side reads faster
    # on setup_s and lower on peak_rss_mb than one that compiles
    trees = _trees(tmp_path)
    cache = tmp_path / side / where
    cache.mkdir(parents=True)
    (cache / "run.cpython-311.pyc").write_bytes(b"")

    def no_run(tree, args):
        raise AssertionError("a refused tree must not run")

    monkeypatch.setattr(ab, "run_once", no_run)
    with pytest.raises(SystemExit) as exc:
        ab.main(trees + ["--workload", "carleman", "--pairs", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{side} tree holds cached bytecode in {cache.resolve()}" in err
    assert ab.bytecode_caches(tmp_path / side) == [cache.resolve()]


def test_caches_elsewhere_in_a_tree_are_not_refused(tmp_path):
    _trees(tmp_path)
    (tmp_path / "base" / "tests" / "__pycache__").mkdir(parents=True)
    (tmp_path / "base" / "tools" / "__pycache__").mkdir(parents=True)
    assert ab.bytecode_caches(tmp_path / "base") == []


def test_traced_pairs_give_a_verdict_per_layer_metric(tmp_path, monkeypatch, capsys):
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [m["name"] for m in spec["per_layer"]]
    seen, calls = [], iter(range(100))

    def traced_run(tree, args):
        # the head's carleman.self_s is 20% lower in every pair, its
        # solvers.sweep_s 40% higher: a gain, and no regression verdict
        # because per-layer metrics have no bound
        seen.append(args.trace)
        k, head = next(calls), tree.name == "head"
        values = {name: 1.0 + 0.001 * (k % 3) for name in per_layer}
        values["carleman.self_s"] *= 0.8 if head else 1.0
        values["solvers.sweep_s"] *= 1.4 if head else 1.0
        return {"correct": True, "metrics": {n: {"value": v} for n, v in values.items()}}

    monkeypatch.setattr(ab, "run_once", traced_run)
    record = tmp_path / "ab.json"
    argv = _trees(tmp_path) + ["--workload", "carleman", "--pairs", "10", "--trace", "1",
                               "--json", str(record)]
    assert ab.main(argv) == 0
    assert seen == [1] * 20
    out = capsys.readouterr().out
    assert "carleman seed 1, 10 traced pairs of" in out
    doc = json.loads(record.read_text(encoding="utf-8"))
    assert doc["trace"] == 1 and list(doc["metrics"]) == per_layer
    verdicts = {name: s["verdict"] for name, s in doc["metrics"].items()}
    assert verdicts.pop("carleman.self_s") == "gain"
    assert set(verdicts.values()) == {"unchanged"}
    assert doc["metrics"]["carleman.self_s"]["head_wins"] == 10
    assert doc["metrics"]["solvers.sweep_s"]["change_frac"] == pytest.approx(0.4, rel=1e-2)
    line = next(x for x in out.splitlines() if x.startswith("  carleman.self_s: base "))
    assert line.endswith("head wins 10/10  gain")
