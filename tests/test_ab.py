"""The verdict rule of tools/ab.py on synthetic paired samples."""

import importlib.util
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
