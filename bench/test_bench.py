"""Tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

import degenmfg  # noqa: E402
from degenmfg import cli, solvers  # noqa: E402,F401
from degenmfg.domain import SpaceTimeGrid  # noqa: E402
from degenmfg.manufactured import make_case  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_of_synthetic_tree():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("mfg.solve", 1.0, 3.0, 0),
        _span("mfg.solve", 2.0, 5.0, 0),  # overlaps its sibling: union is [1, 5]
        _span("domain.norm", 6.0, 7.0, 0),
        _span("solvers.sweep", 1.5, 2.0, 1),
        _span("solvers.sweep", 2.5, 3.5, 1),  # sticks out of its parent: clipped at 3
        _span("domain.norm", 9.5, 11.0, 0),  # clipped at 10
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 4.0 - 1.0 - 0.5, 1.0, 3.0, 1.0, 0.5, 1.0, 1.5])


def _namespaces():
    return [m for n, m in sys.modules.items() if n == "degenmfg" or n.startswith("degenmfg.")]


def _wrapped_originals():
    out = []
    for layer in spans.LAYERS:
        mod = sys.modules[f"degenmfg.{layer}"]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append(fn)
    return out


def _wrappers_left():
    left = []
    for ns in _namespaces():
        left += [f"{ns.__name__}.{k}" for k, v in vars(ns).items() if hasattr(v, "__bench_original__")]
        for k, v in vars(ns).items():
            if inspect.isclass(v):
                left += [f"{k}.{a}" for a, f in vars(v).items() if hasattr(f, "__bench_original__")]
    return left


def test_wrappers_cover_every_caller_and_are_removed():
    originals = _wrapped_originals()
    solve_hjb = solvers.solve_hjb_linear
    post_init = degenmfg.SpaceTimeField.__post_init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        for ns in _namespaces():
            stale = [k for k, v in vars(ns).items() if any(v is fn for fn in originals)]
            assert not stale, (ns.__name__, stale)
        callers = (degenmfg.solvers, degenmfg.mfg, degenmfg.manufactured, degenmfg)
        wrappers = {id(m.solve_hjb_linear) for m in callers}
        assert len(wrappers) == 1 and degenmfg.mfg.solve_hjb_linear.__bench_original__ is solve_hjb
        assert degenmfg.cli.convergence_study is degenmfg.manufactured.convergence_study
        assert degenmfg.stability.weighted_norm.__bench_original__ is not None
        assert degenmfg.SpaceTimeField.__post_init__.__bench_original__ is post_init
        grid = SpaceTimeGrid(16, 8, 1.0)
        degenmfg.manufactured.solve_case(make_case("coupled-mild"), grid)
        names = {s[0] for s in tracer.spans}
        assert {"manufactured.solve_case", "mfg.solve_linearized_mfg", "solvers.solve_hjb_linear",
                "solvers.hjb_scheme_residual", "domain.SpaceTimeField.__post_init__"} <= names
    finally:
        tracer.uninstall()
    assert _wrappers_left() == []
    assert solvers.solve_hjb_linear is solve_hjb and degenmfg.mfg.solve_hjb_linear is solve_hjb
    assert degenmfg.SpaceTimeField.__post_init__ is post_init
    n = len(tracer.spans)
    degenmfg.manufactured.solve_case(make_case("coupled-mild"), SpaceTimeGrid(16, 8, 1.0))
    assert len(tracer.spans) == n


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_configs_depend_only_on_seed_and_pass(workload):
    assert wl.pass_commands(workload, 7, 3) == wl.pass_commands(workload, 7, 3)
    assert wl.pass_commands(workload, 7, 3) != wl.pass_commands(workload, 7, 4)
    same_work = [sorted(map(json.dumps, wl.pass_commands(workload, 7, k))) for k in (3, 4)]
    assert same_work[0] == same_work[1]
    if workload != "convergence":  # whose commands are the same for every seed
        assert wl.run_commands(workload, 7) != wl.run_commands(workload, 8)


def test_computed_tridiag_count_matches_direct_count(monkeypatch):
    calls = []
    step = solvers._implicit_step

    def counting_step(*args):
        calls.append(args[3].shape[0])
        return step(*args)

    monkeypatch.setattr(solvers, "_implicit_step", counting_step)
    tracer = spans.Tracer()
    tracer.install()
    try:
        degenmfg.manufactured.solve_case(make_case("quad-hamiltonian"), SpaceTimeGrid(24, 20, 1.0))
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.spans, 1, 0)
    assert m["mfg.solves"] == 1 and m["mfg.sweeps"] > 1
    assert m["solvers.tridiag_solves"] == len(calls) == 2 * 20 * m["mfg.sweeps"]
    assert m["solvers.tridiag_n_x"] == 24
