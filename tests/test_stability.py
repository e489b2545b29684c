"""Backward-recovery exponents, perturbation ladders, and envelope fits."""

import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from mpmath import exp, expm1, log, mp, mpf

from degenmfg.domain import SpaceTimeGrid
from degenmfg.stability import (
    DEFAULT_EXPERIMENT_SHAPE,
    DEFAULT_HOLDER_LADDER,
    DEFAULT_LOG_LADDER,
    _end_norms,
    _pair_diff,
    _predict,
    build_ladder_pairs,
    default_backward_spec,
    generate_pair,
    optimal_s,
    run_holder_experiment,
    run_log_experiment,
    theoretical_theta,
)

mp.dps = 40

GRID = SpaceTimeGrid(64, 128, 1.0)


def _theta_oracle(t0, lam, T):
    al = expm1(mpf(lam) * mpf(t0))
    return float(al / (3 * exp(mpf(lam) * mpf(T)) + al))


def _data_norm_D(pair, coeff, order):
    """The log-estimate data discrepancy D: final-time norms of the pair
    difference's time derivatives up to ``order``, summed."""
    nu, nm = _end_norms(*_pair_diff(pair), coeff, pair[0].u.grid, order, -1)
    return sum(nu) + sum(nm)


def _s_oracle(M, D0, lam, t0, T):
    if M <= D0:
        return 0.0
    al = expm1(mpf(lam) * mpf(t0))
    return float(2 * log(mpf(M) / mpf(D0)) / (3 * exp(mpf(lam) * mpf(T)) + al))


def test_interior_exponent_matches_oracle_lattice():
    pts = 0
    for lam in (0.5, 1.0, 2.0, 3.0):
        for frac in (0.1, 0.25, 0.5, 0.75, 0.9):
            t0, T = frac, 1.0
            assert theoretical_theta(t0, T, lam) == pytest.approx(
                _theta_oracle(t0, lam, T), rel=1e-12
            )
            pts += 1
    assert pts == 20


def test_exponent_boundary_values():
    assert theoretical_theta(0.0, 1.0, 1.0) == 0.0
    assert theoretical_theta(0.5, 1.0, 2.0) < 0.25


def test_optimal_s_matches_oracle():
    cases = [
        (10.0, 0.1, 0.5, 1.0, 2.0),
        (5.0, 1.0, 0.25, 1.0, 1.0),
        (2.0, 1.5, 0.75, 2.0, 0.5),
    ]
    for M, D0, t0, T, lam in cases:
        assert optimal_s(M, D0, t0, T, lam) == pytest.approx(
            _s_oracle(M, D0, lam, t0, T), rel=1e-12
        )
    assert optimal_s(10.0, 0.1, 0.5, 1.0, 2.0) == pytest.approx(
        0.3856046389613266, rel=1e-12
    )


def test_optimal_s_zero_when_data_dominates():
    assert optimal_s(3.0, 3.0, 0.25, 1.0, 1.0) == 0.0
    assert optimal_s(1.0, 3.0, 0.25, 1.0, 1.0) == 0.0


def test_exponent_input_validation():
    with pytest.raises(ValueError):
        theoretical_theta(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        theoretical_theta(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        theoretical_theta(0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        optimal_s(0.0, 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        optimal_s(1.0, -1.0, 0.5, 1.0, 1.0)


def test_final_data_norm_scales_linearly_in_amplitude():
    bspec = default_backward_spec()
    base = (bspec.m0, bspec.h)
    pert = (bspec.delta_m0, bspec.delta_h)
    p1 = generate_pair(base, pert, 1e-3, bspec.problem, grid=GRID)
    p2 = generate_pair(
        base, pert, 2e-3, bspec.problem, grid=GRID, base_solution=p1[0]
    )
    c = bspec.problem.coeff
    d1 = _data_norm_D(p1, c, order=0)
    d2 = _data_norm_D(p2, c, order=0)
    assert 1.8 <= d2 / d1 <= 2.2


def test_interior_ladder_envelope_holds_by_construction():
    bspec = default_backward_spec()
    res = run_holder_experiment(bspec, 0.5, grid=GRID)
    assert res.mode == "holder"
    assert res.theta == pytest.approx(_theta_oracle(0.5, 1.0, 1.0), rel=1e-12)
    for r in res.rungs:
        env = r.D0**res.theta + r.D0
        assert r.c_envelope == pytest.approx(r.err / env, rel=1e-12)
        assert r.err <= res.C_fit * env * (1 + 1e-12)
    assert res.slope >= res.theta - 0.05


def test_interior_ladder_requires_enough_span():
    bspec = default_backward_spec()
    with pytest.raises(ValueError):
        run_holder_experiment(bspec, 0.5, eps_ladder=[1e-1, 1e-2, 1e-3], grid=GRID)
    with pytest.raises(ValueError):
        run_holder_experiment(
            bspec, 0.5, eps_ladder=[1e-1, 9e-2, 8e-2, 7e-2], grid=GRID
        )


def test_interior_time_bounds_checked():
    bspec = default_backward_spec()
    with pytest.raises(ValueError):
        run_holder_experiment(bspec, 0.0, grid=GRID)
    with pytest.raises(ValueError):
        run_holder_experiment(bspec, 1.0, grid=GRID)


@pytest.mark.parametrize("t0, end", [(0.95, 1.0), (0.05, 0.0)])
def test_interior_time_nearest_a_grid_end_raises_before_any_solve(monkeypatch, t0, end):
    # at n_t = 8 the grid time nearest t0 is t = T or t = 0, where the data
    # are given: no interior measurement
    from degenmfg import stability

    calls = []
    monkeypatch.setattr(stability, "solve_nonlinear_mfg", lambda *a, **k: calls.append(1))
    with pytest.raises(ValueError, match=f"nearest the grid end t={end:g} at n_t=8"):
        run_holder_experiment(default_backward_spec(), t0, grid=SpaceTimeGrid(16, 8, 1.0))
    assert calls == []


@pytest.mark.parametrize("experiment", ["holder", "log"])
def test_empty_pairs_raise_value_error_before_any_solve(monkeypatch, experiment):
    # an empty ladder used to reach the rung loop and fail with IndexError
    from degenmfg import stability

    calls = []
    monkeypatch.setattr(stability, "solve_nonlinear_mfg", lambda *a, **k: calls.append(1))
    bspec = default_backward_spec()
    with pytest.raises(ValueError, match="pairs is empty"):
        if experiment == "holder":
            run_holder_experiment(bspec, 0.5, pairs=())
        else:
            run_log_experiment(bspec, pairs=())
    assert calls == []


def test_zero_discrepancy_rung_is_rejected():
    # a rung whose two solutions are both the base solution: no data
    # discrepancy to measure the error against
    bspec = default_backward_spec()
    pairs = build_ladder_pairs(bspec, DEFAULT_HOLDER_LADDER, grid=SpaceTimeGrid(16, 32, 1.0))
    base = pairs[0][1][0]
    zero = ((1e-3, (base, base)),)
    res = run_holder_experiment(bspec, 0.5, pairs=pairs + zero)
    assert [r.note for r in res.rungs] == ["", "", "", "", "zero discrepancy"]
    assert not res.rungs[-1].accepted and math.isnan(res.rungs[-1].c_envelope)
    assert res == replace(run_holder_experiment(bspec, 0.5, pairs=pairs), rungs=res.rungs)
    with pytest.raises(ValueError, match=r"^no rung accepted: eps=0\.001 \(zero discrepancy\)$"):
        run_log_experiment(bspec, pairs=zero)


def test_ladder_of_vanishing_discrepancies_is_degenerate():
    # hand-built pairs 1e-20 apart: every rung is accepted, and no fit is
    # made through discrepancies at the rounding level of the solves
    from degenmfg.domain import SpaceTimeField
    from degenmfg.mfg import MfgSolution

    bspec = default_backward_spec()
    g = SpaceTimeGrid(16, 8, 1.0)
    shape = np.outer(bspec.delta_h(g.x), 1.0 + g.t)
    zero = MfgSolution(SpaceTimeField(0.0 * shape, g), SpaceTimeField(0.0 * shape, g), (), True)
    pairs = tuple(
        (eps, (zero, MfgSolution(SpaceTimeField(eps * shape, g), SpaceTimeField(eps * shape, g),
                                 (), True)))
        for eps in (4e-20, 2e-20, 1e-20)
    )
    with pytest.raises(ValueError, match=r"^degenerate ladder: every discrepancy is below 1e-14$"):
        run_holder_experiment(bspec, 0.5, pairs=pairs)


def test_pair_builders_default_to_the_experiment_grid(monkeypatch):
    # grid=None is DEFAULT_EXPERIMENT_SHAPE on the problem's horizon; the
    # spy stops at the first solve, which would run on that grid
    from degenmfg import stability

    class Stop(Exception):
        pass

    grids = []

    def first_solve(coeffs, **kw):
        grids.append(coeffs.grid)
        raise Stop

    monkeypatch.setattr(stability, "solve_nonlinear_mfg", first_solve)
    bspec = default_backward_spec()
    for build in (
        lambda: generate_pair((bspec.m0, bspec.h), (bspec.delta_m0, bspec.delta_h), 1e-3,
                              bspec.problem),
        lambda: build_ladder_pairs(bspec, [1e-3]),
        lambda: run_holder_experiment(bspec, 0.5),
    ):
        with pytest.raises(Stop):
            build()
    assert grids == [SpaceTimeGrid(*DEFAULT_EXPERIMENT_SHAPE, bspec.problem.T)] * 3


def test_initial_time_ladder_with_every_rung_rejected_names_the_notes():
    with pytest.raises(ValueError) as info:
        run_log_experiment(default_backward_spec(), 0.5, [100.0, 10.0],
                           grid=SpaceTimeGrid(16, 8, 1.0))
    msg = str(info.value)
    assert msg.startswith("no rung accepted: eps=100 (data norm D=")
    assert msg.count(">= 1; shrink the perturbation amplitude)") == 2
    assert "degenerate" not in msg


def test_zero_amplitude_rung_dropped_with_warning():
    bspec = default_backward_spec()
    res = run_holder_experiment(
        bspec, 0.5, eps_ladder=[1e-1, 1e-2, 1e-3, 1e-4, 0.0], grid=GRID
    )
    assert len(res.rungs) == 4
    assert any("eps=0" in w for w in res.warnings)


def test_initial_time_ladder_rejects_large_data():
    bspec = default_backward_spec()
    res = run_log_experiment(
        bspec, 0.5, eps_ladder=[0.5, 6e-3, 3.5e-3], grid=GRID
    )
    bad = [r for r in res.rungs if not r.accepted]
    good = [r for r in res.rungs if r.accepted]
    assert len(bad) == 1 and bad[0].D >= 1.0
    assert "shrink the perturbation amplitude" in bad[0].note
    assert len(good) == 2
    for r in good:
        assert r.s_star == pytest.approx(
            math.log(1.0 / r.D) ** 0.5, rel=1e-12
        )
        assert r.c_envelope == pytest.approx(r.err * r.s_star, rel=1e-12)


def test_initial_time_ladder_spread_is_mild():
    bspec = default_backward_spec()
    res = run_log_experiment(bspec, 0.5, grid=GRID)
    assert res.mode == "log"
    accepted = [r for r in res.rungs if r.accepted]
    assert len(accepted) >= 2
    assert res.c_spread < 10.0
    assert res.envelope_stable


def test_alpha_range_checked():
    bspec = default_backward_spec()
    with pytest.raises(ValueError):
        run_log_experiment(bspec, 0.0, grid=GRID)
    with pytest.raises(ValueError):
        run_log_experiment(bspec, 1.0, grid=GRID)


def test_data_norm_with_derivatives_exceeds_plain():
    bspec = default_backward_spec()
    base = (bspec.m0, bspec.h)
    pert = (bspec.delta_m0, bspec.delta_h)
    pair = generate_pair(base, pert, 1e-3, bspec.problem, grid=GRID)
    c = bspec.problem.coeff
    assert _data_norm_D(pair, c, order=2) >= _data_norm_D(pair, c, order=0)


def test_holder_s_star_independent_of_pair_order():
    bspec = default_backward_spec()
    pairs = build_ladder_pairs(bspec, DEFAULT_HOLDER_LADDER, grid=GRID)
    fwd = run_holder_experiment(bspec, 0.5, pairs=pairs)
    rev = run_holder_experiment(bspec, 0.5, pairs=tuple(reversed(pairs)))
    assert rev.inputs.M == fwd.inputs.M
    assert {r.eps: r.s_star for r in rev.rungs} == {r.eps: r.s_star for r in fwd.rungs}


def test_log_experiment_reuses_given_pairs():
    bspec = default_backward_spec()
    pairs = build_ladder_pairs(bspec, DEFAULT_LOG_LADDER, grid=GRID)
    assert run_log_experiment(bspec, pairs=pairs) == run_log_experiment(bspec, grid=GRID)


def _cold_pairs(bspec, ladder):
    """The ladder's pairs with every perturbed solve started from zero."""
    base = None
    out = []
    for eps in ladder:
        sol1, sol2 = generate_pair(
            (bspec.m0, bspec.h), (bspec.delta_m0, bspec.delta_h), eps,
            bspec.problem, grid=GRID, base_solution=base, start=(0.0, 0.0),
        )
        base = sol1
        out.append((eps, (sol1, sol2)))
    return out


@pytest.mark.parametrize(
    "ladder", [DEFAULT_HOLDER_LADDER, DEFAULT_LOG_LADDER, (1e-3, 0.0, 1e-4)]
)
def test_continuation_pairs_match_cold_pairs_in_fewer_sweeps(ladder):
    bspec = default_backward_spec()
    warm = build_ladder_pairs(bspec, ladder, grid=GRID)
    cold = _cold_pairs(bspec, ladder)
    assert warm[0][1][0] is warm[-1][1][0]  # one shared base solve
    for (eps_w, (b_w, s_w)), (eps_c, (b_c, s_c)) in zip(warm, cold):
        assert eps_w == eps_c and s_w.converged
        assert np.array_equal(b_w.u.values, b_c.u.values)
        for f_w, f_c in ((s_w.u, s_c.u), (s_w.m, s_c.m)):
            scale = np.max(np.abs(f_c.values))
            assert np.max(np.abs(f_w.values - f_c.values)) <= 1e-8 * scale
    sweeps_warm = sum(s.sweeps for _, (_, s) in warm)
    sweeps_cold = sum(s.sweeps for _, (_, s) in cold)
    assert sweeps_warm < sweeps_cold


def test_generate_pair_same_perturbed_solve_with_or_without_base_solution():
    bspec = default_backward_spec()
    base = (bspec.m0, bspec.h)
    pert = (bspec.delta_m0, bspec.delta_h)
    own = generate_pair(base, pert, 1e-3, bspec.problem, grid=GRID)
    given = generate_pair(
        base, pert, 1e-3, bspec.problem, grid=GRID, base_solution=own[0]
    )
    assert given[0] is own[0]
    assert given[1].residual_log == own[1].residual_log
    assert np.array_equal(given[1].u.values, own[1].u.values)
    assert np.array_equal(given[1].m.values, own[1].m.values)


def test_generate_pair_start_on_a_wrong_grid_raises_value_error():
    bspec = default_backward_spec()
    base = (bspec.m0, bspec.h)
    pert = (bspec.delta_m0, bspec.delta_h)
    sol1, _ = generate_pair(base, pert, 1e-3, bspec.problem, grid=GRID)
    bad = np.zeros((GRID.n_x + 1, GRID.n_t + 1))
    with pytest.raises(ValueError, match=r"^start u: "):
        generate_pair(
            base, pert, 1e-3, bspec.problem, grid=GRID,
            base_solution=sol1, start=(bad, sol1.m),
        )
    coarse = build_ladder_pairs(bspec, [1e-3], grid=SpaceTimeGrid(32, 64, 1.0))
    other = coarse[0][1][1]
    with pytest.raises(ValueError, match=r"^start u: field grid"):
        generate_pair(
            base, pert, 1e-3, bspec.problem, grid=GRID,
            base_solution=sol1, start=(other.u, other.m),
        )


def test_generate_pair_perturbed_solve_out_of_budget_raises_naming_eps():
    from degenmfg.mfg import IterConfig
    from degenmfg.solvers import SolverError

    bspec = default_backward_spec()
    base = (bspec.m0, bspec.h)
    pert = (bspec.delta_m0, bspec.delta_h)
    sol1, _ = generate_pair(base, pert, 1e-3, bspec.problem, grid=GRID)
    assert sol1.converged
    with pytest.raises(SolverError, match=r"^perturbed solve \(eps=0\.001\) did not converge$"):
        generate_pair(
            base, pert, 1e-3, bspec.problem, grid=GRID, cfg=IterConfig(max_sweeps=1),
            base_solution=sol1, start=(0.0, 0.0),
        )


def test_generate_pair_rejects_a_wrong_start_before_any_solve(monkeypatch):
    from degenmfg import stability

    calls = []
    real = stability.solve_nonlinear_mfg
    monkeypatch.setattr(
        stability, "solve_nonlinear_mfg", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    bspec = default_backward_spec()
    bad = np.zeros((GRID.n_x + 1, GRID.n_t + 1))
    with pytest.raises(ValueError, match=r"^start m: "):
        generate_pair(
            (bspec.m0, bspec.h), (bspec.delta_m0, bspec.delta_h), 1e-3,
            bspec.problem, grid=GRID, start=(0.0, bad),
        )
    assert calls == []


@pytest.mark.parametrize(
    "ladder, fault",
    [
        ([math.nan], "must be a finite number, got nan"),
        ([math.inf], "must be a finite number, got inf"),
        ([-0.01], "must be >= 0.0, got -0.01"),
        ([True], "must be a finite number, got True"),
        ([1e-3, math.nan], "must be a finite number, got nan"),
    ],
    ids=["nan", "inf", "negative", "bool", "nan-second"],
)
def test_pair_builders_refuse_a_bad_amplitude_before_any_solve(monkeypatch, ladder, fault):
    # the last amplitude is the bad one; a nan or inf used to fail only after
    # the base solve, and -0.01 and True were solved
    from degenmfg import stability

    calls = []
    monkeypatch.setattr(stability, "solve_nonlinear_mfg", lambda *a, **k: calls.append(1))
    bspec = default_backward_spec()
    g = SpaceTimeGrid(16, 8, 1.0)
    with pytest.raises(ValueError, match=rf"^eps_ladder\[{len(ladder) - 1}\] {fault}$"):
        build_ladder_pairs(bspec, ladder, grid=g)
    with pytest.raises(ValueError, match=rf"^eps {fault}$"):
        generate_pair((bspec.m0, bspec.h), (bspec.delta_m0, bspec.delta_h), ladder[-1],
                      bspec.problem, grid=g)
    assert calls == []


@pytest.mark.parametrize("col", [0, -1])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_end_norms_equal_full_trajectory_derivatives(order, col):
    from degenmfg.domain import NormKind, _dt_array, weighted_norm

    g = SpaceTimeGrid(32, 40, 1.0)
    coeff = default_backward_spec().problem.coeff
    rng = np.random.default_rng(7)
    u, m = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    want_u = [weighted_norm(u[:, col], NormKind.H1_INV_A, coeff, g)]
    want_m = [weighted_norm(m[:, col], NormKind.H1A_DIV, coeff, g)]
    for k in range(1, order + 1):
        want_u.append(weighted_norm(_dt_array(u, g.dt, k)[:, col], NormKind.H1_INV_A, coeff, g))
        want_m.append(weighted_norm(_dt_array(m, g.dt, k)[:, col], NormKind.H1A_DIV, coeff, g))
    assert _end_norms(u, m, coeff, g, order, col) == (want_u, want_m)


@pytest.mark.parametrize(
    "ladder",
    [
        (1e-2, 1e-3, 1e-3, 1e-4),  # a repeated eps: one node, not two
        (1e-2, 1e-3, 0.0, 1e-3, 1e-4, 1e-5),  # eps = 0 drops every node
        (1e-3, 1e-3, 1e-3),  # a single distinct eps: secant only
    ],
)
def test_quadratic_predictor_ladders_stay_finite_and_match_cold_pairs(ladder):
    bspec = default_backward_spec()
    warm = build_ladder_pairs(bspec, ladder, grid=GRID)
    cold = _cold_pairs(bspec, ladder)
    for (eps_w, (_, s_w)), (eps_c, (_, s_c)) in zip(warm, cold):
        assert eps_w == eps_c and s_w.converged
        for f_w, f_c in ((s_w.u, s_c.u), (s_w.m, s_c.m)):
            assert np.all(np.isfinite(f_w.values))
            scale = np.max(np.abs(f_c.values))
            assert np.max(np.abs(f_w.values - f_c.values)) <= 1e-8 * scale


def _fake(u, m):
    return SimpleNamespace(u=SimpleNamespace(values=u), m=SimpleNamespace(values=m))


def test_predictor_is_the_lagrange_polynomial_through_zero_and_its_nodes():
    rng = np.random.default_rng(5)
    b, c1, c2 = (rng.standard_normal((6, 5)) for _ in range(3))

    def curve(e):  # an exact quadratic in eps through the base at eps = 0
        return b + e * c1 + e * e * c2

    base = _fake(curve(0.0), 2.0 * curve(0.0))
    e1, e2, eps = 1e-1, 1e-2, 1e-3
    nodes = [(e1, _fake(curve(e1), 2.0 * curve(e1))), (e2, _fake(curve(e2), 2.0 * curve(e2)))]
    u, m = _predict(eps, base, nodes)
    assert np.max(np.abs(u - curve(eps))) <= 1e-14
    assert np.max(np.abs(m - 2.0 * curve(eps))) <= 2e-14
    # one node: the secant through the base, as written before the quadratic
    u, _ = _predict(eps, base, nodes[1:])
    b_u, s_u = base.u.values, nodes[1][1].u.values
    assert np.array_equal(u, b_u + (eps / e2) * (s_u - b_u))
    assert _predict(eps, base, []) is None


_COARSE = SpaceTimeGrid(16, 16, 1.0)


def _coarse_ladder(grid):
    return build_ladder_pairs(default_backward_spec(), DEFAULT_HOLDER_LADDER, grid=grid)


def _refuse_solves_and_measurements(monkeypatch):
    from degenmfg import stability

    def refuse(*args, **kwargs):
        raise AssertionError("a solve or a measurement ran")

    monkeypatch.setattr(stability, "solve_nonlinear_mfg", refuse)
    monkeypatch.setattr(stability, "_end_norms", refuse)
    monkeypatch.setattr(stability, "weighted_norm", refuse)


@pytest.mark.parametrize("other", [SpaceTimeGrid(16, 32, 1.0), SpaceTimeGrid(16, 16, 2.0)],
                         ids=["n_t", "T"])
def test_ladders_refuse_pairs_from_another_grid(monkeypatch, other):
    # a ladder used to measure every rung at the first pair's time column:
    # the 16x32 rungs at t = 0.25, the T = 2 rungs at t = 1
    bspec = default_backward_spec()
    pairs = _coarse_ladder(_COARSE) + _coarse_ladder(other)
    _refuse_solves_and_measurements(monkeypatch)
    message = re.escape(f"pairs[4] sol1.u: field grid {other} != {_COARSE}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_holder_experiment(bspec, 0.5, pairs=pairs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_log_experiment(bspec, pairs=pairs)


def test_ladders_refuse_a_grid_that_is_not_the_pairs_grid(monkeypatch):
    bspec = default_backward_spec()
    pairs = _coarse_ladder(_COARSE)
    # the pairs' own grid is accepted, and gives the result without it
    same = run_holder_experiment(bspec, 0.5, grid=SpaceTimeGrid(16, 16, 1.0), pairs=pairs)
    assert same == run_holder_experiment(bspec, 0.5, pairs=pairs)
    other = SpaceTimeGrid(16, 32, 1.0)
    _refuse_solves_and_measurements(monkeypatch)
    message = re.escape(f"grid: {other} != the pairs' grid {_COARSE}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_holder_experiment(bspec, 0.5, grid=other, pairs=pairs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_log_experiment(bspec, grid=other, pairs=pairs)


def test_generate_pair_refuses_a_base_solution_off_its_grid(monkeypatch):
    # the pair's two solutions used to come back on different grids
    bspec = default_backward_spec()
    base = _coarse_ladder(_COARSE)[0][1][0]
    fine = SpaceTimeGrid(16, 32, 1.0)
    start = (np.zeros(fine.shape), np.zeros(fine.shape))
    _refuse_solves_and_measurements(monkeypatch)
    message = re.escape(f"base_solution.u: field grid {_COARSE} != {fine}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_pair((bspec.m0, bspec.h), (bspec.delta_m0, bspec.delta_h), 1e-2, bspec.problem,
                      grid=fine, base_solution=base, start=start)
