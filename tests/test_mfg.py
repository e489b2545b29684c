"""Coupled forward-backward iteration and difference-system algebra."""

import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from degenmfg.domain import DegenerateCoefficient, SpaceTimeField, SpaceTimeGrid
from degenmfg.manufactured import catalog, make_case
from degenmfg.mfg import (
    DAMPING_FLOOR,
    IterConfig,
    MfgCoefficients,
    MfgSolution,
    check_coefficient_bounds,
    difference_residuals,
    form_difference_coefficients,
    solve_linearized_mfg,
    solve_nonlinear_mfg,
)
from degenmfg.solvers import (
    FpLinearProblem,
    HjbLinearProblem,
    fp_scheme_residual,
    solve_fp_linear,
    solve_hjb_linear,
)
from degenmfg.stability import default_backward_spec, generate_pair

WF = DegenerateCoefficient.wright_fischer()
P22 = DegenerateCoefficient.power(2.0, 2.0)


def _grid(n_x=48, n_t=48, T=1.0):
    return SpaceTimeGrid(n_x, n_t, T)


def test_zero_data_converges_in_one_sweep():
    g = _grid()
    coeffs = MfgCoefficients(WF, g)
    sol = solve_linearized_mfg(coeffs)
    assert sol.converged
    assert sol.sweeps == 1
    assert np.all(sol.u.values == 0.0)
    assert np.all(sol.m.values == 0.0)


def test_decoupled_matches_scalar_solves_bit_exactly():
    g = _grid()
    x = g.x
    coeffs = MfgCoefficients(
        WF, g, d1=0.3 * x * (1 - x), c1=0.2 * x * (1 - x), b=0.4
    )
    F = np.sin(np.pi * x)
    G = np.cos(np.pi * x)
    m0 = 6.0 * x * (1 - x)
    h = x * (1 - x)
    sol = solve_linearized_mfg(coeffs, F=F, G=G, m0=m0, h=h)
    assert sol.converged and sol.sweeps == 1

    u_ref = solve_hjb_linear(
        HjbLinearProblem(g, WF, drift=coeffs.d1, source=F, terminal=h)
    )
    m_ref = solve_fp_linear(
        FpLinearProblem(
            g, WF, convection=coeffs.c1, zeroth=coeffs.b, source=G, initial=m0
        )
    )
    assert np.array_equal(sol.u.values, u_ref.values)
    assert np.array_equal(sol.m.values, m_ref.values)


def test_nonlinear_with_zero_hamiltonian_reduces_to_linear():
    g = _grid()
    x = g.x
    d = 0.4 * P22.a(x)
    F = np.sin(np.pi * x)
    G = np.cos(2 * np.pi * x)
    m0 = 16.0 * P22.a(x)
    h = 16.0 * P22.a(x)
    nl = MfgCoefficients(P22, g, p=0.0, d=d)
    lin = MfgCoefficients(P22, g, d2=-d)
    sol_nl = solve_nonlinear_mfg(nl, F=F, G=G, m0=m0, h=h)
    sol_lin = solve_linearized_mfg(lin, F=F, G=G, m0=m0, h=h)
    assert sol_nl.converged and sol_lin.converged
    assert np.max(np.abs(sol_nl.u.values - sol_lin.u.values)) <= 1e-14
    assert np.max(np.abs(sol_nl.m.values - sol_lin.m.values)) <= 1e-14


def test_nonlinear_solve_residual_reaches_tolerance():
    g = _grid(64, 64)
    x = g.x
    coeffs = MfgCoefficients(P22, g, p=0.5 * x * (1 - x), d=0.4 * P22.a(x))
    sol = solve_nonlinear_mfg(
        coeffs, m0=16.0 * P22.a(x), h=16.0 * P22.a(x)
    )
    assert sol.converged
    assert sol.residual_log[-1] <= 1e-9
    assert sol.residual_log[-1] < sol.residual_log[0]


def test_sweep_budget_exhaustion_reports_not_converged():
    g = _grid()
    x = g.x
    coeffs = MfgCoefficients(P22, g, p=0.5 * x * (1 - x), d=0.4 * P22.a(x))
    sol = solve_nonlinear_mfg(
        coeffs,
        m0=16.0 * P22.a(x),
        h=16.0 * P22.a(x),
        cfg=IterConfig(max_sweeps=1, tolerance=1e-14),
    )
    assert not sol.converged
    assert sol.u.values.shape == (g.n_x, g.n_t + 1)


def _stiff_solve(p_scale, d_scale, cfg=IterConfig()):
    # the stock experiment's p = 0.5 x(1-x) and d = 0.4 a, scaled up
    g = _grid(64, 128)
    x = g.x
    coeffs = MfgCoefficients(
        P22, g, p=p_scale * x * (1 - x), d=d_scale * P22.a(x)
    )
    return solve_nonlinear_mfg(
        coeffs, m0=16.0 * P22.a(x), h=16.0 * P22.a(x), cfg=cfg
    )


def _rejected_sweeps(sol, factor=IterConfig().divergence_factor):
    """Sweeps (from 1) the driver rejected: residual above factor x the best
    accepted."""
    best = np.inf
    rejected = []
    for sweep, res in enumerate(sol.residual_log, 1):
        if res > factor * best:
            rejected.append(sweep)
        else:
            best = min(best, res)
    return rejected


def _rejections(sol):
    return len(_rejected_sweeps(sol))


def test_backtracking_rescues_a_diverging_full_step():
    # p and d at 20x and 100x the stock values
    plain = _stiff_solve(
        10.0, 40.0, IterConfig(max_sweeps=60, divergence_factor=1e300)
    )
    assert not plain.converged
    sol = _stiff_solve(10.0, 40.0)
    assert sol.converged
    assert _rejections(sol) == 1  # one halving: the rest ran at damping 0.5
    assert 30 <= sol.sweeps <= 45


def test_damping_floor_reports_not_converged():
    # p and d at 40x and 400x the stock values
    sol = _stiff_solve(20.0, 160.0)
    assert not sol.converged
    # stopped by the halving that would go below the floor, not by the budget
    assert 0.5 ** _rejections(sol) < DAMPING_FLOOR <= 0.5 ** (_rejections(sol) - 1)
    assert sol.sweeps < IterConfig().max_sweeps
    assert np.all(np.isfinite(sol.u.values)) and np.all(np.isfinite(sol.m.values))


def _nonlinear_pair(g, eps):
    x = g.x
    coeffs = MfgCoefficients(P22, g, p=0.5 * x * (1 - x), d=0.4 * P22.a(x))
    m0 = 16.0 * P22.a(x)
    h = 16.0 * P22.a(x)
    dm0 = 16.0 * P22.a(x) * np.sin(2 * np.pi * x)
    dh = 16.0 * P22.a(x) * np.sin(np.pi * x)
    s1 = solve_nonlinear_mfg(coeffs, m0=m0, h=h)
    s2 = solve_nonlinear_mfg(coeffs, m0=m0 + eps * dm0, h=h + eps * dh)
    assert s1.converged and s2.converged
    return coeffs, s1, s2


def test_difference_fields_antisymmetric():
    g = _grid()
    coeffs, s1, s2 = _nonlinear_pair(g, 1e-2)
    _, u12, m12 = form_difference_coefficients(s1, s2, coeffs)
    _, u21, m21 = form_difference_coefficients(s2, s1, coeffs)
    assert np.array_equal(u12.values, -u21.values)
    assert np.array_equal(m12.values, -m21.values)


def test_identical_solutions_give_zero_difference():
    g = _grid()
    coeffs, s1, _ = _nonlinear_pair(g, 1e-2)
    dc, ud, md = form_difference_coefficients(s1, s1, coeffs)
    assert np.all(ud.values == 0.0)
    assert np.all(md.values == 0.0)
    # coefficients stay well-defined
    assert np.all(np.isfinite(dc.d1))
    assert np.all(np.isfinite(dc.b))


def test_difference_of_solutions_from_another_horizon_is_rejected():
    g, far = SpaceTimeGrid(16, 8, 1.0), SpaceTimeGrid(16, 8, 5.0)
    zero = SpaceTimeField(np.zeros(far.shape), far)
    sol = MfgSolution(zero, zero, (), True)
    with pytest.raises(ValueError, match="share one grid"):
        form_difference_coefficients(sol, sol, MfgCoefficients(P22, g))


def test_difference_coefficients_anchoring():
    # d1 averages both value gradients; c1 and b are anchored at the first
    # solution, c2 and rho at the second density
    g = _grid()
    coeffs, s1, s2 = _nonlinear_pair(g, 1e-2)
    dc12, _, _ = form_difference_coefficients(s1, s2, coeffs)
    dc21, _, _ = form_difference_coefficients(s2, s1, coeffs)
    assert np.allclose(dc12.d1, dc21.d1, rtol=0, atol=1e-12)
    assert not np.allclose(dc12.c1, dc21.c1, rtol=0, atol=1e-12)
    assert not np.allclose(dc12.rho, dc21.rho, rtol=0, atol=1e-12)


def test_bound_report_unit_ratio_for_matched_drift():
    g = _grid()
    coeffs = MfgCoefficients(WF, g, d1=WF.sqrt_a(g.x))
    report = check_coefficient_bounds(coeffs)
    assert report.value("d1_over_sqrt_a") == pytest.approx(1.0, rel=1e-12)


def test_bound_report_all_zero():
    g = _grid()
    report = check_coefficient_bounds(MfgCoefficients(WF, g))
    for name in ("d1_over_sqrt_a", "c1_over_sqrt_a", "d2_over_a", "b_sup"):
        assert report.value(name) == 0.0


def test_bound_report_value_of_an_unknown_name_raises_key_error():
    report = check_coefficient_bounds(MfgCoefficients(WF, _grid()))
    with pytest.raises(KeyError, match=r"^'p_over_a'$"):
        report.value("p_over_a")


def test_bound_report_rows_in_order_with_the_slope_at_t0():
    g = _grid()
    rows = check_coefficient_bounds(MfgCoefficients(WF, g)).as_rows()
    assert [r[0] for r in rows] == [
        "p_over_sqrt_a", "d_over_a", "d1_over_sqrt_a", "c1_over_sqrt_a", "d2_over_a",
        "ax_over_sqrt_a", "b_sup", "c2_sup", "rho_sup",
    ]
    slope = np.abs(WF.a_x(g.x)) / WF.sqrt_a(g.x)
    i = int(np.argmax(slope))
    assert rows[5] == ("ax_over_sqrt_a", slope[i], g.x[i], 0.0)


def test_iter_config_validation():
    with pytest.raises(ValueError):
        IterConfig(max_sweeps=0)
    with pytest.raises(ValueError):
        IterConfig(damping=0.0)
    with pytest.raises(ValueError):
        IterConfig(damping=1.5)
    with pytest.raises(ValueError):
        IterConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        IterConfig(divergence_factor=1.0)


def _stock_coeffs(g):
    x = g.x
    coeffs = MfgCoefficients(P22, g, p=0.5 * x * (1 - x), d=0.4 * P22.a(x))
    return coeffs, 16.0 * P22.a(x), 16.0 * P22.a(x)


def test_zero_start_is_the_default_bit_for_bit():
    g = _grid()
    coeffs, m0, h = _stock_coeffs(g)
    cold = solve_nonlinear_mfg(coeffs, m0=m0, h=h)
    zero = solve_nonlinear_mfg(coeffs, m0=m0, h=h, start=(0.0, np.zeros(g.shape)))
    assert zero.residual_log == cold.residual_log
    assert np.array_equal(zero.u.values, cold.u.values)
    assert np.array_equal(zero.m.values, cold.m.values)


def test_time_varying_p_and_d_equal_their_profiles_bit_for_bit():
    # full time-major copies of p and d take the trajectory path of the
    # sweep, where profiles stay one column: the same doubles either way
    g = _grid(32, 64)
    coeffs, m0, h = _stock_coeffs(g)
    full = MfgCoefficients(P22, g, **{k: np.asfortranarray(np.broadcast_to(
        getattr(coeffs, k)[:, :1], g.shape)) for k in ("p", "d")})
    assert full.p.strides[1] != 0 and full.d.strides[1] != 0
    prof = solve_nonlinear_mfg(coeffs, m0=m0, h=h)
    traj = solve_nonlinear_mfg(full, m0=m0, h=h)
    assert prof.converged and prof.sweeps > 1
    assert traj.residual_log == prof.residual_log
    assert np.array_equal(traj.u.values, prof.u.values)
    assert np.array_equal(traj.m.values, prof.m.values)


def test_solve_started_at_its_own_solution_takes_one_sweep():
    g = _grid()
    coeffs, m0, h = _stock_coeffs(g)
    sol = solve_nonlinear_mfg(coeffs, m0=m0, h=h)
    assert sol.converged and sol.sweeps > 1
    again = solve_nonlinear_mfg(coeffs, m0=m0, h=h, start=(sol.u, sol.m))
    assert again.converged and again.sweeps == 1
    scale = np.max(np.abs(sol.u.values))
    assert np.max(np.abs(again.u.values - sol.u.values)) <= 1e-8 * scale


@pytest.mark.parametrize(
    "start",
    [
        (np.zeros((48, 48)), 0.0),  # one time column short
        (0.0, np.zeros(47)),  # a profile one node short
        (SpaceTimeGrid(24, 48, 1.0).x, 0.0),  # a coarser grid's profile
    ],
)
def test_start_on_a_wrong_grid_raises_value_error(start):
    g = _grid()
    coeffs, m0, h = _stock_coeffs(g)
    with pytest.raises(ValueError, match=r"^start [um]: "):
        solve_nonlinear_mfg(coeffs, m0=m0, h=h, start=start)


def test_start_field_on_another_grid_raises_value_error():
    g = _grid()
    other = solve_nonlinear_mfg(MfgCoefficients(P22, _grid(48, 24)))
    coeffs, m0, h = _stock_coeffs(g)
    with pytest.raises(ValueError, match=r"^start u: field grid"):
        solve_nonlinear_mfg(coeffs, m0=m0, h=h, start=(other.u, other.m))


def _linear_coeffs(g):
    x = g.x
    a = WF.a(x)
    coeffs = MfgCoefficients(
        WF, g, d1=0.2 * x * (1 - x), d2=0.3 * a, c1=0.2 * x * (1 - x), b=0.25,
        c2=0.2 * np.sin(x), rho=0.15 * a,
    )
    return coeffs, 6.0 * a, a


def test_linearized_zero_start_is_the_default_bit_for_bit():
    g = _grid()
    coeffs, m0, h = _linear_coeffs(g)
    cold = solve_linearized_mfg(coeffs, m0=m0, h=h)
    zero = solve_linearized_mfg(coeffs, m0=m0, h=h, start=(0.0, np.zeros(g.shape)))
    assert cold.sweeps > 1
    assert zero.residual_log == cold.residual_log
    assert np.array_equal(zero.u.values, cold.u.values)
    assert np.array_equal(zero.m.values, cold.m.values)


def test_linearized_solve_started_at_its_own_solution_takes_one_sweep():
    g = _grid()
    coeffs, m0, h = _linear_coeffs(g)
    sol = solve_linearized_mfg(coeffs, m0=m0, h=h)
    assert sol.converged and sol.sweeps > 1
    again = solve_linearized_mfg(coeffs, m0=m0, h=h, start=(sol.u, sol.m.values))
    assert again.converged and again.sweeps == 1
    for f, ref in ((again.u, sol.u), (again.m, sol.m)):
        scale = np.max(np.abs(ref.values))
        assert np.max(np.abs(f.values - ref.values)) <= 1e-8 * scale


@pytest.mark.parametrize(
    "start, which",
    [
        ((np.zeros((48, 48)), 0.0), "u"),  # one time column short
        ((0.0, np.zeros(47)), "m"),  # a profile one node short
        ((SpaceTimeGrid(24, 48, 1.0).x, 0.0), "u"),  # a coarser grid's profile
        (None, "u"),  # a field on another grid
    ],
)
def test_linearized_wrong_start_raises_before_any_sweep(monkeypatch, start, which):
    from degenmfg import mfg

    g = _grid()
    coeffs, m0, h = _linear_coeffs(g)
    if start is None:
        other = solve_linearized_mfg(MfgCoefficients(WF, _grid(48, 24)))
        start = (other.u, other.m)
    calls = []
    monkeypatch.setattr(mfg, "solve_hjb_linear", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match=rf"^start {which}: "):
        solve_linearized_mfg(coeffs, m0=m0, h=h, start=start)
    assert calls == []


@pytest.mark.parametrize(
    "p_scale, d_scale", [(None, None), (10.0, 40.0)], ids=["stock", "rejected-sweep"]
)
def test_no_value_problem_outlives_its_march(monkeypatch, p_scale, d_scale):
    # the stock solve, and the stiff one whose rejected sweep restarts from
    # the best pair: the driver keeps arrays only, so every value problem is
    # gone by the time the density equation is solved
    from degenmfg import mfg

    solved, alive = [], []
    real_hjb, real_fp = mfg.solve_hjb_linear, mfg.solve_fp_linear

    def recording_hjb(prob):
        solved.append(weakref.ref(prob))
        return real_hjb(prob)

    def counting_fp(prob):
        alive.append(sum(ref() is not None for ref in solved))
        return real_fp(prob)

    monkeypatch.setattr(mfg, "solve_hjb_linear", recording_hjb)
    monkeypatch.setattr(mfg, "solve_fp_linear", counting_fp)
    if p_scale is None:
        coeffs, m0, h = _stock_coeffs(_grid())
        sol = solve_nonlinear_mfg(coeffs, m0=m0, h=h)
    else:
        sol = _stiff_solve(p_scale, d_scale)
    assert sol.converged and len(solved) == sol.sweeps > 1
    assert alive == [0] * sol.sweeps


@pytest.mark.parametrize(
    "k, max_sweeps", [(1.0, 200), (40.0, 12)], ids=["converging", "rejected-sweep"]
)
def test_linearized_solve_assembles_each_operator_once(monkeypatch, k, max_sweeps):
    # time-varying d1 and c1 give one band column per level: the first value
    # and density problems build them, every later sweep (a rejected one
    # included) shares them, and the outputs are those of a solve that
    # builds its problems anew each sweep
    from dataclasses import replace

    from degenmfg import mfg, solvers

    g = _grid(32, 24)
    x, t = g.x[:, None], g.t[None, :]
    coeffs = MfgCoefficients(
        P22, g, d1=0.3 * x * (1 - x) * (1 + t), d2=-k * P22.a(g.x), c1=0.2 * x * (1 - x) * (1 - t),
        b=0.4, c2=0.1 * k, rho=0.05 * g.x * (1 - g.x),
    )
    data = dict(F=np.sin(np.pi * g.x), m0=16.0 * P22.a(g.x), cfg=IterConfig(max_sweeps=max_sweeps))
    calls = []
    band_fields = solvers._band_fields

    def counting_bands(*args):
        calls.append(1)
        return band_fields(*args)

    monkeypatch.setattr(solvers, "_band_fields", counting_bands)
    kept = solve_linearized_mfg(coeffs, **data)
    assert kept.sweeps > 1 and len(calls) == 2
    assert bool(_rejected_sweeps(kept)) == (k > 1.0)
    calls.clear()
    monkeypatch.setattr(mfg, "_with_source", replace)
    fresh = solve_linearized_mfg(coeffs, **data)
    # the first value problem, two per sweep and one per rejected sweep's restart
    assert len(calls) == 1 + 2 * fresh.sweeps + len(_rejected_sweeps(fresh))
    for got, want in ((kept.u, fresh.u), (kept.m, fresh.m)):
        assert np.array_equal(got.values, want.values)
    assert kept.residual_log == fresh.residual_log


def test_iter_config_rejects_a_non_integer_max_sweeps():
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match=r"^max_sweeps must be an integer"):
            IterConfig(max_sweeps=bad)
    assert IterConfig(max_sweeps=np.int64(3)).max_sweeps == 3


# solves frozen from an earlier version of the Picard driver, whose sweep
# kept its value problems; the anchor pins sweep counts and rejected sweeps
# exactly, the end slices u(., 0), m(., T) to 1e-12 and the residual logs
# to 1e-6, each relative and entry by entry
PICARD_ANCHOR = json.loads(
    (Path(__file__).resolve().parent / "data" / "picard_anchor.json").read_text(encoding="utf-8")
)


def _close(got, want, rtol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.abs(want)), np.max(np.abs(got - want))


def _anchored_solve(name):
    if name == "coupled-mild-32x32":
        case = make_case("coupled-mild")
        g = SpaceTimeGrid(32, 32, case.T)
        return solve_linearized_mfg(
            case.coefficients_on(g), F=case.source_F(g), G=case.source_G(g),
            m0=case.initial(g), h=case.terminal(g),
        )
    if name == "stock-32x64":
        coeffs, m0, h = _stock_coeffs(_grid(32, 64))
        return solve_nonlinear_mfg(coeffs, m0=m0, h=h)
    # p and d at 20x, 100x (one rejected sweep) or 40x, 400x (the floor)
    return _stiff_solve(10.0, 40.0) if name == "stiff-p20-d100" else _stiff_solve(20.0, 160.0)


@pytest.mark.parametrize(
    "name", ["coupled-mild-32x32", "stock-32x64", "stiff-p20-d100", "stiff-p40-d400"]
)
def test_picard_matches_the_frozen_anchor(name):
    want = PICARD_ANCHOR[name]
    sol = _anchored_solve(name)
    assert sol.sweeps == want["sweeps"] and sol.converged is want["converged"]
    assert _rejected_sweeps(sol) == want["rejected"]
    _close(sol.residual_log, want["residual_log"], 1e-6)
    _close(sol.u.values[:, 0], want["u0"], 1e-12)
    _close(sol.m.values[:, -1], want["mT"], 1e-12)


def test_difference_residuals_match_the_frozen_anchor():
    # criterion 9's two coarser levels
    spec = default_backward_spec()
    prob = spec.problem
    for n, want in zip((32, 64), PICARD_ANCHOR["difference-residuals"]):
        grid = SpaceTimeGrid(n, n, prob.T)
        sol1, sol2 = generate_pair(
            (spec.m0, spec.h), (spec.delta_m0, spec.delta_h), 1e-2, prob, grid
        )
        dco, du, dm = form_difference_coefficients(sol1, sol2, prob.coefficients_on(grid))
        _close(difference_residuals(dco, du, dm), want, 1e-12)


def _spy_residuals(monkeypatch):
    """Spies on both scheme residuals as mfg calls them: for each equation
    the list of (trajectory, value) per call, in call order."""
    from degenmfg import mfg

    calls = {"hjb": [], "fp": []}
    for name, real in (("hjb", mfg.hjb_scheme_residual), ("fp", mfg.fp_scheme_residual)):
        def spy(f, prob, real=real, seen=calls[name]):
            seen.append((f, res := real(f, prob)))
            return res

        monkeypatch.setattr(mfg, f"{name}_scheme_residual", spy)
    return calls


@pytest.mark.parametrize("name", ["coupled-mild-32x32", "stock-32x64"])
def test_full_step_sweeps_log_the_value_residual_alone(monkeypatch, name):
    # every sweep of these solves takes the full step, whose density iterate
    # is the march's own solution: no density residual is evaluated
    calls = _spy_residuals(monkeypatch)
    sol = _anchored_solve(name)
    assert sol.converged and sol.sweeps > 1 and _rejected_sweeps(sol) == []
    assert calls["fp"] == []
    assert [res for _, res in calls["hjb"]] == list(sol.residual_log)
    u_last, res_last = calls["hjb"][-1]
    assert np.array_equal(u_last, sol.u.values)
    assert sol.residual_log[-1] == res_last


def test_damped_sweeps_log_the_larger_of_both_residuals(monkeypatch):
    calls = _spy_residuals(monkeypatch)
    case = make_case("coupled-mild")
    g = SpaceTimeGrid(32, 32, case.T)
    sol = solve_linearized_mfg(
        case.coefficients_on(g), F=case.source_F(g), G=case.source_G(g),
        m0=case.initial(g), h=case.terminal(g), cfg=IterConfig(damping=0.5),
    )
    assert sol.converged and sol.sweeps > 2
    hjb = [res for _, res in calls["hjb"]]
    fp = [res for _, res in calls["fp"]]
    # sweep 1 takes the full step; every later one is damped and checks both
    assert len(hjb) == sol.sweeps and len(fp) == sol.sweeps - 1
    assert sol.residual_log[0] == hjb[0]
    assert list(sol.residual_log[1:]) == [max(r_u, r_m) for r_u, r_m in zip(hjb[1:], fp)]
    assert np.array_equal(calls["fp"][-1][0], sol.m.values)


def _density_problem_at(case_name, g):
    """A converged coupled solve and its density problem rebuilt at the
    returned u, restated from the template: c1 = -p u_x and b = (p u_x)_x
    for the quadratic Hamiltonian, c2 u_x + rho u_xx + G in the source for
    the linearized system."""
    from degenmfg.domain import _dx_array, _dxx_array

    if case_name == "stock":
        spec = default_backward_spec()
        coeffs, m0 = spec.problem.coefficients_on(g), spec.m0
        sol = solve_nonlinear_mfg(coeffs, m0=m0, h=spec.h)
        G, linear = 0.0, False
    else:
        case = make_case(case_name)
        coeffs, m0, G = case.coefficients_on(g), case.initial(g), case.source_G(g).values
        linear = case.tag == "mfg_linear"
        solver = solve_linearized_mfg if linear else solve_nonlinear_mfg
        sol = solver(coeffs, F=case.source_F(g), G=G, m0=m0, h=case.terminal(g))
    u = sol.u.values
    if linear:
        source = coeffs.c2 * _dx_array(u, g.h, "dirichlet") + coeffs.rho * _dxx_array(u, g.h) + G
        prob = FpLinearProblem(g, coeffs.diffusion, convection=coeffs.c1, zeroth=coeffs.b,
                               source=source, initial=m0)
    else:
        pux = coeffs.p * _dx_array(u, g.h, "dirichlet")
        prob = FpLinearProblem(g, coeffs.diffusion, convection=-pux,
                               zeroth=_dx_array(pux, g.h, "free"), source=G, initial=m0)
    return sol, prob


@pytest.mark.parametrize(
    "case_name",
    ["stock"] + [n for n in catalog() if make_case(n).tag.startswith("mfg")],
)
def test_a_converged_full_step_meets_its_density_equations(case_name):
    # the invariant the full-step sweep relies on when it skips the density
    # residual: the returned m solves the density steps at the returned u
    g = SpaceTimeGrid(32, 32, 1.0 if case_name == "stock" else make_case(case_name).T)
    sol, prob = _density_problem_at(case_name, g)
    assert sol.converged and sol.residual_log[-1] <= IterConfig().tolerance
    assert fp_scheme_residual(sol.m, prob) <= 1e-11


@pytest.mark.parametrize("varying", [False, True])
def test_density_source_accumulates_to_the_written_out_sum_bitwise(varying):
    # c2 u_x + rho u_xx + G summed in u_x's buffer: the doubles of the
    # expression, for time-constant and time-varying coefficients alike
    from degenmfg.domain import _dx_array, _dxx_array
    from degenmfg.mfg import _density_problem, _Template

    g = _grid(24, 12)
    rng = np.random.default_rng(11)
    u, G = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    shape = g.shape if varying else (g.n_x, 1)
    c2, rho = (np.broadcast_to(rng.standard_normal(shape), g.shape) for _ in range(2))
    zero = np.zeros(g.shape)
    t = _Template(zero, zero, 0.0, zero, zero, c2, rho, G)
    want = c2 * _dx_array(u, g.h, "dirichlet") + rho * _dxx_array(u, g.h) + G
    got = _density_problem(t, u, g, P22).source
    assert got.tobytes() == want.tobytes()
