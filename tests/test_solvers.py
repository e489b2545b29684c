"""Linear backward and forward solvers on degenerate diffusions."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from degenmfg import solvers
from degenmfg.domain import DegenerateCoefficient, SpaceTimeGrid
from degenmfg.mfg import MfgCoefficients, solve_linearized_mfg
from degenmfg.solvers import (
    FpLinearProblem,
    HjbLinearProblem,
    SolverError,
    _apply_bands,
    _band_fields,
    _implicit_step,
    _to_step_bands,
    fp_scheme_residual,
    hjb_scheme_residual,
    isomorphism_residual,
    solve_fp_linear,
    solve_hjb_linear,
)

WF = DegenerateCoefficient.wright_fischer()
P22 = DegenerateCoefficient.power(2.0, 2.0)


def test_hjb_zero_data_gives_zero():
    g = SpaceTimeGrid(32, 32, 1.0)
    prob = HjbLinearProblem(g, WF)
    u = solve_hjb_linear(prob)
    assert np.all(u.values == 0.0)


def test_fp_zero_data_gives_zero():
    g = SpaceTimeGrid(32, 32, 1.0)
    prob = FpLinearProblem(g, WF)
    m = solve_fp_linear(prob)
    assert np.all(m.values == 0.0)


def test_hjb_scheme_residual_of_solution_is_tiny():
    g = SpaceTimeGrid(48, 40, 1.0)
    x = g.x
    prob = HjbLinearProblem(
        g,
        WF,
        drift=0.3 * x * (1 - x),
        source=np.sin(np.pi * x),
        terminal=x * (1 - x),
    )
    u = solve_hjb_linear(prob)
    assert hjb_scheme_residual(u, prob) < 1e-11


def test_fp_scheme_residual_of_solution_is_tiny():
    g = SpaceTimeGrid(48, 40, 1.0)
    x = g.x
    prob = FpLinearProblem(
        g,
        P22,
        convection=0.2 * x * (1 - x),
        zeroth=0.4,
        source=np.cos(np.pi * x),
        initial=16.0 * P22.a(x),
    )
    m = solve_fp_linear(prob)
    assert fp_scheme_residual(m, prob) < 1e-11


def test_hjb_backward_maximum_principle():
    # zero source: values stay inside the terminal range
    g = SpaceTimeGrid(64, 64, 1.0)
    x = g.x
    prob = HjbLinearProblem(g, WF, terminal=np.sin(np.pi * x) ** 2)
    u = solve_hjb_linear(prob)
    assert u.values.max() <= 1.0 + 1e-12
    assert u.values.min() >= -1e-12


def test_fp_preserves_nonnegativity():
    g = SpaceTimeGrid(64, 64, 1.0)
    x = g.x
    prob = FpLinearProblem(g, WF, initial=6.0 * x * (1 - x))
    m = solve_fp_linear(prob)
    assert m.values.min() >= -1e-10


def test_isomorphism_residual_families():
    g = SpaceTimeGrid(64, 8, 1.0)
    assert isomorphism_residual(WF, g) < 1e-10
    assert isomorphism_residual(P22, g) < 1e-10
    assert isomorphism_residual(np.ones(64), g) < 1e-10


def test_recorded_bound_ratios():
    g = SpaceTimeGrid(64, 16, 1.0)
    prob = HjbLinearProblem(g, WF, drift=WF.sqrt_a(g.x))
    assert prob.drift_ratio == pytest.approx(1.0, rel=1e-12)
    fp = FpLinearProblem(g, WF, convection=2.0 * WF.sqrt_a(g.x))
    assert fp.convection_ratio == pytest.approx(2.0, rel=1e-12)


def test_hjb_recovers_separable_solution():
    # u = e^{-t} x(1-x) satisfies the backward equation with a matching source
    errs = []
    for n, n_t in ((32, 64), (64, 256)):
        g = SpaceTimeGrid(n, n_t, 1.0)
        x, t = g.x[:, None], g.t[None, :]
        exact = np.exp(-t) * x * (1 - x)
        a = WF.a(g.x)[:, None]
        source = -exact + a * (-2.0 * np.exp(-t))
        prob = HjbLinearProblem(
            g, WF, source=source, terminal=np.exp(-1.0) * g.x * (1 - g.x)
        )
        u = solve_hjb_linear(prob)
        errs.append(np.max(np.abs(u.values - exact)))
    assert errs[1] < errs[0] / 2.5
    assert errs[1] < 5e-4


def _reference_step(sub, diag, sup, rhs, dt):
    """(I - dt L) f = rhs through scipy's general banded solver."""
    n = rhs.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = -dt * sup[:-1]
    ab[1, :] = 1.0 - dt * diag
    ab[2, :-1] = -dt * sub[1:]
    return solve_banded((1, 1), ab, rhs)


@pytest.mark.parametrize("n", [3, 64, 257])
def test_gtsv_step_matches_banded_reference(n):
    rng = np.random.default_rng(n)
    dt = 0.01
    # operator bands shaped like a sweep's (n_x, n_t + 1) band arrays
    sub = rng.uniform(0.0, 50.0, (n, 4))
    sup = rng.uniform(0.0, 50.0, (n, 4))
    diag = -(sub + sup) - rng.uniform(0.0, 10.0, (n, 4))
    sub[0] = 0.0
    sup[-1] = 0.0
    rhs = rng.standard_normal(n)
    k = 2
    want = _reference_step(sub[:, k], diag[:, k], sup[:, k], rhs, dt)
    _to_step_bands(sub, diag, sup, dt)
    got = _implicit_step(sub[:, k], diag[:, k], sup[:, k], rhs, k)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_singular_step_names_time_index():
    n = 5
    sub = np.zeros(n)
    diag = np.zeros(n)  # zero first column: the first pivot is exactly zero
    sup = np.ones(n)
    with pytest.raises(SolverError, match="time index 7"):
        _implicit_step(sub, diag, sup, np.ones(n), 7)


def test_repeated_solves_bit_identical_and_problem_untouched():
    g = SpaceTimeGrid(40, 30, 1.0)
    x, t = g.x[:, None], g.t[None, :]
    traj = np.sin(np.pi * x) * np.cos(t)
    hjb = HjbLinearProblem(
        g, WF, drift=0.3 * x * (1 - x) * (1 + t), source=traj, terminal=g.x * (1 - g.x)
    )
    fp = FpLinearProblem(
        g, P22, convection=0.2 * x * (1 - x) * (1 + t), zeroth=0.4,
        source=traj, initial=16.0 * P22.a(g.x),
    )
    before = [arr.copy() for arr in (hjb.drift, hjb.source, fp.convection, fp.source)]
    u1, u2 = solve_hjb_linear(hjb), solve_hjb_linear(hjb)
    m1, m2 = solve_fp_linear(fp), solve_fp_linear(fp)
    assert np.array_equal(u1.values, u2.values)
    assert np.array_equal(m1.values, m2.values)
    after = (hjb.drift, hjb.source, fp.convection, fp.source)
    assert all(np.array_equal(b, a) for b, a in zip(before, after))


def _random_problems(g):
    x, t = g.x[:, None], g.t[None, :]
    hjb = HjbLinearProblem(
        g, WF, drift=0.3 * x * (1 - x) * (1 + t), source=np.sin(np.pi * x) * t,
        terminal=g.x * (1 - g.x),
    )
    fp = FpLinearProblem(
        g, P22, convection=0.2 * x * (1 - x) * (1 + t), zeroth=0.4 * x * t,
        source=np.cos(np.pi * x) * t, initial=16.0 * P22.a(g.x),
    )
    return hjb, fp


def test_solve_and_residual_share_one_band_assembly(monkeypatch):
    calls = []

    def counting_bands(*args):
        calls.append(1)
        return _band_fields(*args)

    monkeypatch.setattr(solvers, "_band_fields", counting_bands)
    hjb, fp = _random_problems(SpaceTimeGrid(24, 20, 1.0))
    hjb_scheme_residual(solve_hjb_linear(hjb), hjb)
    assert len(calls) == 1
    fp_scheme_residual(solve_fp_linear(fp), fp)
    assert len(calls) == 2


def test_step_form_residuals_match_operator_form():
    g = SpaceTimeGrid(24, 20, 1.0)
    hjb, fp = _random_problems(g)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(g.shape)
    m = rng.standard_normal(g.shape)
    a = WF.a(g.x)[:, None]
    Lu = _apply_bands(*_band_fields(a, hjb.drift, np.zeros(g.shape), g.h), u)
    want = np.max(np.abs((u[:, 1:] - u[:, :-1]) / g.dt + Lu[:, :-1] - hjb.source[:, :-1]))
    assert hjb_scheme_residual(u, hjb) == pytest.approx(want, rel=1e-12)
    a = P22.a(g.x)[:, None]
    q = fp.convection * P22.log_derivative(g.x)[:, None] + fp.zeroth
    v = a * m
    Lv = _apply_bands(*_band_fields(a, -fp.convection, q, g.h), v)
    want = np.max(np.abs((v[:, 1:] - v[:, :-1]) / g.dt - Lv[:, 1:] - a * fp.source[:, 1:]))
    assert fp_scheme_residual(m, fp) == pytest.approx(want, rel=1e-12)


def _static_problems(g, rng):
    """A value and a density problem with time-invariant operators (profiles
    and scalars) and time-varying sources."""
    x = g.x
    hjb = HjbLinearProblem(
        g, WF, drift=0.3 * x * (1 - x), source=rng.standard_normal(g.shape),
        terminal=x * (1 - x),
    )
    fp = FpLinearProblem(
        g, P22, convection=0.2 * x * (1 - x), zeroth=0.4,
        source=rng.standard_normal(g.shape), initial=16.0 * P22.a(x),
    )
    return hjb, fp


# the smallest grid has 4 nodes
@pytest.mark.parametrize("n", [4, 64, 257])
def test_static_path_matches_per_level_path(n):
    g = SpaceTimeGrid(n, 40, 1.0)
    hjb, fp = _static_problems(g, np.random.default_rng(n))
    # the same coefficients materialised as full trajectories: one band column
    # per time level, one gtsv per level
    hjb_full = HjbLinearProblem(
        g, WF, drift=np.array(hjb.drift), source=hjb.source, terminal=hjb.terminal
    )
    fp_full = FpLinearProblem(
        g, P22, convection=np.array(fp.convection), zeroth=np.array(fp.zeroth),
        source=fp.source, initial=fp.initial,
    )
    for static, full, solve in ((hjb, hjb_full, solve_hjb_linear),
                                (fp, fp_full, solve_fp_linear)):
        assert all(b.shape == (n, 1) for b in static._step_bands)
        assert all(b.shape == g.shape for b in full._step_bands)
        want = solve(full).values
        got = solve(static).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.fixture
def dgttrf_calls(monkeypatch):
    """The list that every LAPACK dgttrf call appends to."""
    calls = []
    dgttrf = solvers.lapack.dgttrf

    def counting_dgttrf(*args, **kwargs):
        calls.append(1)
        return dgttrf(*args, **kwargs)

    monkeypatch.setattr(solvers.lapack, "dgttrf", counting_dgttrf)
    return calls


def test_factor_once_per_static_sweep(dgttrf_calls):
    calls = dgttrf_calls
    g = SpaceTimeGrid(32, 24, 1.0)
    hjb, fp = _static_problems(g, np.random.default_rng(0))
    solve_hjb_linear(hjb)
    solve_fp_linear(fp)
    assert len(calls) == 2
    solve_hjb_linear(hjb)
    assert len(calls) == 3
    calls.clear()
    hjb, fp = _random_problems(g)
    solve_hjb_linear(hjb)
    solve_fp_linear(fp)
    assert calls == []


def test_factor_once_on_every_linearized_sweep(dgttrf_calls):
    g = SpaceTimeGrid(32, 24, 1.0)
    x = g.x
    coeffs = MfgCoefficients(
        P22, g, d1=0.3 * x * (1 - x), d2=-0.4 * P22.a(x), c1=0.2 * x * (1 - x),
        b=0.4, c2=0.1, rho=0.05 * x * (1 - x),
    )
    sol = solve_linearized_mfg(coeffs, F=np.sin(np.pi * x), m0=16.0 * P22.a(x))
    assert sol.converged and sol.sweeps > 1
    assert len(dgttrf_calls) == 2 * sol.sweeps


def test_static_scheme_residual_at_rounding_level():
    g = SpaceTimeGrid(96, 80, 1.0)
    hjb, fp = _static_problems(g, np.random.default_rng(7))
    u = solve_hjb_linear(hjb).values
    m = solve_fp_linear(fp).values
    # the residual divides step defects by dt: rounding is eps * |field| / dt
    assert hjb_scheme_residual(u, hjb) <= 1e-12 * np.max(np.abs(u)) / g.dt
    assert fp_scheme_residual(m, fp) <= 1e-12 * np.max(np.abs(P22.a(g.x)[:, None] * m)) / g.dt


@pytest.mark.parametrize("scale, first_level", [(-0.1, 9), (0.1, 1)])
def test_singular_static_operator_names_time_index(scale, first_level):
    n = 5
    bands = (np.zeros((n, 1)), np.zeros((n, 1)), np.ones((n, 1)))  # zero first column
    with pytest.raises(SolverError, match=f"time index {first_level}$"):
        solvers._march(bands, np.ones(n), np.ones((n, 11)), scale, "value")


@pytest.mark.parametrize("kind", ["scalar", "profile", "trajectory"])
def test_hypothesis_ratios_equal_full_array_ratios(kind):
    g = SpaceTimeGrid(64, 48, 1.0)
    x = g.x
    coef = {
        "scalar": -2.5,
        "profile": np.sin(7.0 * x) - 0.3,
        "trajectory": np.outer(np.cos(5.0 * x), 1.0 + g.t),
    }[kind]
    full = np.array(solvers._traj(coef, g, "coef"))  # materialised, every column
    want = float(np.max(np.abs(full) / WF.sqrt_a(x)[:, None]))
    assert HjbLinearProblem(g, WF, drift=coef).drift_ratio == want
    assert FpLinearProblem(g, WF, convection=coef).convection_ratio == want
