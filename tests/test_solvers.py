"""Linear backward and forward solvers on degenerate diffusions."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from degenmfg import solvers
from degenmfg.domain import DegenerateCoefficient, SpaceTimeField, SpaceTimeGrid
from degenmfg.mfg import (
    MfgCoefficients,
    check_coefficient_bounds,
    solve_linearized_mfg,
    solve_nonlinear_mfg,
)
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
from degenmfg.stability import NonlinearProblemSpec, generate_pair

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
    sqrt_a = WF.sqrt_a(g.x)
    report = check_coefficient_bounds(MfgCoefficients(WF, g, d1=sqrt_a, c1=2.0 * sqrt_a))
    assert report.value("d1_over_sqrt_a") == pytest.approx(1.0, rel=1e-12)
    assert report.value("c1_over_sqrt_a") == pytest.approx(2.0, rel=1e-12)
    assert report.value("ax_over_sqrt_a") == float(np.max(np.abs(WF.a_x(g.x)) / sqrt_a))


def _coerced_runs(form, g):
    """What every coefficient-taking entry point makes of one coefficient or
    datum ``form``, given for every slot it has: MfgCoefficients' arrays,
    both linear solves, both coupled solves and a generate_pair."""
    keys = ("p", "d", "d1", "d2", "c1", "c2", "b", "rho")
    coeffs = MfgCoefficients(P22, g, **{k: form for k in keys})
    data = dict(F=form, G=form, m0=form, h=form)
    hjb = HjbLinearProblem(g, P22, drift=form, source=form, terminal=form)
    fp = FpLinearProblem(g, P22, convection=form, zeroth=form, source=form, initial=form)
    spec = NonlinearProblemSpec(P22, p=form, p_x=form, d=form, F=form, G=form)
    pair = generate_pair((form, form), (form, form), 0.1, spec, grid=g)
    coupled = (solve_linearized_mfg(coeffs, **data), solve_nonlinear_mfg(coeffs, **data)) + pair
    return ([getattr(coeffs, k) for k in keys]
            + [solve_hjb_linear(hjb).values, solve_fp_linear(fp).values]
            + [f.values for sol in coupled for f in (sol.u, sol.m)])


@pytest.mark.parametrize("fn, scalar", [
    (lambda x: 0.5 * x * (1.0 - x), None),
    (lambda x: np.full_like(x, 0.01), 0.01),
], ids=["profile", "constant"])
def test_callable_sample_and_scalar_coerce_alike(fn, scalar):
    g = SpaceTimeGrid(24, 16, 1.0)
    want = _coerced_runs(fn, g)
    for form in [fn(g.x)] + ([] if scalar is None else [scalar]):
        for got, ref in zip(_coerced_runs(form, g), want, strict=True):
            assert got.shape == ref.shape
            assert np.array_equal(_bits(got), _bits(ref))


def test_callable_of_the_wrong_shape_raises_naming_the_field():
    g = SpaceTimeGrid(24, 16, 1.0)
    bad = lambda x: np.zeros(x.size + 1)  # noqa: E731
    spec = NonlinearProblemSpec(P22, p=0.0, p_x=0.0, d=0.0)
    coeffs = MfgCoefficients(P22, g)
    cases = [
        ("c1", lambda: MfgCoefficients(P22, g, c1=bad)),
        ("drift", lambda: HjbLinearProblem(g, P22, drift=bad)),
        ("terminal", lambda: HjbLinearProblem(g, P22, terminal=bad)),
        ("zeroth", lambda: FpLinearProblem(g, P22, zeroth=bad)),
        ("initial", lambda: FpLinearProblem(g, P22, initial=bad)),
        ("G", lambda: solve_linearized_mfg(coeffs, G=bad)),
        ("h", lambda: solve_nonlinear_mfg(coeffs, h=bad)),
        ("p", lambda: generate_pair((0.0, 0.0), (0.0, 0.0), 0.1, replace(spec, p=bad), grid=g)),
        ("F", lambda: generate_pair((0.0, 0.0), (0.0, 0.0), 0.1, replace(spec, F=bad), grid=g)),
        ("delta_m0", lambda: generate_pair((0.0, 0.0), (bad, 0.0), 0.1, spec, grid=g)),
    ]
    for name, build in cases:
        with pytest.raises(ValueError, match=rf"^{name}: expected shape \(24,\), got \(25,\)"):
            build()


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


def _column_march(bands, first, src, scale):
    """Reference: the column-by-column march that preceded the time-major
    buffer (a fresh right-hand side per level, copied into column k)."""
    levels = range(src.shape[1] - 2, -1, -1) if scale < 0.0 else range(1, src.shape[1])
    prev = 1 if scale < 0.0 else -1
    f = np.empty(src.shape)
    f[:, levels[0] + prev] = first
    sub, diag, sup = bands
    lu = None
    if diag.shape[1] == 1:
        *lu, _ = solvers.lapack.dgttrf(sub[1:, 0], diag[:, 0], sup[:-1, 0])
    for k in levels:
        rhs = f[:, k + prev] + scale * src[:, k]
        f[:, k] = (solvers.lapack.dgttrs(*lu, rhs, overwrite_b=1)[0] if lu
                   else solvers.lapack.dgtsv(sub[1:, k], diag[:, k], sup[:-1, k], rhs)[3])
    return f


def _march_case(n_x, n_t, columns, seed):
    """Random diffusion-dominated step bands (one column or one per level), an
    end slice and a source trajectory."""
    rng = np.random.default_rng(seed)
    g = SpaceTimeGrid(n_x, n_t, 1.0)
    width = 1 if columns == "one" else n_t + 1
    a = 0.1 + rng.random((n_x, 1))
    d = rng.standard_normal((n_x, width))
    q = rng.standard_normal((n_x, width))
    bands = _to_step_bands(*_band_fields(a, d, q, g.h), g.dt)
    return bands, rng.standard_normal(n_x), rng.standard_normal(g.shape), g.dt


@pytest.mark.parametrize("n_x", [4, 64, 257])
@pytest.mark.parametrize("n_t", [2, 7, 130])
@pytest.mark.parametrize("columns", ["one", "full"])
@pytest.mark.parametrize("backward", [True, False])
def test_time_major_march_equals_column_march(n_x, n_t, columns, backward):
    bands, first, src, dt = _march_case(n_x, n_t, columns, seed=n_x * n_t)
    scale = -dt if backward else dt
    kept = [b.copy() for b in bands]
    got = solvers._march(bands, first, src, scale, "value")
    assert np.array_equal(got, _column_march(bands, first, src, scale))
    # the march's buffer is the result: time-major, fresh
    assert got.flags.f_contiguous and got.flags.writeable and got.shape == src.shape
    assert not any(np.shares_memory(got, v) for v in (src, first, *bands))
    assert all(np.array_equal(b, k) for b, k in zip(bands, kept))
    # a stride-0 source, as _traj makes for scalars and profiles
    flat = np.broadcast_to(src[:, :1], src.shape)
    assert np.array_equal(solvers._march(bands, first, flat, scale, "value"),
                          _column_march(bands, first, flat, scale))
    # the density path: weight times source, then the step scale
    weight = 0.5 + np.arange(n_x)[:, None] / n_x
    assert np.array_equal(solvers._march(bands, first, src, scale, "density", weight),
                          _column_march(bands, first, weight * src, scale))


def _owns_its_memory(field, *others):
    """The field contract: time-major, frozen, fresh, sharing no memory with
    the given inputs."""
    v = field.values
    return (v.flags.f_contiguous and not v.flags.writeable and v.flags.owndata
            and not any(np.shares_memory(v, o) for o in others))


# the names keep "c_arrays" from the C-ordered contract they replaced; they
# pin the time-major one
@pytest.mark.parametrize("kind", ["static", "time-varying", "fortran-ordered"])
def test_solver_outputs_are_fresh_frozen_c_arrays(kind):
    g = SpaceTimeGrid(24, 20, 1.0)
    if kind == "static":
        hjb, fp = _static_problems(g, np.random.default_rng(5))
    else:
        hjb, fp = _random_problems(g)  # C-ordered coefficients
    if kind == "fortran-ordered":
        # time-major coefficients give time-major bands, whose levels are
        # contiguous: a gtsv on them in place would overwrite the cache
        hjb = HjbLinearProblem(g, WF, drift=np.asfortranarray(hjb.drift),
                               source=hjb.source, terminal=hjb.terminal)
        fp = FpLinearProblem(g, P22, convection=np.asfortranarray(fp.convection),
                             zeroth=np.asfortranarray(fp.zeroth), source=fp.source,
                             initial=fp.initial)
        assert all(any(b.flags.f_contiguous for b in p._step_bands) for p in (hjb, fp))
    for prob, solve, end in ((hjb, solve_hjb_linear, hjb.terminal),
                             (fp, solve_fp_linear, fp.initial)):
        kept = [b.copy() for b in prob._step_bands]
        first, second = solve(prob), solve(prob)
        assert _owns_its_memory(first, prob.source, end, second.values, *prob._step_bands)
        assert np.array_equal(first.values, second.values)
        assert all(np.array_equal(b, k) for b, k in zip(prob._step_bands, kept))


def test_coupled_solution_fields_are_fresh_frozen_c_arrays():
    g = SpaceTimeGrid(32, 24, 1.0)
    x = g.x
    coeffs = MfgCoefficients(
        P22, g, d1=0.3 * x * (1 - x), d2=-0.4 * P22.a(x), c1=0.2 * x * (1 - x),
        b=0.4, c2=0.1, rho=0.05 * x * (1 - x),
    )
    F = np.sin(np.pi * x)[:, None] * (1.0 + g.t)
    sol = solve_linearized_mfg(coeffs, F=F, m0=16.0 * P22.a(x))
    assert sol.converged and sol.sweeps > 1
    assert _owns_its_memory(sol.u, sol.m.values, F)
    assert _owns_its_memory(sol.m, sol.u.values, F)


def test_public_field_construction_still_copies():
    g = SpaceTimeGrid(8, 4, 1.0)
    arr = np.ones(g.shape)
    field = SpaceTimeField(arr, g)
    assert arr.flags.writeable and not np.shares_memory(arr, field.values)


def _pivoting_bands(n, rng):
    """Random tridiagonal bands where every third row has |dl| > |d|, so the
    partial pivoting of gtsv/gttrf swaps rows there."""
    dl = rng.standard_normal(n - 1)
    d = rng.standard_normal(n)
    du = rng.standard_normal(n - 1)
    dl[::3] = 4.0 + rng.random(dl[::3].shape)
    d[1::3] = 0.1 * rng.random(d[1::3].shape)
    return dl, d, du, rng.standard_normal(n)


@pytest.mark.parametrize("n", [4, 64, 257])
def test_loaded_lapack_equals_public_scipy_lapack(n):
    from scipy.linalg import lapack as public

    dl, d, du, b = _pivoting_bands(n, np.random.default_rng(n))
    assert np.any(np.abs(dl) > np.abs(d[1:]))
    got = solvers.lapack.dgtsv(dl.copy(), d.copy(), du.copy(), b.copy())
    want = public.dgtsv(dl.copy(), d.copy(), du.copy(), b.copy())
    assert got[4] == want[4] == 0
    assert all(np.array_equal(g, w) for g, w in zip(got[:4], want[:4]))
    *lu_got, info_got = solvers.lapack.dgttrf(dl, d, du)
    *lu_want, info_want = public.dgttrf(dl, d, du)
    assert info_got == info_want == 0
    assert all(np.array_equal(g, w) for g, w in zip(lu_got, lu_want))
    assert not np.array_equal(lu_got[4], np.arange(1, n + 1))  # rows were swapped
    x_got, _ = solvers.lapack.dgttrs(*lu_got, b.copy())
    x_want, _ = public.dgttrs(*lu_want, b.copy())
    assert np.array_equal(x_got, x_want)


@pytest.mark.parametrize("missing", ["extension file", "scipy spec", "create error", "exec error"])
def test_lapack_loader_falls_back_to_public_module(monkeypatch, missing):
    import importlib.machinery
    import importlib.util

    from scipy.linalg import lapack as public

    cases = [_march_case(64, 33, columns, seed=11) for columns in ("one", "full")]
    direct = [solvers._march(bands, first, src, -dt, "value") for bands, first, src, dt in cases]
    if missing == "extension file":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    elif missing.endswith("error"):
        # the file is there but will not load, e.g. its shared libraries are
        # not findable without scipy/__init__.py
        def fail(*args):
            raise ImportError("DLL load failed")

        step = "create_module" if missing == "create error" else "exec_module"
        monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, step, fail)
    else:
        find_spec = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, *a: None if name == "scipy" else find_spec(name, *a))
    loaded = solvers._load_lapack()
    assert loaded is public
    monkeypatch.setattr(solvers, "lapack", loaded)
    for (bands, first, src, dt), want in zip(cases, direct):
        assert np.array_equal(solvers._march(bands, first, src, -dt, "value"), want)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("cols", [1, 9])  # one band column, and a full trajectory
def test_bands_without_q_equal_bands_with_explicit_zeros_bitwise(cols):
    g = SpaceTimeGrid(33, 8, 1.0)
    rng = np.random.default_rng(3)
    a = P22.a(g.x)[:, None]
    d = rng.standard_normal((g.n_x, cols))
    d[0] = -0.0  # signed zeros at the boundary rows, which fold d into diag
    d[-1] = 0.0
    free = _band_fields(a, d, None, g.h)
    zeros = _band_fields(a, d, np.zeros(d.shape), g.h)
    for got, want in zip(free, zeros):
        assert got.shape == want.shape == d.shape
        assert np.array_equal(_bits(got), _bits(want))
    prob = HjbLinearProblem(g, P22, drift=d if cols > 1 else d[:, 0])
    prob_d = prob.drift if cols > 1 else prob.drift[:, :1]
    want = _to_step_bands(*_band_fields(a, prob_d, np.zeros(prob_d.shape), g.h), g.dt)
    for got, ref in zip(prob._step_bands, want):
        assert np.array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("cols", [1, 9])  # one band column, and a full trajectory
def test_density_bands_with_signed_step_equal_explicit_negation_bitwise(cols):
    g = SpaceTimeGrid(33, 8, 1.0)
    rng = np.random.default_rng(5)
    a = P22.a(g.x)[:, None]
    c = rng.standard_normal((g.n_x, cols))
    c[0] = 0.0  # signed zeros at the boundary rows, which fold c into diag
    c[-1] = -0.0
    q = rng.standard_normal((g.n_x, cols))
    for got, want in zip(_band_fields(a, c, q, -g.h), _band_fields(a, -c, q, g.h)):
        assert got.shape == want.shape == c.shape
        assert np.array_equal(_bits(got), _bits(want))
    zeroth = rng.standard_normal((g.n_x, cols))
    prob = FpLinearProblem(g, P22, convection=c if cols > 1 else c[:, 0],
                           zeroth=zeroth if cols > 1 else zeroth[:, 0])
    conv = prob.convection if cols > 1 else prob.convection[:, :1]
    q = conv * P22.log_derivative(g.x)[:, None] + zeroth
    want = _to_step_bands(*_band_fields(a, -conv, q, g.h), g.dt)
    for got, ref in zip(prob._step_bands, want):
        assert np.array_equal(_bits(got), _bits(ref))


def _rel_close(got, want, rtol=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    both_nan = np.isnan(got) & np.isnan(want)
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    assert np.all(both_nan | (np.abs(got - want) <= rtol * scale))


def test_c_ordered_and_time_major_inputs_give_the_same_results():
    from degenmfg.carleman import CarlemanBundle, sweep_parameters

    g = SpaceTimeGrid(40, 32, 1.0)
    results = []
    for layout in (np.ascontiguousarray, np.asfortranarray):
        hjb_c, fp_c = _random_problems(g)
        hjb = HjbLinearProblem(g, WF, drift=layout(hjb_c.drift), source=layout(hjb_c.source),
                               terminal=hjb_c.terminal)
        fp = FpLinearProblem(g, P22, convection=layout(fp_c.convection),
                             zeroth=layout(fp_c.zeroth), source=layout(fp_c.source),
                             initial=fp_c.initial)
        u, m = solve_hjb_linear(hjb), solve_fp_linear(fp)
        u_in, m_in = layout(u.values), layout(m.values)
        sweeps = [sweep_parameters(CarlemanBundle(kind, coeff, g, **fields),
                                   [0.5, 3.0, 40.0, 400.0], [0.3, 1.0, 2.5]).ratios
                  for kind, coeff, fields in (
                      ("hjb", WF, {"u": u_in, "F": layout(hjb.source)}),
                      ("fp", P22, {"m": m_in, "G": layout(fp.source)}))]
        residuals = [hjb_scheme_residual(u_in, hjb), fp_scheme_residual(m_in, fp)]
        results.append((u.values, m.values, *sweeps, residuals))
    assert results[0][0].flags.f_contiguous  # solver outputs are time-major either way
    for got, want in zip(results[1], results[0]):
        _rel_close(got, want)
