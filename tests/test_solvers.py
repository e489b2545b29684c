"""Linear backward and forward solvers on degenerate diffusions."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu, solve_banded

from degenmfg import solvers
from degenmfg.domain import DegenerateCoefficient, SpaceTimeField, SpaceTimeGrid
from degenmfg.manufactured import make_case, smooth_exp
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


def _probed_isomorphism_residual(coeff, g):
    """The conjugation defect probed with every unit field, one column each."""
    n = g.n_x
    a = coeff.a(g.x)
    zeros = np.zeros((n, 1))
    sub, diag, sup = _band_fields(np.ones((n, 1)), zeros, zeros, g.h)
    w = a[:, None] * np.eye(n)
    dxx_w = _apply_bands(sub, diag, sup, w)
    return float(np.max(np.abs((a[:, None] * dxx_w) / a[:, None] - dxx_w)))


@pytest.mark.parametrize("coeff", [P22, DegenerateCoefficient.power(3.0, 5.0), WF,
                                   DegenerateCoefficient.quadratic_oil(1.3)],
                         ids=["power22", "power35", "wf", "oil"])
@pytest.mark.parametrize("n_x", [4, 7, 64, 333])
def test_isomorphism_residual_equals_unit_probes_bitwise(coeff, n_x):
    g = SpaceTimeGrid(n_x, 4, 1.0)
    got = isomorphism_residual(coeff, g)
    assert got.hex() == _probed_isomorphism_residual(coeff, g).hex()


def test_isomorphism_residual_reports_a_nan_defect():
    # a = 0 at every node (x^1e6 underflows): 0 / 0 is NaN, not a zero defect
    g = SpaceTimeGrid(16, 4, 1.0)
    with np.errstate(invalid="ignore"):
        assert np.isnan(isomorphism_residual(DegenerateCoefficient.power(1e6, 2.0), g))


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
    spec = NonlinearProblemSpec(P22, p=form, d=form, F=form, G=form)
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
    spec = NonlinearProblemSpec(P22, p=0.0, d=0.0)
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
    got = _implicit_step(sub[1:, k], diag[:, k], sup[:-1, k], rhs, k)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_singular_step_names_time_index():
    n = 5
    sub = np.zeros(n)
    diag = np.zeros(n)  # zero first column: the first pivot is exactly zero
    sup = np.ones(n)
    with pytest.raises(SolverError, match="time index 7"):
        _implicit_step(sub[1:], diag, sup[:-1], np.ones(n), 7)


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


def _levels(src, scale):
    """_march's levels and the offset of each one's predecessor."""
    if scale < 0.0:
        return range(src.shape[1] - 2, -1, -1), 1
    return range(1, src.shape[1]), -1


def _banded_march(bands, first, term, scale):
    """Oracle: the march S_k f^k = f^j + term^k from step bands (one column or
    one per level), one solve_banded per level."""
    levels, prev = _levels(term, scale)
    f = np.empty(term.shape)
    f[:, levels[0] + prev] = first
    ab = np.zeros((3, first.size))
    for k in levels:
        sub, diag, sup = (b[:, 0 if b.shape[1] == 1 else k] for b in bands)
        ab[0, 1:], ab[1], ab[2, :-1] = sup[:-1], diag, sub[1:]
        f[:, k] = solve_banded((1, 1), ab, f[:, k + prev] + term[:, k])
    return f


def _rounding_bound(bands, f, term, scale, c=16):
    """Componentwise first-order bounds on the rounding of either kernel of
    _march at the trajectory f, S_k f^k = f^j + term^k: (g, r), the error
    bound g and the bound r on each level's defect S_k f^k - f^j - term^k.

    Both kernels are backward stable level by level (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 9): the computed level
    solves (S + dS) f^k = b + db with |dS| <= c u P |L| |U|, the factors of
    S's partially pivoted LU, and |db| <= c u (|f^j| + |term^k|) (the source
    scaling, the sum, the division by delta).  P |L| |U| is |S| when no row
    is swapped, and for pttrs, where |L| |D| |L^T| = |T|; c = 16 holds the 4u
    of the factored solve, up to 4u of the similarity D (its adjacent ratios
    carry a few roundings each) and the roundings of the right-hand side.
    So r^k = c u (P |L| |U| |f^k| + |f^j| + |term^k|), the error obeys
    e^k = S^-1 (e^j + defect), and g^k = |S^-1| (g^j + r^k) bounds it; at the
    end slice g covers the division by delta and the product back.
    """
    u = np.finfo(float).eps / 2
    levels, prev = _levels(term, scale)
    g = np.empty(f.shape)
    r = np.zeros(f.shape)
    g[:, levels[0] + prev] = c * u * np.abs(f[:, levels[0] + prev])
    for k in levels:
        if k == levels[0] or bands[1].shape[1] > 1:
            sub, diag, sup = (b[:, 0 if b.shape[1] == 1 else k] for b in bands)
            dense = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
            perm, lower, upper = lu(dense)
            factors = perm @ (np.abs(lower) @ np.abs(upper))
            inv = np.abs(np.linalg.inv(dense))
        r[:, k] = c * u * (factors @ np.abs(f[:, k]) + np.abs(f[:, k + prev]) + np.abs(term[:, k]))
        g[:, k] = inv @ (g[:, k + prev] + r[:, k])
    return g, r


def _mp_march(bands, first, src, scale, weight=None, dps=40):
    """The march S f^k = f^j + scale weight src^k of one time-invariant step
    matrix in dps-digit arithmetic (mpmath), from the same double inputs:
    Thomas elimination factored once, every level back-substituted.
    Returns the trajectory rounded to doubles."""
    import mpmath

    levels, prev = _levels(src, scale)
    n = first.size
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        sub, diag, sup = ([mpf(float(v)) for v in b[:, 0]] for b in bands)
        w = [mpf(1)] * n if weight is None else [mpf(float(v)) for v in weight[:, 0]]
        lower, inv_piv = [mpf(0)] * n, [1 / diag[0]] * n
        for i in range(1, n):
            lower[i] = sub[i] * inv_piv[i - 1]
            inv_piv[i] = 1 / (diag[i] - lower[i] * sup[i - 1])
        level = [mpf(float(v)) for v in first]
        out = np.empty(src.shape)
        out[:, levels[0] + prev] = first
        sc = mpf(scale)
        for k in levels:
            y = [level[i] + sc * (w[i] * mpf(float(src[i, k]))) for i in range(n)]
            for i in range(1, n):
                y[i] -= lower[i] * y[i - 1]
            y[-1] *= inv_piv[-1]
            for i in range(n - 2, -1, -1):
                y[i] = (y[i] - sup[i] * y[i + 1]) * inv_piv[i]
            level = y
            out[:, k] = [float(v) for v in y]
    return out


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
    a = P22.a(g.x)[:, None]
    u = np.finfo(float).eps / 2
    for static, full, solve, scale, first, weight in (
            (hjb, hjb_full, solve_hjb_linear, -g.dt, hjb.terminal, None),
            (fp, fp_full, solve_fp_linear, g.dt, a[:, 0] * fp.initial, a)):
        assert all(b.shape == (n, 1) for b in static._step_bands)
        assert all(b.shape == g.shape for b in full._step_bands)
        assert solvers._symmetrizer(*(b[:, 0] for b in static._step_bands)) is not None
        # each path against a 40-digit march of the same equations
        bands = static._step_bands
        want = _mp_march(bands, first, static.source, scale, weight)
        term = scale * (static.source if weight is None else weight * static.source)
        bound, _ = _rounding_bound(bands, want, term, scale)
        if weight is not None:  # m = v / a: the error divides by a, plus the quotient's rounding
            want /= a
            bound = bound / a + 2 * u * np.abs(want)
        for prob in (static, full):
            got = solve(prob).values
            assert np.all(np.abs(got - want) <= bound)


@pytest.fixture
def dpttrf_calls(monkeypatch):
    """The list that every LAPACK dpttrf call appends to."""
    calls = []
    dpttrf = solvers.lapack.dpttrf

    def counting_dpttrf(*args, **kwargs):
        calls.append(1)
        return dpttrf(*args, **kwargs)

    monkeypatch.setattr(solvers.lapack, "dpttrf", counting_dpttrf)
    return calls


def test_factor_once_per_static_sweep(dpttrf_calls):
    calls = dpttrf_calls
    g = SpaceTimeGrid(32, 24, 1.0)
    hjb, fp = _static_problems(g, np.random.default_rng(0))
    solve_hjb_linear(hjb)
    solve_fp_linear(fp)
    assert len(calls) == 2
    solve_hjb_linear(hjb)
    assert len(calls) == 2
    calls.clear()
    hjb, fp = _random_problems(g)
    solve_hjb_linear(hjb)
    solve_fp_linear(fp)
    assert calls == []


def test_factor_once_on_every_linearized_sweep(dpttrf_calls):
    g = SpaceTimeGrid(32, 24, 1.0)
    x = g.x
    coeffs = MfgCoefficients(
        P22, g, d1=0.3 * x * (1 - x), d2=-0.4 * P22.a(x), c1=0.2 * x * (1 - x),
        b=0.4, c2=0.1, rho=0.05 * x * (1 - x),
    )
    sol = solve_linearized_mfg(coeffs, F=np.sin(np.pi * x), m0=16.0 * P22.a(x))
    assert sol.converged and sol.sweeps > 1
    assert len(dpttrf_calls) == 2


def test_profile_edited_in_place_gives_the_new_operator(dpttrf_calls):
    g = SpaceTimeGrid(32, 24, 1.0)
    x = g.x
    d1, c1 = 0.3 * x * (1 - x), 0.2 * x * (1 - x)
    coeffs = MfgCoefficients(P22, g, d1=d1, d2=-0.4 * P22.a(x), c1=c1, b=0.4, c2=0.1,
                             rho=0.05 * x * (1 - x))
    assert np.shares_memory(coeffs.d1, d1) and np.shares_memory(coeffs.c1, c1)
    data = dict(F=np.sin(np.pi * x), m0=16.0 * P22.a(x))
    before = solve_linearized_mfg(coeffs, **data)
    d1 *= 1.5
    c1 *= -0.5
    after = solve_linearized_mfg(coeffs, **data)
    assert len(dpttrf_calls) == 4
    fresh = solve_linearized_mfg(coeffs, **data)
    assert not np.array_equal(after.u.values, before.u.values)
    for got, want in ((after.u, fresh.u), (after.m, fresh.m)):
        assert np.array_equal(got.values, want.values)
    assert after.residual_log == fresh.residual_log


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
        solvers._march(solvers._StepOperator(bands), np.ones(n), np.ones((n, 11)), scale, "value")


@pytest.mark.parametrize("scale", [-0.1, 0.1])
def test_singular_time_varying_level_names_time_index(scale):
    n, n_t, k = 5, 10, 4
    sub, diag, sup = (np.full((n, n_t + 1), v) for v in (0.5, 2.0, 0.5))
    sub[0] = sup[-1] = 0.0
    diag[0, k] = sub[1, k] = 0.0  # level k's first column is zero: its first pivot is exactly zero
    bands = (sub, diag, sup)
    before = [b.copy() for b in bands]
    with pytest.raises(SolverError, match=f"time index {k}$"):
        solvers._march(solvers._StepOperator(bands), np.ones(n), np.ones((n, n_t + 1)), scale,
                       "value")
    for b, b0 in zip(bands, before):
        assert np.array_equal(b, b0)


def _counted_steps(monkeypatch):
    """The time index of every gtsv level solve (_implicit_step), in order."""
    calls = []
    step = solvers._implicit_step

    def counting_step(*args):
        calls.append(args[4])
        return step(*args)

    monkeypatch.setattr(solvers, "_implicit_step", counting_step)
    return calls


def test_upwind_dominated_static_operator_takes_gtsv(monkeypatch):
    # a constant drift on Wright-Fischer: next to each degenerate end the cell
    # Peclet number d h / (2 a) exceeds 1, and sub[i+1] sup[i] changes sign
    g = SpaceTimeGrid(64, 16, 1.0)
    rng = np.random.default_rng(1)
    prob = HjbLinearProblem(g, WF, drift=5.0, source=rng.standard_normal(g.shape),
                            terminal=g.x * (1 - g.x))
    sub, diag, sup = (b[:, 0] for b in prob._step_bands)
    products = sub[1:] * sup[:-1]
    assert np.any(products < 0.0) and np.any(products > 0.0)
    steps = _counted_steps(monkeypatch)
    got = solve_hjb_linear(prob).values
    assert steps == list(range(g.n_t - 1, -1, -1))
    bands = _band_fields(WF.a(g.x)[:, None], prob.drift[:, :1], np.zeros((g.n_x, 1)), g.h)
    want = np.empty(g.shape)
    want[:, -1] = prob.terminal
    for k in range(g.n_t - 1, -1, -1):
        rhs = want[:, k + 1] - g.dt * prob.source[:, k]
        want[:, k] = _reference_step(*(b[:, 0] for b in bands), rhs, g.dt)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_symmetrizable_indefinite_operator_takes_gtsv(monkeypatch, dpttrf_calls):
    # sub sup > 0 everywhere, but T = tridiag(-1, 0.5, -1) has eigenvalues
    # 0.5 - 2 cos(k pi / 6): pttrf meets a negative pivot (info 2)
    n, n_t = 5, 8
    bands = (np.full((n, 1), -1.0), np.full((n, 1), 0.5), np.full((n, 1), -1.0))
    bands[0][0] = bands[2][-1] = 0.0
    rng = np.random.default_rng(4)
    first, src = rng.standard_normal(n), rng.standard_normal((n, n_t + 1))
    assert solvers._symmetrizer(*(b[:, 0] for b in bands)) is None
    assert len(dpttrf_calls) == 1
    steps = _counted_steps(monkeypatch)
    got = solvers._march(solvers._StepOperator(bands), first, src, 0.1, "density")
    assert steps == list(range(1, n_t + 1))
    want = _banded_march(bands, first, 0.1 * src, 0.1)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# sub / sup = ratio on every row: log delta spans 63 log(ratio) / 2, that is
# 435 (within _LOG_DELTA_SPAN = 460) and 508 (beyond it)
@pytest.mark.parametrize("ratio, symmetrized", [(1e6, True), (1e7, False)])
def test_log_delta_span_guard(monkeypatch, ratio, symmetrized):
    n, n_t = 64, 6
    bands = (np.full((n, 1), -1.0), np.full((n, 1), 3.0), np.full((n, 1), -1.0 / ratio))
    bands[0][0] = bands[2][-1] = 0.0
    span = (n - 1) * 0.5 * np.log(ratio)
    assert (span <= solvers._LOG_DELTA_SPAN) == symmetrized
    assert (solvers._symmetrizer(*(b[:, 0] for b in bands)) is not None) == symmetrized
    rng = np.random.default_rng(6)
    first, src = rng.standard_normal(n), rng.standard_normal((n, n_t + 1))
    steps = _counted_steps(monkeypatch)
    got = solvers._march(solvers._StepOperator(bands), first, src, -0.1, "value")
    assert steps == ([] if symmetrized else list(range(n_t - 1, -1, -1)))
    want = _banded_march(bands, first, -0.1 * src, -0.1)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _column_march(bands, first, src, scale):
    """Reference: the column-by-column march that preceded the time-major
    buffer (a fresh right-hand side per level, copied into column k), with
    _march's choice of kernel: pttrs in w = f / delta when _symmetrizer takes
    the one band column, else one gtsv per level."""
    levels, prev = _levels(src, scale)
    f = np.empty(src.shape)
    sub, diag, sup = bands
    sym = solvers._symmetrizer(sub[:, 0], diag[:, 0], sup[:, 0]) if diag.shape[1] == 1 else None
    if sym is None:
        f[:, levels[0] + prev] = first
        for k in levels:
            rhs = f[:, k + prev] + scale * src[:, k]
            j = 0 if diag.shape[1] == 1 else k
            f[:, k] = solvers.lapack.dgtsv(sub[1:, j], diag[:, j], sup[:-1, j], rhs)[3]
        return f
    delta, d, e = sym
    coef = scale / delta
    f[:, levels[0] + prev] = first / delta
    for k in levels:
        rhs = f[:, k + prev] + coef * src[:, k]
        f[:, k] = solvers.lapack.dpttrs(d, e, rhs)[0]
    return f * delta[:, None]


def _march_case(n_x, n_t, columns, seed):
    """Random step bands (one column, one per level, or one column whose drift
    dominates the diffusion), an end slice and a source trajectory."""
    rng = np.random.default_rng(seed)
    g = SpaceTimeGrid(n_x, n_t, 1.0)
    width = n_t + 1 if columns == "full" else 1
    a = 0.1 + rng.random((n_x, 1))
    d = rng.standard_normal((n_x, width))
    if columns == "one-upwind":  # cell Peclet |d| h / (2 a) well above 1
        d *= 8.0 / g.h
    q = rng.standard_normal((n_x, width))
    bands = _to_step_bands(*_band_fields(a, d, q, g.h), g.dt)
    return bands, rng.standard_normal(n_x), rng.standard_normal(g.shape), g.dt


@pytest.mark.parametrize("n_x", [4, 64, 257])
@pytest.mark.parametrize("n_t", [2, 7, 130])
@pytest.mark.parametrize("columns", ["one", "full", "one-upwind"])
@pytest.mark.parametrize("backward", [True, False])
def test_time_major_march_equals_column_march(n_x, n_t, columns, backward):
    bands, first, src, dt = _march_case(n_x, n_t, columns, seed=n_x * n_t)
    if columns != "full":  # one column: each kernel in turn
        sym = solvers._symmetrizer(*(b[:, 0] for b in bands))
        assert (sym is None) == (columns == "one-upwind")
    scale = -dt if backward else dt
    kept = [b.copy() for b in bands]
    op = solvers._StepOperator(bands)
    got = solvers._march(op, first, src, scale, "value")
    assert np.array_equal(got, _column_march(bands, first, src, scale))
    # the march's buffer is the result: time-major, fresh
    assert got.flags.f_contiguous and got.flags.writeable and got.shape == src.shape
    assert not any(np.shares_memory(got, v) for v in (src, first, *bands))
    assert all(np.array_equal(b, k) for b, k in zip(bands, kept))
    # a stride-0 source, as _traj makes for scalars and profiles
    flat = np.broadcast_to(src[:, :1], src.shape)
    assert np.array_equal(solvers._march(op, first, flat, scale, "value"),
                          _column_march(bands, first, flat, scale))
    # the density path: weight times source, then the step scale
    weight = 0.5 + np.arange(n_x)[:, None] / n_x
    assert np.array_equal(solvers._march(op, first, src, scale, "density", weight),
                          _column_march(bands, first, weight * src, scale))


FAMILIES = {"power": P22, "wright_fischer": WF,
            "quadratic_oil": DegenerateCoefficient.quadratic_oil()}


# drift amp sqrt(a): its cell Peclet number next to a degenerate end is about
# |amp| for power and quadratic_oil, so amp in [-4, 4] draws both kernels
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(family=st.sampled_from(sorted(FAMILIES)), n_x=st.integers(4, 96), n_t=st.integers(2, 8),
       amp=st.floats(-4.0, 4.0), seed=st.integers(0, 2**32 - 1))
@example(family="power", n_x=32, n_t=4, amp=0.5, seed=0)  # symmetrized: pttrs
@example(family="power", n_x=32, n_t=4, amp=3.0, seed=0)  # sub sup changes sign: gtsv
def test_sweeps_match_banded_oracle_and_satisfy_their_steps(family, n_x, n_t, amp, seed):
    coeff = FAMILIES[family]
    g = SpaceTimeGrid(n_x, n_t, 1.0)
    rng = np.random.default_rng(seed)
    drift = amp * coeff.sqrt_a(g.x)
    a = coeff.a(g.x)[:, None]
    u = np.finfo(float).eps / 2
    hjb = HjbLinearProblem(g, coeff, drift=drift, source=rng.standard_normal(g.shape),
                           terminal=rng.standard_normal(n_x))
    fp = FpLinearProblem(g, coeff, convection=drift, source=rng.standard_normal(g.shape),
                         initial=rng.random(n_x))
    for prob, solve, residual, scale, first, weight in (
            (hjb, solve_hjb_linear, hjb_scheme_residual, -g.dt, hjb.terminal, np.ones_like(a)),
            (fp, solve_fp_linear, fp_scheme_residual, g.dt, a[:, 0] * fp.initial, a)):
        bands = prob._step_bands
        term = scale * (weight * prob.source)
        want = _banded_march(bands, first, term, scale)
        sol = solve(prob)
        got = weight * sol.values  # v = a m on the density side: two more roundings
        # the march and the oracle each within _rounding_bound of the exact march
        bound, defect = _rounding_bound(bands, want, term, scale)
        assert np.all(np.abs(got - want) <= 2 * bound + 4 * u * np.abs(want))
        # the step defects within the same backward-error bound, divided by dt
        assert residual(sol, prob) <= np.max(defect) / g.dt


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
    # the LDL^T pair, on a symmetric positive definite (diagonally dominant) T
    rng = np.random.default_rng(n + 1)
    d_spd, e_spd = 2.5 + rng.random(n), rng.uniform(-1.0, 1.0, n - 1)
    *ldl_got, info_got = solvers.lapack.dpttrf(d_spd, e_spd)
    *ldl_want, info_want = public.dpttrf(d_spd, e_spd)
    assert info_got == info_want == 0
    assert all(np.array_equal(g, w) for g, w in zip(ldl_got, ldl_want))
    x_got, _ = solvers.lapack.dpttrs(*ldl_got, b.copy())
    x_want, _ = public.dpttrs(*ldl_want, b.copy())
    assert np.array_equal(x_got, x_want)


def test_pttrs_solves_a_contiguous_column_in_place():
    # f2py declares b rank-2; _march relies on a 1-D contiguous column of the
    # time-major buffer taking the solution in its own memory
    n = 33
    rng = np.random.default_rng(2)
    diag, off = 2.5 + rng.random(n), rng.uniform(-1.0, 1.0, n - 1)
    d, e, info = solvers.lapack.dpttrf(diag, off)
    assert info == 0
    f = np.asfortranarray(rng.standard_normal((n, 4)))
    kept = f.copy()
    want = solvers.lapack.dpttrs(d, e, f[:, 2].copy())[0]
    x, info = solvers.lapack.dpttrs(d, e, f[:, 2], overwrite_b=1)
    assert info == 0 and np.shares_memory(x, f)
    assert np.array_equal(f[:, 2], want)
    assert np.array_equal(f[:, [0, 1, 3]], kept[:, [0, 1, 3]])
    T = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    assert np.allclose(T @ f[:, 2], kept[:, 2], rtol=0.0, atol=1e-14 * np.max(np.abs(kept)))


@pytest.mark.parametrize("missing", ["extension file", "scipy spec", "create error", "exec error"])
def test_lapack_loader_falls_back_to_public_module(monkeypatch, missing):
    import importlib.machinery
    import importlib.util

    from scipy.linalg import lapack as public

    cases = [_march_case(64, 33, columns, seed=11) for columns in ("one", "full")]
    direct = [solvers._march(solvers._StepOperator(bands), first, src, -dt, "value")
              for bands, first, src, dt in cases]
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
        got = solvers._march(solvers._StepOperator(bands), first, src, -dt, "value")
        assert np.array_equal(got, want)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


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
        sweeps = [sweep_parameters(CarlemanBundle(coeff, g, **fields),
                                   [0.5, 3.0, 40.0, 400.0], [0.3, 1.0, 2.5]).ratios
                  for coeff, fields in (
                      (WF, {"u": u_in, "F": layout(hjb.source)}),
                      (P22, {"m": m_in, "G": layout(fp.source)}))]
        residuals = [hjb_scheme_residual(u_in, hjb), fp_scheme_residual(m_in, fp)]
        results.append((u.values, m.values, *sweeps, residuals))
    assert results[0][0].flags.f_contiguous  # solver outputs are time-major either way
    for got, want in zip(results[1], results[0]):
        _rel_close(got, want)


@pytest.mark.parametrize(
    "make, name, value",
    [
        (lambda g: HjbLinearProblem(g, WF), "drift", 5.0),
        (lambda g: HjbLinearProblem(g, WF), "source", 2.0),
        (lambda g: FpLinearProblem(g, WF), "convection", 1.0),
        (lambda g: MfgCoefficients(WF, g), "p", 0.5),
        (lambda g: SpaceTimeField(np.zeros(g.shape), g), "values", 1.0),
        (lambda g: make_case("drifted-well"), "Tu", smooth_exp(-3.0)),
    ],
    ids=["hjb.drift", "hjb.source", "fp.convection", "coefficients.p", "field.values", "case.Tu"],
)
def test_records_are_frozen(make, name, value):
    g = SpaceTimeGrid(16, 8, 1.0)
    record = make(g)
    with pytest.raises(FrozenInstanceError):
        setattr(record, name, value)


def test_replaced_problems_solve_as_fresh_ones_bitwise():
    g = SpaceTimeGrid(16, 8, 1.0)
    rng = np.random.default_rng(8)
    src, end = rng.standard_normal(g.shape), g.x * (1 - g.x)
    hjb = HjbLinearProblem(g, P22, drift=1.0, source=src, terminal=end)
    fp = FpLinearProblem(g, P22, convection=1.0, source=src, initial=end)
    cases = (
        (hjb, solve_hjb_linear, dict(drift=5.0),
         HjbLinearProblem(g, P22, drift=5.0, source=src, terminal=end)),
        (fp, solve_fp_linear, dict(convection=5.0),
         FpLinearProblem(g, P22, convection=5.0, source=src, initial=end)),
    )
    for prob, solve, change, fresh in cases:
        old = solve(prob).values  # builds the problem's step bands
        got = solve(replace(prob, **change)).values
        assert np.array_equal(got, solve(fresh).values)
        assert not np.array_equal(got, old)


def test_a_field_from_another_horizon_is_rejected():
    from degenmfg.carleman import CarlemanBundle, sweep_parameters
    g, far = SpaceTimeGrid(16, 8, 1.0), SpaceTimeGrid(16, 8, 5.0)
    field = SpaceTimeField(np.ones(far.shape), far)
    with pytest.raises(ValueError, match=r"^source: field grid .*T=5\.0\) != .*T=1\.0\)$"):
        HjbLinearProblem(g, WF, source=field)
    with pytest.raises(ValueError, match=r"^u: field grid"):
        sweep_parameters(CarlemanBundle(WF, g, u=field), [1.0], [1.0])
