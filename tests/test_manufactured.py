"""Closed-form case catalog: source algebra and refinement behavior."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from degenmfg.domain import SpaceTimeField, SpaceTimeGrid
from degenmfg.manufactured import (
    _Factors,
    _Level,
    _max_error,
    _prolong,
    _solve_case,
    Smooth,
    catalog,
    convergence_study,
    make_case,
    smooth_exp,
    smooth_linear,
    smooth_power,
    solve_case,
)
from degenmfg.mfg import _LINEAR_KEYS, _NONLINEAR_KEYS, IterConfig

TAGS = ("hjb", "fp", "mfg_linear", "mfg_nonlinear")


def test_catalog_has_three_cases_per_equation():
    counts = {t: 0 for t in TAGS}
    for name in catalog():
        counts[make_case(name).tag] += 1
    for tag in TAGS:
        assert counts[tag] >= 3, tag


def test_unknown_case_raises_with_known_names():
    with pytest.raises(KeyError) as exc:
        make_case("no-such-case")
    assert "decay-bubble" in str(exc.value)


def test_decay_bubble_frozen_source_value():
    # u = e^{-t} x(1-x) on a = x(1-x): F = -3 e^{-t} x(1-x), so F(0.5,0) = -0.75
    c = make_case("decay-bubble")
    assert c.F(0.5, 0.0) == pytest.approx(-0.75, abs=1e-12)


def test_smooth_combinators_product_rule():
    f = smooth_power(2.0, 3.0) * smooth_linear(1.0, 0.5)
    x = np.linspace(0.05, 0.95, 7)
    eps = 1e-6
    fd1 = (f.f(x + eps) - f.f(x - eps)) / (2 * eps)
    fd2 = (f.f(x + eps) - 2 * f.f(x) + f.f(x - eps)) / eps**2
    assert np.allclose(f.f1(x), fd1, rtol=1e-7)
    assert np.allclose(f.f2(x), fd2, rtol=1e-3)


def test_smooth_exp_in_time():
    f = smooth_exp(-0.7)
    t = np.linspace(0.0, 1.0, 5)
    assert np.allclose(f.f1(t), -0.7 * np.exp(-0.7 * t), rtol=1e-12)


@pytest.mark.parametrize(
    "name", ["drifted-well", "wf-pulse", "coupled-mild", "quad-hamiltonian"]
)
def test_exact_derivative_evaluators_match_finite_differences(name):
    c = make_case(name)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.05, 0.95, 25)
    t = rng.uniform(0.05, 0.95, 25)
    ex = 1e-6
    assert np.allclose(
        c.u_x(x, t), (c.u(x + ex, t) - c.u(x - ex, t)) / (2 * ex), rtol=1e-6,
        atol=1e-9,
    )
    assert np.allclose(
        c.u_xx(x, t),
        (c.u(x + ex, t) - 2 * c.u(x, t) + c.u(x - ex, t)) / ex**2,
        rtol=1e-3, atol=1e-4,
    )
    assert np.allclose(
        c.u_t(x, t), (c.u(x, t + ex) - c.u(x, t - ex)) / (2 * ex), rtol=1e-6,
        atol=1e-9,
    )
    assert np.allclose(
        c.m_t(x, t), (c.m(x, t + ex) - c.m(x, t - ex)) / (2 * ex), rtol=1e-6,
        atol=1e-9,
    )
    assert np.allclose(
        c.am_xx(x, t),
        (
            c.A.f(x + ex) * c.m(x + ex, t)
            - 2 * c.A.f(x) * c.m(x, t)
            + c.A.f(x - ex) * c.m(x - ex, t)
        )
        / ex**2,
        rtol=1e-3, atol=1e-4,
    )


def test_sources_are_the_template_combination():
    c = make_case("coupled-mild")
    rng = np.random.default_rng(9)
    x = rng.uniform(0.05, 0.95, 100)
    t = rng.uniform(0.0, 1.0, 100)
    F = c.u_t(x, t) + c.A.f(x) * c.u_xx(x, t) + c.d1.f(x) * c.u_x(x, t) \
        - c.d2.f(x) * c.m(x, t)
    G = c.m_t(x, t) - c.am_xx(x, t) + c.c1.f(x) * c.m_x(x, t) \
        - c.b.f(x) * c.m(x, t) - c.c2.f(x) * c.u_x(x, t) \
        - c.rho.f(x) * c.u_xx(x, t)
    assert np.allclose(c.F(x, t), F, rtol=1e-12)
    assert np.allclose(c.G(x, t), G, rtol=1e-12)


def test_wright_fischer_cases_flagged_outside_hypotheses():
    for name in ("decay-bubble", "wf-pulse", "coupled-wf", "wf-game"):
        assert not make_case(name).hypotheses_ok


def test_zero_case_is_exact():
    res = convergence_study(make_case("zero"), "space")
    assert res.exact
    assert res.observed_order == np.inf


def test_solve_case_returns_sides_matching_tag():
    g = SpaceTimeGrid(32, 32, 1.0)
    u, m = solve_case(make_case("drifted-well"), g)
    assert u is not None and m is None
    u, m = solve_case(make_case("wf-pulse"), g)
    assert u is None and m is not None
    u, m = solve_case(make_case("coupled-mild"), g)
    assert u is not None and m is not None


def test_space_refinement_drops_error():
    c = make_case("drifted-well")
    res = convergence_study(c, "space")
    assert res.errors[-1] < res.errors[0] / 8
    assert 1.7 <= res.observed_order <= 2.3


def _sources_out_of_place(c, x, t):
    """Reference: F and G as whole expressions, one temporary per operation."""
    base = c.u_t(x, t) + c.A.f(x) * c.u_xx(x, t)
    if c.tag == "mfg_nonlinear":
        ux = c.u_x(x, t)
        F = base - 0.5 * c.p.f(x) * ux * ux + c.d.f(x) * c.m(x, t)
    else:
        F = base + c.d1.f(x) * c.u_x(x, t)
        if c.tag == "mfg_linear":
            F = F - c.d2.f(x) * c.m(x, t)
    base = c.m_t(x, t) - c.am_xx(x, t)
    if c.tag == "mfg_nonlinear":
        ux = c.u_x(x, t)
        G = base - (c.p.f1(x) * c.m(x, t) * ux + c.p.f(x) * c.m_x(x, t) * ux
                    + c.p.f(x) * c.m(x, t) * c.u_xx(x, t))
    else:
        G = base + c.c1.f(x) * c.m_x(x, t) - c.b.f(x) * c.m(x, t)
        if c.tag == "mfg_linear":
            G = G - c.c2.f(x) * c.u_x(x, t) - c.rho.f(x) * c.u_xx(x, t)
    return F, G


def _assert_within_ulps(got, want, ulps=4):
    """|got - want| within ``ulps`` units in the last place of want's largest
    magnitude, everywhere."""
    scale = float(np.max(np.abs(want)))
    assert np.shape(got) == np.shape(want)
    assert np.max(np.abs(np.asarray(got) - want)) <= ulps * np.spacing(scale), scale


@pytest.mark.parametrize("name", catalog())
def test_in_place_sources_equal_out_of_place_reference(name):
    # the separable terms factor each time profile out of its space terms,
    # so the last bits move against the written-out expression: a few ulp of
    # the field's largest magnitude (2 at most over the catalog)
    c = make_case(name)
    g = SpaceTimeGrid(33, 17, c.T)
    points = [(g.x[:, None], g.t[None, :]), (0.3, 0.7), (g.x[5], 0.0)]
    for x, t in points:
        F, G = _sources_out_of_place(c, x, t)
        _assert_within_ulps(c.F(x, t), F)
        _assert_within_ulps(c.G(x, t), G)
    _assert_within_ulps(c.source_G(g).values, _sources_out_of_place(c, *points[0])[1])
    assert np.shape(c.F(0.3, 0.7)) == () and np.shape(c.G(0.3, 0.7)) == ()


@pytest.mark.parametrize("name", catalog())
def test_grid_samplers_equal_point_evaluators_bitwise(name):
    c = make_case(name)
    g = SpaceTimeGrid(33, 17, c.T)
    x, t = g.x[:, None], g.t[None, :]
    for sampler, point in ((c.exact_u, c.u), (c.exact_m, c.m),
                           (c.source_F, c.F), (c.source_G, c.G)):
        got = sampler(g).values
        assert got.flags.f_contiguous and not got.flags.writeable
        assert got.tobytes() == point(x, t).tobytes()


def _bits(v):
    return np.asarray(v).tobytes()


@pytest.mark.parametrize("name", catalog())
def test_derivative_evaluators_equal_the_direct_products_bitwise(name):
    # each derivative is one formula on the factor tables, as u, m, F and G
    # are: the same doubles as the product of the Smooth factors it replaces
    c = make_case(name)
    g = SpaceTimeGrid(33, 17, c.T)
    direct = {
        "u_x": lambda x, t: c.Tu.f(t) * c.U.f1(x),
        "u_xx": lambda x, t: c.Tu.f(t) * c.U.f2(x),
        "u_t": lambda x, t: c.Tu.f1(t) * c.U.f(x),
        "m_x": lambda x, t: c.Tm.f(t) * c.V.f1(x),
        "m_t": lambda x, t: c.Tm.f1(t) * c.V.f(x),
        "am_xx": lambda x, t: c.Tm.f(t) * (c.A * c.V).f2(x),
    }
    for x, t in [(g.x[:, None], g.t[None, :]), (0.3, 0.7), (g.x[5], 0.0), (g.x, 0.25)]:
        for key, want in direct.items():
            got = getattr(c, key)(x, t)
            assert np.shape(got) == np.shape(want(x, t)), key
            assert _bits(got) == _bits(want(x, t)), (key, x, t)


@pytest.mark.parametrize("name", catalog())
def test_grid_samplers_wrap_the_level_sample_without_a_field_copy(name, monkeypatch):
    c = make_case(name)
    g = SpaceTimeGrid(24, 12, c.T)
    level = _Level(c, g)
    want = {key: level.sample(key) for key in ("u", "m", "F", "G")}

    def no_copy(self):
        raise AssertionError("SpaceTimeField.__post_init__ ran")

    monkeypatch.setattr(SpaceTimeField, "__post_init__", no_copy)
    for key, sampler in (("u", c.exact_u), ("m", c.exact_m),
                         ("F", c.source_F), ("G", c.source_G)):
        got = sampler(g)
        assert got.grid is g and not got.values.flags.writeable
        assert got.values.tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize(
    "name, mode, ladder",
    [
        ("wf-game", "space", ((32, 8), (64, 32), (128, 128))),
        ("coupled-oil", "space", ((32, 8), (64, 32), (128, 128))),
        ("coupled-oil", "time", ((96, 16), (96, 32), (96, 64))),
    ],
)
def test_continued_study_matches_cold_levels_in_fewer_sweeps(name, mode, ladder):
    c = make_case(name)
    res = convergence_study(c, mode, ladder)
    grids = [SpaceTimeGrid(n_x, n_t, c.T) for n_x, n_t in ladder]
    cold_errors = [_max_error(_Level(c, g), *solve_case(c, g)) for g in grids]
    cold_sweeps = [_solve_case(_Level(c, g), IterConfig())[4] for g in grids]
    steps = [g.h if mode == "space" else g.dt for g in grids]
    cold_order = float(np.polyfit(np.log(steps), np.log(cold_errors), 1)[0])
    assert res.errors == pytest.approx(cold_errors, rel=1e-6, abs=0.0)
    assert abs(res.observed_order - cold_order) <= 1e-6
    assert res.sweeps[0] == cold_sweeps[0]  # the first level starts cold
    assert sum(res.sweeps) < sum(cold_sweeps)


def test_scalar_study_runs_no_picard_sweep():
    res = convergence_study(make_case("wf-pulse"), "space", ((16, 4), (32, 16), (64, 64)))
    assert res.sweeps == (0, 0, 0)


def test_prolongation_is_exact_on_bilinear_fields():
    old, new = SpaceTimeGrid(8, 4, 2.0), SpaceTimeGrid(17, 9, 2.0)

    def field(g):
        x, t = g.x[:, None], g.t[None, :]
        return 0.3 - 1.7 * x + 0.4 * t + 2.1 * x * t

    # new.x reaches past old.x at both ends: the end intervals extrapolate
    assert new.x[0] < old.x[0] and new.x[-1] > old.x[-1]
    u, m = _prolong((field(old), -field(old)), old, new)
    assert u.shape == m.shape == new.shape
    assert np.max(np.abs(u - field(new))) <= 1e-14
    assert np.array_equal(m, -u)
    # the same grid maps every trajectory to itself
    v = np.random.default_rng(1).standard_normal(old.shape)
    assert np.array_equal(_prolong((v,), old, old)[0], v)


def test_smooth_power_of_zero_exponents_is_the_constant_one():
    # every derivative term has a zero coefficient and is skipped
    f = smooth_power(0.0, 0.0)
    x = np.linspace(0.1, 0.9, 5)
    assert np.array_equal(f.f(x), np.ones(5))
    for deriv in (f.f1, f.f2):
        assert np.array_equal(deriv(x), np.zeros(5)) and deriv(0.5) == 0.0


def test_case_and_study_refuse_a_bad_tag_or_mode(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a level was solved")

    monkeypatch.setattr("degenmfg.manufactured._solve_case", no_solve)
    case = make_case("drifted-well")
    with pytest.raises(
        ValueError, match=r"^tag must be one of \('hjb', 'fp', 'mfg_linear', 'mfg_nonlinear'\)$"
    ):
        replace(case, tag="game")
    with pytest.raises(ValueError, match=r"^mode must be 'space' or 'time'$"):
        convergence_study(case, "sideways")


@pytest.mark.parametrize("ladder", [((16, 8),), ()])
def test_study_rejects_fewer_than_two_levels_before_any_solve(ladder, monkeypatch):
    # one level used to fit an order through a single point, none to fail in max()
    def no_solve(*args):
        raise AssertionError("a level was solved")

    monkeypatch.setattr("degenmfg.manufactured._solve_case", no_solve)
    with pytest.raises(ValueError, match="at least two levels"):
        convergence_study(make_case("drifted-well"), "space", ladder)


@pytest.mark.parametrize(
    "mode, ladder, message",
    [
        ("space", ((8, 8), (16, 8), (16, 32)), "levels 1 and 2 share n_x = 16"),
        ("time", ((8, 8), (16, 8), (32, 16)), "levels 0 and 1 share n_t = 8"),
    ],
)
def test_study_rejects_a_repeated_fitted_step_before_any_solve(
    mode, ladder, message, monkeypatch
):
    def no_solve(*args):
        raise AssertionError("a level was solved")

    monkeypatch.setattr("degenmfg.manufactured._solve_case", no_solve)
    with pytest.raises(ValueError, match=message):
        convergence_study(make_case("drifted-well"), mode, ladder)


def test_study_accepts_a_repeated_step_that_is_not_fitted():
    # space mode fits against h only: the repeated n_t levels have rates
    res = convergence_study(make_case("drifted-well"), "space", ((8, 16), (16, 16), (32, 16)))
    assert len(res.rates) == 2 and all(np.isfinite(res.rates))


def test_replaced_case_rebuilds_its_terms():
    case = make_case("drifted-well")
    moved = replace(case, Tu=smooth_exp(-3.0))
    g = SpaceTimeGrid(16, 8, 1.0)
    want = np.multiply.outer(case.U.f(g.x), np.exp(-3.0 * g.t))
    assert np.array_equal(moved.exact_u(g).values, want)
    u_t = np.multiply.outer(case.U.f(g.x), -3.0 * np.exp(-3.0 * g.t))
    assert np.array_equal(moved.u_t(g.x[:, None], g.t), u_t)
    assert np.array_equal(moved.terms["F"][0][0](_Factors(moved, g.t)), -3.0 * np.exp(-3.0 * g.t))


def _counted(calls, name, s):
    """s with each derivative counting its calls per node array in ``calls``."""
    def wrap(k):
        fn = (s.f, s.f1, s.f2)[k]

        def counted(x):
            calls[name, k, np.asarray(x, dtype=float).tobytes()] += 1
            return fn(x)
        return counted
    return Smooth(*(wrap(k) for k in range(3)))


def test_study_evaluates_each_factor_once_per_level_and_node_array(monkeypatch):
    calls = Counter()
    monkeypatch.setattr("degenmfg.manufactured.coeff_smooth",
                        lambda c: _counted(calls, "A", Smooth(c.a, c.a_x, c.a_xx)))
    case = make_case("coupled-mild")
    named = ("Tu", "U", "Tm", "V", "d1", "d2", "c1", "b", "c2", "rho", "p", "d")
    case = replace(case, **{n: _counted(calls, n, getattr(case, n)) for n in named})
    calls.clear()
    res = convergence_study(case, "space", ((16, 4), (32, 16), (64, 64)))
    assert res.sweeps[0] > 0 and not res.exact
    # W = A V is formed from A's and V's values, so V runs once per level
    # and node array, as every factor does
    repeated = {key[:2]: n for key, n in calls.items() if n > 1}
    assert repeated == {}
    assert {name for name, _, _ in calls} == set(named) | {"A"}
    # three levels, each at its own x nodes or t levels: f, f1 and f2 of U and
    # A, f and f1 of Tu and Tm, f, f1 and f2 of V, f of the eight profiles
    assert len(calls) == 3 * (3 + 3 + 2 + 2 + 3 + 8)


_LEVEL_SHAPES = [(64, 32), (192, 64)]  # a space-mode and a time-mode level of the benchmark


@pytest.mark.parametrize("shape", _LEVEL_SHAPES)
@pytest.mark.parametrize("name", catalog())
def test_level_fields_equal_the_public_samplers_bitwise(name, shape):
    c = make_case(name)
    g = SpaceTimeGrid(*shape, c.T)
    level = _Level(c, g)
    x, t = g.x[:, None], g.t[None, :]
    samples = {}
    for key, sampler, point in (("u", c.exact_u, c.u), ("m", c.exact_m, c.m),
                                ("F", c.source_F, c.F), ("G", c.source_G, c.G)):
        samples[key] = level.sample(key)
        assert samples[key].tobytes() == sampler(g).values.tobytes() == point(x, t).tobytes()
    assert level.slice("u", -1).tobytes() == c.terminal(g).tobytes() \
        == samples["u"][:, -1].tobytes()
    assert level.slice("m", 0).tobytes() == c.initial(g).tobytes() \
        == samples["m"][:, 0].tobytes()
    shared, public = level.coefficients(), c.coefficients_on(g)
    for key in _NONLINEAR_KEYS + _LINEAR_KEYS:
        own = np.broadcast_to(getattr(c, key).f(g.x)[:, None], g.shape)
        assert getattr(shared, key).tobytes() == getattr(public, key).tobytes() == own.tobytes()
    # every entry of the tables, W's included, is the factor's own value
    own_smooth = {"U": c.U, "V": c.V, "A": c.A, "W": c.A * c.V, "Tu": c.Tu, "Tm": c.Tm}
    for table, nodes, names in ((level.x, g.x, ("U", "V", "A", "W")),
                                (level.t, g.t, ("Tu", "Tm"))):
        for factor in names:
            for k in range(3):
                own = own_smooth[factor]._d(k)(nodes)
                assert table(factor, k).tobytes() == own.tobytes(), (factor, k)


def test_terminal_slice_is_taken_at_the_grid_horizon():
    # the sources and exact fields live on the grid's [0, T]: so does u(., T)
    c = make_case("drifted-well")
    g = SpaceTimeGrid(64, 64, 2.0)
    assert c.T == 1.0
    assert c.terminal(g).tobytes() == c.exact_u(g).values[:, -1].tobytes()
    u, _ = solve_case(c, g)
    assert _max_error(_Level(c, g), u, None) < 1e-3


def _two_pass_prolong(v, old, new):
    """Reference: both interpolation passes, whatever the grids."""
    out = v
    for axis, (src, dst) in enumerate(((old.x, new.x), (old.t, new.t))):
        j = np.clip(np.searchsorted(src, dst) - 1, 0, src.size - 2)
        w = (dst - src[j]) / (src[j + 1] - src[j])
        lo, hi = np.take(out, j, axis=axis), np.take(out, j + 1, axis=axis)
        w = w[:, None] if axis == 0 else w
        out = lo * (1.0 - w) + hi * w
    return out


@pytest.mark.parametrize("old, new", [
    (SpaceTimeGrid(96, 16, 1.0), SpaceTimeGrid(96, 32, 1.0)),  # a time ladder keeps n_x
    (SpaceTimeGrid(16, 16, 1.0), SpaceTimeGrid(32, 16, 1.0)),  # n_t repeated in space mode
    (SpaceTimeGrid(16, 8, 1.0), SpaceTimeGrid(32, 32, 1.0)),
])
def test_prolongation_skips_unchanged_axes_bitwise(old, new):
    v = np.asfortranarray(np.random.default_rng(5).standard_normal(old.shape))
    (got,) = _prolong((v,), old, new)
    assert got.tobytes() == _two_pass_prolong(v, old, new).tobytes()
    assert _prolong((v,), old, old)[0] is v
