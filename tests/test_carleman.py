"""Weighted energy functionals: weights, homogeneity, additivity, sweeps."""

import math
import re
import sys
import warnings

import numpy as np
import pytest

from degenmfg import carleman
from degenmfg.carleman import (
    CarlemanBundle,
    CarlemanParams,
    evaluate_carleman,
    fp_ingredients,
    hjb_ingredients,
    s0_estimate,
    sweep_parameters,
)
from degenmfg.domain import DegenerateCoefficient, SpaceTimeGrid, SpaceTimeField
from degenmfg.manufactured import make_case, solve_case
from degenmfg.solvers import HjbLinearProblem, apply_hjb_operator

WF = DegenerateCoefficient.wright_fischer()


def _rel(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def test_params_validation():
    with pytest.raises(ValueError):
        CarlemanParams(s=0.0, lam=1.0)
    with pytest.raises(ValueError):
        CarlemanParams(s=1.0, lam=-2.0)


def _wf_anchor_report(n):
    g = SpaceTimeGrid(n, n, 1.0)
    x, t = g.x[:, None], g.t[None, :]
    u = SpaceTimeField(np.exp(-t) * x * (1.0 - x), g)
    prob = HjbLinearProblem(g, WF)
    F = apply_hjb_operator(u, prob)
    bundle = CarlemanBundle(WF, g, u=u, F=F.values)
    return evaluate_carleman(bundle, CarlemanParams(s=2.0, lam=2.0))


def test_backward_functional_regression_anchor():
    # frozen after the first verified run at n_x = n_t = 64
    rep = _wf_anchor_report(64)
    assert rep.lhs == pytest.approx(2372992596172.7163, rel=1e-12)
    assert rep.rhs_source == pytest.approx(348686218745.36, rel=1e-12)
    assert rep.rhs_T == pytest.approx(10070991225399.488, rel=1e-12)
    assert rep.rhs_0 == pytest.approx(127.39790501508212, rel=1e-12)
    assert rep.ratio == pytest.approx(0.22774146405819526, rel=1e-12)
    assert not rep.overflow


def test_backward_functional_refinement_crosscheck():
    coarse = _wf_anchor_report(64)
    fine = _wf_anchor_report(256)
    for name in ("lhs", "rhs_source", "rhs_T", "ratio"):
        assert _rel(getattr(coarse, name), getattr(fine, name)) < 0.10, name


def test_forward_ratio_stable_under_refinement():
    c = make_case("wf-pulse")
    params = CarlemanParams(s=2.0, lam=2.0)
    ratios = {}
    for n in (64, 128):
        g = SpaceTimeGrid(n, n, c.T)
        _, m = solve_case(c, g)
        bundle = CarlemanBundle(c.coeff, g, m=m, G=c.source_G(g))
        ratios[n] = evaluate_carleman(bundle, params).ratio
    assert _rel(ratios[64], ratios[128]) < 0.10


def test_zero_solution_gives_zero_report():
    g = SpaceTimeGrid(32, 32, 1.0)
    z = SpaceTimeField(np.zeros((32, 33)), g)
    bundle = CarlemanBundle(WF, g, u=z, F=z.values)
    rep = evaluate_carleman(bundle, CarlemanParams(s=2.0, lam=1.0))
    assert rep.lhs == 0.0 and rep.rhs_source == 0.0
    assert rep.rhs_T == 0.0 and rep.rhs_0 == 0.0
    assert rep.ratio == 0.0


def test_quadratic_homogeneity_exact():
    c = make_case("coupled-mild")
    g = SpaceTimeGrid(48, 48, c.T)
    u, m = solve_case(c, g)
    F, G = c.source_F(g), c.source_G(g)
    params = CarlemanParams(s=2.0, lam=2.0)
    r1 = evaluate_carleman(CarlemanBundle(c.coeff, g, u=u, m=m, F=F, G=G), params)
    doubled = (SpaceTimeField(2.0 * f.values, g) for f in (u, m, F, G))
    r2 = evaluate_carleman(CarlemanBundle(c.coeff, g, *doubled), params)
    assert r2.ratio == pytest.approx(r1.ratio, rel=1e-12)
    for name in ("lhs", "rhs_source", "rhs_T", "rhs_0"):
        assert _rel(4.0 * getattr(r1, name), getattr(r2, name)) < 1e-12, name


def test_combined_report_is_sum_of_scalar_reports():
    c = make_case("coupled-oil")
    g = SpaceTimeGrid(48, 48, c.T)
    u, m = solve_case(c, g)
    F, G = c.source_F(g), c.source_G(g)
    params = CarlemanParams(s=3.0, lam=1.5)
    both = evaluate_carleman(CarlemanBundle(c.coeff, g, u=u, m=m, F=F, G=G), params)
    hjb = evaluate_carleman(CarlemanBundle(c.coeff, g, u=u, F=F), params)
    fp = evaluate_carleman(CarlemanBundle(c.coeff, g, m=m, G=G), params)
    for name in ("lhs", "rhs_source", "rhs_T", "rhs_0"):
        assert _rel(
            getattr(both, name), getattr(hjb, name) + getattr(fp, name)
        ) < 1e-12, name


def test_unrepresentable_lam_reports_overflow_without_warnings():
    c = make_case("coupled-mild")
    g = SpaceTimeGrid(32, 32, c.T)
    u, m = solve_case(c, g)
    F, G = c.source_F(g), c.source_G(g)
    params = CarlemanParams(s=1.0, lam=800.0 / c.T)  # phi(T) = e^800
    bundles = [CarlemanBundle(c.coeff, g, u=u, F=F), CarlemanBundle(c.coeff, g, m=m, G=G),
               CarlemanBundle(c.coeff, g, u=u, m=m, F=F, G=G)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reps = [evaluate_carleman(b, params) for b in bundles]
    reps += reps[2].parts
    assert [r.estimate for r in reps] == ["hjb", "fp", "mfg", "hjb", "fp"]
    for rep in reps:
        assert rep.overflow and math.isnan(rep.ratio)
        assert math.isinf(rep.lhs) and math.isinf(rep.lhs_log) and math.isinf(rep.rhs_log)
    # the sweep reports the same cell as overflow
    sw = sweep_parameters(bundles[2], [params.s], [params.lam])
    assert sw.overflow_cells == 1 and math.isnan(sw.ratios[0, 0])


@pytest.mark.parametrize("K, want", [(709.5, math.exp(709.5)), (709.9, math.inf)])
def test_report_fields_are_exact_up_to_the_double_range(K, want):
    # log(DBL_MAX) = 709.78: below it a linear-scale field is the double it
    # names, above it inf; the overflow flag follows OVERFLOW_LOG_LIMIT alone
    totals = np.ones((4, 1))
    rep = carleman._report_from_scaled("hjb", CarlemanParams(s=1.0, lam=1.0), totals, K)
    assert rep.lhs == rep.rhs_source == rep.rhs_T == rep.rhs_0 == want
    assert rep.lhs_log == K and rep.overflow


def _case_bundle(name, n_x=64, n_t=64):
    c = make_case(name)
    g = SpaceTimeGrid(n_x, n_t, c.T)
    u, m = solve_case(c, g)
    return CarlemanBundle(
        coeff=c.coeff,
        grid=g,
        u=u,
        m=m,
        F=c.source_F(g) if u is not None else None,
        G=c.source_G(g) if m is not None else None,
    )


def test_single_cell_sweep_matches_pointwise_evaluation():
    c = make_case("drifted-well")
    g = SpaceTimeGrid(48, 48, c.T)
    u, _ = solve_case(c, g)
    params = CarlemanParams(s=2.0, lam=2.0)
    rep = evaluate_carleman(CarlemanBundle(c.coeff, g, u=u, F=c.source_F(g)), params)
    sw = sweep_parameters(_case_bundle("drifted-well", 48, 48), [2.0], [2.0])
    assert sw.ratios.shape == (1, 1)
    assert sw.ratios[0, 0] == pytest.approx(rep.ratio, rel=1e-14)


@pytest.mark.parametrize("name", ["drifted-well", "wf-pulse", "coupled-mild"])
@pytest.mark.parametrize("s, lam", [(2.0, 2.0), (0.7, 0.3), (5.0, 1.0), (1.0, 800.0)])
def test_each_evaluator_is_a_one_cell_sweep(name, s, lam):
    b = _case_bundle(name, 40, 48)
    rep = evaluate_carleman(b, CarlemanParams(s=s, lam=lam))
    sw = sweep_parameters(b, [s], [lam])
    assert rep.estimate == b.kind
    assert [p.estimate for p in rep.parts] == (["hjb", "fp"] if b.kind == "mfg" else [])
    if math.isnan(sw.ratios[0, 0]):  # phi(T) overflows: both report the cell as such
        assert sw.overflow_cells == 1 and rep.overflow and math.isnan(rep.ratio)
    else:
        assert sw.overflow_cells == 0
        assert rep.ratio == sw.ratios[0, 0]


def test_bundle_kind_follows_its_trajectories_and_bad_bundles_raise():
    b = _case_bundle("coupled-mild", 16, 16)
    assert CarlemanBundle(b.coeff, b.grid, u=b.u, F=b.F).kind == "hjb"
    assert CarlemanBundle(b.coeff, b.grid, m=b.m, G=b.G).kind == "fp"
    assert CarlemanBundle(b.coeff, b.grid, u=b.u, m=b.m).kind == "mfg"
    assert b.kind == "mfg"
    with pytest.raises(AttributeError):
        b.kind = "hjb"
    with pytest.raises(ValueError, match="a bundle needs a trajectory: u, m or both"):
        CarlemanBundle(b.coeff, b.grid, F=b.F, G=b.G)
    with pytest.raises(ValueError, match="a source F needs a value trajectory u"):
        CarlemanBundle(b.coeff, b.grid, m=b.m, F=b.F, G=b.G)
    with pytest.raises(ValueError, match="a source G needs a density trajectory m"):
        CarlemanBundle(b.coeff, b.grid, u=b.u, F=b.F, G=b.G)


def test_sweep_marks_overflow_cells_absent():
    sw = sweep_parameters(_case_bundle("drifted-well"), [2.0, 400.0], [2.0])
    assert sw.total_cells == 2
    assert sw.overflow_cells == 1
    assert math.isnan(sw.ratios[1, 0])
    assert np.isfinite(sw.ratios[0, 0])


def test_sweep_ratio_not_growing_in_s():
    sw = sweep_parameters(_case_bundle("drifted-well"), [2.0, 4.0, 8.0, 16.0], [2.0])
    r = sw.ratios[:, 0]
    assert sw.top_half_max <= 2.0 * float(np.median(r))
    assert np.all(np.diff(r) < 0)


def test_s0_estimate_on_decaying_ladder():
    sw = sweep_parameters(_case_bundle("drifted-well"), [2.0, 4.0, 8.0, 16.0], [2.0])
    s0 = s0_estimate(sw)
    assert s0 is None or s0 in (2.0, 4.0, 8.0, 16.0)


def _reference_time_sum(I, s, lam, g, p, K):
    t = g.t
    tm = 0.5 * (t[:-1] + t[1:])
    expo = p * lam * tm + 2.0 * s * np.exp(lam * tm) - K
    return float(np.sum(g.dt * 0.5 * (I[:-1] + I[1:]) * np.exp(expo)))


def _reference_ratios(bundle, s_values, lam_values):
    """Per-cell quadrature, one exp of the full exponent per cell and time sum."""
    g = bundle.grid
    h = f = None
    if bundle.kind in ("hjb", "mfg"):
        h = hjb_ingredients(bundle.u, bundle.F, bundle.coeff, g)
    if bundle.kind in ("fp", "mfg"):
        f = fp_ingredients(bundle.m, bundle.G, bundle.coeff, g)
    s_sorted, lam_sorted = sorted(s_values), sorted(lam_values)
    out = np.full((len(s_sorted), len(lam_sorted)), np.nan)
    for i, s in enumerate(s_sorted):
        for j, lam in enumerate(lam_sorted):
            phi_T = math.exp(lam * g.T)
            K = 2.0 * s * phi_T
            if K > carleman.OVERFLOW_LOG_LIMIT:
                continue
            w0 = math.exp(min(2.0 * s - K, 0.0))

            def ts(I, p):
                return _reference_time_sum(I, s, lam, g, p, K)

            lhs = rhs = 0.0
            if h is not None:
                lhs += (ts(h.I_ut, 0) + ts(h.I_uxx, 0) + s * lam * ts(h.I_ux, 1)
                        + s * s * lam * lam * ts(h.I_u, 2))
                rhs += (s * ts(h.I_F, 1) + s * (s * lam * phi_T * h.BT_0 + h.BT_1)
                        + s * (s * lam * h.B0_0 + h.B0_1) * w0)
            if f is not None:
                lhs += (ts(f.J_v2, -1) / s + lam * ts(f.J_vx, 0)
                        + s * lam * lam * ts(f.J_m, 1))
                rhs += (ts(f.J_G, 0) + s * lam * (phi_T * f.BT_m + f.BT_vx)
                        + (s * lam * f.B0_m + f.B0_vx) * w0)
            if rhs > 0.0:
                out[i, j] = lhs / rhs
            else:
                out[i, j] = 0.0 if lhs == 0.0 else math.inf
    return out


# straddles the overflow limit 2 s e^(lam T) = 700 in both s and lam
ORACLE_S = [0.5, 3.0, 20.0, 150.0, 400.0]
ORACLE_LAM = [0.5, 1.5, 3.0]


def _assert_matches_reference(bundle, s_values, lam_values):
    sw = sweep_parameters(bundle, s_values, lam_values)
    ref = _reference_ratios(bundle, s_values, lam_values)
    over = np.isnan(ref)
    assert over.any() and not over.all()
    assert np.array_equal(np.isnan(sw.ratios), over)
    assert sw.overflow_cells == int(over.sum())
    got, want = sw.ratios[~over], ref[~over]
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    return sw


@pytest.mark.parametrize("case", ["drifted-well", "wf-pulse", "coupled-mild"])
def test_sweep_matches_per_cell_reference(case):
    bundle = _case_bundle(case)
    assert bundle.kind == {"drifted-well": "hjb", "wf-pulse": "fp"}.get(case, "mfg")
    _assert_matches_reference(bundle, ORACLE_S, ORACLE_LAM)


def test_sweep_in_row_blocks_matches_reference(monkeypatch):
    bundle = _case_bundle("coupled-mild", 32, 32)
    # two s values per weight table: the live s of a lam span several blocks
    monkeypatch.setattr(carleman, "_TABLE_DOUBLES", 2 * bundle.grid.n_t)
    _assert_matches_reference(bundle, ORACLE_S + [1.0, 7.0], ORACLE_LAM)


# straddle the overflow limit at T = 1: the lams keep 7, 6, 6, 5, 5, 4, 1
# and 0 live s
CHUNK_S = [0.5, 1.0, 3.0, 7.0, 20.0, 60.0, 150.0, 400.0]
CHUNK_LAM = [0.3, 1.0, 1.5, 2.0, 2.5, 3.0, 6.0, 7.0]


@pytest.mark.parametrize("case", ["drifted-well", "wf-pulse", "coupled-mild"])
@pytest.mark.parametrize("lams_per_chunk", [1, 2, 3])
def test_lam_chunks_do_not_change_a_bit(monkeypatch, case, lams_per_chunk):
    bundle = _case_bundle(case, 32, 32)
    n_mid, n_terms = bundle.grid.n_t, {"hjb": 5, "fp": 4, "mfg": 9}[bundle.kind]
    want = sweep_parameters(bundle, CHUNK_S, CHUNK_LAM)
    live = np.isfinite(want.ratios)
    assert [int(k) for k in live.sum(axis=0)] == [7, 6, 6, 5, 5, 4, 1, 0]
    # chunks of lams_per_chunk lams, while a table still holds every live s
    # of a lam: the products have the shapes of the default budget
    monkeypatch.setattr(carleman, "_TABLE_DOUBLES", 2 * lams_per_chunk * n_mid * n_terms)
    assert carleman._TABLE_DOUBLES // n_mid >= len(CHUNK_S)
    got = sweep_parameters(bundle, CHUNK_S, CHUNK_LAM)
    assert got.ratios.tobytes() == want.ratios.tobytes()


@pytest.mark.parametrize("case", ["drifted-well", "wf-pulse", "coupled-mild"])
def test_one_row_tables_are_the_one_cell_evaluations_bit_for_bit(monkeypatch, case):
    # a one-cell evaluation is a one-row table of a one-lam chunk; a sweep
    # whose budget holds one row per table and one lam per chunk evaluates
    # every cell that way (a matrix product rounds by its shape, so its
    # ratios need not match the default budget's bits)
    bundle = _case_bundle(case, 32, 32)
    cells = [(s, lam) for s in CHUNK_S for lam in CHUNK_LAM]
    default = [evaluate_carleman(bundle, CarlemanParams(s, lam)) for s, lam in cells]
    monkeypatch.setattr(carleman, "_TABLE_DOUBLES", bundle.grid.n_t - 1)
    sw = sweep_parameters(bundle, CHUNK_S, CHUNK_LAM)
    reports = [evaluate_carleman(bundle, CarlemanParams(s, lam)) for s, lam in cells]
    assert [repr(r) for r in reports] == [repr(r) for r in default]
    want = np.array([np.nan if r.overflow else r.ratio for r in reports])
    assert sw.ratios.tobytes() == want.reshape(sw.ratios.shape).tobytes()


def test_sweep_of_zero_bundle_is_exactly_zero():
    g = SpaceTimeGrid(32, 32, 1.0)
    z = np.zeros(g.shape)
    bundle = CarlemanBundle(WF, g, u=z, m=z)
    sw = _assert_matches_reference(bundle, ORACLE_S, ORACLE_LAM)
    live = sw.ratios[np.isfinite(sw.ratios)]
    assert live.size > 0 and np.all(live == 0.0)


@pytest.mark.parametrize("s_values, lam_values", [
    ([0.0], [1.0]),
    ([2.0, -1.0], [1.0]),
    ([math.nan], [1.0]),
    ([2.0], [1.0, 0.0]),
    ([], [1.0]),
    ([2.0], []),
])
def test_sweep_rejects_invalid_parameters(s_values, lam_values):
    with pytest.raises(ValueError):
        sweep_parameters(_case_bundle("drifted-well", 16, 16), s_values, lam_values)


@pytest.mark.parametrize("name", ["s", "lam"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, True, -1.0])
def test_sweep_values_follow_the_params_rule(name, bad):
    # an infinite s or lam used to be a silent overflow cell, and True was 1.0
    values = {"s": [2.0], "lam": [1.0]}
    values[name].append(bad)
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite, got {bad}$"):
        sweep_parameters(_case_bundle("drifted-well", 16, 16), values["s"], values["lam"])


@pytest.mark.parametrize("s", [5e-324, 1e-310, math.nextafter(sys.float_info.min, 0.0)])
def test_subnormal_s_is_refused_naming_the_bound(s):
    # a subnormal s used to give an inf ratio with no overflow flag and an
    # overflow warning, and on a zero field a NaN where the ratio is 0
    floor, got = (re.escape(repr(v)) for v in (sys.float_info.min, s))
    want = rf"^s must be >= {floor} \(the smallest normal double\), got {got}$"
    with pytest.raises(ValueError, match=want):
        CarlemanParams(s, 1.0)
    with pytest.raises(ValueError, match=want):
        sweep_parameters(_case_bundle("coupled-mild", 16, 8), [1.0, s], [1.0])
    assert CarlemanParams(1.0, s).lam == s  # lam keeps the positive rule


@pytest.mark.parametrize("name", ["coupled-mild", "zero"])
def test_smallest_normal_s_gives_finite_ratios(name):
    sw = sweep_parameters(_case_bundle(name, 16, 8), [sys.float_info.min, 1.0], [1.0])
    assert sw.overflow_cells == 0 and np.all(np.isfinite(sw.ratios))
    assert np.all(sw.ratios == 0.0) == (name == "zero")


def test_sweep_log_weight_past_the_double_range_is_overflow_cell():
    # 2 s phi(T) overflows to inf: an overflow cell, and no overflow warning
    # (tier-1 turns a RuntimeWarning into an error)
    sw = sweep_parameters(_case_bundle("drifted-well", 16, 16), [2.0, 1e308], [1.0])
    assert sw.overflow_cells == 1
    assert np.isfinite(sw.ratios[0, 0]) and math.isnan(sw.ratios[1, 0])


def _sq_sum(f, w):
    """sum over x of f^2 w, per time column: the slice integrals' contraction."""
    return np.einsum("ij,ij,i->j", f, f, w)


def _full_hjb_ingredients(u, F, coeff, grid):
    """The slice integrals from whole-trajectory derivative arrays."""
    from degenmfg.domain import NormKind, _dt_array, _dx_array, _dxx_array, weighted_norm
    from degenmfg.solvers import _traj

    uv = _traj(u, grid, "u")
    Fv = _traj(F if F is not None else 0.0, grid, "F")
    a = coeff.a(grid.x)
    h = grid.h
    ut = _dt_array(uv, grid.dt, 1)
    ux = _dx_array(uv, h, "dirichlet")
    uxx = _dxx_array(uv, h)
    return carleman.HjbIngredients(
        I_ut=_sq_sum(ut, h / a),
        I_uxx=_sq_sum(uxx, h * a),
        I_ux=_sq_sum(ux, np.full(a.shape, h)),
        I_u=_sq_sum(uv, h / a),
        I_F=_sq_sum(Fv, h / a),
        BT_0=weighted_norm(uv[:, -1], NormKind.L2_INV_A, coeff, grid) ** 2,
        BT_1=weighted_norm(uv[:, -1], NormKind.H1_INV_A, coeff, grid) ** 2,
        B0_0=weighted_norm(uv[:, 0], NormKind.L2_INV_A, coeff, grid) ** 2,
        B0_1=weighted_norm(uv[:, 0], NormKind.H1_INV_A, coeff, grid) ** 2,
    )


def _full_fp_ingredients(m, G, coeff, grid):
    """The slice integrals from whole-trajectory derivative arrays."""
    from degenmfg.domain import NormKind, _dt_array, _dx_array, _dxx_array, weighted_norm
    from degenmfg.solvers import _traj

    mv = _traj(m, grid, "m")
    Gv = _traj(G if G is not None else 0.0, grid, "G")
    a = coeff.a(grid.x)
    h = grid.h
    v = a[:, None] * mv
    vx = _dx_array(v, h, "dirichlet")
    vxx = _dxx_array(v, h)
    vt = _dt_array(v, grid.dt, 1)
    return carleman.FpIngredients(
        J_v2=_sq_sum(vxx, h * a) + _sq_sum(vt, h / a),
        J_vx=_sq_sum(vx, np.full(a.shape, h)),
        J_m=_sq_sum(mv, h * a),
        J_G=_sq_sum(Gv, h * a),
        BT_m=weighted_norm(mv[:, -1], NormKind.L2_A, coeff, grid) ** 2,
        BT_vx=weighted_norm(vx[:, -1], NormKind.L2_PLAIN, coeff, grid) ** 2,
        B0_m=weighted_norm(mv[:, 0], NormKind.L2_A, coeff, grid) ** 2,
        B0_vx=weighted_norm(vx[:, 0], NormKind.L2_PLAIN, coeff, grid) ** 2,
    )


def _written_out_slices(bundle, F, G):
    """Each slice integral as a plain sum of its written-out integrand."""
    from degenmfg.domain import _dt_array, _dx_array, _dxx_array
    from degenmfg.solvers import _traj

    g = bundle.grid
    a = bundle.coeff.a(g.x)[:, None]
    h = g.h
    out = []
    if bundle.u is not None:
        uv = _traj(bundle.u, g, "u")
        Fv = _traj(F if F is not None else 0.0, g, "F")
        ut = _dt_array(uv, g.dt, 1)
        ux = _dx_array(uv, h, "dirichlet")
        uxx = _dxx_array(uv, h)
        out.append((hjb_ingredients(bundle.u, F, bundle.coeff, g), {
            "I_ut": h * np.sum(ut * ut / a, axis=0),
            "I_uxx": h * np.sum(a * uxx * uxx, axis=0),
            "I_ux": h * np.sum(ux * ux, axis=0),
            "I_u": h * np.sum(uv * uv / a, axis=0),
            "I_F": h * np.sum(Fv * Fv / a, axis=0),
        }))
    if bundle.m is not None:
        mv = _traj(bundle.m, g, "m")
        Gv = _traj(G if G is not None else 0.0, g, "G")
        v = a * mv
        vx = _dx_array(v, h, "dirichlet")
        vxx = _dxx_array(v, h)
        vt = _dt_array(v, g.dt, 1)
        out.append((fp_ingredients(bundle.m, G, bundle.coeff, g), {
            "J_v2": h * np.sum(a * vxx * vxx + vt * vt / a, axis=0),
            "J_vx": h * np.sum(vx * vx, axis=0),
            "J_m": h * np.sum(a * mv * mv, axis=0),
            "J_G": h * np.sum(a * Gv * Gv, axis=0),
        }))
    return out


@pytest.mark.parametrize("case", ["drifted-well", "wf-pulse", "coupled-mild"])
@pytest.mark.parametrize("with_data", [True, False])
def test_contracted_slice_integrals_match_written_out_sums(monkeypatch, case, with_data):
    bundle = _case_bundle(case, 40, 64)
    g = bundle.grid
    monkeypatch.setattr(carleman, "_TABLE_DOUBLES", 16 * g.n_x)  # several blocks
    F, G = (bundle.F, bundle.G) if with_data else (None, None)
    checks = _written_out_slices(bundle, F, G)
    assert len(checks) == (2 if case == "coupled-mild" else 1)
    for ing, written in checks:
        for name, want in written.items():
            got = getattr(ing, name)
            nonzero = want != 0.0
            assert np.all(got[~nonzero] == 0.0), name
            assert nonzero.any() == (with_data or name not in ("I_F", "J_G")), name
            rel = np.abs(got[nonzero] - want[nonzero]) / want[nonzero]
            assert np.all(rel <= 1e-13), (name, rel.max())


def _assert_same_bits(got, want):
    for name, w in vars(want).items():
        g = getattr(got, name)
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
        else:
            assert type(g) is type(w) and repr(g) == repr(w), name


def _block_widths(grid):
    return [c.stop - c.start for c, _, _ in carleman._time_blocks(grid)]


# (case, n_x, n_t, block width or None for the default budget, expected widths)
BLOCK_CASES = [
    ("drifted-well", 32, 32, None, [33]),                     # one block
    ("wf-pulse", 16, 3, None, [4]),                           # minimum n_t
    ("wf-pulse", 16, 3, 3, [4]),                              # 1-column remainder joins
    ("drifted-well", 16, 34, 17, [17, 18]),                   # 1-column remainder joins
    ("coupled-mild", 16, 34, 11, [11, 11, 13]),               # 2-column remainder joins
    ("spreading-ridge", 16, 34, 8, [8, 8, 8, 8, 3]),          # 3-column remainder stays
    ("coupled-mild", 8, 20, 1, [3, 3, 3, 3, 3, 3, 3]),        # budget below 3 columns
]


@pytest.mark.parametrize("case, n_x, n_t, width, widths", BLOCK_CASES)
def test_blocked_ingredients_bit_identical_to_full_arrays(monkeypatch, case, n_x, n_t,
                                                          width, widths):
    bundle = _case_bundle(case, n_x, n_t)
    g = bundle.grid
    if width is not None:
        monkeypatch.setattr(carleman, "_TABLE_DOUBLES", width * n_x)
    assert _block_widths(g) == widths
    if bundle.kind in ("hjb", "mfg"):
        _assert_same_bits(hjb_ingredients(bundle.u, bundle.F, bundle.coeff, g),
                          _full_hjb_ingredients(bundle.u, bundle.F, bundle.coeff, g))
        _assert_same_bits(hjb_ingredients(bundle.u, None, bundle.coeff, g),
                          _full_hjb_ingredients(bundle.u, None, bundle.coeff, g))
    if bundle.kind in ("fp", "mfg"):
        _assert_same_bits(fp_ingredients(bundle.m, bundle.G, bundle.coeff, g),
                          _full_fp_ingredients(bundle.m, bundle.G, bundle.coeff, g))
        _assert_same_bits(fp_ingredients(bundle.m, None, bundle.coeff, g),
                          _full_fp_ingredients(bundle.m, None, bundle.coeff, g))


def test_time_blocks_tile_the_trajectory_with_one_halo_column():
    g = SpaceTimeGrid(512, 1024, 1.0)
    blocks = list(carleman._time_blocks(g))
    assert [c.start for c, _, _ in blocks] == list(range(0, 1024, 128))
    assert blocks[-1][0].stop == 1025  # the 1-column remainder joins the last block
    for cols, ext, inner in blocks:
        assert ext.start == max(cols.start - 1, 0) and ext.stop == min(cols.stop + 1, 1025)
        assert inner.stop - inner.start == cols.stop - cols.start
        assert cols.start - ext.start == inner.start


def test_sweep_allocates_under_two_fields_at_fine_grid():
    import tracemalloc

    g = SpaceTimeGrid(512, 1024, 1.0)
    rng = np.random.default_rng(3)
    m, G = rng.random(g.shape), rng.random(g.shape)
    bundle = CarlemanBundle(WF, g, m=m, G=G)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sweep_parameters(bundle, [1.0, 10.0, 100.0], [0.5, 2.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * m.nbytes


@pytest.mark.parametrize("name", ["s", "lam"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, True])
def test_params_reject_non_finite_values(name, bad):
    kw = {"s": 1.0, "lam": 1.0, name: bad}
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite"):
        CarlemanParams(**kw)
