"""Grid, coefficient, stencil, and weighted-norm behavior."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from degenmfg.domain import (
    DegenerateCoefficient,
    NormKind,
    SpaceTimeField,
    SpaceTimeGrid,
    _dt_array,
    _dx_array,
    _dxx_array,
    _empty,
    weighted_norm,
)
from degenmfg.solvers import _traj

WF = DegenerateCoefficient.wright_fischer()


def test_grid_is_cell_centered():
    g = SpaceTimeGrid(8, 4, 2.0)
    assert g.h == pytest.approx(1.0 / 8)
    assert g.dt == pytest.approx(0.5)
    assert g.x[0] == pytest.approx(g.h / 2)
    assert g.x[-1] == pytest.approx(1.0 - g.h / 2)
    assert g.t[0] == 0.0 and g.t[-1] == 2.0
    assert g.x.shape == (8,) and g.t.shape == (5,)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpaceTimeGrid(1, 4, 1.0)
    with pytest.raises(ValueError):
        SpaceTimeGrid(8, 0, 1.0)
    with pytest.raises(ValueError):
        SpaceTimeGrid(8, 4, -1.0)


@pytest.mark.parametrize(
    "n_x, n_t, bad", [(64.0, 8, "n_x"), (8.5, 4, "n_x"), (8, 4.0, "n_t"), (8, "4", "n_t")]
)
def test_grid_rejects_non_integer_sizes(n_x, n_t, bad):
    with pytest.raises(ValueError, match=f"^{bad} must be an integer"):
        SpaceTimeGrid(n_x, n_t, 1.0)


def test_grid_accepts_numpy_integer_sizes():
    g = SpaceTimeGrid(np.int64(8), np.int32(4), 1.0)
    assert g.shape == (8, 5)


def test_coefficient_families_values():
    wf = DegenerateCoefficient.wright_fischer()
    assert wf.a(np.array([0.5]))[0] == pytest.approx(0.25)
    p = DegenerateCoefficient.power(2.0, 3.0)
    x = np.array([0.3])
    assert p.a(x)[0] == pytest.approx(0.3**2 * 0.7**3)
    oil = DegenerateCoefficient.quadratic_oil(1.5)
    assert oil.a(x)[0] == pytest.approx(0.5 * 1.5**2 * 0.09)


def test_coefficient_family_validation():
    with pytest.raises(ValueError):
        DegenerateCoefficient.power(1.5, 2.0)
    with pytest.raises(ValueError):
        DegenerateCoefficient.power(2.0, 1.0)
    with pytest.raises(ValueError):
        DegenerateCoefficient.quadratic_oil(0.0)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: SpaceTimeGrid(8, 4, math.inf), "T"),
        (lambda: SpaceTimeGrid(8, 4, math.nan), "T"),
        (lambda: DegenerateCoefficient("power", beta=math.nan), "beta"),
        (lambda: DegenerateCoefficient("power", beta=math.inf), "beta"),
        (lambda: DegenerateCoefficient.power(2.0, math.nan), "delta"),
        (lambda: DegenerateCoefficient.power(2.0, math.inf), "delta"),
        (lambda: DegenerateCoefficient.quadratic_oil(math.inf), "gamma"),
        (lambda: DegenerateCoefficient.quadratic_oil(math.nan), "gamma"),
    ],
    ids=["T-inf", "T-nan", "beta-nan", "beta-inf", "delta-nan", "delta-inf", "gamma-inf",
         "gamma-nan"],
)
def test_non_finite_horizon_and_exponents_are_rejected(make, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        make()


@pytest.mark.parametrize(
    "coeff",
    [
        DegenerateCoefficient.wright_fischer(),
        DegenerateCoefficient.power(2.0, 2.0),
        DegenerateCoefficient.power(3.0, 2.0),
        DegenerateCoefficient.quadratic_oil(1.2),
    ],
)
def test_coefficient_derivatives_match_finite_differences(coeff):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.1, 0.9, 40)
    eps = 1e-6
    ax_fd = (coeff.a(x + eps) - coeff.a(x - eps)) / (2 * eps)
    axx_fd = (coeff.a(x + eps) - 2 * coeff.a(x) + coeff.a(x - eps)) / eps**2
    assert np.allclose(coeff.a_x(x), ax_fd, rtol=1e-6, atol=1e-8)
    assert np.allclose(coeff.a_xx(x), axx_fd, rtol=1e-3, atol=1e-3)
    assert np.allclose(coeff.sqrt_a(x) ** 2, coeff.a(x), rtol=1e-13)
    assert np.allclose(
        coeff.log_derivative(x), coeff.a_x(x) / coeff.a(x), rtol=1e-12
    )


def test_dirichlet_stencils_exact_on_wall_quadratic():
    # x(1-x) vanishes at both walls; the boundary closures reproduce it exactly
    g = SpaceTimeGrid(32, 2, 1.0)
    f = np.tile(g.x * (1 - g.x), (3, 1)).T
    fx, fxx = _dx_array(f, g.h, "dirichlet"), _dxx_array(f, g.h)
    assert np.allclose(fx[:, 0], 1 - 2 * g.x, atol=1e-12)
    assert np.allclose(fxx[:, 0], -2.0, atol=1e-10)


def test_free_closure_exact_on_quadratic():
    g = SpaceTimeGrid(16, 2, 1.0)
    f = np.tile(1 + 2 * g.x + 3 * g.x**2, (3, 1)).T
    fx = _dx_array(f, g.h, "free")
    assert np.allclose(fx[:, 0], 2 + 6 * g.x, atol=1e-11)


def test_stencil_second_order_convergence():
    errs = []
    for n in (64, 128):
        g = SpaceTimeGrid(n, 2, 1.0)
        f = np.tile(np.sin(np.pi * g.x), (3, 1)).T
        fxx = _dxx_array(f, g.h)
        exact = -np.pi**2 * np.sin(np.pi * g.x)
        errs.append(np.max(np.abs(fxx[1:-1, 0] - exact[1:-1])))
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 4.8


def test_time_derivative_polynomial_exactness():
    g = SpaceTimeGrid(4, 16, 2.0)
    t = g.t
    quad_t = np.tile(3 + 2 * t - 1.5 * t**2, (4, 1))
    cubic_t = np.tile(t**3, (4, 1))
    assert np.allclose(_dt_array(quad_t, g.dt, 1)[0], 2 - 3 * t, atol=1e-12)
    assert np.allclose(_dt_array(quad_t, g.dt, 2)[0], -3.0, atol=1e-12)
    assert np.allclose(_dt_array(cubic_t, g.dt, 2)[0], 6 * t, atol=1e-10)


def test_time_derivative_needs_enough_levels():
    g = SpaceTimeGrid(4, 3, 1.0)
    with pytest.raises(ValueError):
        _dt_array(np.zeros(g.shape), g.dt, 2)


def test_weighted_norm_square_oracle():
    # int x(1-x) dx = 1/6 when the 1/a weight cancels one factor
    c = DegenerateCoefficient.wright_fischer()
    g = SpaceTimeGrid(256, 2, 1.0)
    f = g.x * (1 - g.x)
    val = weighted_norm(f, NormKind.L2_INV_A, c, g) ** 2
    assert abs(val - 1.0 / 6.0) < 1e-4


def test_weighted_norm_scipy_crosscheck():
    c = DegenerateCoefficient.wright_fischer()
    g = SpaceTimeGrid(512, 2, 1.0)
    f = np.sin(np.pi * g.x)
    val = weighted_norm(f, NormKind.L2_A, c, g) ** 2
    ref, _ = quad(lambda x: x * (1 - x) * np.sin(np.pi * x) ** 2, 0.0, 1.0)
    assert val == pytest.approx(ref, rel=1e-4)


ALL_KINDS = [
    NormKind.L2_INV_A,
    NormKind.H1_INV_A,
    NormKind.L2_A,
    NormKind.H1A_DIV,
    NormKind.L2_PLAIN,
]

L2_KINDS = [NormKind.L2_INV_A, NormKind.L2_A, NormKind.L2_PLAIN]


def test_norm_scaling_and_monotonicity_on_random_fields():
    c = DegenerateCoefficient.power(2.0, 2.0)
    g = SpaceTimeGrid(64, 2, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(100):
        f = rng.standard_normal(g.n_x) * g.x * (1 - g.x)
        s = float(rng.uniform(0.1, 10.0))
        for kind in ALL_KINDS:
            base = weighted_norm(f, kind, c, g)
            assert weighted_norm(s * f, kind, c, g) == pytest.approx(
                s * base, rel=1e-12
            )
        bump = np.abs(rng.standard_normal(g.n_x)) * np.sign(f)
        for kind in L2_KINDS:
            assert weighted_norm(f + bump, kind, c, g) >= weighted_norm(
                f, kind, c, g
            ) * (1 - 1e-12)


def test_norm_hierarchy():
    c = DegenerateCoefficient.wright_fischer()
    g = SpaceTimeGrid(64, 2, 1.0)
    f = np.sin(2 * np.pi * g.x) * g.x * (1 - g.x)
    assert weighted_norm(f, NormKind.H1_INV_A, c, g) >= weighted_norm(
        f, NormKind.L2_INV_A, c, g
    )
    assert weighted_norm(f, NormKind.H1A_DIV, c, g) >= weighted_norm(
        f, NormKind.L2_A, c, g
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: DegenerateCoefficient("cubic"), "unknown coefficient family 'cubic'"),
        (lambda g: SpaceTimeField(np.zeros((16, 4)), g),
         "field shape (16, 4) does not match grid shape (16, 5)"),
        (lambda g: _dx_array(np.zeros(g.shape), g.h, "periodic"), "unknown closure 'periodic'"),
        (lambda g: _dt_array(np.zeros(g.shape), g.dt, 3), "order must be 1 or 2, got 3"),
        (lambda g: weighted_norm(np.zeros(17), NormKind.L2_A, WF, g),
         "expected spatial slice of shape (16,), got (17,)"),
        (lambda g: weighted_norm(np.zeros(16), "L2_a", WF, g), "unknown norm kind 'L2_a'"),
    ],
    ids=["family", "field-shape", "closure", "time-order", "slice-shape", "norm-kind"],
)
def test_domain_refusals_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(SpaceTimeGrid(16, 4, 1.0))


def test_weighted_norm_rejects_nan():
    c = DegenerateCoefficient.wright_fischer()
    g = SpaceTimeGrid(16, 2, 1.0)
    f = np.zeros(16)
    f[3] = np.nan
    with pytest.raises(ValueError):
        weighted_norm(f, NormKind.L2_PLAIN, c, g)


def _ref_dx(f, h, closure):
    """The first-derivative stencil written out one double at a time."""
    out = np.empty(f.shape)
    for j in range(f.shape[1]):
        c = [float(v) for v in f[:, j]]
        for i in range(1, len(c) - 1):
            out[i, j] = (c[i + 1] - c[i - 1]) / (2.0 * h)
        if closure == "dirichlet":
            out[0, j] = c[0] / h + c[1] / (3.0 * h)
            out[-1, j] = -(c[-1] / h + c[-2] / (3.0 * h))
        else:
            out[0, j] = (-3.0 * c[0] + 4.0 * c[1] - c[2]) / (2.0 * h)
            out[-1, j] = (3.0 * c[-1] - 4.0 * c[-2] + c[-3]) / (2.0 * h)
    return out


def _ref_dxx(f, h):
    """The second-derivative stencil (dirichlet closure) written out one
    double at a time."""
    h2 = h * h
    out = np.empty(f.shape)
    for j in range(f.shape[1]):
        c = [float(v) for v in f[:, j]]
        for i in range(1, len(c) - 1):
            out[i, j] = (c[i + 1] - 2.0 * c[i] + c[i - 1]) / h2
        out[0, j] = (-5.0 * c[0] + 2.0 * c[1] - 0.2 * c[2]) / h2
        out[-1, j] = (-5.0 * c[-1] + 2.0 * c[-2] - 0.2 * c[-3]) / h2
    return out


def _ref_dt1(v, dt):
    """The first time derivative written out one double at a time."""
    out = np.empty(v.shape)
    for i in range(v.shape[0]):
        r = [float(x) for x in v[i]]
        for k in range(1, len(r) - 1):
            out[i, k] = (r[k + 1] - r[k - 1]) / (2.0 * dt)
        out[i, 0] = (-3.0 * r[0] + 4.0 * r[1] - r[2]) / (2.0 * dt)
        out[i, -1] = (3.0 * r[-1] - 4.0 * r[-2] + r[-3]) / (2.0 * dt)
    return out


def _stencil_inputs():
    """Trajectory arrays in the layouts the callers pass: time-major (the
    package's own layout), a time-major column block of a wider array,
    C-ordered, a column block of a wider C-ordered array, and stride-0
    broadcasts of a profile and of a scalar; values over many decades, so
    any reordering of an operation changes the last bits."""
    from degenmfg.solvers import _traj

    g = SpaceTimeGrid(13, 10, 0.7)
    rng = np.random.default_rng(8)

    def noisy(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)

    wide = noisy((g.n_x, 3 * (g.n_t + 1)))
    return g, {
        "time-major": np.asfortranarray(noisy(g.shape)),
        "time-major-block": np.asfortranarray(wide)[:, 4:4 + g.n_t + 1],
        "c-ordered": noisy(g.shape),
        "column-block": wide[:, 5:5 + g.n_t + 1],
        "profile-broadcast": _traj(noisy(g.n_x), g, "u"),
        "scalar-broadcast": _traj(1.0 / 3.0, g, "u"),
    }


def test_stencils_match_their_written_out_formulas_bitwise():
    from degenmfg.domain import _dt1_columns

    g, inputs = _stencil_inputs()
    assert all(inputs[k].flags.f_contiguous for k in ("time-major", "time-major-block"))
    assert inputs["column-block"].strides[1] == 8 and not inputs["column-block"].flags.c_contiguous
    assert inputs["profile-broadcast"].strides[1] == 0
    for name, v in inputs.items():
        for closure in ("dirichlet", "free"):
            got, want = _dx_array(v, g.h, closure), _ref_dx(v, g.h, closure)
            assert got.tobytes() == want.tobytes(), (name, "dx", closure)
            assert got.flags.f_contiguous, (name, "dx", closure)
        got, want = _dxx_array(v, g.h), _ref_dxx(v, g.h)
        assert got.tobytes() == want.tobytes(), (name, "dxx")
        assert got.flags.f_contiguous, (name, "dxx")
        got, want = _dt_array(v, g.dt, 1), _ref_dt1(v, g.dt)
        assert got.tobytes() == want.tobytes(), (name, "dt")
        assert got.flags.f_contiguous, (name, "dt")
        # a block's own columns: one-sided stencils at the ends of v alone
        for cols in (slice(0, 3), slice(1, 2), slice(3, 8), slice(7, None)):
            block = _dt1_columns(v, g.dt, cols)
            assert block.tobytes() == want[:, cols].tobytes(), (name, "dt", cols)


def _with_zeros(rng, shape):
    """Normal samples of both signs with some exact zeros of both signs."""
    v = rng.standard_normal(shape)
    flat = v.reshape(-1)
    flat[::5] = 0.0
    flat[2::10] = -0.0
    return v


@pytest.mark.parametrize("layout", ["sampler", "table", "trajectory block", "profile block",
                                    "scalar block"])
def test_einsum_products_are_the_ufunc_products_they_replace(layout):
    # the sweep's separable products are einsum outer products: each entry is
    # one rounded product, as with the ufunc, added into a zeroed output, so
    # a -0.0 product reads +0.0 (want + 0.0) and every other bit is the same;
    # the layouts are those the package passes
    g = SpaceTimeGrid(16, 20, 1.0)
    rng = np.random.default_rng(7)
    x, t = _with_zeros(rng, g.n_x), _with_zeros(rng, g.n_t + 1)
    if layout == "sampler":  # manufactured._Level.sample: a time-major out
        got = np.einsum("i,j->ij", x, t, out=_empty(g.shape))
        want = np.multiply.outer(x, t, out=_empty(g.shape))
    elif layout == "table":  # carleman._scaled_cells: C-order rows of a buffer
        buf, buf2 = np.empty(3 * g.n_t), np.empty(3 * g.n_t)
        got = np.einsum("i,j->ij", x[4:7], t[1:], out=buf.reshape(-1, g.n_t))
        want = np.multiply(x[4:7, None], t[1:], out=buf2.reshape(-1, g.n_t))
    else:  # carleman.fp_ingredients: a m on a column block of _traj(m)
        data = {"trajectory block": np.asfortranarray(_with_zeros(rng, g.shape)),
                "profile block": np.roll(_with_zeros(rng, g.n_x), 1),
                "scalar block": -0.5}[layout]
        block = _traj(data, g, "m")[:, 3:11]
        got = np.einsum("i,ij->ij", x, block)
        want = x[:, None] * block
    assert (want == 0.0).any() and np.signbit(want[want == 0.0]).any()
    assert got.strides == want.strides
    assert got.tobytes() == (want + 0.0).tobytes()
