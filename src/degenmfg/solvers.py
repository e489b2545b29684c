"""Implicit finite-difference solvers for the two linear half-problems.

Both equations advance by backward Euler steps with one tridiagonal solve per
time level: each problem builds the step bands of I - dt L once, shared by its
sweep and its scheme residual.  Bands constant in time (scalar and profile
coefficients) are one column, factored once per sweep (LAPACK gttrf, then a
gttrs per level); otherwise each level is one gtsv call on its column.  The
spatial operator L = a d_xx + d d_x + q uses central stencils at interior
cells and a ghost-cell closure at the two boundary cells: the unknown is
extended by a quadratic that vanishes at the endpoint, the discrete form of
the homogeneous Dirichlet condition carried by u and by a*m.

The density equation is not discretized in m directly.  Its divergence-form
principal part (a m)_xx makes v = a m the natural unknown: in v the equation
reads v_t = a v_xx - c1 v_x + (c1 a_x/a + b) v + a*src, v vanishes on the
boundary, and the same ghost closure applies.  m is recovered as v / a, which
is safe because every node is interior.

Two residual notions coexist on purpose:

* ``apply_hjb_operator`` / ``apply_fp_operator`` evaluate the continuum
  equations with the diagnostic stencils (central in time and space); on a
  solver trajectory they report the actual discretization defect, O(dt + h^2).
* ``hjb_scheme_residual`` / ``fp_scheme_residual`` evaluate exactly the
  implicit-step equations the solvers enforce; on a direct solve they are at
  rounding level, so fixed-point iterations can drive them to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np
from scipy.linalg import lapack

from degenmfg.domain import (
    DegenerateCoefficient,
    SpaceTimeField,
    SpaceTimeGrid,
    _dt_array,
    _dx_array,
    _dxx_array,
)

__all__ = [
    "SolverError",
    "HjbLinearProblem",
    "FpLinearProblem",
    "solve_hjb_linear",
    "solve_fp_linear",
    "apply_hjb_operator",
    "apply_fp_operator",
    "hjb_scheme_residual",
    "fp_scheme_residual",
    "isomorphism_residual",
]

FieldLike = Union[SpaceTimeField, np.ndarray, float]


class SolverError(RuntimeError):
    """Raised when a linear sweep fails or produces non-finite values."""


def _traj(data: FieldLike, grid: SpaceTimeGrid, name: str) -> np.ndarray:
    """Coerce scalars, spatial profiles, or trajectories to shape (n_x, n_t+1)."""
    if isinstance(data, SpaceTimeField):
        if data.grid.shape != grid.shape:
            raise ValueError(f"{name}: field grid {data.grid.shape} != {grid.shape}")
        return data.values
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0:
        return np.broadcast_to(arr, grid.shape)
    if arr.shape == (grid.n_x,):
        return np.broadcast_to(arr[:, None], grid.shape)
    if arr.shape == grid.shape:
        return arr
    raise ValueError(f"{name}: cannot broadcast shape {arr.shape} to {grid.shape}")


def _slice(data, grid: SpaceTimeGrid, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.n_x, float(arr))
    if arr.shape != (grid.n_x,):
        raise ValueError(f"{name}: expected shape ({grid.n_x},), got {arr.shape}")
    return arr


@dataclass
class HjbLinearProblem:
    """Backward value equation u_t + a u_xx + drift u_x = source, u(.,T) given.

    drift and source may be scalars, spatial profiles, or full trajectories.
    The hypothesis ratio max |drift| / sqrt(a) over all nodes is recorded at
    construction (the estimates assume it is bounded).
    """

    grid: SpaceTimeGrid
    coeff: DegenerateCoefficient
    drift: FieldLike = 0.0
    source: FieldLike = 0.0
    terminal: FieldLike = 0.0
    drift_ratio: float = field(init=False)

    def __post_init__(self):
        self.drift = _traj(self.drift, self.grid, "drift")
        self.source = _traj(self.source, self.grid, "source")
        self.terminal = _slice(self.terminal, self.grid, "terminal")
        sqrt_a = self.coeff.sqrt_a(self.grid.x)
        (drift,) = _time_columns(self.drift)
        self.drift_ratio = float(np.max(np.abs(drift) / sqrt_a[:, None]))

    @cached_property
    def _step_bands(self):
        """Bands of I - dt L_k, built once per problem (see _time_columns)."""
        g = self.grid
        (drift,) = _time_columns(self.drift)
        bands = _band_fields(self.coeff.a(g.x)[:, None], drift, np.zeros(drift.shape), g.h)
        return _to_step_bands(*bands, g.dt)


@dataclass
class FpLinearProblem:
    """Forward density equation m_t - (a m)_xx + convection m_x = zeroth m + source.

    Solved through v = a m; ``initial`` is the density slice m(., 0).  The
    hypothesis ratios max |convection| / sqrt(a) and max |a_x| / sqrt(a) are
    recorded at construction.
    """

    grid: SpaceTimeGrid
    coeff: DegenerateCoefficient
    convection: FieldLike = 0.0
    zeroth: FieldLike = 0.0
    source: FieldLike = 0.0
    initial: FieldLike = 0.0
    convection_ratio: float = field(init=False)
    slope_ratio: float = field(init=False)

    def __post_init__(self):
        self.convection = _traj(self.convection, self.grid, "convection")
        self.zeroth = _traj(self.zeroth, self.grid, "zeroth")
        self.source = _traj(self.source, self.grid, "source")
        self.initial = _slice(self.initial, self.grid, "initial")
        x = self.grid.x
        sqrt_a = self.coeff.sqrt_a(x)
        (conv,) = _time_columns(self.convection)
        self.convection_ratio = float(np.max(np.abs(conv) / sqrt_a[:, None]))
        self.slope_ratio = float(np.max(np.abs(self.coeff.a_x(x)) / sqrt_a))

    @cached_property
    def _step_bands(self):
        """Bands of I - dt L_v, L_v = a d_xx - c1 d_x + (c1 a_x/a + b), built
        once per problem."""
        g = self.grid
        x = g.x
        conv, zeroth = _time_columns(self.convection, self.zeroth)
        q = conv * self.coeff.log_derivative(x)[:, None] + zeroth
        bands = _band_fields(self.coeff.a(x)[:, None], -conv, q, g.h)
        return _to_step_bands(*bands, g.dt)


def _time_columns(*fields):
    """Each field's first column if none varies in time (stride 0), else the fields."""
    if all(f.strides[1] == 0 for f in fields):
        return tuple(f[:, :1] for f in fields)
    return fields


def _band_fields(a: np.ndarray, d: np.ndarray, q: np.ndarray, h: float):
    """Tridiagonal coefficients of L = a d_xx + d d_x + q, all columns at once.

    Returns (sub, diag, sup) shaped like d; sub[0] and sup[-1] are zero
    padding.  Boundary rows carry the ghost closure: extending the field by a
    quadratic that vanishes at the endpoint gives ghost = -2 f0 + f1/3, which
    folds into the row-0 weights below (mirrored on the right, where the
    outward direction flips the sign of the drift part).
    """
    h2 = h * h
    a2 = a / h2
    dh = d / (2.0 * h)
    diag = -2.0 * a2 + q
    sub = a2 - dh
    sup = np.add(a2, dh, out=dh)  # dh's memory: one full temporary fewer
    sub[0] = 0.0
    sup[-1] = 0.0
    diag[0] = -4.0 * a2[0] + d[0] / h + q[0]
    sup[0] = (4.0 / 3.0) * a2[0] + d[0] / (3.0 * h)
    diag[-1] = -4.0 * a2[-1] - d[-1] / h + q[-1]
    sub[-1] = (4.0 / 3.0) * a2[-1] - d[-1] / (3.0 * h)
    return sub, diag, sup


def _apply_bands(sub, diag, sup, f):
    out = diag * f
    out[1:] += sub[1:] * f[:-1]
    out[:-1] += sup[:-1] * f[1:]
    return out


def _to_step_bands(sub, diag, sup, dt):
    """Turn the bands of L into the bands of I - dt L, in place; returns them."""
    sub *= -dt
    sup *= -dt
    diag *= -dt
    diag += 1.0
    return sub, diag, sup


def _implicit_step(sub_k, diag_k, sup_k, rhs, k):
    """Solve (I - dt L) f = rhs for one time level, from the step bands."""
    _, _, _, f, info = lapack.dgtsv(sub_k[1:], diag_k, sup_k[:-1], rhs)
    if info != 0:
        raise SolverError(f"singular tridiagonal system at time index {k}")
    return f


def _march(bands, first, src, scale, what):
    """Implicit Euler steps S_k f^k = f^j + scale src^k from the end slice
    ``first``: backward (j = k + 1, from t = T) when scale < 0, else forward
    (j = k - 1, from t = 0).  One band column is factored once (gttrf) and
    each level back-substitutes (gttrs); else each level is one gtsv."""
    levels = range(src.shape[1] - 2, -1, -1) if scale < 0.0 else range(1, src.shape[1])
    prev = 1 if scale < 0.0 else -1
    f = np.empty(src.shape)
    f[:, levels[0] + prev] = first
    sub, diag, sup = bands
    lu = None
    if diag.shape[1] == 1:
        *lu, info = lapack.dgttrf(sub[1:, 0], diag[:, 0], sup[:-1, 0])
        if info != 0:
            raise SolverError(f"singular tridiagonal system at time index {levels[0]}")
    for k in levels:
        rhs = f[:, k + prev] + scale * src[:, k]
        f[:, k] = (lapack.dgttrs(*lu, rhs, overwrite_b=1)[0] if lu
                   else _implicit_step(sub[:, k], diag[:, k], sup[:, k], rhs, k))
    if not np.all(np.isfinite(f)):
        raise SolverError(f"{what} sweep produced non-finite entries")
    return f


def solve_hjb_linear(prob: HjbLinearProblem) -> SpaceTimeField:
    """March the value equation from t = T down to t = 0.

    At each level (I - dt L_k) u^k = u^{k+1} - dt src^k with L_k frozen at
    t_k: the unconditionally stable implicit Euler step for the backward
    orientation.
    """
    g = prob.grid
    u = _march(prob._step_bands, prob.terminal, prob.source, -g.dt, "value")
    return SpaceTimeField(u, g)


def solve_fp_linear(prob: FpLinearProblem) -> SpaceTimeField:
    """March the density equation from t = 0 up to t = T and return m.

    The combination c1 a_x / a in the transformed zeroth-order coefficient is
    evaluated from the closed-form log-derivative, never as a quotient of two
    near-zero numbers; it stays bounded whenever |c1| <= C sqrt(a).
    Coefficients and source for the step to t_{k+1} are taken at t_{k+1}.
    """
    g = prob.grid
    a = prob.coeff.a(g.x)[:, None]
    v = _march(prob._step_bands, a[:, 0] * prob.initial, a * prob.source, g.dt, "density")
    return SpaceTimeField(v / a, g)


def apply_hjb_operator(u: FieldLike, prob: HjbLinearProblem) -> SpaceTimeField:
    """Continuum residual u_t + a u_xx + drift u_x - source, diagnostic stencils.

    Central second-order differences in both variables (one-sided at the time
    ends, Dirichlet ghost closure in space).  On a solver trajectory this
    measures the discretization defect, O(dt + h^2).
    """
    g = prob.grid
    uv = _traj(u, g, "u")
    ux = _dx_array(uv, g.h, "dirichlet")
    uxx = _dxx_array(uv, g.h, "dirichlet")
    a = prob.coeff.a(g.x)
    res = _dt_array(uv, g.dt, 1) + a[:, None] * uxx + prob.drift * ux - prob.source
    return SpaceTimeField(res, g)


def apply_fp_operator(m: FieldLike, prob: FpLinearProblem) -> SpaceTimeField:
    """Continuum residual m_t - (a m)_xx + convection m_x - zeroth m - source.

    (a m)_xx comes from Dirichlet-closure stencils on the product field a*m
    (which vanishes at the boundary); m itself does not vanish there, so m_x
    uses the free one-sided closure.
    """
    g = prob.grid
    mv = _traj(m, g, "m")
    a = prob.coeff.a(g.x)
    am_xx = _dxx_array(a[:, None] * mv, g.h, "dirichlet")
    mx = _dx_array(mv, g.h, "free")
    res = (
        _dt_array(mv, g.dt, 1)
        - am_xx
        + prob.convection * mx
        - prob.zeroth * mv
        - prob.source
    )
    return SpaceTimeField(res, g)


def hjb_scheme_residual(u: FieldLike, prob: HjbLinearProblem) -> float:
    """Max defect of the implicit backward-step equations at a trajectory.

    Zero (to solver roundoff) exactly when u satisfies every implicit step,
    so this is the quantity fixed-point sweeps can drive to tolerance.
    """
    g = prob.grid
    uv = _traj(u, g, "u")
    sub, diag, sup = (b if b.shape[1] == 1 else b[:, :-1] for b in prob._step_bands)
    Su = _apply_bands(sub, diag, sup, uv[:, :-1])
    Su -= uv[:, 1:]  # in place: full temporaries cost page faults per sweep
    Su /= g.dt
    Su += prob.source[:, :-1]
    return float(np.max(np.abs(Su, out=Su)))


def fp_scheme_residual(m: FieldLike, prob: FpLinearProblem) -> float:
    """Max defect of the implicit forward-step equations, in v = a m."""
    g = prob.grid
    a = prob.coeff.a(g.x)[:, None]
    v = a * _traj(m, g, "m")
    sub, diag, sup = (b if b.shape[1] == 1 else b[:, 1:] for b in prob._step_bands)
    Sv = _apply_bands(sub, diag, sup, v[:, 1:])
    Sv -= v[:, :-1]  # in place, as in hjb_scheme_residual
    Sv /= g.dt
    Sv -= a * prob.source[:, 1:]
    return float(np.max(np.abs(Sv, out=Sv)))


def isomorphism_residual(
    coeff, grid: SpaceTimeGrid, chunk: int = 256
) -> float:
    """Max-norm defect of the conjugation identity between the two forms.

    Multiplication by a carries the density unknown to v = a m, and it must
    carry the nondivergence principal part onto the divergence one: columnwise
    over a full basis of grid fields, T^{-1} A (T e) must equal A~ e where
    A e = a * Dxx e, A~ e = Dxx(a e), T e = a e.  Both sides go through
    separate arithmetic paths (no algebraic cancellation), so the returned
    max-norm is honest floating-point roundoff, not a tautology by
    construction.  ``coeff`` may also be a plain array of a-values (used for
    non-degenerate sanity checks).
    """
    n = grid.n_x
    if isinstance(coeff, DegenerateCoefficient):
        a = coeff.a(grid.x)
    else:
        a = np.asarray(coeff, dtype=float)
        if a.shape != (n,):
            raise ValueError(f"coefficient array must have shape ({n},)")
    ones = np.ones((n, 1))
    zeros = np.zeros((n, 1))
    sub, diag, sup = _band_fields(ones, zeros, zeros, grid.h)
    worst = 0.0
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        probes = np.zeros((n, hi - lo))
        probes[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        w = a[:, None] * probes
        dxx_w = _apply_bands(sub, diag, sup, w)
        lhs = (a[:, None] * dxx_w) / a[:, None]
        worst = max(worst, float(np.max(np.abs(lhs - dxx_w))))
    return worst
