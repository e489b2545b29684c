"""Implicit finite-difference solvers for the two linear half-problems.

Both equations advance by backward Euler steps with one tridiagonal solve per
time level: each problem builds the step bands of I - dt L once, shared by its
sweep and its scheme residual.  A sweep marches through one time-major buffer
(see domain: each time level a contiguous column) over views of its columns
built once per sweep, so a level is one in-place add of its predecessor and
one LAPACK call, with one of two kernels chosen from the bands themselves.
Bands constant in time (scalar and profile coefficients) are one column; when
that step matrix S is similar, through a positive diagonal D, to a symmetric
positive definite T (every pair of adjacent off-diagonals of one sign, so cell
Peclet below 1: the discrete form of the operator's self-adjointness in its
Sturm-Liouville weight), T is factored once per sweep (pttrf, LDL^T) and each
level is one pttrs in the unknown D^-1 f.  Every other sweep, time-varying or
not symmetrizable, solves each level with one gtsv call on its rows of a
level-major per-sweep copy of the bands, off-diagonals cut to length.  The
solvers return that buffer, a fresh time-major array, wrapped without a
copy.  The spatial operator L = a d_xx + d d_x + q uses central stencils at
interior cells and a ghost-cell closure at the two boundary cells: the
unknown is extended by a quadratic that vanishes at the endpoint, the
discrete form of the homogeneous Dirichlet condition carried by u and by a*m.

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

The LAPACK routines come from scipy's compiled extension
``scipy.linalg._flapack``, the module ``scipy.linalg.lapack`` re-exports.
``_load_lapack`` loads that file directly, so a command never imports the
``scipy.linalg`` package (about half of a cold start); it imports the public
module only when the file is not where scipy's layout puts it or cannot be
loaded that way.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from degenmfg.domain import (
    DegenerateCoefficient,
    SpaceTimeField,
    SpaceTimeGrid,
    _dt_array,
    _dx_array,
    _dxx_array,
    _empty,
    _flat,
)


def _load_lapack():
    """scipy's compiled LAPACK wrappers, without importing ``scipy.linalg``.

    The routines used here (dgtsv, dpttrf, dpttrs) live in the f2py extension
    ``scipy/linalg/_flapack``; ``scipy.linalg.lapack`` re-exports them.
    Importing that package runs all of ``scipy.linalg`` and its array-API
    layer (which pulls in ``numpy.f2py`` and ``numpy.testing``), about half of
    a cold command's start-up.  So the extension file is found next to
    scipy's package directory (``find_spec`` does not import scipy) and loaded
    under its canonical name.  The loader itself writes nothing to
    ``sys.modules``, but CPython registers the extension there while
    initialising it: afterwards ``sys.modules`` holds
    ``scipy.linalg._flapack`` without its parent packages ``scipy`` and
    ``scipy.linalg``.  A later ``import scipy.linalg`` reuses that
    initialised extension.

    The public ``scipy.linalg.lapack`` is imported instead when the file is
    not there (scipy missing, or installed in another layout) or fails to
    load (loading it this way skips ``scipy/__init__.py``, where some builds
    make the extension's shared libraries findable).  A missing scipy then
    raises the usual ``ModuleNotFoundError``.
    """
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                try:
                    ext = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
                    module = importlib.util.module_from_spec(ext)
                    ext.loader.exec_module(module)
                    return module
                except ImportError:
                    pass
    from scipy.linalg import lapack

    return lapack


lapack = _load_lapack()

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

# a scalar, a spatial profile, a callable of x or a trajectory (see _traj)
FieldLike = Union[SpaceTimeField, np.ndarray, float, Callable]
# widest spread of log(delta) a symmetrizer may have: centred, delta and
# 1/delta stay within exp(230) ~ 1e100, far inside the double range
_LOG_DELTA_SPAN = 460.0


class SolverError(RuntimeError):
    """Raised when a linear sweep fails or produces non-finite values."""


def _traj(data: FieldLike, grid: SpaceTimeGrid, name: str) -> np.ndarray:
    """Coerce a coefficient or datum to a trajectory of shape (n_x, n_t+1).

    With _slice, the one coercion rule of the package.  A scalar, a spatial
    profile of shape (n_x,) or a callable of x (see _slice) is constant in
    time: a read-only broadcast view whose time stride is 0.  A trajectory,
    or a field on the same grid (horizon included), is returned as it is.
    Any other shape, or a field on another grid, raises ValueError naming
    the field.
    """
    if isinstance(data, SpaceTimeField):
        if data.grid != grid:
            raise ValueError(f"{name}: field grid {data.grid} != {grid}")
        return data.values
    if callable(data):
        data = _slice(data, grid, name)
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0:
        return np.broadcast_to(arr, grid.shape)
    if arr.shape == (grid.n_x,):
        return np.broadcast_to(arr[:, None], grid.shape)
    if arr.shape == grid.shape:
        return arr
    raise ValueError(f"{name}: cannot broadcast shape {arr.shape} to {grid.shape}")


def _slice(data: FieldLike, grid: SpaceTimeGrid, name: str) -> np.ndarray:
    """Coerce a scalar, a profile of shape (n_x,) or a callable of x to one
    spatial slice of shape (n_x,).  A callable is evaluated at the nodes
    grid.x, the only place one is; its result is coerced like a value.  Any
    other shape raises ValueError naming the field."""
    arr = np.asarray(data(grid.x) if callable(data) else data, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.n_x, float(arr))
    if arr.shape != (grid.n_x,):
        raise ValueError(f"{name}: expected shape ({grid.n_x},), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class HjbLinearProblem:
    """Backward value equation u_t + a u_xx + drift u_x = source, u(.,T) given.

    drift and source may be scalars, spatial profiles, callables of x or
    full trajectories; terminal is a slice (see _traj and _slice).  The
    record is frozen, so its step bands stay those of its fields; a changed
    problem is a new one (dataclasses.replace).
    """

    grid: SpaceTimeGrid
    coeff: DegenerateCoefficient
    drift: FieldLike = 0.0
    source: FieldLike = 0.0
    terminal: FieldLike = 0.0

    def __post_init__(self):
        object.__setattr__(self, "drift", _traj(self.drift, self.grid, "drift"))
        object.__setattr__(self, "source", _traj(self.source, self.grid, "source"))
        object.__setattr__(self, "terminal", _slice(self.terminal, self.grid, "terminal"))

    @cached_property
    def _step_bands(self):
        """Bands of I - dt L_k, built once per problem (see _time_columns)."""
        g = self.grid
        (drift,) = _time_columns(self.drift)
        bands = _band_fields(self.coeff.a(g.x)[:, None], drift, np.zeros((g.n_x, 1)), g.h)
        return _to_step_bands(*bands, g.dt)


@dataclass(frozen=True)
class FpLinearProblem:
    """Forward density equation m_t - (a m)_xx + convection m_x = zeroth m + source.

    Solved through v = a m; ``initial`` is the density slice m(., 0).  The
    coefficients and data are coerced, and the record frozen, as for
    HjbLinearProblem.
    """

    grid: SpaceTimeGrid
    coeff: DegenerateCoefficient
    convection: FieldLike = 0.0
    zeroth: FieldLike = 0.0
    source: FieldLike = 0.0
    initial: FieldLike = 0.0

    def __post_init__(self):
        for name in ("convection", "zeroth", "source"):
            object.__setattr__(self, name, _traj(getattr(self, name), self.grid, name))
        object.__setattr__(self, "initial", _slice(self.initial, self.grid, "initial"))

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

    a, d and q are columns or trajectories; the bands take the shape of d.
    Returns (sub, diag, sup); sub[0] and sup[-1] are zero padding.  Boundary
    rows carry the ghost closure: extending the field by a quadratic that
    vanishes at the endpoint gives ghost = -2 f0 + f1/3, which folds into the
    row-0 weights below (mirrored on the right, where the outward direction
    flips the sign of the drift part).
    """
    h2 = h * h
    a2 = a / h2
    dh = d / (2.0 * h)
    diag = np.multiply(-2.0, a2, out=_empty(d.shape))
    diag += q
    sub = a2 - dh
    sup = np.add(a2, dh, out=dh)  # dh's memory: one full temporary fewer
    sub[0] = 0.0
    sup[-1] = 0.0
    diag[0] = -4.0 * a2[0] + d[0] / h
    diag[-1] = -4.0 * a2[-1] - d[-1] / h
    diag[0] += q[0]
    diag[-1] += q[-1]
    sup[0] = (4.0 / 3.0) * a2[0] + d[0] / (3.0 * h)
    sub[-1] = (4.0 / 3.0) * a2[-1] - d[-1] / (3.0 * h)
    return sub, diag, sup


def _apply_bands(sub, diag, sup, f):
    """sub f[i-1] + diag f[i] + sup f[i+1] in every row of f, with bands of
    f's shape or one band column.

    Each neighbour field is f shifted by one entry along the time-major
    buffer (see domain._flat), with its row that wraps across a column seam
    set to zero, so every product is one contiguous pass: a shifted row view
    of a time-major array is strided.  Row 0 adds sub[0] * 0 and the last row
    sup[-1] * 0, which changes at most the sign of a zero.
    """
    out = diag * f
    nb = _empty(f.shape)
    for band, dst, src, edge in ((sub, slice(1, None), slice(None, -1), 0),
                                 (sup, slice(None, -1), slice(1, None), -1)):
        _flat(nb)[dst] = _flat(f)[src]
        nb[edge] = 0.0
        nb *= band
        out += nb
    return out


def _to_step_bands(sub, diag, sup, dt):
    """Turn the bands of L into the bands of I - dt L, in place; returns them."""
    sub *= -dt
    sup *= -dt
    diag *= -dt
    diag += 1.0
    return sub, diag, sup


def _implicit_step(dl, d, du, rhs, k):
    """Solve (I - dt L) f = rhs for time level k, from the step bands.

    dl, d and du are the level's sub-, main and super-diagonals, n_x - 1,
    n_x and n_x - 1 long (sub[1:] and sup[:-1] of a band column).  gtsv works
    in place: it overwrites the three bands and, when rhs is a contiguous
    float array, returns the solution in rhs's memory.  Callers pass bands
    they own.
    """
    _, _, _, f, info = lapack.dgtsv(dl, d, du, rhs, 1, 1, 1, 1)
    if info != 0:
        raise SolverError(f"singular tridiagonal system at time index {k}")
    return f


def _symmetrizer(sub, diag, sup):
    """The similarity S = D T D^-1 of one step matrix, T factored; or None.

    S has the bands (sub, diag, sup) of one column.  With D = diag(delta) and
    delta[i+1] / delta[i] = r[i] = sqrt(sub[i+1] / sup[i]), T is symmetric:
    diagonal diag, off-diagonal e[i] = sup[i] r[i] = sign(sup[i])
    sqrt(sub[i+1] sup[i]).  delta is the running product of the r[i], from a
    delta[0] that centres log delta on 0, so each ratio of adjacent entries,
    the only thing T depends on, carries one rounding whatever the spread of
    delta.  Returns (delta, d, e) with the
    LDL^T factors d, e of T from pttrf, or None when a product
    sub[i+1] sup[i] is not positive, when log delta spans more than
    _LOG_DELTA_SPAN, or when T is not positive definite.
    """
    with np.errstate(all="ignore"):  # the guards below catch 0, inf and nan
        ratio = sub[1:] / sup[:-1]
        if not np.all(ratio > 0.0):
            return None
        log_delta = np.cumsum(0.5 * np.log(ratio))
    lo, hi = min(0.0, log_delta.min()), max(0.0, log_delta.max())
    if not hi - lo <= _LOG_DELTA_SPAN:
        return None
    delta = np.empty(diag.shape)
    delta[0] = np.exp(-0.5 * (lo + hi))
    np.sqrt(ratio, out=delta[1:])
    e = sup[:-1] * delta[1:]
    np.cumprod(delta, out=delta)
    d, e, info = lapack.dpttrf(diag, e, overwrite_e=1)
    if info != 0:
        return None
    return delta, d, e


def _march(bands, first, src, scale, what, weight=None):
    """Implicit Euler steps S_k f^k = f^j + scale src^k from the end slice
    ``first``: backward (j = k + 1, from t = T) when scale < 0, else forward
    (j = k - 1, from t = 0).  With a ``weight`` column the source term is
    scale (weight src^k).

    Level k is column k of one time-major (n_x, n_t+1) buffer, filled once
    with the source term; a level is one in-place add of its predecessor and
    one LAPACK call, on row views built once per sweep.  The bands pick the kernel:

    * one band column that _symmetrizer takes (S = D T D^-1): the march runs
      in w = D^-1 f, T w^k = w^j + (scale / delta) src^k.  T is factored once
      (pttrf), the end slice and the source are divided by delta in the one
      pass that fills the buffer ((scale / delta) src, or (weight src) times
      scale / delta, rounded in that order), each level is one pttrs, and
      one pass multiplies the buffer by delta at the end;
    * any other bands, time-varying or one column that is not symmetrizable:
      each level is one gtsv (_implicit_step) on its rows of a level-major
      per-sweep copy of the bands, off-diagonals cut to length, so the
      problem's bands stay intact.  A singular step matrix raises
      SolverError naming the first level it stops.

    Returns the buffer itself: a fresh time-major array.
    """
    order = slice(None, None, -1) if scale < 0.0 else slice(None)
    sym = _symmetrizer(*(band[:, 0] for band in bands)) if bands[1].shape[1] == 1 else None
    if sym is not None:
        delta, d, e = sym
        scale = (scale / delta)[:, None]
    f = _empty(src.shape)
    if weight is None:
        np.multiply(scale, src, out=f)
    else:
        np.multiply(weight, src, out=f)
        f *= scale
    cols = f.T[order]  # the levels in march order, each a contiguous row
    if sym is not None:
        np.divide(first, delta, out=cols[0])
        for b, b_prev in zip(cols[1:], cols[:-1]):
            b += b_prev
            lapack.dpttrs(d, e, b, overwrite_b=1)
        f *= delta[:, None]
    else:
        cols[0] = first
        times = range(src.shape[1])[order][1:]
        sub, diag, sup = (np.broadcast_to(band, src.shape).T[order][1:] for band in bands)
        dl, d, du = sub[:, 1:].copy(), diag.copy(), sup[:, :-1].copy()
        for k, b, b_prev, dl_k, d_k, du_k in zip(times, cols[1:], cols[:-1], dl, d, du):
            b += b_prev
            _implicit_step(dl_k, d_k, du_k, b, k)
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
    return SpaceTimeField._adopt(u, g)


def solve_fp_linear(prob: FpLinearProblem) -> SpaceTimeField:
    """March the density equation from t = 0 up to t = T and return m.

    The combination c1 a_x / a in the transformed zeroth-order coefficient is
    evaluated from the closed-form log-derivative, never as a quotient of two
    near-zero numbers; it stays bounded whenever |c1| <= C sqrt(a).
    Coefficients and source for the step to t_{k+1} are taken at t_{k+1}.
    """
    g = prob.grid
    a = prob.coeff.a(g.x)[:, None]
    v = _march(prob._step_bands, a[:, 0] * prob.initial, prob.source, g.dt, "density", a)
    v /= a
    return SpaceTimeField._adopt(v, g)


def apply_hjb_operator(u: FieldLike, prob: HjbLinearProblem) -> SpaceTimeField:
    """Continuum residual u_t + a u_xx + drift u_x - source, diagnostic stencils.

    Central second-order differences in both variables (one-sided at the time
    ends, Dirichlet ghost closure in space).  On a solver trajectory this
    measures the discretization defect, O(dt + h^2).
    """
    g = prob.grid
    uv = _traj(u, g, "u")
    ux = _dx_array(uv, g.h, "dirichlet")
    uxx = _dxx_array(uv, g.h)
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
    am_xx = _dxx_array(a[:, None] * mv, g.h)
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


def isomorphism_residual(coeff: DegenerateCoefficient, grid: SpaceTimeGrid) -> float:
    """Max-norm defect of the conjugation identity between the two forms.

    Multiplication by a carries the density unknown to v = a m, and it must
    carry the nondivergence principal part onto the divergence one: columnwise
    over a full basis of grid fields, T^{-1} A (T e) must equal A~ e where
    A e = a * Dxx e, A~ e = Dxx(a e), T e = a e.  Both sides go through
    separate arithmetic paths (no algebraic cancellation), so the returned
    max-norm is honest floating-point roundoff, not a tautology by
    construction.
    """
    n = grid.n_x
    a = coeff.a(grid.x)
    bands = _band_fields(np.ones((n, 1)), np.zeros((n, 1)), np.zeros((n, 1)), grid.h)
    sub, diag, sup = (b[:, 0] for b in bands)
    # column j of A~ e_j = Dxx(a e_j): diag_j a_j in row j, sub_{j+1} a_j in
    # row j + 1 and sup_{j-1} a_j in row j - 1; every other entry is zero
    defects = [
        np.abs((a_row * v) / a_row - v)
        for a_row, v in ((a, diag * a), (a[1:], sub[1:] * a[:-1]), (a[:-1], sup[:-1] * a[1:]))
    ]
    return float(np.max(np.concatenate(defects)))
