"""Implicit finite-difference solvers for the two linear half-problems.

Both equations advance by backward Euler steps with one tridiagonal solve per
time level: each problem builds the step bands of I - dt L once, shared by its
sweep and its scheme residual.  A sweep marches through one time-major buffer
(see domain: each time level a contiguous column), and LAPACK solves each
level in place.  Bands constant in time (scalar and profile coefficients) are
one column, factored once per sweep (gttrf, then a gttrs per level); otherwise
each level is one gtsv call on a per-sweep copy of the bands with the levels
as rows.  The solvers return that buffer, a fresh time-major array, wrapped
without a copy.  The spatial operator L = a d_xx + d d_x + q uses central
stencils at interior cells and a ghost-cell closure at the two boundary cells:
the unknown is extended by a quadratic that vanishes at the endpoint, the
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

    The routines used here (dgtsv, dgttrf, dgttrs) live in the f2py extension
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
# unit probes per block of isomorphism_residual
_PROBE_BLOCK = 256


class SolverError(RuntimeError):
    """Raised when a linear sweep fails or produces non-finite values."""


def _traj(data: FieldLike, grid: SpaceTimeGrid, name: str) -> np.ndarray:
    """Coerce a coefficient or datum to a trajectory of shape (n_x, n_t+1).

    With _slice, the one coercion rule of the package.  A scalar, a spatial
    profile of shape (n_x,) or a callable of x (see _slice) is constant in
    time: a read-only broadcast view whose time stride is 0.  A trajectory,
    or a field on a grid of the same shape, is returned as it is.  Any other
    shape raises ValueError naming the field.
    """
    if isinstance(data, SpaceTimeField):
        if data.grid.shape != grid.shape:
            raise ValueError(f"{name}: field grid {data.grid.shape} != {grid.shape}")
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


@dataclass
class HjbLinearProblem:
    """Backward value equation u_t + a u_xx + drift u_x = source, u(.,T) given.

    drift and source may be scalars, spatial profiles, callables of x or
    full trajectories; terminal is a slice (see _traj and _slice).
    """

    grid: SpaceTimeGrid
    coeff: DegenerateCoefficient
    drift: FieldLike = 0.0
    source: FieldLike = 0.0
    terminal: FieldLike = 0.0

    def __post_init__(self):
        self.drift = _traj(self.drift, self.grid, "drift")
        self.source = _traj(self.source, self.grid, "source")
        self.terminal = _slice(self.terminal, self.grid, "terminal")

    @cached_property
    def _step_bands(self):
        """Bands of I - dt L_k, built once per problem (see _time_columns)."""
        g = self.grid
        (drift,) = _time_columns(self.drift)
        bands = _band_fields(self.coeff.a(g.x)[:, None], drift, None, g.h)
        return _to_step_bands(*bands, g.dt)


@dataclass
class FpLinearProblem:
    """Forward density equation m_t - (a m)_xx + convection m_x = zeroth m + source.

    Solved through v = a m; ``initial`` is the density slice m(., 0).  The
    coefficients and data are coerced as for HjbLinearProblem.
    """

    grid: SpaceTimeGrid
    coeff: DegenerateCoefficient
    convection: FieldLike = 0.0
    zeroth: FieldLike = 0.0
    source: FieldLike = 0.0
    initial: FieldLike = 0.0

    def __post_init__(self):
        self.convection = _traj(self.convection, self.grid, "convection")
        self.zeroth = _traj(self.zeroth, self.grid, "zeroth")
        self.source = _traj(self.source, self.grid, "source")
        self.initial = _slice(self.initial, self.grid, "initial")

    @cached_property
    def _step_bands(self):
        """Bands of I - dt L_v, L_v = a d_xx - c1 d_x + (c1 a_x/a + b), built
        once per problem; the step -h carries the drift's sign, so no -c1
        field is formed."""
        g = self.grid
        x = g.x
        conv, zeroth = _time_columns(self.convection, self.zeroth)
        q = conv * self.coeff.log_derivative(x)[:, None] + zeroth
        bands = _band_fields(self.coeff.a(x)[:, None], conv, q, -g.h)
        return _to_step_bands(*bands, g.dt)


def _time_columns(*fields):
    """Each field's first column if none varies in time (stride 0), else the fields."""
    if all(f.strides[1] == 0 for f in fields):
        return tuple(f[:, :1] for f in fields)
    return fields


def _band_fields(a: np.ndarray, d: np.ndarray, q, h: float):
    """Tridiagonal coefficients of L = a d_xx + d d_x + q, all columns at once.

    Returns (sub, diag, sup) shaped like d; sub[0] and sup[-1] are zero
    padding.  ``q`` None means q = 0, bit for bit (adding a zero changes no
    nonzero double, and no diagonal entry here is -0.0).  Boundary rows carry
    the ghost closure: extending the field by a quadratic that vanishes at the
    endpoint gives ghost = -2 f0 + f1/3, which folds into the row-0 weights
    below (mirrored on the right, where the outward direction flips the sign
    of the drift part).  A negative step -h gives the bands of
    a d_xx - d d_x + q, bit for bit those of -d: a / h^2 is even in h, and
    every drift quotient flips its sign exactly.
    """
    h2 = h * h
    a2 = a / h2
    dh = d / (2.0 * h)
    diag = np.multiply(-2.0, a2, out=_empty(d.shape))
    if q is not None:
        diag += q
    sub = a2 - dh
    sup = np.add(a2, dh, out=dh)  # dh's memory: one full temporary fewer
    sub[0] = 0.0
    sup[-1] = 0.0
    diag[0] = -4.0 * a2[0] + d[0] / h
    diag[-1] = -4.0 * a2[-1] - d[-1] / h
    if q is not None:
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


def _implicit_step(sub_k, diag_k, sup_k, rhs, k):
    """Solve (I - dt L) f = rhs for one time level, from the step bands.

    gtsv works in place: it overwrites the three bands and, when rhs is a
    contiguous float array, returns the solution in rhs's memory.  Callers
    pass bands they own.
    """
    _, _, _, f, info = lapack.dgtsv(sub_k[1:], diag_k, sup_k[:-1], rhs, 1, 1, 1, 1)
    if info != 0:
        raise SolverError(f"singular tridiagonal system at time index {k}")
    return f


def _march(bands, first, src, scale, what, weight=None):
    """Implicit Euler steps S_k f^k = f^j + scale src^k from the end slice
    ``first``: backward (j = k + 1, from t = T) when scale < 0, else forward
    (j = k - 1, from t = 0).  With a ``weight`` column the source term is
    scale (weight src^k), rounded in that order.

    Level k is column k of one time-major (n_x, n_t+1) buffer, contiguous,
    filled once with the source term; each step adds the previous column and
    solves in place.  One band column is factored once (gttrf) and each
    level back-substitutes (gttrs); else each level is one gtsv on a per-sweep
    copy of the bands with the levels as rows, so the problem's bands stay
    intact.  Returns the buffer itself: a fresh time-major array.
    """
    backward = scale < 0.0
    levels = range(src.shape[1] - 2, -1, -1) if backward else range(1, src.shape[1])
    prev = 1 if backward else -1
    f = _empty(src.shape)
    if weight is None:
        np.multiply(scale, src, out=f)
    else:
        np.multiply(weight, src, out=f)
        f *= scale
    f[:, levels[0] + prev] = first
    if bands[1].shape[1] == 1:
        sub, diag, sup = (band[:, 0] for band in bands)
        *lu, info = lapack.dgttrf(sub[1:], diag, sup[:-1])
        if info != 0:
            raise SolverError(f"singular tridiagonal system at time index {levels[0]}")
        for k in levels:
            b = f[:, k]
            b += f[:, k + prev]
            lapack.dgttrs(*lu, b, overwrite_b=1)
    else:
        sub, diag, sup = (band.T.copy() for band in bands)
        for k in levels:
            b = f[:, k]
            b += f[:, k + prev]
            _implicit_step(sub[k], diag[k], sup[k], b, k)
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


def isomorphism_residual(coeff, grid: SpaceTimeGrid) -> float:
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
    for lo in range(0, n, _PROBE_BLOCK):
        hi = min(lo + _PROBE_BLOCK, n)
        probes = np.zeros((n, hi - lo))
        probes[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        w = a[:, None] * probes
        dxx_w = _apply_bands(sub, diag, sup, w)
        lhs = (a[:, None] * dxx_w) / a[:, None]
        worst = max(worst, float(np.max(np.abs(lhs - dxx_w))))
    return worst
