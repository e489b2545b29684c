"""Grids, degenerate diffusion coefficients, derivative stencils, weighted norms.

Everything downstream works on a cell-centered grid: the diffusion a(x)
vanishes at x = 0 (and usually x = 1), and keeping every spatial node strictly
inside (0, 1) means weights like 1/a(x) are only ever evaluated where they are
finite.  Norms are midpoint-rule quadratures over the cells.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "SpaceTimeGrid",
    "DegenerateCoefficient",
    "SpaceTimeField",
    "NormKind",
    "weighted_norm",
]


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform tensor grid on (0,1) x [0,T].

    Spatial nodes are the cell centers x_i = (i + 1/2) h with h = 1/n_x, so no
    node touches the degeneracy points x = 0, 1.  Time levels are t_k = k T/n_t
    for k = 0..n_t; trajectories therefore hold n_t + 1 columns.  The sizes
    n_x and n_t must be integers (Python or numpy), the horizon T finite.
    """

    n_x: int
    n_t: int
    T: float

    def __post_init__(self):
        for name in ("n_x", "n_t"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_x < 4:
            raise ValueError(f"n_x must be >= 4, got {self.n_x}")
        if self.n_t < 2:
            raise ValueError(f"n_t must be >= 2, got {self.n_t}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")

    @property
    def h(self) -> float:
        return 1.0 / self.n_x

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @cached_property
    def x(self) -> np.ndarray:
        x = (np.arange(self.n_x) + 0.5) / self.n_x
        x.setflags(write=False)
        return x

    @cached_property
    def t(self) -> np.ndarray:
        t = np.linspace(0.0, self.T, self.n_t + 1)
        t.setflags(write=False)
        return t

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_x, self.n_t + 1)


class _Bound(NamedTuple):
    """The range of a finite number: >= ge, > gt and <= le.  A bool is not a
    number here, as it is not in a JSON config."""

    ge: float = -math.inf
    gt: float = -math.inf
    le: float = math.inf

    def fault(self, v):
        """The first requirement that the number v breaks, or None."""
        needs = ((isinstance(v, (bool, np.bool_)) or not math.isfinite(v), "a finite number"),
                 (v < self.ge, f">= {self.ge}"), (v <= self.gt, f"> {self.gt}"),
                 (v > self.le, f"<= {self.le}"))
        return next((f"must be {need}" for broken, need in needs if broken), None)


# each family's parameters and the bounds they must meet
_FAMILIES = {"power": {"beta": _Bound(ge=2.0), "delta": _Bound(ge=2.0)}, "wright_fischer": {},
             "quadratic_oil": {"gamma": _Bound(gt=0.0)}}


@dataclass(frozen=True)
class DegenerateCoefficient:
    """Diffusion coefficient a(x) that vanishes at one or both endpoints.

    Families:
        power:          a(x) = x^beta (1-x)^delta,  beta, delta >= 2 finite
        wright_fischer: a(x) = x (1-x)
        quadratic_oil:  a(x) = (gamma^2 / 2) x^2,   gamma > 0 finite

    a, a_x and a_xx are closed forms; endpoint values are the one-sided
    limits.  ``log_derivative`` returns a_x/a in closed form and must only be
    evaluated at interior points (it blows up at the degeneracy, while
    products like c1 * a_x/a with |c1| <= C sqrt(a) stay bounded).
    """

    family: str
    beta: float = 2.0
    delta: float = 2.0
    gamma: float = 1.0

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise ValueError(f"unknown coefficient family '{self.family}'")
        for name, bound in _FAMILIES[self.family].items():
            if fault := bound.fault(v := getattr(self, name)):
                raise ValueError(f"{self.family} family: {name} {fault}, got {v}")

    @classmethod
    def power(cls, beta: float = 2.0, delta: float = 2.0) -> "DegenerateCoefficient":
        return cls("power", beta=float(beta), delta=float(delta))

    @classmethod
    def wright_fischer(cls) -> "DegenerateCoefficient":
        return cls("wright_fischer")

    @classmethod
    def quadratic_oil(cls, gamma: float = 1.0) -> "DegenerateCoefficient":
        return cls("quadratic_oil", gamma=float(gamma))

    def a(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "power":
            return x**self.beta * (1.0 - x) ** self.delta
        if self.family == "wright_fischer":
            return x * (1.0 - x)
        return 0.5 * self.gamma**2 * x**2

    def a_x(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "power":
            b, d = self.beta, self.delta
            return x ** (b - 1.0) * (1.0 - x) ** (d - 1.0) * (b * (1.0 - x) - d * x)
        if self.family == "wright_fischer":
            return 1.0 - 2.0 * x
        return self.gamma**2 * x

    def a_xx(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "power":
            b, d = self.beta, self.delta
            return (
                b * (b - 1.0) * x ** (b - 2.0) * (1.0 - x) ** d
                - 2.0 * b * d * x ** (b - 1.0) * (1.0 - x) ** (d - 1.0)
                + d * (d - 1.0) * x**b * (1.0 - x) ** (d - 2.0)
            )
        if self.family == "wright_fischer":
            return np.full_like(x, -2.0)
        return np.full_like(x, self.gamma**2)

    def sqrt_a(self, x):
        return np.sqrt(self.a(x))

    def log_derivative(self, x):
        """a_x(x) / a(x) in closed form, finite only for interior x."""
        x = np.asarray(x, dtype=float)
        if self.family == "power":
            return self.beta / x - self.delta / (1.0 - x)
        if self.family == "wright_fischer":
            return 1.0 / x - 1.0 / (1.0 - x)
        return 2.0 / x


# ---------------------------------------------------------------------------
# trajectory layout
#
# Every space-time trajectory is stored time-major: shape (n_x, n_t + 1), each
# time level (a column) one contiguous vector, i.e. Fortran order.  The
# implicit march solves level by level, and LAPACK wants each level
# contiguous; the time stencils and the blocks of time columns that the
# Carleman slice integrals walk are then contiguous too.  This is the one
# place that decides the layout: fields, solver outputs, stencil outputs,
# band fields and Picard starts are all allocated through the helpers below.
# ---------------------------------------------------------------------------


def _empty(shape) -> np.ndarray:
    """An uninitialised float trajectory (or band field) in time-major layout."""
    return np.empty(shape, order="F")


def _zeros(shape) -> np.ndarray:
    """A zero trajectory in time-major layout."""
    return np.zeros(shape, order="F")


def _time_major(values) -> np.ndarray:
    """values as a float array with contiguous columns: itself when it has
    them already, else a time-major copy."""
    return np.asarray(values, dtype=float, order="F")


def _flat(v: np.ndarray) -> np.ndarray:
    """The buffer of a time-major array as one vector, a view: entry (i, k)
    sits at i + k n_x, so the neighbours of an interior row i are the
    neighbouring entries of the vector."""
    return v.ravel(order="F")


@dataclass(frozen=True)
class SpaceTimeField:
    """Scalar samples on the tensor grid, shape (n_x, n_t + 1), time-major.

    The array is copied into time-major layout and frozen at construction,
    and so is the record; fields are values, not buffers, everywhere in the
    package.  The one exception is a solver's fresh output, which no one
    else holds: it is frozen without a copy.
    """

    values: np.ndarray
    grid: SpaceTimeGrid

    def __post_init__(self):
        v = np.array(self.values, dtype=float, order="F")
        if v.shape != self.grid.shape:
            raise ValueError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _adopt(cls, values: np.ndarray, grid: SpaceTimeGrid) -> "SpaceTimeField":
        """Wrap a fresh time-major float array of the grid's shape without
        copying it.

        The array is frozen in place, so the caller must hold no other
        reference that it still writes through.
        """
        values.setflags(write=False)
        field = object.__new__(cls)
        object.__setattr__(field, "values", values)
        object.__setattr__(field, "grid", grid)
        return field


# ---------------------------------------------------------------------------
# stencils
#
# Interior nodes use standard central differences.  At the two cells next to
# the boundary there are two closures:
#   * "dirichlet": the field extends by the homogeneous boundary value 0 at
#     x = 0 and x = 1 (valid for u and for a*m).  First derivative uses the
#     3-point one-sided stencil through the boundary point (second order);
#     second derivative uses the 4-point one-sided stencil through the
#     boundary point (second order).
#   * "free" (first derivative only): plain one-sided second-order stencil.
#
# Both kinds of stencil compute their interior straight into the output, with
# no temporary of the array's size.  A time stencil's interior out[:, 1:-1] is
# one contiguous block of columns.  A spatial stencil's interior out[1:-1] is
# strided, one run per column, and numpy loops over such a view run by run,
# about twice the cost of one contiguous pass; so the spatial interior is
# computed over the whole buffer as one vector (see _flat), where it also
# lands on the two boundary rows of every column (differences across a column
# seam), and the closures then overwrite those rows.
# ---------------------------------------------------------------------------


def _dx_array(f: np.ndarray, h: float, closure: str) -> np.ndarray:
    f = _time_major(f)
    out = _empty(f.shape)
    ff = _flat(f)
    mid = np.subtract(ff[2:], ff[:-2], out=_flat(out)[1:-1])
    mid /= 2.0 * h
    if closure == "dirichlet":
        out[0] = f[0] / h + f[1] / (3.0 * h)
        out[-1] = -(f[-1] / h + f[-2] / (3.0 * h))
    elif closure == "free":
        out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
        out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    else:
        raise ValueError(f"unknown closure '{closure}'")
    return out


def _dxx_array(f: np.ndarray, h: float) -> np.ndarray:
    f = _time_major(f)
    out = _empty(f.shape)
    ff = _flat(f)
    h2 = h * h
    # (f[2:] - 2 f[1:-1] + f[:-2]) / h2
    mid = np.multiply(ff[1:-1], 2.0, out=_flat(out)[1:-1])
    np.subtract(ff[2:], mid, out=mid)
    mid += ff[:-2]
    mid /= h2
    out[0] = (-5.0 * f[0] + 2.0 * f[1] - 0.2 * f[2]) / h2
    out[-1] = (-5.0 * f[-1] + 2.0 * f[-2] - 0.2 * f[-3]) / h2
    return out


def _dt1_columns(v: np.ndarray, dt: float, cols: slice) -> np.ndarray:
    """First time derivative of v at its columns ``cols`` only (a step-1
    slice): central where a column has both neighbours in v, one-sided at
    v's first and last column.  Bitwise those columns of _dt_array(v, dt, 1).
    """
    n = v.shape[1]
    lo, hi, _ = cols.indices(n)
    out = _empty((v.shape[0], hi - lo))
    c_lo, c_hi = max(lo, 1), min(hi, n - 1)  # the central columns
    if c_lo < c_hi:
        mid = np.subtract(v[:, c_lo + 1 : c_hi + 1], v[:, c_lo - 1 : c_hi - 1],
                          out=out[:, c_lo - lo : c_hi - lo])
        mid /= 2.0 * dt
    if lo == 0:
        out[:, 0] = (-3.0 * v[:, 0] + 4.0 * v[:, 1] - v[:, 2]) / (2.0 * dt)
    if hi == n:
        out[:, -1] = (3.0 * v[:, -1] - 4.0 * v[:, -2] + v[:, -3]) / (2.0 * dt)
    return out


def _dt_array(v: np.ndarray, dt: float, order: int) -> np.ndarray:
    """First or second time derivative of a trajectory array along its
    columns, second order everywhere: central stencils at interior time
    levels, one-sided ones at t = 0 and t = T.  Requires n_t >= order + 2.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    n_t = v.shape[1] - 1
    if n_t < order + 2:
        raise ValueError(f"n_t={n_t} too coarse for order-{order} time derivative")
    if order == 1:
        return _dt1_columns(v, dt, slice(None))
    out = _empty(v.shape)
    t2 = dt * dt
    out[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / t2
    out[:, 0] = (2.0 * v[:, 0] - 5.0 * v[:, 1] + 4.0 * v[:, 2] - v[:, 3]) / t2
    out[:, -1] = (2.0 * v[:, -1] - 5.0 * v[:, -2] + 4.0 * v[:, -3] - v[:, -4]) / t2
    return out


class NormKind(enum.Enum):
    """Weighted norms used throughout; values are the JSON/CSV tags."""

    L2_INV_A = "L2_inv_a"
    H1_INV_A = "H1_inv_a"
    L2_A = "L2_a"
    H1A_DIV = "H1a_div"
    L2_PLAIN = "L2_plain"


def weighted_norm(
    values, kind: NormKind, coeff: DegenerateCoefficient, grid: SpaceTimeGrid
) -> float:
    """Midpoint-rule weighted norm of a spatial slice.

    Kinds:
        L2_INV_A:  ( int f^2 / a )^(1/2)
        H1_INV_A:  ( int f^2 / a + int f_x^2 )^(1/2)          f = 0 on boundary
        L2_A:      ( int a f^2 )^(1/2)
        H1A_DIV:   ( int a f^2 + int ((a f)_x)^2 )^(1/2)       a f = 0 on boundary
        L2_PLAIN:  ( int f^2 )^(1/2)
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n_x,):
        raise ValueError(f"expected spatial slice of shape ({grid.n_x},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("weighted_norm input contains non-finite values")
    h = grid.h
    a = coeff.a(grid.x)
    if kind is NormKind.L2_INV_A:
        sq = h * np.sum(v * v / a)
    elif kind is NormKind.H1_INV_A:
        fx = _dx_array(v, h, "dirichlet")
        sq = h * np.sum(v * v / a) + h * np.sum(fx * fx)
    elif kind is NormKind.L2_A:
        sq = h * np.sum(a * v * v)
    elif kind is NormKind.H1A_DIV:
        avx = _dx_array(a * v, h, "dirichlet")
        sq = h * np.sum(a * v * v) + h * np.sum(avx * avx)
    elif kind is NormKind.L2_PLAIN:
        sq = h * np.sum(v * v)
    else:
        raise ValueError(f"unknown norm kind {kind!r}")
    return float(np.sqrt(sq))
