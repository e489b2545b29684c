"""Carleman-weighted energy functionals and parameter sweeps.

Both sides of each weighted estimate carry the factor exp(2 s phi(t)) with
phi(t) = exp(lam t), which overflows double precision long before interesting
parameter ranges are exhausted.  Everything here is therefore computed with
the scaled weight exp(2 s phi(t) - K), K = 2 s phi(T): every scaled factor
lies in (0, 1], the left/right ratio is unchanged because the scaling cancels
exactly, and the unscaled magnitudes are recovered in log form as
log(scaled) + K.  Linear-scale fields of a report are exact when they fit in
a double and overflow to inf (with the overflow flag set) when they do not;
ratios and logs stay finite while phi(T) does (else inf, with a NaN ratio).

Time integration is a trapezoid between adjacent slices of the spatial
integrals multiplied by the scaled weight at the midpoint, so the fast weight
is sampled where it matters.  The slice integrals do not depend on the
parameters and are computed once per estimate.  For one lam, the scaled weight
of every s is one table (a row per s, a column per midpoint), and every time
integral of the estimate is a product of that table with a vector: a sweep
builds one table per lam, and a single evaluation is a sweep with one s.

The slice integrals walk the trajectory in blocks of time columns, each about
one weight table in size: a block differentiates its own columns (in time
through one halo column on each side) and sums them into the slice-integral
rows, so no derivative of the whole trajectory is ever held.  The end-slice
data norms read the first and last columns.  The sums are bit-identical to
those of whole-trajectory derivative arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from degenmfg.domain import (
    DegenerateCoefficient,
    NormKind,
    SpaceTimeGrid,
    _dt_array,
    _dx_array,
    _dxx_array,
    weighted_norm,
)
from degenmfg.solvers import FpLinearProblem, HjbLinearProblem, _traj

__all__ = [
    "OVERFLOW_LOG_LIMIT",
    "CarlemanParams",
    "WeightValue",
    "weight_at",
    "CarlemanReport",
    "evaluate_hjb_carleman",
    "evaluate_fp_carleman",
    "evaluate_mfg_carleman",
    "CarlemanBundle",
    "SweepResult",
    "sweep_parameters",
    "s0_estimate",
]

# beyond this log-weight the linear-scale value of exp() is not representable
OVERFLOW_LOG_LIMIT = 700.0
# largest weight table a sweep builds at once: 64 s values x 1024 midpoints;
# also the size of a time-column block of the slice integrals
_TABLE_DOUBLES = 64 * 1024


@dataclass(frozen=True)
class CarlemanParams:
    """The weight pair (s, lam): weight exp(2 s phi(t)), phi(t) = exp(lam t)."""

    s: float
    lam: float

    def __post_init__(self):
        if not self.s > 0.0:
            raise ValueError("s must be positive")
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")

    def phi(self, t):
        return np.exp(self.lam * np.asarray(t, dtype=float))

    def alpha(self, t0: float) -> float:
        """phi(t0) - 1, the weight gap between t0 and the initial time."""
        return float(math.expm1(self.lam * t0))

    def log_weight(self, t):
        return 2.0 * self.s * self.phi(t)


@dataclass(frozen=True)
class WeightValue:
    phi: float
    weight: float
    log_weight: float
    overflow: bool


def weight_at(params: CarlemanParams, t: float) -> WeightValue:
    """The weight at one time, with its log and an overflow marker."""
    phi = float(params.phi(t))
    lw = 2.0 * params.s * phi
    over = lw > OVERFLOW_LOG_LIMIT
    return WeightValue(phi=phi, weight=_exp_clip(lw), log_weight=lw, overflow=over)


def _exp_clip(logv: float) -> float:
    return math.inf if logv > 709.0 else math.exp(logv)


def _phi_T(lam: float, T: float) -> float:
    try:  # phi(T), inf past the double range: every s overflows there
        return math.exp(lam * T)
    except OverflowError:
        return math.inf


def _safe_log(v: float) -> float:
    return math.log(v) if v > 0.0 else -math.inf


@dataclass(frozen=True)
class CarlemanReport:
    """One evaluated estimate: weighted LHS against the three RHS blocks.

    lhs, rhs_source, rhs_T, rhs_0 are linear-scale (inf when the weight
    overflows); ratio = lhs / (rhs_source + rhs_T + rhs_0) and the log fields
    are always finite for nonzero data because they are computed in scaled
    arithmetic.  parts carries the per-equation reports of a coupled
    evaluation.
    """

    estimate: str
    params: CarlemanParams
    lhs: float
    rhs_source: float
    rhs_T: float
    rhs_0: float
    ratio: float
    lhs_log: float
    rhs_log: float
    overflow: bool
    parts: tuple = ()


@dataclass(frozen=True)
class _Scaled:
    """Scaled-weight totals of one estimate, one entry per s; K is the common
    log offset 2 s phi(T)."""

    lhs: np.ndarray
    rhs_source: np.ndarray
    rhs_T: np.ndarray
    rhs_0: np.ndarray
    K: np.ndarray

    def __add__(self, other: "_Scaled") -> "_Scaled":
        if not np.array_equal(other.K, self.K):
            raise ValueError("cannot combine estimates with different weights")
        return _Scaled(
            self.lhs + other.lhs,
            self.rhs_source + other.rhs_source,
            self.rhs_T + other.rhs_T,
            self.rhs_0 + other.rhs_0,
            self.K,
        )

    def ratio(self) -> np.ndarray:
        """lhs / rhs where rhs > 0; otherwise 0 for a zero lhs, else inf."""
        rhs = self.rhs_source + self.rhs_T + self.rhs_0
        out = np.where(self.lhs == 0.0, 0.0, np.inf)
        np.divide(self.lhs, rhs, out=out, where=rhs > 0.0)
        return out


def _report_from_scaled(kind: str, params: CarlemanParams, sc: _Scaled, parts=()):
    """The report of a one-s evaluation."""
    lhs, rhs_source, rhs_T, rhs_0, K = (
        float(v[0]) for v in (sc.lhs, sc.rhs_source, sc.rhs_T, sc.rhs_0, sc.K)
    )
    rhs_total = rhs_source + rhs_T + rhs_0
    fields = [_exp_clip(_safe_log(v) + K) for v in (lhs, rhs_source, rhs_T, rhs_0)]
    overflow = K > OVERFLOW_LOG_LIMIT or any(math.isinf(f) for f in fields)
    return CarlemanReport(
        estimate=kind,
        params=params,
        lhs=fields[0],
        rhs_source=fields[1],
        rhs_T=fields[2],
        rhs_0=fields[3],
        ratio=float(sc.ratio()[0]),
        lhs_log=_safe_log(lhs) + K,
        rhs_log=_safe_log(rhs_total) + K,
        overflow=overflow,
        parts=tuple(parts),
    )


def _unrepresentable(kind: str, params: CarlemanParams, grid: SpaceTimeGrid, parts=()):
    """The all-inf report with a NaN ratio (as in a sweep) if phi(T) overflows."""
    if math.isinf(_phi_T(params.lam, grid.T)):
        return CarlemanReport(kind, params, *[math.inf] * 4, math.nan, math.inf, math.inf,
                              True, parts)


class _WeightTable:
    """The scaled weight exp(2 s phi(t) - K), K = 2 s phi(T), of one lam at the
    time midpoints: one row per s (a number or a 1-D array), one column per
    midpoint."""

    def __init__(self, grid: SpaceTimeGrid, s, lam: float):
        self.s = s = np.atleast_1d(np.asarray(s, dtype=float))
        self.lam = lam
        self.dt = grid.dt
        self.phi_T = math.exp(lam * grid.T)
        self.K = 2.0 * s * self.phi_T
        self.phi_mid = np.exp(lam * (0.5 * (grid.t[:-1] + grid.t[1:])))
        table = np.multiply.outer(2.0 * s, self.phi_mid)
        table -= self.K[:, None]
        self.table = np.exp(table, out=table)

    def time_sums(self, *terms) -> np.ndarray:
        """Trapezoids of slice integrals I against phi^p times the scaled
        weight, one row per (I, p) term and one column per s."""
        cols = np.stack(
            [self.dt * (0.5 * (I[:-1] + I[1:])) * self.phi_mid**p for I, p in terms],
            axis=1,
        )
        return (self.table @ cols).T

    def at_zero(self) -> np.ndarray:
        """The scaled weight at t = 0, exp(2 s - K); at t = T it is exactly 1."""
        return np.exp(np.minimum(2.0 * self.s - self.K, 0.0))


# parameter-independent slice integrals of the value-equation estimate
@dataclass(frozen=True)
class HjbIngredients:
    I_ut: np.ndarray   # int u_t^2 / a
    I_uxx: np.ndarray  # int a u_xx^2
    I_ux: np.ndarray   # int u_x^2
    I_u: np.ndarray    # int u^2 / a
    I_F: np.ndarray    # int F^2 / a
    BT_0: float        # |u(., T)|^2 in L2(1/a)
    BT_1: float        # |u(., T)|^2 in H1(1/a)
    B0_0: float
    B0_1: float


def _time_blocks(grid: SpaceTimeGrid):
    """Time-column blocks of a trajectory, _TABLE_DOUBLES doubles each at
    most but for a short remainder: (cols, ext, inner) with the block's
    columns, the same widened by the halo column on each side that the grid
    has, and the block's place in ext.

    Blocks hold at least three columns (a shorter remainder joins the last
    block): _dt_array needs four in a widened block, where its central
    stencil is that of the whole trajectory, and numpy would sum a
    one-column block in another order than the whole array's columns.
    """
    n = grid.n_t + 1
    starts = list(range(0, n, max(3, _TABLE_DOUBLES // grid.n_x)))
    if len(starts) > 1 and n - starts[-1] < 3:
        del starts[-1]
    for lo, hi in zip(starts, starts[1:] + [n]):
        elo = max(lo - 1, 0)
        yield slice(lo, hi), slice(elo, min(hi + 1, n)), slice(lo - elo, hi - elo)


def hjb_ingredients(u, F, coeff: DegenerateCoefficient, grid: SpaceTimeGrid) -> HjbIngredients:
    uv = _traj(u, grid, "u")
    Fv = _traj(F if F is not None else 0.0, grid, "F")
    a = coeff.a(grid.x)[:, None]
    h = grid.h
    I_ut, I_uxx, I_ux, I_u, I_F = np.empty((5, grid.n_t + 1))
    for cols, ext, inner in _time_blocks(grid):
        ub, Fb = uv[:, cols], Fv[:, cols]
        ut = _dt_array(uv[:, ext], grid.dt, 1)[:, inner]
        ux = _dx_array(ub, h, "dirichlet")
        uxx = _dxx_array(ub, h, "dirichlet")
        I_ut[cols] = h * np.sum(ut * ut / a, axis=0)
        I_uxx[cols] = h * np.sum(a * uxx * uxx, axis=0)
        I_ux[cols] = h * np.sum(ux * ux, axis=0)
        I_u[cols] = h * np.sum(ub * ub / a, axis=0)
        I_F[cols] = h * np.sum(Fb * Fb / a, axis=0)
    return HjbIngredients(
        I_ut, I_uxx, I_ux, I_u, I_F,
        BT_0=weighted_norm(uv[:, -1], NormKind.L2_INV_A, coeff, grid) ** 2,
        BT_1=weighted_norm(uv[:, -1], NormKind.H1_INV_A, coeff, grid) ** 2,
        B0_0=weighted_norm(uv[:, 0], NormKind.L2_INV_A, coeff, grid) ** 2,
        B0_1=weighted_norm(uv[:, 0], NormKind.H1_INV_A, coeff, grid) ** 2,
    )


def _hjb_scaled(ing: HjbIngredients, w: _WeightTable) -> _Scaled:
    s, lam = w.s, w.lam
    ut, uxx, ux, u, F = w.time_sums(
        (ing.I_ut, 0), (ing.I_uxx, 0), (ing.I_ux, 1), (ing.I_u, 2), (ing.I_F, 1)
    )
    lhs = ut + uxx + s * lam * ux + s * s * lam * lam * u
    rhs_T = s * (s * lam * w.phi_T * ing.BT_0 + ing.BT_1)
    rhs_0 = s * (s * lam * ing.B0_0 + ing.B0_1) * w.at_zero()
    return _Scaled(lhs, s * F, rhs_T, rhs_0, w.K)


# parameter-independent slice integrals of the density-equation estimate
@dataclass(frozen=True)
class FpIngredients:
    J_v2: np.ndarray   # int a ((am)_xx)^2 + int a m_t^2
    J_vx: np.ndarray   # int ((am)_x)^2
    J_m: np.ndarray    # int a m^2
    J_G: np.ndarray    # int a G^2
    BT_m: float        # |m(., T)|^2 in L2(a)
    BT_vx: float       # |(am)_x(., T)|^2 in L2
    B0_m: float
    B0_vx: float


def fp_ingredients(m, G, coeff: DegenerateCoefficient, grid: SpaceTimeGrid) -> FpIngredients:
    mv = _traj(m, grid, "m")
    Gv = _traj(G if G is not None else 0.0, grid, "G")
    a = coeff.a(grid.x)[:, None]
    h = grid.h
    J_v2, J_vx, J_m, J_G = np.empty((4, grid.n_t + 1))
    for cols, ext, inner in _time_blocks(grid):
        mb, Gb = mv[:, cols], Gv[:, cols]
        v_ext = a * mv[:, ext]
        v = v_ext[:, inner]
        vx = _dx_array(v, h, "dirichlet")
        vxx = _dxx_array(v, h, "dirichlet")
        # int a m_t^2 = int v_t^2 / a, differentiating the product field in time
        vt = _dt_array(v_ext, grid.dt, 1)[:, inner]
        J_v2[cols] = h * np.sum(a * vxx * vxx + vt * vt / a, axis=0)
        J_vx[cols] = h * np.sum(vx * vx, axis=0)
        J_m[cols] = h * np.sum(a * mb * mb, axis=0)
        J_G[cols] = h * np.sum(a * Gb * Gb, axis=0)
        if cols.start == 0:
            vx_0 = vx[:, 0].copy()
    return FpIngredients(
        J_v2, J_vx, J_m, J_G,
        BT_m=weighted_norm(mv[:, -1], NormKind.L2_A, coeff, grid) ** 2,
        BT_vx=weighted_norm(vx[:, -1], NormKind.L2_PLAIN, coeff, grid) ** 2,
        B0_m=weighted_norm(mv[:, 0], NormKind.L2_A, coeff, grid) ** 2,
        B0_vx=weighted_norm(vx_0, NormKind.L2_PLAIN, coeff, grid) ** 2,
    )


def _fp_scaled(ing: FpIngredients, w: _WeightTable) -> _Scaled:
    s, lam = w.s, w.lam
    v2, vx, m, G = w.time_sums((ing.J_v2, -1), (ing.J_vx, 0), (ing.J_m, 1), (ing.J_G, 0))
    lhs = (1.0 / s) * v2 + lam * vx + s * lam * lam * m
    rhs_T = s * lam * (w.phi_T * ing.BT_m + ing.BT_vx)
    rhs_0 = (s * lam * ing.B0_m + ing.B0_vx) * w.at_zero()
    return _Scaled(lhs, G, rhs_T, rhs_0, w.K)


def _resolve(problem, grid):
    """Accept a problem object, a coefficients bundle, or a bare coefficient."""
    if isinstance(problem, (HjbLinearProblem, FpLinearProblem)):
        return problem.coeff, problem.grid
    if hasattr(problem, "diffusion") and hasattr(problem, "grid"):
        return problem.diffusion, problem.grid
    if isinstance(problem, DegenerateCoefficient):
        if grid is None:
            raise ValueError("a bare coefficient needs an explicit grid")
        return problem, grid
    raise TypeError(f"cannot extract coefficient and grid from {type(problem).__name__}")


def evaluate_hjb_carleman(u, F, params: CarlemanParams, problem,
                          grid: Optional[SpaceTimeGrid] = None) -> CarlemanReport:
    """Weighted energy estimate for a backward value trajectory.

    LHS: time-weighted integrals of u_t^2/a, a u_xx^2, s lam phi u_x^2 and
    (s lam phi)^2 u^2/a.  RHS: the weighted source integral s int phi F^2/a
    plus weighted H1(1/a) data norms at the final and initial times.
    """
    coeff, g = _resolve(problem, grid)
    if over := _unrepresentable("hjb", params, g):
        return over
    sc = _hjb_scaled(hjb_ingredients(u, F, coeff, g), _WeightTable(g, params.s, params.lam))
    return _report_from_scaled("hjb", params, sc)


def evaluate_fp_carleman(m, G, params: CarlemanParams, problem,
                         grid: Optional[SpaceTimeGrid] = None) -> CarlemanReport:
    """Weighted energy estimate for a forward density trajectory.

    Works through the product field v = a m: LHS integrates
    (a v_xx^2 + v_t^2/a)/(s phi), lam v_x^2 and s lam^2 phi a m^2 under the
    weight; RHS is the weighted source integral of a G^2 plus data norms of
    m and (am)_x at both ends.
    """
    coeff, g = _resolve(problem, grid)
    if over := _unrepresentable("fp", params, g):
        return over
    sc = _fp_scaled(fp_ingredients(m, G, coeff, g), _WeightTable(g, params.s, params.lam))
    return _report_from_scaled("fp", params, sc)


def evaluate_mfg_carleman(u, m, F, G, params: CarlemanParams, coeffs,
                          grid: Optional[SpaceTimeGrid] = None) -> CarlemanReport:
    """Combined estimate of a coupled pair: the exact sum of the two scalar ones.

    Computed in shared scaled arithmetic, so lhs and every rhs block equal the
    sums of the corresponding blocks of the per-equation reports (returned in
    parts) and the ratio is their joint lhs over joint rhs.
    """
    coeff, g = _resolve(coeffs, grid)
    parts = tuple(_unrepresentable(k, params, g) for k in ("hjb", "fp"))
    if all(parts):
        return _unrepresentable("mfg", params, g, parts)
    w = _WeightTable(g, params.s, params.lam)
    sc_h = _hjb_scaled(hjb_ingredients(u, F, coeff, g), w)
    sc_f = _fp_scaled(fp_ingredients(m, G, coeff, g), w)
    parts = (
        _report_from_scaled("hjb", params, sc_h),
        _report_from_scaled("fp", params, sc_f),
    )
    return _report_from_scaled("mfg", params, sc_h + sc_f, parts=parts)


@dataclass(frozen=True)
class CarlemanBundle:
    """Fields and data of one estimate, packaged for parameter sweeps."""

    kind: str
    coeff: DegenerateCoefficient
    grid: SpaceTimeGrid
    u: object = None
    m: object = None
    F: object = None
    G: object = None

    def __post_init__(self):
        if self.kind not in ("hjb", "fp", "mfg"):
            raise ValueError("kind must be 'hjb', 'fp' or 'mfg'")
        if self.kind in ("hjb", "mfg") and self.u is None:
            raise ValueError(f"kind {self.kind!r} needs a value trajectory u")
        if self.kind in ("fp", "mfg") and self.m is None:
            raise ValueError(f"kind {self.kind!r} needs a density trajectory m")


@dataclass(frozen=True)
class SweepResult:
    """Ratio table of a (s, lam) sweep; overflowing cells are NaN.

    top_half_max is the largest ratio over the upper half of the s range (all
    lam); median_to_max_increase is the relative change of the per-s max
    ratio between the median s and the largest s, the quantity that should
    level off once s clears the hypothesis threshold.
    """

    s_values: tuple
    lam_values: tuple
    ratios: np.ndarray
    overflow_cells: int
    total_cells: int
    top_half_max: float
    median_to_max_increase: float


def sweep_parameters(bundle: CarlemanBundle, s_values, lam_values) -> SweepResult:
    """Evaluate the bundle's estimate over an (s, lam) grid.

    Slice integrals are computed once, in blocks of time columns.  Each lam
    builds one table of the scaled weight over the time midpoints, a row per
    s that does not overflow (in blocks of at most 64 x 1024 entries), and
    each time integral of the estimate is a product of that table with a
    vector.  Cells whose weight cannot be represented on a linear scale are
    recorded as NaN and counted in overflow_cells.
    """
    s_sorted = tuple(sorted(float(s) for s in s_values))
    lam_sorted = tuple(sorted(float(x) for x in lam_values))
    if len(s_sorted) == 0 or len(lam_sorted) == 0:
        raise ValueError("sweep needs at least one s and one lam")
    if not all(s > 0.0 for s in s_sorted):
        raise ValueError("s must be positive")
    if not all(lam > 0.0 for lam in lam_sorted):
        raise ValueError("lam must be positive")
    s_arr = np.array(s_sorted)
    g = bundle.grid
    equations = []
    if bundle.kind in ("hjb", "mfg"):
        equations.append((_hjb_scaled, hjb_ingredients(bundle.u, bundle.F, bundle.coeff, g)))
    if bundle.kind in ("fp", "mfg"):
        equations.append((_fp_scaled, fp_ingredients(bundle.m, bundle.G, bundle.coeff, g)))
    ratios = np.full((len(s_sorted), len(lam_sorted)), np.nan)
    overflow = 0
    rows = max(1, _TABLE_DOUBLES // g.n_t)
    for j, lam in enumerate(lam_sorted):
        over = 2.0 * s_arr * _phi_T(lam, g.T) > OVERFLOW_LOG_LIMIT
        overflow += int(np.count_nonzero(over))
        live = np.flatnonzero(~over)
        for lo in range(0, live.size, rows):
            idx = live[lo:lo + rows]
            w = _WeightTable(g, s_arr[idx], lam)
            sc = [scaled(ing, w) for scaled, ing in equations]
            ratios[idx, j] = sum(sc[1:], sc[0]).ratio()
    total = len(s_sorted) * len(lam_sorted)
    half = len(s_sorted) // 2
    top = ratios[half:, :]
    top_half_max = float(np.nanmax(top)) if np.any(np.isfinite(top)) else math.nan
    curve = _row_max(ratios)
    r_med, r_max = float(curve[(len(s_sorted) - 1) // 2]), float(curve[-1])
    if math.isnan(r_med) or math.isnan(r_max) or r_med == 0.0:
        inc = math.nan
    else:
        inc = (r_max - r_med) / abs(r_med)
    return SweepResult(
        s_values=s_sorted,
        lam_values=lam_sorted,
        ratios=ratios,
        overflow_cells=overflow,
        total_cells=total,
        top_half_max=top_half_max,
        median_to_max_increase=inc,
    )


def _row_max(ratios: np.ndarray) -> np.ndarray:
    """Per-s max ratio over lam; NaN where a row has no finite ratio."""
    rows_max = np.fmax.reduce(ratios, axis=1)
    return np.where(np.isfinite(ratios).any(axis=1), rows_max, np.nan)


def s0_estimate(sweep: SweepResult, variation: float = 0.5):
    """Smallest swept s after which the per-s max ratio varies less than
    ``variation`` relatively, step to step, through the end of the range.
    Returns None when no such s exists (including all-overflow sweeps)."""
    curve = _row_max(sweep.ratios)
    prev, nxt = curve[:-1], curve[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        steady = np.where(prev == 0.0, nxt == 0.0, np.abs(nxt - prev) / np.abs(prev) <= variation)
    # a start is blocked by a NaN or an unsteady step at or after it
    blocked = np.isnan(curve)
    blocked[:-1] |= ~steady
    first = int(np.flatnonzero(blocked)[-1]) + 1 if blocked.any() else 0
    return sweep.s_values[first] if first < len(curve) else None
