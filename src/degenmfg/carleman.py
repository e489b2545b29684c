"""Carleman-weighted energy functionals and parameter sweeps.

Both sides of each weighted estimate carry the factor exp(2 s phi(t)) with
phi(t) = exp(lam t), which overflows double precision long before interesting
parameter ranges are exhausted.  Everything here is therefore computed with
the scaled weight exp(2 s phi(t) - K), K = 2 s phi(T), evaluated as
exp(-2 s tau) with tau = phi(T) - phi(t) >= 0: every scaled factor lies in
(0, 1] (0 only where exp underflows) whatever the size of K, the left/right
ratio is unchanged because the scaling cancels exactly, and the unscaled
magnitudes are recovered in log form as log(scaled) + K.  Linear-scale fields
of a report are exact when they fit in a double and overflow to inf (with the
overflow flag set) when they do not; ratios and logs stay finite while phi(T)
does (else inf, with a NaN ratio).

Time integration is a trapezoid between adjacent slices of the spatial
integrals multiplied by the scaled weight at the midpoint, so the fast weight
is sampled where it matters.  The slice integrals do not depend on the
parameters and are computed once per estimate, and so are their trapezoids.
For one lam, the scaled weight of every s is one table (a row per s, a column
per midpoint), one product of -2 s with that lam's tau and one exp, and every
time integral of the estimate is a product of that table with a vector.  A
sweep builds the table of each lam in turn into one reused buffer and
gathers the time sums of every cell; the per-cell rest of the estimate (the
s and lam factors, the data terms, the ratio) then runs once over all cells,
on per-cell s, lam, phi(T) and K, so that arithmetic of a cell does not
depend on the other cells evaluated with it (the time sums can, at
rounding: a matrix product rounds by its shape).  sweep_parameters and
evaluate_carleman (one cell) share one path: _estimates builds the estimates
of a CarlemanBundle (mfg is hjb plus fp) and _scaled_cells evaluates them.

The slice integrals walk the trajectory in blocks of time columns, each about
one weight table in size, and, trajectories being time-major, one contiguous
piece of memory: a block differentiates its own columns (in time through one
halo column on each side, with the one-sided stencils only at t = 0 and
t = T) and sums them into the slice-integral rows, so no derivative of the
whole trajectory is ever held.  Each slice integral is one weighted
sum-of-squares contraction per block,
einsum("ij,ij,i->j", f, f, w) with w = h a, h / a or h, which forms no
temporary of the block's size.  The end-slice data norms read the first and
last columns.  The sums are bit-identical to the same contractions of
whole-trajectory derivative arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from degenmfg.domain import (
    DegenerateCoefficient,
    NormKind,
    SpaceTimeGrid,
    _dt1_columns,
    _dx_array,
    _dxx_array,
    weighted_norm,
)
from degenmfg.solvers import _traj

__all__ = [
    "OVERFLOW_LOG_LIMIT",
    "CarlemanParams",
    "CarlemanReport",
    "CarlemanBundle",
    "evaluate_carleman",
    "SweepResult",
    "sweep_parameters",
    "s0_estimate",
]

# beyond this log-weight a cell counts as overflow: a margin below
# log(DBL_MAX) = 709.78, past which exp() is not representable at all
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
        for name in ("s", "lam"):
            v = getattr(self, name)
            if isinstance(v, (bool, np.bool_)) or not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")


def _exp(x: float) -> float:
    """exp(x), inf past the double range."""
    try:
        return math.exp(x)
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
    fields = [_exp(_safe_log(v) + K) for v in (lhs, rhs_source, rhs_T, rhs_0)]
    overflow = K > OVERFLOW_LOG_LIMIT or any(math.isinf(f) for f in fields)
    return CarlemanReport(kind, params, *fields, float(sc.ratio()[0]), _safe_log(lhs) + K,
                          _safe_log(rhs_total) + K, overflow, parts)


@dataclass(frozen=True)
class _Cells:
    """A set of (s, lam) cells, one entry per cell: s, lam, phi(T) and the
    log offset K = 2 s phi(T) of the scaled weight."""

    s: np.ndarray
    lam: np.ndarray
    phi_T: np.ndarray
    K: np.ndarray

    def at_zero(self) -> np.ndarray:
        """The scaled weight at t = 0, exp(2 s - K); at t = T it is exactly 1."""
        return np.exp(np.minimum(2.0 * self.s - self.K, 0.0))


def _trapezoids(I: np.ndarray, dt: float) -> np.ndarray:
    """dt times the mean of adjacent slices: one trapezoid per time step."""
    return dt * (0.5 * (I[:-1] + I[1:]))


def _scaled_cells(grid: SpaceTimeGrid, estimates, s, lam, phi_T, live) -> list:
    """The _Scaled totals of each estimate at the cells (s[i], lam[j]) with
    live[i, j], taken lam by lam and in the order of s within a lam; phi_T
    holds phi(T) of each lam.

    estimates holds (scaled, ingredients, terms) triples, terms being the
    (slice integral, p) pairs of the estimate's time integrals against phi^p
    times the scaled weight.  The trapezoids of the slice integrals are
    computed once.  For each lam the scaled weight of its live s is built
    into one buffer, a table of at most _TABLE_DOUBLES entries at a time (a
    row per s, a column per midpoint): one product and one exp,
    exp(-2 s tau) with tau = phi(T) - phi(t_mid) >= 0, so every entry lies
    in (0, 1] without reading K.  Each estimate's time sums are one product
    of a table with the matrix of its weighted trapezoids.  The per-cell
    arithmetic of scaled then runs once over every cell.
    """
    n_mid = grid.n_t
    rows = max(1, _TABLE_DOUBLES // n_mid)
    t_mid = 0.5 * (grid.t[:-1] + grid.t[1:])
    # the cells lam-major: j indexes lam, i indexes s
    j, i = np.nonzero(live.T)
    cells = _Cells(s[i], lam[j], phi_T[j], 2.0 * s[i] * phi_T[j])
    minus_two_s = -2.0 * cells.s
    trapezoids = [
        [(_trapezoids(getattr(ing, name), grid.dt), p) for name, p in terms]
        for _, ing, terms in estimates
    ]
    sums = [np.empty((len(terms), i.size)) for _, _, terms in estimates]
    per_lam = np.count_nonzero(live, axis=0)
    buf = np.empty(min(rows, int(per_lam.max(initial=0))) * n_mid)
    lo = 0
    for lam_j, phi_T_j, n in zip(lam, phi_T, per_lam):
        if n == 0:
            continue
        phi_mid = np.exp(lam_j * t_mid)
        tau = phi_T_j - phi_mid
        cols = [np.stack([tz * phi_mid**p for tz, p in tzs], axis=1) for tzs in trapezoids]
        for block in range(lo, lo + n, rows):
            idx = slice(block, min(block + rows, lo + n))
            table = buf[:(idx.stop - idx.start) * n_mid].reshape(-1, n_mid)
            np.multiply(minus_two_s[idx, None], tau, out=table)
            np.exp(table, out=table)
            for out, c in zip(sums, cols):
                out[:, idx] = (table @ c).T
        lo += n
    return [scaled(ing, out, cells) for (scaled, ing, _), out in zip(estimates, sums)]


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
    block): the one-sided end stencils read three columns of a widened
    block, and numpy would sum a one-column block in another order than the
    whole array's columns.
    """
    n = grid.n_t + 1
    starts = list(range(0, n, max(3, _TABLE_DOUBLES // grid.n_x)))
    if len(starts) > 1 and n - starts[-1] < 3:
        del starts[-1]
    for lo, hi in zip(starts, starts[1:] + [n]):
        elo = max(lo - 1, 0)
        yield slice(lo, hi), slice(elo, min(hi + 1, n)), slice(lo - elo, hi - elo)


def _sq_sums(f, w, out=None):
    """sum_i w[i] f[i, k]^2 for every column k of f, into out when given.

    The slice integrals form each derivative block in the call that
    contracts it, so one block is alive at a time and freed on return.
    """
    return np.einsum("ij,ij,i->j", f, f, w, out=out)


def _quadrature_weights(a: np.ndarray, h: float):
    """The slice integrals' weights h a, h / a and h, one per grid point."""
    return h * a, h / a, np.full(a.shape, h)


def hjb_ingredients(u, F, coeff: DegenerateCoefficient, grid: SpaceTimeGrid) -> HjbIngredients:
    uv = _traj(u, grid, "u")
    Fv = _traj(F if F is not None else 0.0, grid, "F")
    h = grid.h
    h_a, h_inv_a, h_1 = _quadrature_weights(coeff.a(grid.x), h)
    I_ut, I_uxx, I_ux, I_u, I_F = np.empty((5, grid.n_t + 1))
    for cols, ext, inner in _time_blocks(grid):
        ub = uv[:, cols]
        _sq_sums(_dt1_columns(uv[:, ext], grid.dt, inner), h_inv_a, I_ut[cols])
        _sq_sums(_dxx_array(ub, h), h_a, I_uxx[cols])
        _sq_sums(_dx_array(ub, h, "dirichlet"), h_1, I_ux[cols])
        _sq_sums(ub, h_inv_a, I_u[cols])
        _sq_sums(Fv[:, cols], h_inv_a, I_F[cols])
    return HjbIngredients(
        I_ut, I_uxx, I_ux, I_u, I_F,
        BT_0=weighted_norm(uv[:, -1], NormKind.L2_INV_A, coeff, grid) ** 2,
        BT_1=weighted_norm(uv[:, -1], NormKind.H1_INV_A, coeff, grid) ** 2,
        B0_0=weighted_norm(uv[:, 0], NormKind.L2_INV_A, coeff, grid) ** 2,
        B0_1=weighted_norm(uv[:, 0], NormKind.H1_INV_A, coeff, grid) ** 2,
    )


# the time integrals of the estimate: slice integral and the power p of phi
_HJB_TERMS = (("I_ut", 0), ("I_uxx", 0), ("I_ux", 1), ("I_u", 2), ("I_F", 1))


def _hjb_scaled(ing: HjbIngredients, sums: np.ndarray, c: _Cells) -> _Scaled:
    s, lam = c.s, c.lam
    ut, uxx, ux, u, F = sums
    lhs = ut + uxx + s * lam * ux + s * s * lam * lam * u
    rhs_T = s * (s * lam * c.phi_T * ing.BT_0 + ing.BT_1)
    rhs_0 = s * (s * lam * ing.B0_0 + ing.B0_1) * c.at_zero()
    return _Scaled(lhs, s * F, rhs_T, rhs_0, c.K)


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
    a = coeff.a(grid.x)
    h = grid.h
    h_a, h_inv_a, h_1 = _quadrature_weights(a, h)
    J_v2, J_vx, J_m, J_G = np.empty((4, grid.n_t + 1))
    for cols, ext, inner in _time_blocks(grid):
        v_ext = a[:, None] * mv[:, ext]
        v = v_ext[:, inner]
        _sq_sums(_dxx_array(v, h), h_a, J_v2[cols])
        # int a m_t^2 = int v_t^2 / a, differentiating the product field in time
        J_v2[cols] += _sq_sums(_dt1_columns(v_ext, grid.dt, inner), h_inv_a)
        _sq_sums(_dx_array(v, h, "dirichlet"), h_1, J_vx[cols])
        _sq_sums(mv[:, cols], h_a, J_m[cols])
        _sq_sums(Gv[:, cols], h_a, J_G[cols])
    vx_0, vx_T = (_dx_array(a * mv[:, k], h, "dirichlet") for k in (0, -1))
    return FpIngredients(
        J_v2, J_vx, J_m, J_G,
        BT_m=weighted_norm(mv[:, -1], NormKind.L2_A, coeff, grid) ** 2,
        BT_vx=weighted_norm(vx_T, NormKind.L2_PLAIN, coeff, grid) ** 2,
        B0_m=weighted_norm(mv[:, 0], NormKind.L2_A, coeff, grid) ** 2,
        B0_vx=weighted_norm(vx_0, NormKind.L2_PLAIN, coeff, grid) ** 2,
    )


_FP_TERMS = (("J_v2", -1), ("J_vx", 0), ("J_m", 1), ("J_G", 0))


def _fp_scaled(ing: FpIngredients, sums: np.ndarray, c: _Cells) -> _Scaled:
    s, lam = c.s, c.lam
    v2, vx, m, G = sums
    lhs = (1.0 / s) * v2 + lam * vx + s * lam * lam * m
    rhs_T = s * lam * (c.phi_T * ing.BT_m + ing.BT_vx)
    rhs_0 = (s * lam * ing.B0_m + ing.B0_vx) * c.at_zero()
    return _Scaled(lhs, G, rhs_T, rhs_0, c.K)


@dataclass(frozen=True)
class CarlemanBundle:
    """Fields and data of one estimate.  The trajectories pick it: u alone
    hjb, m alone fp, both mfg.  F goes with u and G with m (None is zero)."""

    coeff: DegenerateCoefficient
    grid: SpaceTimeGrid
    u: object = None
    m: object = None
    F: object = None
    G: object = None

    def __post_init__(self):
        if self.u is None and self.m is None:
            raise ValueError("a bundle needs a trajectory: u, m or both")
        if self.F is not None and self.u is None:
            raise ValueError("a source F needs a value trajectory u")
        if self.G is not None and self.m is None:
            raise ValueError("a source G needs a density trajectory m")

    @property
    def kind(self) -> str:
        """The estimate: "hjb", "fp" or "mfg"."""
        return "hjb" if self.m is None else "fp" if self.u is None else "mfg"


def _estimates(bundle: CarlemanBundle) -> list:
    """The (scaled, ingredients, terms) triple of each estimate of the
    bundle, hjb first."""
    b, out = bundle, []
    if b.u is not None:
        out.append((_hjb_scaled, hjb_ingredients(b.u, b.F, b.coeff, b.grid), _HJB_TERMS))
    if b.m is not None:
        out.append((_fp_scaled, fp_ingredients(b.m, b.G, b.coeff, b.grid), _FP_TERMS))
    return out


def evaluate_carleman(bundle: CarlemanBundle, params: CarlemanParams) -> CarlemanReport:
    """The bundle's estimate at the one cell (s, lam), on a sweep's path; an
    mfg report is the sum of the hjb and fp reports in its parts.  Where
    phi(T) overflows every field is inf and the ratio NaN, as in a sweep."""
    kinds = ("hjb", "fp") if bundle.kind == "mfg" else ()
    phi_T = _exp(params.lam * bundle.grid.T)
    if math.isinf(phi_T):
        inf = (math.inf,) * 4 + (math.nan, math.inf, math.inf, True)
        parts = tuple(CarlemanReport(k, params, *inf) for k in kinds)
        return CarlemanReport(bundle.kind, params, *inf, parts)
    cell = np.array([float(params.s)]), np.array([float(params.lam)]), np.array([phi_T])
    sc = _scaled_cells(bundle.grid, _estimates(bundle), *cell, np.ones((1, 1), dtype=bool))
    parts = tuple(_report_from_scaled(k, params, x) for k, x in zip(kinds, sc))
    return _report_from_scaled(bundle.kind, params, sum(sc[1:], sc[0]), parts)


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

    Slice integrals and their trapezoids are computed once, in blocks of
    time columns, each integral one weighted sum-of-squares contraction per
    block.  Each lam builds one table of the scaled weight
    exp(-2 s (phi(T) - phi(t))) over the time midpoints, a row per s that
    does not overflow (in blocks of at most _TABLE_DOUBLES = 64 x 1024
    entries), into one buffer that every lam reuses: one product and one
    exp, every entry in (0, 1].  Each time integral of the estimate is a
    product of that table with a vector.  The rest of the estimate runs once
    per sweep over the time sums of every live cell.  Cells whose weight
    cannot be represented on a linear scale are recorded as NaN and counted
    in overflow_cells.
    """
    s_sorted = tuple(sorted(float(s) for s in s_values))
    lam_sorted = tuple(sorted(float(x) for x in lam_values))
    if len(s_sorted) == 0 or len(lam_sorted) == 0:
        raise ValueError("sweep needs at least one s and one lam")
    if not all(s > 0.0 for s in s_sorted):
        raise ValueError("s must be positive")
    if not all(lam > 0.0 for lam in lam_sorted):
        raise ValueError("lam must be positive")
    s_arr, lam_arr = np.array(s_sorted), np.array(lam_sorted)
    g = bundle.grid
    estimates = _estimates(bundle)
    phi_T = np.array([_exp(lam * g.T) for lam in lam_sorted])
    # an s or phi(T) whose log-weight overflows to inf is an overflow cell
    with np.errstate(over="ignore"):
        live = ~(np.multiply.outer(2.0 * s_arr, phi_T) > OVERFLOW_LOG_LIMIT)
    overflow = int(np.count_nonzero(~live))
    sc = _scaled_cells(g, estimates, s_arr, lam_arr, phi_T, live)
    ratios = np.full((len(s_sorted), len(lam_sorted)), np.nan)
    # the cells come lam by lam, as the transpose's mask lists them
    ratios.T[live.T] = sum(sc[1:], sc[0]).ratio()
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


def s0_estimate(sweep: SweepResult):
    """Smallest swept s after which the per-s max ratio varies by at most
    half relatively, step to step, through the end of the range.
    Returns None when no such s exists (including all-overflow sweeps)."""
    curve = _row_max(sweep.ratios)
    prev, nxt = curve[:-1], curve[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        steady = np.where(prev == 0.0, nxt == 0.0, np.abs(nxt - prev) / np.abs(prev) <= 0.5)
    # a start is blocked by a NaN or an unsteady step at or after it
    blocked = np.isnan(curve)
    blocked[:-1] |= ~steady
    first = int(np.flatnonzero(blocked)[-1]) + 1 if blocked.any() else 0
    return sweep.s_values[first] if first < len(curve) else None
