"""Coupled solvers for the linearized and quadratic-Hamiltonian systems.

Both systems pair a backward value equation with a forward density equation
in one linear template, the linearized system with its own coefficients and
the quadratic-Hamiltonian one frozen at the value iterate:

    u_t + a u_xx + d1 u_x = d2 m + F,  m_t - (am)_xx + c1 m_x = b m + c2 u_x + rho u_xx + G

One Picard driver sweeps it: freeze the density, solve the value equation;
freeze the value, solve the density equation; blend each candidate into the
iterate with the current damping.  The iteration starts from u = m = 0, or
from a given ``start`` pair (stability ladders and convergence studies start
near the answer).  The damping starts at IterConfig.damping (default 1.0, a
full step) and the first sweep always takes the full step, so a fully
decoupled system finishes in one sweep, bit-identical to the two scalar
solves.  A sweep whose residual exceeds divergence_factor times the best one
so far is rejected: the damping halves and the iteration restarts from the
best pair.  Once the damping would fall below DAMPING_FLOOR (1/64), the solve
gives up and returns the best pair with converged=False.  Only arrays outlive
a sweep: a value problem is dropped once it is marched, and a rejected sweep
rebuilds the best pair's from its template.

Convergence is declared on the scheme residuals (the defect of the implicit
step equations), which a fixed point can actually drive to rounding level;
the continuum defect of the same trajectory is O(dt + h^2) no matter how far
the iteration runs and is measured separately by the apply_* operators.  A
sweep's residual is the value equation's, rebuilt at the new pair; a damped
sweep also measures the density equation's and takes the larger.  A
full-step sweep does not: its density iterate is the march's own solution of
the density equation, whose defect is the tridiagonal solves' backward error,
of order eps |S| |v| / dt, so a converged full step meets the value equation
to the tolerance and the density equation to rounding.

For the quadratic Hamiltonian -(p/2)|u_x|^2 the value equation is linearized
about the previous iterate, p u_x^old u_x - (p/2)|u_x^old|^2 (a Newton-type
expansion of the square), and the density drift uses the freshly updated u_x.
At a fixed point the linearization is exact: the ghost-closure first
derivative used inside the step matrices coincides with the diagnostic
Dirichlet stencil used to build the coefficients, so the reported residual is
the genuine discrete nonlinear defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from degenmfg.domain import (
    DegenerateCoefficient,
    NormKind,
    SpaceTimeField,
    SpaceTimeGrid,
    _Bound,
    _dx_array,
    _dxx_array,
    _zeros,
    weighted_norm,
)
from degenmfg.solvers import (
    FieldLike,
    FpLinearProblem,
    HjbLinearProblem,
    _slice,
    _time_columns,
    _traj,
    apply_fp_operator,
    apply_hjb_operator,
    fp_scheme_residual,
    hjb_scheme_residual,
    solve_fp_linear,
    solve_hjb_linear,
)

__all__ = [
    "IterConfig",
    "MfgCoefficients",
    "MfgSolution",
    "BoundEntry",
    "BoundReport",
    "solve_linearized_mfg",
    "solve_nonlinear_mfg",
    "form_difference_coefficients",
    "difference_residuals",
    "check_coefficient_bounds",
]


# backtracking gives up once the damping would fall below this step
DAMPING_FLOOR = 1.0 / 64.0

# the coefficient layers of MfgCoefficients: the quadratic-Hamiltonian
# system reads the nonlinear one, the linearized system the linear one,
# whose names are those of the template's coefficients (see _Template)
_NONLINEAR_KEYS = ("p", "d")
_LINEAR_KEYS = ("d1", "d2", "c1", "c2", "b", "rho")

# the bounds of IterConfig's float controls, each also finite
_ITER_BOUNDS = {"damping": _Bound(gt=0.0, le=1.0), "tolerance": _Bound(gt=0.0),
                "divergence_factor": _Bound(gt=1.0)}


@dataclass(frozen=True)
class IterConfig:
    """Picard sweep controls shared by both coupled solvers.

    ``max_sweeps`` is an integer (Python or numpy, not a bool); ``damping``
    is the starting step; ``divergence_factor`` is the residual growth over
    the best sweep that rejects a sweep and halves the step.
    """

    max_sweeps: int = 200
    damping: float = 1.0
    tolerance: float = 1e-9
    divergence_factor: float = 10.0

    def __post_init__(self):
        if not isinstance(self.max_sweeps, (int, np.integer)) or isinstance(self.max_sweeps, bool):
            raise ValueError(f"max_sweeps must be an integer, got {self.max_sweeps!r}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        for name, bound in _ITER_BOUNDS.items():
            if fault := bound.fault(v := getattr(self, name)):
                raise ValueError(f"{name} {fault}, got {v}")


@dataclass(frozen=True)
class MfgCoefficients:
    """Every lower-order coefficient of the nonlinear and linearized systems.

    Nonlinear layer: p (Hamiltonian weight) and d (density-to-value coupling).
    Linearized layer: d1, d2 (value equation) and c1, c2, b, rho (density
    equation).  Each entry is coerced to a space-time trajectory at
    construction, as solvers._traj does: a scalar, a spatial profile or a
    callable of x becomes a time-constant view.  The record is frozen.
    """

    diffusion: DegenerateCoefficient
    grid: SpaceTimeGrid
    p: FieldLike = 0.0
    d: FieldLike = 0.0
    d1: FieldLike = 0.0
    d2: FieldLike = 0.0
    c1: FieldLike = 0.0
    c2: FieldLike = 0.0
    b: FieldLike = 0.0
    rho: FieldLike = 0.0

    def __post_init__(self):
        for name in _NONLINEAR_KEYS + _LINEAR_KEYS:
            object.__setattr__(self, name, _traj(getattr(self, name), self.grid, name))


@dataclass
class MfgSolution:
    u: SpaceTimeField
    m: SpaceTimeField
    residual_log: tuple
    converged: bool

    @property
    def sweeps(self) -> int:
        return len(self.residual_log)


class _Template(NamedTuple):
    """The linear template both coupled systems are swept in:

        u_t + a u_xx + d1 u_x = d2 m + F
        m_t - (am)_xx + c1 m_x = b m + c2 u_x + rho u_xx + G

    Each entry is a trajectory, one column broadcast over time or a scalar.
    c2 and rho None mean the density source has no u-coupling (it is G alone).
    """

    d1: np.ndarray
    d2: np.ndarray
    F: np.ndarray
    c1: np.ndarray
    b: np.ndarray
    c2: Optional[np.ndarray]
    rho: Optional[np.ndarray]
    G: np.ndarray


def _value_problem(t: _Template, m, g, c, h=0.0) -> HjbLinearProblem:
    """The template's value equation at the density m: source F + d2 m."""
    return HjbLinearProblem(g, c, drift=t.d1, source=t.F + t.d2 * m, terminal=h)


def _density_problem(t: _Template, u, g, c, m0=0.0) -> FpLinearProblem:
    """The template's density equation at the value u: source
    c2 u_x + rho u_xx + G, or G when c2 is None."""
    source = t.G
    if t.c2 is not None:
        source = t.c2 * _dx_array(u, g.h, "dirichlet") + t.rho * _dxx_array(u, g.h) + t.G
    return FpLinearProblem(g, c, convection=t.c1, zeroth=t.b, source=source, initial=m0)


def _blend(old: np.ndarray, cand: np.ndarray, step: float) -> np.ndarray:
    if step == 1.0:
        return cand
    return old + step * (cand - old)


def _picard(coeffs: MfgCoefficients, cfg: IterConfig, frozen, m0, h, start):
    """Picard sweeps with backtracking, shared by both coupled solvers.

    ``frozen(u)`` is the template at the value iterate u, called once per
    sweep: the density equation at u and the next value equation at (u, m)
    are both built from it.  The residual of a sweep is the value scheme
    residual at the new pair, with the value equation rebuilt there: at a
    fixed point that is the discrete system itself, and it is also the next
    sweep's value equation.  A damped sweep (step below 1) logs the larger of
    that and the density scheme residual of its blended m; a full step's m is
    the density march's solution, whose residual would only measure the
    march's rounding, so it is not evaluated.  The iteration starts from
    ``start`` (only read), and from zeros when it is None.  Only arrays
    outlive a sweep: the value problem is dropped once it is marched, and a
    rejected sweep rebuilds it from the best pair.
    """
    g, c = coeffs.grid, coeffs.diffusion
    m0, h = _slice(m0, g, "m0"), _slice(h, g, "h")
    start = _start_pair(start, g)
    u, m = (_zeros(g.shape), _zeros(g.shape)) if start is None else start
    hjb = _value_problem(frozen(u), m, g, c, h)
    best = (np.inf, u, m)
    damping = cfg.damping
    log: list = []
    for sweep in range(1, cfg.max_sweeps + 1):
        step = 1.0 if sweep == 1 else damping
        u_new = _blend(u, solve_hjb_linear(hjb).values, step)
        del hjb  # free its step bands and source before the density solve
        t = frozen(u_new)
        fp = _density_problem(t, u_new, g, c, m0)
        m_new = _blend(m, solve_fp_linear(fp).values, step)
        # a full step's m_new is the march's own solution of fp: its defect
        # is the tridiagonal solves' rounding, so only a blend is measured
        res_fp = fp_scheme_residual(m_new, fp) if step < 1.0 else 0.0
        del fp  # free its step bands before the value problem builds its own
        hjb = _value_problem(t, m_new, g, c, h)
        del t
        res = max(hjb_scheme_residual(u_new, hjb), res_fp)
        log.append(res)
        if res <= cfg.tolerance:
            best = (res, u_new, m_new)
            break
        if res > cfg.divergence_factor * best[0]:
            damping /= 2.0
            if damping < DAMPING_FLOOR:
                break
            _, u, m = best
            hjb = _value_problem(frozen(u), m, g, c, h)
            continue
        u, m = u_new, m_new
        if res < best[0]:
            best = (res, u, m)
    res, u, m = best
    # u and m are arrays only _picard holds: wrap them without a copy
    return MfgSolution(
        SpaceTimeField._adopt(u, g), SpaceTimeField._adopt(m, g), tuple(log),
        converged=res <= cfg.tolerance,
    )


def _start_pair(start, g: SpaceTimeGrid):
    """A solver's ``start`` as a pair of trajectories on g, or None.

    Each member is coerced like F and G, so a shape the grid cannot take (or
    a field on another grid) raises ValueError before any sweep.
    """
    if start is None:
        return None
    u, m = start
    return _traj(u, g, "start u"), _traj(m, g, "start m")


def solve_linearized_mfg(
    coeffs: MfgCoefficients,
    F: FieldLike = 0.0,
    G: FieldLike = 0.0,
    m0: FieldLike = 0.0,
    h: FieldLike = 0.0,
    cfg: IterConfig = IterConfig(),
    start: Optional[tuple] = None,
) -> MfgSolution:
    """Picard iteration for the linearized coupled system.

    Value equation: u_t + a u_xx + d1 u_x = d2 m + F (backward, u(.,T) = h).
    Density equation: m_t - (am)_xx + c1 m_x = b m + c2 u_x + rho u_xx + G
    (forward, m(.,0) = m0; b is handled implicitly inside the step matrix).
    Stops when the sweep's residual falls below tolerance: the value scheme
    residual at a full step, whose density iterate solves its own step
    equations to rounding, and the larger of the two scheme residuals at a
    damped step.  When the damping floor or the sweep budget is reached, the
    best iterate is returned with converged=False.  ``start`` is the (u, m)
    pair the iteration starts from, as for solve_nonlinear_mfg (zeros when
    None).
    """
    g = coeffs.grid
    linear = {k: getattr(coeffs, k) for k in _LINEAR_KEYS}
    t = _Template(F=_traj(F, g, "F"), G=_traj(G, g, "G"), **linear)
    return _picard(coeffs, cfg, lambda u: t, m0, h, start)


def solve_nonlinear_mfg(
    coeffs: MfgCoefficients,
    F: FieldLike = 0.0,
    G: FieldLike = 0.0,
    m0: FieldLike = 0.0,
    h: FieldLike = 0.0,
    cfg: IterConfig = IterConfig(),
    start: Optional[tuple] = None,
) -> MfgSolution:
    """Picard iteration for the quadratic-Hamiltonian system.

    Value equation: u_t + a u_xx - (p/2)|u_x|^2 + d m = F (backward).
    Density equation: m_t - (am)_xx - (p m u_x)_x = G (forward); the
    divergence drift is split as convection -p u_x plus the implicit zeroth
    term (p u_x)_x.  Uses only the p and d layers of ``coeffs``.  With p = 0
    the sweep sequence coincides, operation for operation, with
    solve_linearized_mfg(d2=-d): they agree to machine precision.  The
    residual a sweep logs is as there: the value scheme residual at a full
    step, the larger of the value and density residuals at a damped one.

    ``start`` is the (u, m) pair the iteration starts from, fields or arrays
    coerced like F and G (a shape the grid cannot take raises ValueError);
    it is only read.  The default None starts from u = m = 0.  A start near
    the solution, such as a nearby solve's result, saves sweeps; the solve
    still stops on the same residual tolerance.
    """
    g = coeffs.grid
    Ft = _traj(F, g, "F")
    Gt = _traj(G, g, "G")
    # time-invariant p and d stay one column: -p, p/2 and -d are never full
    # trajectories, and the products broadcast to the same doubles
    (p,) = _time_columns(coeffs.p)
    (d,) = _time_columns(coeffs.d)
    half_p, minus_d = 0.5 * p, -d

    def frozen(u):
        """The template at u: d1 = c1 = -p u_x, b = (p u_x)_x, d2 = -d and
        F - (p/2) u_x^2, each from one u_x and one p u_x."""
        ux = _dx_array(u, g.h, "dirichlet")
        pux = p * ux
        b = _dx_array(pux, g.h, "free")
        drift = np.negative(pux, out=pux)  # bitwise (-p) * u_x: negation is exact
        src = half_p * ux
        src *= ux
        src = np.subtract(Ft, src, out=src)
        return _Template(drift, minus_d, src, drift, b, None, None, Gt)

    return _picard(coeffs, cfg, frozen, m0, h, start)


def form_difference_coefficients(
    sol1: MfgSolution,
    sol2: MfgSolution,
    coeffs: MfgCoefficients,
):
    """Linearized-system coefficients satisfied by the difference of two solves.

    For two solutions of the same quadratic-Hamiltonian system (p and d from
    ``coeffs``) with different data, the differences u = u2 - u1, m = m2 - m1
    satisfy the linearized template with

        d1 = -(p/2)(u1_x + u2_x)     d2 = -d
        c1 = -p u1_x                 b  = p u1_xx + p_x u1_x
        c2 = p_x m2 + p m2_x         rho = p m2

    with signs fixed so the template holds as written (the quadratic term
    factors through the average gradient; moving it to the drift side flips
    the sign).  Value-field derivatives use the Dirichlet closure, density
    fields and p_x (differenced from p) the free closure.  Returns
    (coefficients, u_difference, m_difference).
    """
    g = sol1.u.grid
    if sol2.u.grid != g or coeffs.grid != g:
        raise ValueError("solutions and coefficients must share one grid")
    p = coeffs.p
    px = _dx_array(p, g.h, "free")
    u1 = sol1.u.values
    u2 = sol2.u.values
    m2 = sol2.m.values
    u1x = _dx_array(u1, g.h, "dirichlet")
    u1xx = _dxx_array(u1, g.h)
    u2x = _dx_array(u2, g.h, "dirichlet")
    m2x = _dx_array(m2, g.h, "free")
    diff = MfgCoefficients(
        coeffs.diffusion,
        g,
        p=p,
        d=coeffs.d,
        d1=-0.5 * p * (u1x + u2x),
        d2=-coeffs.d,
        c1=-p * u1x,
        c2=px * m2 + p * m2x,
        b=p * u1xx + px * u1x,
        rho=p * m2,
    )
    u_diff = SpaceTimeField(u2 - u1, g)
    m_diff = SpaceTimeField(sol2.m.values - sol1.m.values, g)
    return diff, u_diff, m_diff


def difference_residuals(
    coeffs: MfgCoefficients, u_diff: SpaceTimeField, m_diff: SpaceTimeField
) -> tuple:
    """Continuum defects of the difference pair under the linearized system.

    Both defects use the diagnostic stencils with zero sources and are
    measured in the source norms native to the weighted estimates: the
    value-equation defect in L2 with weight 1/a, the density-equation defect
    in L2 with weight a, each maximized over time slices.  The a-weight is
    what makes the density defect meaningful: the density template itself
    degenerates at the boundary nodes (m picks up a 1/a factor there), so a
    sup over nodes would be dominated by the wall rows and would not shrink.
    In these norms both residuals are O(dt + h^2) under refinement.
    """
    g, c = u_diff.grid, coeffs.diffusion
    t = _Template(F=0.0, G=0.0, **{k: getattr(coeffs, k) for k in _LINEAR_KEYS})
    ru = apply_hjb_operator(u_diff, _value_problem(t, m_diff.values, g, c)).values
    rm = apply_fp_operator(m_diff, _density_problem(t, u_diff.values, g, c)).values
    r_u = max(
        weighted_norm(ru[:, k], NormKind.L2_INV_A, c, g) for k in range(g.n_t + 1)
    )
    r_m = max(
        weighted_norm(rm[:, k], NormKind.L2_A, c, g) for k in range(g.n_t + 1)
    )
    return float(r_u), float(r_m)


@dataclass(frozen=True)
class BoundEntry:
    name: str
    value: float
    x: float
    t: float


@dataclass(frozen=True)
class BoundReport:
    """Hypothesis ratios and sup norms, each with the node attaining it."""

    entries: tuple

    def value(self, name: str) -> float:
        for e in self.entries:
            if e.name == name:
                return e.value
        raise KeyError(name)

    def as_rows(self):
        return [(e.name, e.value, e.x, e.t) for e in self.entries]


def check_coefficient_bounds(coeffs: MfgCoefficients) -> BoundReport:
    """Evaluate every hypothesis ratio on the grid nodes.

    Reports max |p|/sqrt(a), |d|/a, |d1|/sqrt(a), |c1|/sqrt(a), |d2|/a, the
    intrinsic |a_x|/sqrt(a), and the sup norms of b, c2, rho, together with
    the (x, t) node where each maximum occurs.  All ratios are finite by
    construction (nodes are interior); whether they stay bounded under
    refinement is a property of the chosen coefficients, not checked here.
    """
    c, g = coeffs.diffusion, coeffs.grid
    x = g.x
    sqrt_a = c.sqrt_a(x)[:, None]
    a = c.a(x)[:, None]
    entries = []

    def ratio(name, num, den=1.0):
        r = np.abs(num) / den
        i, k = np.unravel_index(int(np.argmax(r)), r.shape)
        entries.append(BoundEntry(name, float(r[i, k]), float(x[i]), float(g.t[k])))

    ratio("p_over_sqrt_a", coeffs.p, sqrt_a)
    ratio("d_over_a", coeffs.d, a)
    ratio("d1_over_sqrt_a", coeffs.d1, sqrt_a)
    ratio("c1_over_sqrt_a", coeffs.c1, sqrt_a)
    ratio("d2_over_a", coeffs.d2, a)
    ratio("ax_over_sqrt_a", c.a_x(x)[:, None], sqrt_a)
    ratio("b_sup", coeffs.b)
    ratio("c2_sup", coeffs.c2)
    ratio("rho_sup", coeffs.rho)
    return BoundReport(tuple(entries))
