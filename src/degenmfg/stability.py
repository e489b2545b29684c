"""Backward-problem stability experiments.

The conditional estimates bound the interior state of the coupled system by
the discrepancy of final-time data: a Holder rate (D0^theta + D0) at interior
times t0 and a logarithmic rate (log 1/D)^(-alpha) at t0 = 0, both under an
a-priori bound M on the initial state.  This module manufactures solution
pairs with perturbed data, measures the actual error-versus-discrepancy
ladder, and fits the observed envelope so the predicted exponents can be
compared against measured slopes and constants.

All measured norms follow the estimates exactly: weak weighted norms
(L2(1/a) for the value, L2(a) for the density) at the interior time, first
order weighted norms at the final time, and for the logarithmic case sums of
time derivatives up to second order.  M is computed from the solutions
themselves, so the hypothesis of the estimate holds by construction.

Both experiments check t0, n_t, every amplitude (a finite number >= 0, not
a bool) and the ladder's shape in one place, and the pair builders every
amplitude by the same rule, each raising ValueError before any solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from degenmfg.domain import (
    DegenerateCoefficient,
    NormKind,
    SpaceTimeGrid,
    _Bound,
    _dt_array,
    weighted_norm,
)
from degenmfg.mfg import (
    IterConfig,
    MfgCoefficients,
    MfgSolution,
    _start_pair,
    solve_nonlinear_mfg,
)
from degenmfg.solvers import FieldLike, SolverError, _slice, _traj

__all__ = [
    "theoretical_theta",
    "optimal_s",
    "StabilityInputs",
    "LadderRung",
    "StabilityResult",
    "NonlinearProblemSpec",
    "BackwardExperimentSpec",
    "default_backward_spec",
    "generate_pair",
    "build_ladder_pairs",
    "run_holder_experiment",
    "run_log_experiment",
    "DEFAULT_HOLDER_LADDER",
    "DEFAULT_LOG_LADDER",
    "DEFAULT_EXPERIMENT_SHAPE",
]

DEFAULT_HOLDER_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)
# kept inside one decade: the interior error responds linearly to the
# perturbation while the log envelope is nearly flat, so a multi-decade
# ladder would spread the fitted constant far beyond any honest threshold
DEFAULT_LOG_LADDER = (1e-2, 6e-3, 3.5e-3, 2e-3)
DEFAULT_EXPERIMENT_SHAPE = (128, 256)
_AMPLITUDE = _Bound(ge=0.0)  # each eps of a ladder
_LOG_ORDER = 2  # the log ladder's D takes time derivatives up to this order
_LOG_N_T_MIN = _LOG_ORDER + 2  # the end stencils of those derivatives need n_t >= order + 2


def _holder_rate(t0: float, T: float, lam: float) -> tuple:
    """alpha(t0) and the Holder denominator 3 phi(T) + alpha(t0)."""
    if not (0.0 <= t0 < T):
        raise ValueError("t0 must lie in [0, T)")
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    alpha = math.expm1(lam * t0)
    return alpha, 3.0 * math.exp(lam * T) + alpha


def theoretical_theta(t0: float, T: float, lam: float) -> float:
    """Holder exponent theta = alpha(t0) / (3 phi(T) + alpha(t0)).

    Here phi(t) = exp(lam t) and alpha(t) = phi(t) - 1; theta is 0 at t0 = 0
    and stays below 1/4 for every t0 < T.
    """
    alpha, denom = _holder_rate(t0, T, lam)
    return alpha / denom


def optimal_s(M: float, D0: float, t0: float, T: float, lam: float) -> float:
    """Weight strength minimizing the interior bound: 0 when M <= D0, else
    2 log(M / D0) / (3 phi(T) + alpha(t0))."""
    if not M > 0.0 or not D0 > 0.0:
        raise ValueError("M and D0 must be positive")
    denom = _holder_rate(t0, T, lam)[1]
    return 0.0 if M <= D0 else 2.0 * math.log(M / D0) / denom


@dataclass(frozen=True)
class StabilityInputs:
    """The quantities the estimate is conditioned on."""

    t0: float
    M: float
    lam: float
    T: float


@dataclass(frozen=True)
class LadderRung:
    """One perturbation amplitude: discrepancy, interior error, constants.

    D0 is the first-order data discrepancy at t = T; D adds time derivatives
    up to second order (log experiments only, NaN otherwise).  c_envelope is
    the rung's envelope constant: err / (D0^theta + D0) for the Holder mode,
    err * (log 1/D)^alpha for the log mode.  s_star records the weight
    strength the proof would choose at this rung.
    """

    eps: float
    D0: float
    err: float
    s_star: float
    c_envelope: float
    D: float
    t0_used: float
    accepted: bool
    note: str = ""


@dataclass(frozen=True)
class StabilityResult:
    mode: str
    inputs: StabilityInputs
    theta: float
    alpha: float
    rungs: tuple
    slope: float
    intercept: float
    C_fit: float
    c_spread: float
    envelope_stable: bool
    warnings: tuple = ()


@dataclass(frozen=True)
class NonlinearProblemSpec:
    """Grid-free description of one quadratic-Hamiltonian system.

    p, d and the sources F, G are spatial profiles: callables of x,
    arrays on the nodes or constants, coerced as solvers._traj does.  lam is
    the weight rate the stability formulas use.
    """

    coeff: DegenerateCoefficient
    p: FieldLike
    d: FieldLike
    T: float = 1.0
    F: FieldLike = 0.0
    G: FieldLike = 0.0
    lam: float = 1.0

    def coefficients_on(self, grid: SpaceTimeGrid) -> MfgCoefficients:
        return MfgCoefficients(self.coeff, grid, p=self.p, d=self.d)


@dataclass(frozen=True)
class BackwardExperimentSpec:
    """A problem plus base data and the perturbation shapes applied to it."""

    problem: NonlinearProblemSpec
    m0: FieldLike
    h: FieldLike
    delta_m0: FieldLike
    delta_h: FieldLike


def default_backward_spec() -> BackwardExperimentSpec:
    """The stock experiment: power-law degeneracy with square-root Hamiltonian
    weight, data proportional to the diffusion, sinusoidal perturbations.

    a = x^2 (1-x)^2, p = 0.5 x(1-x) = 0.5 sqrt(a), d = 0.4 a; base data
    m0 = h = 16 a (peak height 1), perturbation shapes 16 a sin(pi x) on the
    terminal value and 16 a sin(2 pi x) on the initial density, which vanish
    like a at both ends so every weighted norm is finite.
    """
    coeff = DegenerateCoefficient.power(2.0, 2.0)
    return BackwardExperimentSpec(
        problem=NonlinearProblemSpec(
            coeff=coeff,
            p=lambda x: 0.5 * x * (1.0 - x),
            d=lambda x: 0.4 * coeff.a(x),
            T=1.0,
            lam=1.0,
        ),
        m0=lambda x: 16.0 * coeff.a(x),
        h=lambda x: 16.0 * coeff.a(x),
        delta_m0=lambda x: 16.0 * coeff.a(x) * np.sin(2.0 * np.pi * x),
        delta_h=lambda x: 16.0 * coeff.a(x) * np.sin(np.pi * x),
    )


def _amplitude(name: str, eps) -> float:
    """eps as a float; ValueError naming it unless a finite number >= 0, not a bool."""
    if fault := _AMPLITUDE.fault(eps):
        raise ValueError(f"{name} {fault}, got {eps}")
    return float(eps)


def _experiment_grid(problem: NonlinearProblemSpec, grid: Optional[SpaceTimeGrid]):
    if grid is not None:
        return grid
    n_x, n_t = DEFAULT_EXPERIMENT_SHAPE
    return SpaceTimeGrid(n_x, n_t, problem.T)


def generate_pair(
    base_data,
    perturbation,
    eps: float,
    spec: NonlinearProblemSpec,
    grid: Optional[SpaceTimeGrid] = None,
    cfg: IterConfig = IterConfig(),
    base_solution: Optional[MfgSolution] = None,
    start: Optional[tuple] = None,
):
    """Solve the nonlinear system with data (m0, h) and (m0+eps dm0, h+eps dh).

    base_data and perturbation are (initial density, terminal value) pairs of
    profiles.  A precomputed base_solution skips the first solve (ladders
    share it).  The base solve starts from zero; the perturbed solve starts
    from ``start``, a (u, m) pair of fields or arrays as for
    solve_nonlinear_mfg (a wrong shape raises ValueError), and from the base
    solution when it is None: the two solutions are O(eps) apart, so that
    saves sweeps without moving the converged answer beyond the residual
    tolerance.  A bad eps raises ValueError first, then a base_solution off
    the grid; a solve that fails to converge, SolverError.
    """
    eps = _amplitude("eps", eps)
    g = _experiment_grid(spec, grid)
    if base_solution is not None:  # a field off the grid raises ValueError
        for f in ("u", "m"):
            _traj(getattr(base_solution, f), g, f"base_solution.{f}")
    m0 = _slice(base_data[0], g, "m0")
    h = _slice(base_data[1], g, "h")
    dm0 = _slice(perturbation[0], g, "delta_m0")
    dh = _slice(perturbation[1], g, "delta_h")
    coeffs = spec.coefficients_on(g)
    start = _start_pair(start, g)  # a wrong shape fails before any Picard work
    if base_solution is None:
        sol1 = solve_nonlinear_mfg(coeffs, F=spec.F, G=spec.G, m0=m0, h=h, cfg=cfg)
        if not sol1.converged:
            raise SolverError("base solve did not converge")
    else:
        sol1 = base_solution
    sol2 = solve_nonlinear_mfg(
        coeffs,
        F=spec.F,
        G=spec.G,
        m0=m0 + eps * dm0,
        h=h + eps * dh,
        cfg=cfg,
        start=(sol1.u, sol1.m) if start is None else start,
    )
    if not sol2.converged:
        raise SolverError(f"perturbed solve (eps={eps:g}) did not converge")
    return sol1, sol2


def build_ladder_pairs(
    spec: BackwardExperimentSpec,
    eps_ladder: Sequence[float],
    grid: Optional[SpaceTimeGrid] = None,
    cfg: IterConfig = IterConfig(),
):
    """Solution pairs for every amplitude, sharing one base solve.

    Returns a tuple of (eps, (sol1, sol2)); reusable across experiments at
    different t0 since the pairs do not depend on the measurement time.
    The perturbed solves are a continuation in eps, for u and m alike.  The
    nodes are the last two rungs with distinct nonzero eps since the last
    eps = 0 rung.  With no node the solve starts from the base solution,
    with one from the secant base + (eps / e1) (sol2(e1) - base), and with
    two from the Lagrange quadratic through (0, base), (e1, sol2(e1)) and
    (e2, sol2(e2)); distinct nonzero nodes never divide by zero.  Every
    solve still stops on the residual tolerance, so the pairs agree with
    cold-started ones to the accuracy that tolerance sets, in fewer sweeps;
    every eps is checked as in generate_pair before the first solve.
    """
    g = _experiment_grid(spec.problem, grid)
    eps_ladder = [_amplitude(f"eps_ladder[{i}]", e) for i, e in enumerate(eps_ladder)]
    base = None
    nodes: list = []  # (eps, sol2) of the last two distinct nonzero rungs
    out = []
    for eps in eps_ladder:
        sol1, sol2 = generate_pair(
            (spec.m0, spec.h),
            (spec.delta_m0, spec.delta_h),
            eps,
            spec.problem,
            grid=g,
            cfg=cfg,
            base_solution=base,
            start=_predict(eps, base, nodes),
        )
        base = sol1
        nodes = [] if eps == 0.0 else [n for n in nodes if n[0] != eps][-1:] + [(eps, sol2)]
        out.append((eps, (sol1, sol2)))
    return tuple(out)


def _predict(eps: float, base: Optional[MfgSolution], nodes: list):
    """The (u, m) at eps of the polynomial through (0, base) and the
    (e, sol2) nodes (distinct and nonzero), in the form
    base + sum_e L_e(eps) (sol2(e) - base) with the Lagrange weights L_e;
    None, the base itself, when there is no node."""
    if not nodes:
        return None
    weights = []
    for e, _ in nodes:
        w = eps / e
        for f, _ in nodes:
            if f != e:
                w *= (eps - f) / (e - f)
        weights.append(w)

    def along(b, fields):
        out = np.copy(b)  # keeps b's time-major layout
        for w, f in zip(weights, fields):
            out += w * (f - b)
        return out

    return (
        along(base.u.values, [sol.u.values for _, sol in nodes]),
        along(base.m.values, [sol.m.values for _, sol in nodes]),
    )


def _pair_diff(pair):
    """(u2 - u1, m2 - m1) of a solution pair, as arrays."""
    sol1, sol2 = pair
    return sol2.u.values - sol1.u.values, sol2.m.values - sol1.m.values


def _end_norms(u, m, coeff: DegenerateCoefficient, g: SpaceTimeGrid, order: int, col: int):
    """Weighted norms of (d/dt)^k u and (d/dt)^k m, k <= order, at the end
    column col (0 or -1).

    The value part is measured in H1(1/a), the density part in the H1(a)
    product norm; returns the two lists of per-order norms.  Only the
    order + 3 end columns are differentiated: the one-sided end stencils
    read no further.
    """
    nu = [weighted_norm(u[:, col], NormKind.H1_INV_A, coeff, g)]
    nm = [weighted_norm(m[:, col], NormKind.H1A_DIV, coeff, g)]
    ends = slice(None, order + 3) if col == 0 else slice(-order - 3, None)
    u, m = u[:, ends], m[:, ends]
    for k in range(1, order + 1):
        nu.append(weighted_norm(_dt_array(u, g.dt, k)[:, col], NormKind.H1_INV_A, coeff, g))
        nm.append(weighted_norm(_dt_array(m, g.dt, k)[:, col], NormKind.H1A_DIV, coeff, g))
    return nu, nm


def _setup(spec, t0, eps_ladder, grid, cfg, pairs, n_t_min=2, min_rungs=1, decades=0):
    """Every input check of a ladder, all before its first solve.  Returns the
    grid, the index k0 of its time nearest t0 (interior unless t0 = 0), the
    pairs (given ones are used as they are, on their own grid, which every
    solution and a given grid must share) and the warnings.  eps = 0 rungs
    are dropped with a warning each; the rest must be min_rungs or more
    distinct amplitudes spanning ``decades`` decades."""
    if pairs is not None and not pairs:
        raise ValueError("pairs is empty: a ladder needs at least one solution pair")
    g = pairs[0][1][0].u.grid if pairs else _experiment_grid(spec.problem, grid)
    if pairs and grid not in (None, g):
        raise ValueError(f"grid: {grid} != the pairs' grid {g}")
    for i, (_, sols) in enumerate(pairs or ()):  # a field off g raises ValueError
        for j, sol in enumerate(sols):
            for f in ("u", "m"):
                _traj(getattr(sol, f), g, f"pairs[{i}] sol{j + 1}.{f}")
    k0 = round(t0 / g.dt)  # the grid time the ladder measures at
    if t0 > 0.0 and not 0 < k0 < g.n_t:
        raise ValueError(f"t0={t0:g} is nearest the grid end t={g.t[k0]:g} at n_t={g.n_t}; "
                         "refine n_t or move t0 inward")
    if g.n_t < n_t_min:
        raise ValueError(f"n_t={g.n_t} is too coarse: the ladder needs n_t >= {n_t_min}")
    if pairs is not None:
        return g, k0, pairs, []
    eps = [_amplitude(f"eps_ladder[{i}]", e) for i, e in enumerate(eps_ladder)]
    warnings = ["eps=0 rung dropped: identical pair, log of zero"] * eps.count(0.0)
    eps = sorted(set(eps) - {0.0}, reverse=True)
    if not eps:
        raise ValueError("perturbation ladder is empty after dropping eps=0")
    if len(eps) < min_rungs or eps[0] / eps[-1] < 10.0**decades:
        raise ValueError(f"ladder must have >= {min_rungs} amplitudes "
                         f"spanning >= {decades} decades")
    return g, k0, build_ladder_pairs(spec, eps, grid=g, cfg=cfg), warnings


def _fit(points, warnings: list, min_points: int):
    """OLS slope/intercept of log err against log discrepancy."""
    if len(points) < min_points:
        warnings.append(
            f"only {len(points)} usable rungs; slope fit needs {min_points}"
        )
        return math.nan, math.nan
    lx = np.log([p[0] for p in points])
    ly = np.log([p[1] for p in points])
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


def _c_spread(cs) -> float:
    return max(cs) / min(cs) if min(cs) > 0.0 else math.inf


def _run_ladder(
    spec: BackwardExperimentSpec,
    g: SpaceTimeGrid,
    k0: int,
    pairs,
    warnings: list,
    *,
    mode: str,
    t0: float,
    theta: float,
    alpha: float,
    order: int,
    rung_rule: Callable,
    min_points: int,
    stable: Callable,
) -> StabilityResult:
    """The rung loop of both stability experiments, on what _setup checked.

    Per rung: D0, the first-order discrepancy at t = T; disc, which adds time
    derivatives up to ``order`` (recorded as D when order > 0); and err, the
    weak-norm difference at the grid time t[k0].  M is the largest
    initial-state norm, with time derivatives up to ``order``, over every
    solution of the ladder, so every rung sees the M the result reports.
    ``rung_rule(disc, err, M)`` gives (s_star, c_envelope, note); a nonempty
    note rejects the rung.  The fit of log err against log disc needs
    ``min_points`` accepted rungs, and ``stable`` judges the rung constants.
    """
    problem = spec.problem
    coeff = problem.coeff
    t0_used = float(g.t[k0])
    M = 0.0
    for sol in {id(s): s for _, pair in pairs for s in pair}.values():
        nu, nm = _end_norms(sol.u.values, sol.m.values, coeff, g, order, 0)
        M = max(M, sum(nu), sum(nm))
    rungs = []
    accepted = []
    for eps, pair in pairs:
        du, dm = _pair_diff(pair)
        nu, nm = _end_norms(du, dm, coeff, g, order, -1)
        D0 = nu[0] + nm[0]
        disc = sum(nu) + sum(nm)
        err = weighted_norm(du[:, k0], NormKind.L2_INV_A, coeff, g) + weighted_norm(
            dm[:, k0], NormKind.L2_A, coeff, g
        )
        if disc <= 0.0:
            s_star, c_env, note = math.nan, math.nan, "zero discrepancy"
        else:
            s_star, c_env, note = rung_rule(disc, err, M)
        D = disc if order else math.nan
        rungs.append(LadderRung(eps, D0, err, s_star, c_env, D, t0_used, not note, note))
        if not note:
            accepted.append((disc, err, c_env))
    if not accepted:
        notes = ", ".join(f"eps={r.eps:g} ({r.note})" for r in rungs)
        raise ValueError(f"no rung accepted: {notes}")
    if max(d for d, _, _ in accepted) < 1e-14:
        raise ValueError("degenerate ladder: every discrepancy is below 1e-14")
    slope, intercept = _fit(
        [(d, e) for d, e, _ in accepted if e > 0.0], warnings, min_points
    )
    cs = [c for _, _, c in accepted]
    return StabilityResult(
        mode=mode,
        inputs=StabilityInputs(t0=t0, M=M, lam=problem.lam, T=problem.T),
        theta=theta,
        alpha=alpha,
        rungs=tuple(rungs),
        slope=slope,
        intercept=intercept,
        C_fit=max(cs),
        c_spread=_c_spread(cs),
        envelope_stable=stable(cs),
        warnings=tuple(warnings),
    )


def run_holder_experiment(
    spec: BackwardExperimentSpec,
    t0: float,
    eps_ladder: Sequence[float] = DEFAULT_HOLDER_LADDER,
    grid: Optional[SpaceTimeGrid] = None,
    cfg: IterConfig = IterConfig(),
    pairs=None,
) -> StabilityResult:
    """Interior-time stability ladder against the Holder envelope.

    For each amplitude, measures D0 (first-order discrepancy of the pair at
    t = T) and err (weak-norm difference at the grid time nearest t0), fits
    log err against log D0, and reports C_fit = max err / (D0^theta + D0)
    together with the spread of the per-rung constants (envelope_stable means
    every rung's constant stays within 50 percent of C_fit).  Precomputed
    ``pairs`` from build_ladder_pairs are reused as-is, since pairs are
    independent of t0; they must all be on one grid, ``grid`` when given.
    """
    T, lam = spec.problem.T, spec.problem.lam
    if not (0.0 < t0 < T):
        raise ValueError("t0 must lie strictly inside (0, T)")
    alpha, denom = _holder_rate(t0, T, lam)
    theta = alpha / denom
    setup = _setup(spec, t0, eps_ladder, grid, cfg, pairs, min_rungs=4, decades=2)

    def rung_rule(D0, err, M):
        return optimal_s(M, D0, t0, T, lam), err / (D0**theta + D0), ""

    return _run_ladder(
        spec,
        *setup,
        mode="holder",
        t0=t0,
        theta=theta,
        alpha=alpha,
        order=0,
        rung_rule=rung_rule,
        min_points=4,
        stable=lambda cs: min(cs) >= 0.5 * max(cs),
    )


def run_log_experiment(
    spec: BackwardExperimentSpec,
    alpha: float = 0.5,
    eps_ladder: Sequence[float] = DEFAULT_LOG_LADDER,
    grid: Optional[SpaceTimeGrid] = None,
    cfg: IterConfig = IterConfig(),
    pairs=None,
) -> StabilityResult:
    """Initial-time stability ladder against the logarithmic envelope.

    Per rung: D is the second-order data discrepancy at t = T (rungs with
    D >= 1 are rejected with guidance, the estimate assumes D < 1) and err is
    the weak-norm difference at t = 0; the rung constant is
    err * (log 1/D)^alpha and s_star = (log 1/D)^alpha is the proof's weight
    choice.  envelope_stable uses the documented loose factor of 10:
    logarithmic envelopes are nearly flat across any practical ladder, so
    tighter thresholds would reject honest runs.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    setup = _setup(spec, 0.0, eps_ladder, grid, cfg, pairs, n_t_min=_LOG_N_T_MIN)

    def rung_rule(D, err, M):
        if D >= 1.0:
            note = f"data norm D={D:.3g} >= 1; shrink the perturbation amplitude"
            return math.nan, math.nan, note
        s_star = math.log(1.0 / D) ** alpha
        return s_star, err * s_star, ""

    return _run_ladder(
        spec,
        *setup,
        mode="log",
        t0=0.0,
        theta=0.0,
        alpha=alpha,
        order=_LOG_ORDER,
        rung_rule=rung_rule,
        min_points=2,
        stable=lambda cs: _c_spread(cs) < 10.0,
    )
