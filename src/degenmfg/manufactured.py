"""Manufactured exact solutions and grid convergence studies.

Every case here is built from closed-form factors with hand-coded first and
second derivatives, combined by product and sum rules.  Sources are then
assembled so that the chosen fields solve the scalar or coupled systems
exactly, which turns every solver into a measurable approximation of a known
function.  Space factors always carry the diffusion coefficient (or vanish at
an end where the diffusion does not), so the fields respect the boundary
closures of the schemes.

Each field of a case (u, m and the sources F, G) is one list of separable
terms, (time profile) x (space profile), grouped by time profile: a source
has at most four.  Point evaluation sums the products term by term; grid
sampling evaluates each profile once on the nodes or levels and sums the
outer products into one time-major array, bitwise the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from degenmfg.domain import (
    DegenerateCoefficient,
    SpaceTimeField,
    SpaceTimeGrid,
    _empty,
)
from degenmfg.mfg import (
    _LINEAR_KEYS,
    _NONLINEAR_KEYS,
    IterConfig,
    MfgCoefficients,
    solve_linearized_mfg,
    solve_nonlinear_mfg,
)
from degenmfg.solvers import (
    FpLinearProblem,
    HjbLinearProblem,
    SolverError,
    solve_fp_linear,
    solve_hjb_linear,
)

__all__ = [
    "Smooth",
    "smooth_const",
    "smooth_linear",
    "smooth_power",
    "smooth_sin",
    "smooth_cos",
    "smooth_exp",
    "coeff_smooth",
    "ManufacturedCase",
    "make_case",
    "catalog",
    "solve_case",
    "ConvergenceResult",
    "convergence_study",
    "SPACE_LADDER",
    "TIME_LADDER",
]


@dataclass(frozen=True)
class Smooth:
    """A scalar function bundled with its first two derivatives.

    Supports * (product rule) and scalar multiples, so composite
    profiles keep exact derivatives without symbolic machinery.
    """

    f: Callable
    f1: Callable
    f2: Callable

    def __mul__(self, other):
        s = self
        if isinstance(other, Smooth):
            o = other
            return Smooth(
                lambda x: s.f(x) * o.f(x),
                lambda x: s.f1(x) * o.f(x) + s.f(x) * o.f1(x),
                lambda x: s.f2(x) * o.f(x) + 2.0 * s.f1(x) * o.f1(x) + s.f(x) * o.f2(x),
            )
        c = float(other)
        return Smooth(lambda x: c * s.f(x), lambda x: c * s.f1(x), lambda x: c * s.f2(x))

    __rmul__ = __mul__


def smooth_const(c: float) -> Smooth:
    c = float(c)
    return Smooth(
        lambda x: np.full_like(np.asarray(x, dtype=float), c),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def smooth_linear(c0: float, c1: float) -> Smooth:
    c0, c1 = float(c0), float(c1)
    return Smooth(
        lambda x: c0 + c1 * np.asarray(x, dtype=float),
        lambda x: np.full_like(np.asarray(x, dtype=float), c1),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def smooth_power(p: float, q: float) -> Smooth:
    """x^p (1-x)^q with derivatives; zero-coefficient terms are skipped.

    Skipping matters: a literal p(p-1) x^(p-2) at p = 1 would evaluate
    0 * x^(-1), which is fine on interior nodes but fragile in general.
    """
    p, q = float(p), float(q)

    def term(cf, pp, qq):
        if cf == 0.0:
            return None
        return lambda x: cf * x ** pp * (1.0 - x) ** qq

    def combine(parts):
        live = [t for t in parts if t is not None]
        if not live:
            return lambda x: np.zeros_like(np.asarray(x, dtype=float))
        return lambda x: sum(t(np.asarray(x, dtype=float)) for t in live)

    f = combine([term(1.0, p, q)])
    f1 = combine([term(p, p - 1.0, q), term(-q, p, q - 1.0)])
    f2 = combine(
        [
            term(p * (p - 1.0), p - 2.0, q),
            term(-2.0 * p * q, p - 1.0, q - 1.0),
            term(q * (q - 1.0), p, q - 2.0),
        ]
    )
    return Smooth(f, f1, f2)


def smooth_sin(omega: float) -> Smooth:
    w = float(omega)
    return Smooth(
        lambda x: np.sin(w * np.asarray(x, dtype=float)),
        lambda x: w * np.cos(w * np.asarray(x, dtype=float)),
        lambda x: -w * w * np.sin(w * np.asarray(x, dtype=float)),
    )


def smooth_cos(omega: float) -> Smooth:
    w = float(omega)
    return Smooth(
        lambda x: np.cos(w * np.asarray(x, dtype=float)),
        lambda x: -w * np.sin(w * np.asarray(x, dtype=float)),
        lambda x: -w * w * np.cos(w * np.asarray(x, dtype=float)),
    )


def smooth_exp(rate: float) -> Smooth:
    r = float(rate)
    return Smooth(
        lambda x: np.exp(r * np.asarray(x, dtype=float)),
        lambda x: r * np.exp(r * np.asarray(x, dtype=float)),
        lambda x: r * r * np.exp(r * np.asarray(x, dtype=float)),
    )


_ZERO = smooth_const(0.0)


def coeff_smooth(coeff: DegenerateCoefficient) -> Smooth:
    """The diffusion coefficient as a Smooth: its own closed forms a, a_x and
    a_xx, so the manufactured sources use the a(x) the solvers use."""
    return Smooth(coeff.a, coeff.a_x, coeff.a_xx)


_TAGS = ("hjb", "fp", "mfg_linear", "mfg_nonlinear")


def _evaluate_terms(terms, x, t):
    """The sum of time(t) * space(x) over separable terms, left to right;
    x and t may be scalars or broadcastable arrays."""
    (time, space), *rest = terms
    out = time(t) * space(x)
    for time, space in rest:
        out = out + time(t) * space(x)
    return out


def _sample_terms(terms, grid: SpaceTimeGrid) -> np.ndarray:
    """The sum of separable terms on the grid, each term the outer product of
    its space profile at the nodes and its time profile at the levels,
    written straight into a time-major array.  Bitwise _evaluate_terms at
    (x[:, None], t[None, :]): the same products, summed in the same order."""
    (time, space), *rest = terms
    out = np.multiply.outer(space(grid.x), time(grid.t), out=_empty(grid.shape))
    if rest:
        term = _empty(grid.shape)
        for time, space in rest:
            out += np.multiply.outer(space(grid.x), time(grid.t), out=term)
    return out


@dataclass(frozen=True)
class ManufacturedCase:
    """One exact-solution scenario: fields, coefficients, and sources.

    The value field is u(x,t) = Tu(t) U(x) and the density m(x,t) = Tm(t) V(x);
    time and space factors are Smooths, as are all spatial coefficients.  The
    sources F and G are derived so the pair solves the system named by ``tag``
    exactly.

    ``terms`` holds, for each of u, m, F and G, its one formula: a list of
    separable terms (time profile, space profile), each a function of one
    variable, whose products sum to the field.  A source has at most four
    terms, one per distinct time profile.  The point evaluators and the grid
    samplers both read these lists.  The record is frozen, so ``terms``
    stays that of its factors; dataclasses.replace builds a changed case.
    """

    name: str
    tag: str
    coeff: DegenerateCoefficient
    Tu: Smooth = _ZERO
    U: Smooth = _ZERO
    Tm: Smooth = _ZERO
    V: Smooth = _ZERO
    d1: Smooth = _ZERO
    d2: Smooth = _ZERO
    c1: Smooth = _ZERO
    b: Smooth = _ZERO
    c2: Smooth = _ZERO
    rho: Smooth = _ZERO
    p: Smooth = _ZERO
    d: Smooth = _ZERO
    T: float = 1.0
    A: Smooth = field(init=False)
    W: Smooth = field(init=False)
    terms: dict = field(init=False, repr=False)

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"tag must be one of {_TAGS}")
        object.__setattr__(self, "A", coeff_smooth(self.coeff))
        # product field a(x) V(x); its second derivative is exactly (am)_xx / Tm
        object.__setattr__(self, "W", self.A * self.V)
        terms = {"u": [(self.Tu.f, self.U.f)], "m": [(self.Tm.f, self.V.f)],
                 "F": self._F_terms(), "G": self._G_terms()}
        object.__setattr__(self, "terms", terms)

    @property
    def hypotheses_ok(self) -> bool:
        """Whether the intrinsic slope ratio |a_x| / sqrt(a) stays bounded
        near the boundary, as downstream weighted estimates assume: false
        only for the Wright-Fischer diffusion, whose square-root degeneracy
        fails it."""
        return self.coeff.family != "wright_fischer"

    def _F_terms(self):
        """F = u_t + a u_xx + d1 u_x - d2 m (the d2 term for mfg_linear only),
        or u_t + a u_xx - (p/2) u_x^2 + d m for mfg_nonlinear."""
        Tu, U, Tm, V, A = self.Tu, self.U, self.Tm, self.V, self.A
        terms = [(Tu.f1, U.f)]
        if self.tag == "mfg_nonlinear":
            p, d = self.p, self.d
            return terms + [
                (Tu.f, lambda x: A.f(x) * U.f2(x)),
                (lambda t: Tu.f(t) ** 2, lambda x: -0.5 * p.f(x) * U.f1(x) ** 2),
                (Tm.f, lambda x: d.f(x) * V.f(x)),
            ]
        d1, d2 = self.d1, self.d2
        terms.append((Tu.f, lambda x: A.f(x) * U.f2(x) + d1.f(x) * U.f1(x)))
        if self.tag == "mfg_linear":
            terms.append((Tm.f, lambda x: -d2.f(x) * V.f(x)))
        return terms

    def _G_terms(self):
        """G = m_t - (am)_xx + c1 m_x - b m - c2 u_x - rho u_xx (the u terms
        for mfg_linear only), or m_t - (am)_xx - (p m u_x)_x for
        mfg_nonlinear."""
        Tu, U, Tm, V, W = self.Tu, self.U, self.Tm, self.V, self.W
        terms = [(Tm.f1, V.f)]
        if self.tag == "mfg_nonlinear":
            p = self.p
            return terms + [
                (Tm.f, lambda x: -W.f2(x)),
                (lambda t: Tm.f(t) * Tu.f(t),
                 lambda x: -(p.f1(x) * V.f(x) * U.f1(x) + p.f(x) * V.f1(x) * U.f1(x)
                             + p.f(x) * V.f(x) * U.f2(x))),
            ]
        c1, b = self.c1, self.b
        terms.append((Tm.f, lambda x: c1.f(x) * V.f1(x) - b.f(x) * V.f(x) - W.f2(x)))
        if self.tag == "mfg_linear":
            c2, rho = self.c2, self.rho
            terms.append((Tu.f, lambda x: -(c2.f(x) * U.f1(x) + rho.f(x) * U.f2(x))))
        return terms

    # point evaluators; x and t may be scalars or broadcastable arrays
    def u(self, x, t):
        return _evaluate_terms(self.terms["u"], x, t)

    def u_x(self, x, t):
        return self.Tu.f(t) * self.U.f1(x)

    def u_xx(self, x, t):
        return self.Tu.f(t) * self.U.f2(x)

    def u_t(self, x, t):
        return self.Tu.f1(t) * self.U.f(x)

    def m(self, x, t):
        return _evaluate_terms(self.terms["m"], x, t)

    def m_x(self, x, t):
        return self.Tm.f(t) * self.V.f1(x)

    def m_t(self, x, t):
        return self.Tm.f1(t) * self.V.f(x)

    def am_xx(self, x, t):
        return self.Tm.f(t) * self.W.f2(x)

    def F(self, x, t):
        """Value-equation source making the exact fields solve the system."""
        return _evaluate_terms(self.terms["F"], x, t)

    def G(self, x, t):
        """Density-equation source for the exact fields."""
        return _evaluate_terms(self.terms["G"], x, t)

    # grid samplers
    def exact_u(self, grid: SpaceTimeGrid) -> SpaceTimeField:
        return SpaceTimeField(_sample_terms(self.terms["u"], grid), grid)

    def exact_m(self, grid: SpaceTimeGrid) -> SpaceTimeField:
        return SpaceTimeField(_sample_terms(self.terms["m"], grid), grid)

    def source_F(self, grid: SpaceTimeGrid) -> SpaceTimeField:
        return SpaceTimeField(_sample_terms(self.terms["F"], grid), grid)

    def source_G(self, grid: SpaceTimeGrid) -> SpaceTimeField:
        return SpaceTimeField(_sample_terms(self.terms["G"], grid), grid)

    def terminal(self, grid: SpaceTimeGrid) -> np.ndarray:
        return np.asarray(self.u(grid.x, self.T), dtype=float)

    def initial(self, grid: SpaceTimeGrid) -> np.ndarray:
        return np.asarray(self.m(grid.x, 0.0), dtype=float)

    def coefficients_on(self, grid: SpaceTimeGrid) -> MfgCoefficients:
        layers = {k: getattr(self, k).f for k in _NONLINEAR_KEYS + _LINEAR_KEYS}
        return MfgCoefficients(self.coeff, grid, **layers)


def _power22():
    return DegenerateCoefficient.power(2.0, 2.0)


def _wf():
    return DegenerateCoefficient.wright_fischer()


_CATALOG = {
    # scalar backward cases
    "decay-bubble": lambda: ManufacturedCase(
        name="decay-bubble",
        tag="hjb",
        coeff=_wf(),
        Tu=smooth_exp(-1.0),
        U=smooth_power(1.0, 1.0),
    ),
    "drifted-well": lambda: ManufacturedCase(
        name="drifted-well",
        tag="hjb",
        coeff=_power22(),
        Tu=smooth_exp(-0.5),
        U=smooth_power(2.0, 2.0) * smooth_linear(1.0, 0.5),
        d1=0.3 * smooth_power(1.0, 1.0),
    ),
    "cosine-decay": lambda: ManufacturedCase(
        name="cosine-decay",
        tag="hjb",
        coeff=DegenerateCoefficient.quadratic_oil(1.0),
        Tu=smooth_cos(1.0),
        U=smooth_power(2.0, 1.0),
        d1=0.2 * smooth_linear(0.0, 1.0),
    ),
    # scalar forward cases
    "spreading-ridge": lambda: ManufacturedCase(
        name="spreading-ridge",
        tag="fp",
        coeff=_power22(),
        Tm=smooth_cos(3.0),
        # cubic wall contact: m = v/a amplifies boundary-row truncation by 1/a
        V=smooth_power(3.0, 3.0) * smooth_linear(1.0, 1.0),
        c1=0.25 * smooth_power(1.0, 1.0),
        b=0.5 * smooth_cos(2.0),
    ),
    "wf-pulse": lambda: ManufacturedCase(
        name="wf-pulse",
        tag="fp",
        coeff=_wf(),
        Tm=smooth_exp(-0.7),
        V=smooth_power(2.0, 2.0),
        c1=0.3 * smooth_power(1.0, 1.0),
        b=smooth_const(0.4),
    ),
    "oil-drift": lambda: ManufacturedCase(
        name="oil-drift",
        tag="fp",
        coeff=DegenerateCoefficient.quadratic_oil(1.2),
        Tm=smooth_cos(2.0),
        V=smooth_power(2.0, 1.0),
        c1=0.2 * smooth_linear(0.0, 1.0),
        b=0.3 * smooth_linear(1.0, -1.0),
    ),
    # coupled, linearized template
    "coupled-mild": lambda: ManufacturedCase(
        name="coupled-mild",
        tag="mfg_linear",
        coeff=_power22(),
        Tu=smooth_exp(-1.0),
        U=smooth_power(2.0, 2.0),
        Tm=smooth_cos(3.0),
        V=smooth_power(3.0, 3.0) * smooth_linear(1.0, 1.0),
        d1=0.3 * smooth_power(1.0, 1.0),
        d2=0.2 * smooth_power(2.0, 2.0),
        c1=0.25 * smooth_power(1.0, 1.0),
        b=smooth_const(0.4),
        c2=0.3 * smooth_cos(1.0),
        rho=0.1 * smooth_power(1.0, 1.0),
    ),
    "coupled-wf": lambda: ManufacturedCase(
        name="coupled-wf",
        tag="mfg_linear",
        coeff=_wf(),
        Tu=smooth_exp(-1.0),
        U=smooth_power(1.0, 1.0) * smooth_linear(1.0, 0.5),
        Tm=smooth_exp(-0.4),
        V=smooth_power(1.0, 1.0),
        d1=0.2 * smooth_power(1.0, 1.0),
        d2=0.3 * smooth_power(1.0, 1.0),
        c1=0.2 * smooth_power(1.0, 1.0),
        b=smooth_const(0.25),
        c2=0.2 * smooth_sin(1.0),
        rho=0.15 * smooth_power(1.0, 1.0),
    ),
    "coupled-oil": lambda: ManufacturedCase(
        name="coupled-oil",
        tag="mfg_linear",
        coeff=DegenerateCoefficient.quadratic_oil(1.2),
        Tu=smooth_cos(0.6),
        U=smooth_power(2.0, 1.0),
        Tm=smooth_exp(-0.5),
        V=smooth_power(2.0, 1.0) * smooth_linear(1.0, 0.5),
        d1=0.25 * smooth_linear(0.0, 1.0),
        d2=0.2 * smooth_power(2.0, 0.0),
        c1=0.2 * smooth_linear(0.0, 1.0),
        b=0.3 * smooth_cos(1.0),
        c2=0.25 * smooth_linear(1.0, -1.0),
        rho=0.1 * smooth_power(2.0, 0.0),
    ),
    # coupled, quadratic Hamiltonian
    "quad-hamiltonian": lambda: ManufacturedCase(
        name="quad-hamiltonian",
        tag="mfg_nonlinear",
        coeff=_power22(),
        Tu=smooth_exp(-1.0),
        U=smooth_power(2.0, 2.0),
        Tm=smooth_cos(3.0),
        V=smooth_power(3.0, 3.0) * smooth_linear(1.0, 1.0),
        p=0.5 * smooth_power(1.0, 1.0),
        d=0.4 * smooth_power(2.0, 2.0),
    ),
    "wf-game": lambda: ManufacturedCase(
        name="wf-game",
        tag="mfg_nonlinear",
        coeff=_wf(),
        Tu=smooth_exp(-0.5),
        U=smooth_power(1.0, 1.0),
        Tm=smooth_exp(-1.0),
        V=smooth_power(1.0, 1.0) * smooth_linear(1.0, 1.0),
        p=0.3 * smooth_power(1.0, 1.0),
        d=0.3 * smooth_power(1.0, 1.0),
    ),
    "oil-game": lambda: ManufacturedCase(
        name="oil-game",
        tag="mfg_nonlinear",
        coeff=DegenerateCoefficient.quadratic_oil(1.0),
        Tu=smooth_cos(0.7),
        U=smooth_power(2.0, 1.0),
        Tm=smooth_exp(-0.4),
        V=smooth_power(2.0, 1.0),
        p=0.25 * smooth_linear(0.0, 1.0),
        d=0.3 * smooth_power(2.0, 0.0),
    ),
    # trivial data, exact zero solution
    "zero": lambda: ManufacturedCase(
        name="zero",
        tag="mfg_linear",
        coeff=_wf(),
    ),
}


def make_case(name: str) -> ManufacturedCase:
    try:
        builder = _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise KeyError(f"unknown case {name!r}; known cases: {known}") from None
    return builder()


def catalog() -> tuple:
    """All case names, scalar cases first."""
    return tuple(_CATALOG)


# (n_x, n_t) ladders; the space ladder refines dt like h^2 so the first-order
# time error cannot mask the second-order space error, the time ladder holds
# the mesh fine and fixed
SPACE_LADDER = ((64, 32), (128, 128), (256, 512))
TIME_LADDER = ((256, 128), (256, 256), (256, 512))


@dataclass(frozen=True)
class ConvergenceResult:
    """A refinement study; ``sweeps`` holds each level's Picard sweeps (0 for
    scalar cases, which solve directly)."""

    case_name: str
    mode: str
    levels: tuple
    errors: tuple
    rates: tuple
    observed_order: float
    exact: bool
    sweeps: tuple


def solve_case(case: ManufacturedCase, grid: SpaceTimeGrid, cfg: IterConfig = IterConfig()):
    """Run the solver matching the case tag; returns (u or None, m or None)."""
    return _solve_case(case, grid, cfg)[:2]


def _solve_case(
    case: ManufacturedCase, grid: SpaceTimeGrid, cfg: IterConfig, start=None
):
    """solve_case, plus the sources it sampled and the Picard sweeps:
    (u, m, F, G, sweeps), None where unused and 0 sweeps for scalar cases.
    A coupled solve starts from ``start`` (zeros when None)."""
    F = case.source_F(grid) if case.tag != "fp" else None
    G = case.source_G(grid) if case.tag != "hjb" else None
    if case.tag == "hjb":
        prob = HjbLinearProblem(
            grid,
            case.coeff,
            drift=case.d1.f,
            source=F,
            terminal=case.terminal(grid),
        )
        return solve_hjb_linear(prob), None, F, G, 0
    if case.tag == "fp":
        prob = FpLinearProblem(
            grid,
            case.coeff,
            convection=case.c1.f,
            zeroth=case.b.f,
            source=G,
            initial=case.initial(grid),
        )
        return None, solve_fp_linear(prob), F, G, 0
    coeffs = case.coefficients_on(grid)
    solver = solve_linearized_mfg if case.tag == "mfg_linear" else solve_nonlinear_mfg
    sol = solver(
        coeffs,
        F=F,
        G=G,
        m0=case.initial(grid),
        h=case.terminal(grid),
        cfg=cfg,
        start=start,
    )
    if not sol.converged:
        raise SolverError(
            f"case {case.name}: coupled sweep did not converge on grid "
            f"(n_x, n_t) = ({grid.n_x}, {grid.n_t})"
        )
    return sol.u, sol.m, F, G, sol.sweeps


def _max_error(case: ManufacturedCase, grid: SpaceTimeGrid, u, m) -> float:
    err = 0.0
    for got, key in ((u, "u"), (m, "m")):
        if got is not None:
            exact = _sample_terms(case.terms[key], grid)
            err = max(err, float(np.max(np.abs(got.values - exact))))
    return err


def _prolong(fields, old: SpaceTimeGrid, new: SpaceTimeGrid) -> tuple:
    """Trajectories on ``old`` carried to ``new`` by separable linear
    interpolation: in x over the cell centres (the end intervals extended
    linearly past the outer centres), then in t.

    Rows and columns are gathered by index; two interpolation matrices
    (P_x @ v @ P_t.T) would touch BLAS work buffers, which cost more resident
    memory than the gathered copies.
    """
    nodes = []
    for src, dst in ((old.x, new.x), (old.t, new.t)):
        j = np.clip(np.searchsorted(src, dst) - 1, 0, src.size - 2)
        nodes.append((j, (dst - src[j]) / (src[j + 1] - src[j])))
    (jx, wx), (jt, wt) = nodes
    wx = wx[:, None]

    def rows(v, j):  # a row gather keeps the time-major layout
        return np.take(v, j, axis=0, out=_empty((j.size, v.shape[1])))

    out = []
    for v in fields:
        v = rows(v, jx) * (1.0 - wx) + rows(v, jx + 1) * wx
        out.append(v[:, jt] * (1.0 - wt) + v[:, jt + 1] * wt)
    return tuple(out)


def convergence_study(
    case: ManufacturedCase,
    mode: str = "space",
    ladder: Optional[tuple] = None,
    cfg: IterConfig = IterConfig(),
) -> ConvergenceResult:
    """Errors, pairwise rates, and a fitted order over a refinement ladder.

    mode="space" fits against h (the ladder refines dt like h^2 so the fit
    isolates the spatial order); mode="time" fits against dt on a fixed fine
    mesh.  An exactly reproduced solution (all errors at rounding level)
    short-circuits to observed_order = inf with the exact flag set.  Adjacent
    levels with the same fitted step (n_x in space mode, n_t in time mode)
    have no rate, and a ladder of fewer than two levels has no fit: both
    raise ValueError before any solve.

    The levels are solved in ladder order.  A coupled level after the first
    starts from the previous level's (u, m), linearly interpolated to its
    grid (nested iteration): it still stops on the same residual tolerance,
    in fewer sweeps.  Scalar cases solve each level directly.
    """
    if mode not in ("space", "time"):
        raise ValueError("mode must be 'space' or 'time'")
    if ladder is None:
        ladder = SPACE_LADDER if mode == "space" else TIME_LADDER
    grids = [SpaceTimeGrid(n_x, n_t, case.T) for n_x, n_t in ladder]
    if len(grids) < 2:
        raise ValueError(f"a ladder needs at least two levels to fit an order, got {len(grids)}")
    fitted = "n_x" if mode == "space" else "n_t"
    for i, (a, b) in enumerate(zip(grids, grids[1:])):
        if getattr(a, fitted) == getattr(b, fitted):
            raise ValueError(f"levels {i} and {i + 1} share {fitted} = {getattr(a, fitted)}; "
                             f"a {mode} ladder must change {fitted} between adjacent levels")
    errors, sweeps = [], []
    start = None
    for i, g in enumerate(grids):
        u, m, _, _, n = _solve_case(case, g, cfg, start)
        errors.append(_max_error(case, g, u, m))
        sweeps.append(n)
        start = None
        if n and i + 1 < len(grids):
            start = _prolong((u.values, m.values), g, grids[i + 1])
        del u, m  # this level's fields go before the next solve
    steps = [g.h if mode == "space" else g.dt for g in grids]
    if max(errors) < 1e-13:
        return ConvergenceResult(
            case.name, mode, tuple(ladder), tuple(errors), (), math.inf, True,
            tuple(sweeps),
        )
    rates = tuple(
        math.log(errors[i] / errors[i + 1]) / math.log(steps[i] / steps[i + 1])
        for i in range(len(errors) - 1)
    )
    slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    return ConvergenceResult(
        case.name, mode, tuple(ladder), tuple(errors), rates, slope, False,
        tuple(sweeps),
    )
