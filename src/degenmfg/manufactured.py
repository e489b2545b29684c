"""Manufactured exact solutions and grid convergence studies.

Every case here is built from closed-form factors with hand-coded first and
second derivatives, combined by product and sum rules.  Sources are then
assembled so that the chosen fields solve the scalar or coupled systems
exactly, which turns every solver into a measurable approximation of a known
function.  Space factors always carry the diffusion coefficient (or vanish at
an end where the diffusion does not), so the fields respect the boundary
closures of the schemes.

Every field of a case (u, m, the derivatives u_x, u_xx, u_t, m_x, m_t and
(am)_xx, and the sources F, G) is one list of separable terms, (time
profile) x (space profile): a source has at most four, one per time profile.
A profile reads the case's factors by name (W = a V among them, which lives
only there) from a table of their values at one node array, which computes
each factor's f, f1 and f2 there at most once.  Point evaluation sums the
products term by term; grid sampling evaluates each profile once on the
nodes or levels and sums their outer products, each an einsum written
straight into a time-major array, bitwise the same numbers (einsum adds
into a zeroed output, so a -0.0 product would read +0.0; no catalog case
has one).

A convergence study evaluates every factor once per level: the level's two
tables give its sources, its terminal and initial slices, its coefficient
profiles and the exact fields its error is measured against, and go with
the level.  A coupled level after the first starts from the previous
level's solution, interpolated only along the axes whose nodes change.
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

            def part(k):
                return lambda x: _product_rule(k, lambda j: s._d(j)(x), lambda j: o._d(j)(x))
            return Smooth(part(0), part(1), part(2))
        c = float(other)
        return Smooth(lambda x: c * s.f(x), lambda x: c * s.f1(x), lambda x: c * s.f2(x))

    __rmul__ = __mul__

    def _d(self, k: int) -> Callable:
        """The k-th derivative, k = 0, 1 or 2."""
        return (self.f, self.f1, self.f2)[k]


def _product_rule(k: int, s: Callable, o: Callable):
    """The k-th derivative (k = 0, 1 or 2) of a product, from s(j) and o(j),
    its factors' j-th derivatives: the one expression of Smooth's * and of
    the factor tables' W = A V."""
    if k == 0:
        return s(0) * o(0)
    if k == 1:
        return s(1) * o(0) + s(0) * o(1)
    return s(2) * o(0) + 2.0 * s(1) * o(1) + s(0) * o(2)


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


class _Factors:
    """The factors of one case at one node array.

    Entry (name, k) is the k-th derivative of the case's Smooth ``name``
    (Tu, U, Tm, V, A or a coefficient profile) at the nodes, computed on
    first use and kept: each is evaluated at most once.  W = A V lives only
    here, formed from A's and V's entries by _product_rule.
    A table serves one evaluation or one grid level and goes with it.
    """

    def __init__(self, case, nodes):
        self._case, self._nodes, self._values = case, nodes, {}

    def __call__(self, name: str, k: int = 0):
        key = (name, k)
        if key not in self._values:
            if name == "W":
                value = _product_rule(k, lambda j: self("A", j), lambda j: self("V", j))
            else:
                value = getattr(self._case, name)._d(k)(self._nodes)
            self._values[key] = value
        return self._values[key]


def _factor(name: str, k: int = 0) -> Callable:
    """The profile that is one factor's k-th derivative."""
    return lambda e: e(name, k)


def _F_terms(tag: str) -> list:
    """F = u_t + a u_xx + d1 u_x - d2 m (the d2 term for mfg_linear only),
    or u_t + a u_xx - (p/2) u_x^2 + d m for mfg_nonlinear."""
    terms = [(_factor("Tu", 1), _factor("U"))]
    if tag == "mfg_nonlinear":
        return terms + [
            (_factor("Tu"), lambda e: e("A") * e("U", 2)),
            (lambda e: e("Tu") ** 2, lambda e: -0.5 * e("p") * e("U", 1) ** 2),
            (_factor("Tm"), lambda e: e("d") * e("V")),
        ]
    terms.append((_factor("Tu"), lambda e: e("A") * e("U", 2) + e("d1") * e("U", 1)))
    if tag == "mfg_linear":
        terms.append((_factor("Tm"), lambda e: -e("d2") * e("V")))
    return terms


def _G_terms(tag: str) -> list:
    """G = m_t - (am)_xx + c1 m_x - b m - c2 u_x - rho u_xx (the u terms
    for mfg_linear only), or m_t - (am)_xx - (p m u_x)_x for
    mfg_nonlinear; (am)_xx is Tm W''."""
    terms = [(_factor("Tm", 1), _factor("V"))]
    if tag == "mfg_nonlinear":
        return terms + [
            (_factor("Tm"), lambda e: -e("W", 2)),
            (lambda e: e("Tm") * e("Tu"),
             lambda e: -(e("p", 1) * e("V") * e("U", 1) + e("p") * e("V", 1) * e("U", 1)
                         + e("p") * e("V") * e("U", 2))),
        ]
    terms.append((_factor("Tm"), lambda e: e("c1") * e("V", 1) - e("b") * e("V") - e("W", 2)))
    if tag == "mfg_linear":
        terms.append((_factor("Tu"), lambda e: -(e("c2") * e("U", 1) + e("rho") * e("U", 2))))
    return terms


# the one-term fields: (time factor, derivative, space factor, derivative)
_PRODUCTS = {
    "u": ("Tu", 0, "U", 0), "u_x": ("Tu", 0, "U", 1), "u_xx": ("Tu", 0, "U", 2),
    "u_t": ("Tu", 1, "U", 0), "m": ("Tm", 0, "V", 0), "m_x": ("Tm", 0, "V", 1),
    "m_t": ("Tm", 1, "V", 0), "am_xx": ("Tm", 0, "W", 2),
}

# each tag's formulas: every field as a list of separable terms
_TERMS = {
    tag: {**{key: [(_factor(t, i), _factor(s, j))] for key, (t, i, s, j) in _PRODUCTS.items()},
          "F": _F_terms(tag), "G": _G_terms(tag)}
    for tag in _TAGS
}


def _evaluate_terms(terms, xs, ts):
    """The sum of time * space over separable terms, left to right, each
    profile read from xs (the factors at the x points) or ts (at the t
    points); the points may be scalars or broadcastable arrays."""
    (time, space), *rest = terms
    out = time(ts) * space(xs)
    for time, space in rest:
        out = out + time(ts) * space(xs)
    return out


class _Level:
    """A case on one grid: the fields a solve and its error need, all built
    from one table of the case's factors at the nodes and one at the time
    levels."""

    def __init__(self, case, grid: SpaceTimeGrid):
        self.case, self.grid = case, grid
        self.x, self.t = _Factors(case, grid.x), _Factors(case, grid.t)

    def sample(self, key: str) -> np.ndarray:
        """Field ``key`` (u, m, F or G) on the grid: each term the outer
        product of its space profile at the nodes and its time profile at
        the levels, an einsum written straight into a time-major array.
        Bitwise the point evaluator at (x[:, None], t[None, :]): the same
        products, summed in the same order, except that a -0.0 product
        reads +0.0."""
        (time, space), *rest = self.case.terms[key]
        out = np.einsum("i,j->ij", space(self.x), time(self.t), out=_empty(self.grid.shape))
        if rest:
            term = _empty(self.grid.shape)
            for time, space in rest:
                out += np.einsum("i,j->ij", space(self.x), time(self.t), out=term)
        return out

    def slice(self, key: str, k: int) -> np.ndarray:
        """Field ``key`` at time level k: bitwise column k of sample(key)."""
        at_k = lambda name, j=0: self.t(name, j)[k]  # the time table at level k
        return _evaluate_terms(self.case.terms[key], self.x, at_k)

    def coefficients(self) -> MfgCoefficients:
        """The case's coefficient profiles on the grid, read from the node table."""
        layers = {k: self.x(k) for k in _NONLINEAR_KEYS + _LINEAR_KEYS}
        return MfgCoefficients(self.case.coeff, self.grid, **layers)


def _point(key: str) -> Callable:
    """Field ``key``'s point evaluator; x and t may be scalars or broadcastable arrays."""
    def evaluate(self, x, t):
        return _evaluate_terms(self.terms[key], _Factors(self, x), _Factors(self, t))
    evaluate.__name__ = key
    return evaluate


def _sampler(key: str) -> Callable:
    """Field ``key``'s grid sampler: _Level.sample, frozen without a copy."""
    def sample(self, grid: SpaceTimeGrid) -> SpaceTimeField:
        return SpaceTimeField._adopt(_Level(self, grid).sample(key), grid)
    return sample


@dataclass(frozen=True)
class ManufacturedCase:
    """One exact-solution scenario: fields, coefficients, and sources.

    The value field is u(x,t) = Tu(t) U(x) and the density m(x,t) = Tm(t) V(x);
    time and space factors are Smooths, as are all spatial coefficients.  The
    sources F and G are derived so the pair solves the system named by ``tag``
    exactly.

    ``terms`` holds each field's one formula (see the module docstring): a
    list of separable terms (time profile, space profile), each profile a
    function of a table of the case's factors at one node array (see
    _Factors).  The formulas depend on the tag alone and read the factors by
    name, so a case changed by dataclasses.replace reads its new factors.
    One point evaluator serves every field, one grid sampler u, m, F and G.
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

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"tag must be one of {_TAGS}")
        object.__setattr__(self, "A", coeff_smooth(self.coeff))

    @property
    def terms(self) -> dict:
        return _TERMS[self.tag]

    @property
    def hypotheses_ok(self) -> bool:
        """Whether the intrinsic slope ratio |a_x| / sqrt(a) stays bounded
        near the boundary, as downstream weighted estimates assume: false
        only for the Wright-Fischer diffusion, whose square-root degeneracy
        fails it."""
        return self.coeff.family != "wright_fischer"

    u, u_x, u_xx, u_t = _point("u"), _point("u_x"), _point("u_xx"), _point("u_t")
    m, m_x, m_t, am_xx = _point("m"), _point("m_x"), _point("m_t"), _point("am_xx")
    F, G = _point("F"), _point("G")  # the value- and density-equation sources

    exact_u, exact_m = _sampler("u"), _sampler("m")
    source_F, source_G = _sampler("F"), _sampler("G")

    def terminal(self, grid: SpaceTimeGrid) -> np.ndarray:
        """u at the grid's horizon, the last column of exact_u(grid)."""
        return _Level(self, grid).slice("u", -1)

    def initial(self, grid: SpaceTimeGrid) -> np.ndarray:
        return _Level(self, grid).slice("m", 0)

    def coefficients_on(self, grid: SpaceTimeGrid) -> MfgCoefficients:
        return _Level(self, grid).coefficients()


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
    return _solve_case(_Level(case, grid), cfg)[:2]


def _solve_case(level: _Level, cfg: IterConfig, start=None):
    """solve_case on ``level``, plus the sources it sampled and the Picard
    sweeps: (u, m, F, G, sweeps), None where unused and 0 sweeps for scalar
    cases.  A coupled solve starts from ``start`` (zeros when None).  Every
    input is built from the level, which the level's _max_error may share."""
    case, grid = level.case, level.grid
    F = SpaceTimeField(level.sample("F"), grid) if case.tag != "fp" else None
    G = SpaceTimeField(level.sample("G"), grid) if case.tag != "hjb" else None
    if case.tag == "hjb":
        prob = HjbLinearProblem(grid, case.coeff, drift=level.x("d1"), source=F,
                                terminal=level.slice("u", -1))
        return solve_hjb_linear(prob), None, F, G, 0
    if case.tag == "fp":
        prob = FpLinearProblem(grid, case.coeff, convection=level.x("c1"), zeroth=level.x("b"),
                               source=G, initial=level.slice("m", 0))
        return None, solve_fp_linear(prob), F, G, 0
    solver = solve_linearized_mfg if case.tag == "mfg_linear" else solve_nonlinear_mfg
    sol = solver(level.coefficients(), F=F, G=G, m0=level.slice("m", 0), h=level.slice("u", -1),
                 cfg=cfg, start=start)
    if not sol.converged:
        raise SolverError(
            f"case {case.name}: coupled sweep did not converge on grid "
            f"(n_x, n_t) = ({grid.n_x}, {grid.n_t})"
        )
    return sol.u, sol.m, F, G, sol.sweeps


def _max_error(level: _Level, u, m) -> float:
    """The largest deviation of u and m (each None when unsolved) from the
    exact fields, sampled from ``level``."""
    err = 0.0
    for got, key in ((u, "u"), (m, "m")):
        if got is not None:
            err = max(err, float(np.max(np.abs(got.values - level.sample(key)))))
    return err


def _prolong(fields, old: SpaceTimeGrid, new: SpaceTimeGrid) -> tuple:
    """Trajectories on ``old`` carried to ``new`` by separable linear
    interpolation: in x over the cell centres (the end intervals extended
    linearly past the outer centres), then in t.

    An axis whose nodes do not change is not interpolated: its weights would
    be 0 and 1, which return each value (up to the sign of a zero).  So a
    time ladder, which keeps n_x, interpolates in t only, and a trajectory
    on an unchanged grid is returned as it is.

    Rows and columns are gathered by index; two interpolation matrices
    (P_x @ v @ P_t.T) would touch BLAS work buffers, which cost more resident
    memory than the gathered copies.
    """

    def weights(src, dst):
        """Each dst node's left neighbour in src and its weight, or None
        where the nodes are the same."""
        if np.array_equal(src, dst):
            return None
        j = np.clip(np.searchsorted(src, dst) - 1, 0, src.size - 2)
        return j, (dst - src[j]) / (src[j + 1] - src[j])

    def rows(v, j):  # a row gather keeps the time-major layout
        return np.take(v, j, axis=0, out=_empty((j.size, v.shape[1])))

    along_x, along_t = weights(old.x, new.x), weights(old.t, new.t)
    out = []
    for v in fields:
        if along_x is not None:
            jx, wx = along_x
            wx = wx[:, None]
            v = rows(v, jx) * (1.0 - wx) + rows(v, jx + 1) * wx
        if along_t is not None:
            jt, wt = along_t
            v = v[:, jt] * (1.0 - wt) + v[:, jt + 1] * wt
        out.append(v)
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
    in fewer sweeps.  Scalar cases solve each level directly.  Each level
    evaluates every factor of the case once, for its solve and its error
    alike (see _Level).
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
        level = _Level(case, g)  # the level's factor values, for its solve and its error
        u, m, _, _, n = _solve_case(level, cfg, start)
        errors.append(_max_error(level, u, m))
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
