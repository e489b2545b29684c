"""Span tracing for the benchmark, from outside the package.

``Tracer.install`` wraps the public functions of each degenmfg module (the
function names in its ``__all__``) plus the ``__post_init__`` of the problem
and field classes.  Each wrapper is bound under every name a caller looks it
up by: the defining module, every module that imported it with ``from ...
import``, and the package namespace.  ``Tracer.uninstall`` puts every
original back.  A span is ``[name, start, end, parent, info]``; spans stay in
memory until the benchmark writes them out.

``layer_metrics`` turns the spans of the traced passes into the per-layer
metrics, each a per-pass figure.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "manufactured", "stability", "mfg", "solvers", "carleman", "domain")

# methods wrapped on their class, where dataclass __init__ looks them up
METHODS = {
    "solvers": (("HjbLinearProblem", "__post_init__"), ("FpLinearProblem", "__post_init__")),
    "domain": (("SpaceTimeField", "__post_init__"),),
}

PROBLEM_BUILDS = (
    "solvers.HjbLinearProblem.__post_init__",
    "solvers.FpLinearProblem.__post_init__",
)
SWEEPS = ("solvers.solve_hjb_linear", "solvers.solve_fp_linear")
RESIDUALS = ("solvers.hjb_scheme_residual", "solvers.fp_scheme_residual")
COUPLED = ("mfg.solve_linearized_mfg", "mfg.solve_nonlinear_mfg")
LADDERS = ("stability.run_holder_experiment", "stability.run_log_experiment")


def _grid_size(args, kwargs, out):
    g = (args[0] if args else kwargs["prob"]).grid
    return (g.n_x, g.n_t)


def _sweep_count(args, kwargs, out):
    return (out.sweeps, out.converged)


def _cells(args, kwargs, out):
    return (out.total_cells, out.overflow_cells)


def _field_bytes(args, kwargs, out):
    return args[0].values.nbytes


# what each span records besides its times, read from arguments or result
METERS = {
    "solvers.solve_hjb_linear": _grid_size,
    "solvers.solve_fp_linear": _grid_size,
    "mfg.solve_linearized_mfg": _sweep_count,
    "mfg.solve_nonlinear_mfg": _sweep_count,
    "carleman.sweep_parameters": _cells,
    "domain.SpaceTimeField.__post_init__": _field_bytes,
}


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        meter = METERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if meter is not None:
                span[4] = meter(args, kwargs, out)
            return out

        wrapper.__bench_original__ = fn
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"degenmfg.{layer}") for layer in LAYERS]
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if n == "degenmfg" or n.startswith("degenmfg.")
        ]
        for layer, mod in zip(LAYERS, mods):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
                            self._patches.append((ns, key, fn))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
                self._patches.append((cls, meth, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> list:
    """Span duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
        ):
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((end - start) - covered)
    return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples above it (50 at least)."""
    return max(50, (100 * (n - 10)) // n) if n > 0 else 50


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    v = sorted(values)
    if not v:
        return 0.0
    k = max(0, min(len(v) - 1, -(-len(v) * pct // 100) - 1))
    return float(v[int(k)])


def layer_metrics(spans, passes: int, bytes_written: int) -> dict:
    """Per-layer metrics of the traced passes, as per-pass figures."""
    selfs = self_times(spans)
    count = defaultdict(int)
    total = defaultdict(float)
    self_by_layer = defaultdict(float)
    info = defaultdict(list)
    for span, own in zip(spans, selfs):
        name = span[0]
        count[name] += 1
        total[name] += span[2] - span[1]
        self_by_layer[name.split(".", 1)[0]] += own
        if span[4] is not None:
            info[name].append(span[4])

    def n(*names):
        return sum(count[x] for x in names) / passes

    def s(*names):
        return sum(total[x] for x in names) / passes

    cmd = [sp[2] - sp[1] for sp in spans if sp[0] == "cli.main"]
    pct = tail_percentile(len(cmd))
    grids = [g for x in SWEEPS for g in info[x]]
    tridiag = sum(nt for _, nt in grids)
    solves = [r for x in COUPLED for r in info[x]]
    cells = info["carleman.sweep_parameters"]
    n_cells = sum(c for c, _ in cells)
    return {
        "cli.calls": n("cli.main"),
        "cli.self_s": self_by_layer["cli"] / passes,
        "cli.cmd_s_p50": percentile(cmd, 50),
        "cli.cmd_s_tail": percentile(cmd, pct),
        "cli.cmd_tail_pct": pct,
        "cli.cmd_n": len(cmd),
        "cli.bytes_written": bytes_written / passes,
        "manufactured.studies": n("manufactured.convergence_study"),
        "manufactured.study_s": s("manufactured.convergence_study"),
        "manufactured.self_s": self_by_layer["manufactured"] / passes,
        "stability.ladders": n(*LADDERS),
        "stability.ladder_s": s(*LADDERS),
        "stability.pair_solves": n("stability.generate_pair"),
        "stability.self_s": self_by_layer["stability"] / passes,
        "mfg.solves": len(solves) / passes,
        "mfg.solve_s": s(*COUPLED),
        "mfg.self_s": self_by_layer["mfg"] / passes,
        "mfg.sweeps": sum(k for k, _ in solves) / passes,
        "mfg.sweeps_per_solve_max": max((k for k, _ in solves), default=0),
        "mfg.sweeps_per_solve_min": min((k for k, _ in solves), default=0),
        # vacuously 1 when a workload runs no coupled solve
        "mfg.converged_frac": (
            sum(1 for _, ok in solves if ok) / len(solves) if solves else 1.0
        ),
        "solvers.sweeps": n(*SWEEPS),
        "solvers.sweep_s": s(*SWEEPS),
        # computed as the sum of n_t over scalar sweeps, one step per time level
        "solvers.tridiag_solves": tridiag / passes,
        "solvers.us_per_tridiag": 1e6 * s(*SWEEPS) * passes / tridiag if tridiag else 0.0,
        "solvers.tridiag_n_x": sum(nx * nt for nx, nt in grids) / tridiag if tridiag else 0.0,
        "solvers.residual_evals": n(*RESIDUALS),
        "solvers.residual_s": s(*RESIDUALS),
        "solvers.problem_builds": n(*PROBLEM_BUILDS),
        "solvers.problem_build_s": s(*PROBLEM_BUILDS),
        "carleman.sweep_s": s("carleman.sweep_parameters"),
        "carleman.cells": n_cells / passes,
        "carleman.overflow_frac": sum(o for _, o in cells) / n_cells if n_cells else 0.0,
        "carleman.self_s": self_by_layer["carleman"] / passes,
        "domain.norm_calls": n("domain.weighted_norm"),
        "domain.norm_s": s("domain.weighted_norm"),
        "domain.field_copies": n("domain.SpaceTimeField.__post_init__"),
        "domain.field_mb_copied": sum(info["domain.SpaceTimeField.__post_init__"]) / 1e6 / passes,
        "domain.self_s": self_by_layer["domain"] / passes,
    }
