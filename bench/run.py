"""Layered benchmark of the degenmfg command line.

    python3 bench/run.py --workload convergence --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

One serial process sends generated configs through ``degenmfg.cli.main``,
each command after the previous one returns (a closed loop with one client),
for the given number of seconds, and checks every command's artifacts.
``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
runs untraced and then traced passes for half the time each and prints the
per-layer metrics of the traced passes plus the tracing overhead.  The
end-to-end times are scaled to a reference core speed by a calibration kernel
run between commands (see ``calibrate``).  The last stdout line is the result
object; the line before it records the machine.
Artifacts, spans and result records go to .bench_out/ in the checkout.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 50
# reported times are scaled to a core on which calibrate() takes this long
CALIBRATION_REF_S = 0.01
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

import workloads as wl  # noqa: E402  (stdlib only; numpy is imported later)


class BenchError(Exception):
    """The benchmark cannot run: no program to measure, or a broken set-up."""


def pin_threads() -> int:
    """Pin BLAS/OpenMP pools to the usable cores; must precede the numpy import."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def calibrate() -> float:
    """Seconds for a fixed kernel of the kind of work the program does: small
    banded LAPACK solves through scipy, small numpy ops and interpreter
    arithmetic.  It calls no degenmfg code, so no change to the program moves it.
    """
    import numpy as np
    from scipy.linalg import solve_banded

    ab = np.ones((3, 256))
    ab[1] = 4.0
    b = np.linspace(0.0, 1.0, 256)
    start = time.perf_counter()
    for _ in range(400):
        x = solve_banded((1, 1), ab, b, check_finite=False)
        y = np.empty_like(x)
        y[1:] = x[:-1] - 2.0 * x[1:]
        acc = 0.0
        for v in range(20):
            acc += v * 0.5
    return time.perf_counter() - start


def scaled(seconds: float, k_before: float, k_after: float) -> float:
    """``seconds`` at the reference core speed, from the calibrations around it.

    The cores of a shared host switch every few seconds between a fast state
    and one up to ~1.5x slower, and the share of slow time differs from run to
    run; the kernel slows down with the program, so the ratio cancels it.
    """
    return seconds * CALIBRATION_REF_S * 2.0 / (k_before + k_after)


def import_cli():
    """degenmfg.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import degenmfg.cli
    except ImportError as exc:
        raise BenchError(f"cannot import degenmfg from {src}: {exc}") from exc
    if Path(degenmfg.__file__).resolve().parent.parent != src:
        raise BenchError(f"degenmfg imported from {degenmfg.__file__}, not {src}")
    return degenmfg.cli


def machine(threads: int, seed: int) -> dict:
    import numpy
    import scipy

    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text(encoding="utf-8").strip()
    except OSError:
        cpu_max = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_threads": threads,
        "seed": seed,
    }


class Runner:
    """Runs one workload's commands in-process and checks their artifacts."""

    def __init__(self, cli, workload: str, seed: int, work_dir: Path):
        from degenmfg.manufactured import make_case

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.cfg_path = work_dir / "config.json"
        self.out = work_dir / "artifacts"
        self.out.mkdir(parents=True, exist_ok=True)
        self.reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        self.horizon = {c: make_case(c).T for c in wl.SCALAR}
        self.attempted = 0
        self.failed = 0
        self.k_last = 0.0

    def _call(self, command: str, cfg: dict):
        """Run one command; returns (exit code or None on a raised error, seconds)."""
        for f in self.out.iterdir():
            f.unlink()
        start = time.perf_counter()
        self.cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        try:
            code = self.cli.main([command, "--config", str(self.cfg_path), "--out", str(self.out)])
        except Exception:  # a traceback from the program is a failed command
            traceback.print_exc()
            code = None
        return code, time.perf_counter() - start

    def warm_up(self):
        for command, cfg in wl.warmup_commands(self.workload):
            code, _ = self._call(command, cfg)
            if code != 0:
                raise BenchError(f"warm-up {command} exited with {code}")

    def run_pass(self, k: int, rec: dict):
        """Pass k; appends each command's raw and scaled seconds to rec,
        returns (scaled seconds of the pass, bytes of artifacts)."""
        elapsed = 0.0
        written = 0
        for command, cfg in wl.pass_commands(self.workload, self.seed, k):
            code, dt = self._call(command, cfg)
            k_after = calibrate()
            rec["calibration_s"].append(k_after)
            rec["cmd_s"].append(dt)
            rec["cmd_scaled_s"].append(scaled(dt, self.k_last, k_after))
            elapsed += rec["cmd_scaled_s"][-1]
            self.k_last = k_after
            self.attempted += 1
            written += sum(f.stat().st_size for f in self.out.iterdir())
            if code is None:
                problems = ["raised an exception"]
            else:
                try:
                    problems = wl.check(command, cfg, code, self.out, self.reference,
                                        self.horizon.get(cfg.get("case"), 1.0))
                except (OSError, LookupError, ValueError, TypeError) as exc:
                    problems = [f"unreadable artifacts: {exc!r}"]
            if problems:
                self.failed += 1
                print(f"FAIL pass {k} {command} {json.dumps(cfg)[:200]}: {'; '.join(problems)}",
                      file=sys.stderr)
        return elapsed, written

    def run_passes(self, seconds: float, first: int) -> dict:
        """Whole passes until the next one would end after ``seconds`` (at least one)."""
        rec = {"pass_s": [], "pass_wall_s": [], "cmd_s": [], "cmd_scaled_s": [],
               "calibration_s": [], "bytes": 0, "next": first}
        self.k_last = calibrate()
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            dt, b = self.run_pass(rec["next"], rec)
            rec["pass_wall_s"].append(time.perf_counter() - t0)
            rec["pass_s"].append(dt)
            rec["bytes"] += b
            rec["next"] += 1
            if time.perf_counter() - start + rec["pass_wall_s"][-1] > seconds:
                rec["wall_s"] = statistics.median(rec["pass_s"])
                return rec


def set_up_once(workload: str, seed: int, work_dir: Path) -> Runner:
    """Import, generate the first pass's configs, warm up."""
    runner = Runner(import_cli(), workload, seed, work_dir)
    wl.pass_commands(workload, seed, 0)
    runner.warm_up()
    return runner


def measure_setup(workload: str, seed: int) -> list:
    """Scaled wall time of SETUP_REPEATS fresh-interpreter set-ups in a row."""
    times = []
    k_before = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--setup-only",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up took longer than {SETUP_TIMEOUT_S} s") from exc
        dt = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up failed with exit {proc.returncode}:\n{proc.stderr}")
        k_after = calibrate()
        times.append(scaled(dt, k_before, k_after))
        k_before = k_after
    return times


def metric_units(kind: str) -> dict:
    """{name: unit} of BENCHMARK.json's "end_to_end" or "per_layer" metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(args, threads: int) -> int:
    units = metric_units("per_layer" if args.trace else "end_to_end")
    setup = measure_setup(args.workload, args.seed)
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        runner = set_up_once(args.workload, args.seed, work_dir)
        record = {"workload": args.workload, "trace": args.trace,
                  "machine": machine(threads, args.seed), "setup_s": setup}
        if args.trace:
            import spans

            half = args.seconds / 2.0
            plain = runner.run_passes(half, 0)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = runner.run_passes(half, plain["next"])
            finally:
                tracer.uninstall()
            metrics = spans.layer_metrics(tracer.spans, len(traced["pass_s"]), traced["bytes"])
            metrics["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
            record.update(untraced=plain, traced=traced)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            with open(spans_path, "w", encoding="utf-8") as f:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "spans": [s[:4] for s in tracer.spans]}, f)
        else:
            passes = runner.run_passes(args.seconds, 0)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": passes["wall_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
            }
            record.update(untraced=passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record["result"] = result
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process so peak RSS stays its own."""
    worst = 0
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    threads = pin_threads()
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_only:
            work_dir = OUT / f"{args.workload}-{os.getpid()}"
            try:
                set_up_once(args.workload, args.seed, work_dir)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            return 0
        return run(args, threads)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
