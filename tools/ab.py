"""Alternating A/B runs of the benchmark on two source trees, with a verdict per metric.

    python tools/ab.py BASE_DIR HEAD_DIR --workload W [--seed S] [--pairs N]
                       [--seconds T] [--trace 0|1] [--json PATH]

Each pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
once in each tree, from that tree and with that tree's own benchmark code,
and reads the result object on the last stdout line.  The side that runs
first alternates: the base in even pairs, the head in odd ones.  For every
end-to-end metric of this tree's BENCHMARK.json it prints each side's median
and quartiles, the pairs the head won (by the metric's ``better``; ties count
for neither) and a verdict:

- gain: at least 10 pairs ran, the head won at least 9 in 10 of them, and
  the gap between the medians is larger than the distance between the
  base's quartiles;
- regression: the head's median is worse than the base's by more than the
  metric's bound (a fraction of the base median);
- unresolved: either side's quartile spread, over the base median, is wider
  than the bound, and not every head run is better than every base run;
- unchanged: otherwise.

``--trace 1`` runs traced pairs (``bench/run.py --trace 1``) and does the
same for every per-layer metric of BENCHMARK.json.  Per-layer metrics have
no bound, so their verdict is gain or unchanged: one traced run cannot
resolve a per-layer change, the median of several traced pairs can.

A tree with a ``__pycache__`` directory under ``src/degenmfg/`` or
``bench/`` is refused, naming the directory: a process that reads cached
bytecode skips compiling from source, so it starts faster and peaks lower
than one that compiles.  The runs are started with PYTHONDONTWRITEBYTECODE
set, so they write no cache either.

It also prints how many runs of each side were ``correct``, how many
commands failed, and the total bytes of the side's ``src/degenmfg/*.py``:
every benchmark process compiles that source, so ``peak_rss_mb`` moves with
its size as well as with the code paths run.  The exit code is 0 when every
run printed a result and every result is correct, else 1.  ``--json`` writes
every sample, summary and verdict to PATH.  Only the standard library is
used; the runs write where bench/run.py writes, and this script writes
nothing else but PATH.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")
MIN_GAIN_PAIRS = 10  # fewer pairs cannot show a gain


def quartiles(xs):
    """(q1, median, q3) of the samples; one sample is its own quartiles."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def verdict(base, head, better: str, bound: float) -> dict:
    """Summary and verdict of one metric over paired samples (base[i], head[i]).

    ``better`` is "lower" or "higher"; ``bound`` is the worsening, as a
    fraction of the base median, that counts as a regression (inf for a
    metric without a bound: the verdict is then gain or unchanged).
    """
    if len(base) != len(head) or not base:
        raise ValueError("base and head need the same nonzero number of samples")
    sign = 1.0 if better == "lower" else -1.0
    # gain(x, y) > 0 when y is better than x
    def gain(x, y):
        return sign * (x - y)

    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    wins = sum(gain(b, h) > 0 for b, h in zip(base, head))
    scale = abs(bm)
    worse = -gain(bm, hm)
    rel_worse = worse / scale if scale else (float("inf") if worse > 0 else 0.0)
    spread = max(b3 - b1, h3 - h1)
    rel_spread = spread / scale if scale else (float("inf") if spread > 0 else 0.0)
    all_better = min(gain(b, h) for b in base for h in head) > 0
    if len(base) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(base) and gain(bm, hm) > b3 - b1:
        call = "gain"
    elif rel_worse > bound:
        call = "regression"
    elif rel_spread > bound and not all_better:
        call = "unresolved"
    else:
        call = "unchanged"
    return {
        "base": {"q1": b1, "median": bm, "q3": b3},
        "head": {"q1": h1, "median": hm, "q3": h3},
        "change_frac": (hm - bm) / scale if scale else None,
        "head_wins": wins,
        "pairs": len(base),
        "verdict": call,
    }


def source_bytes(tree: Path) -> int:
    """Total size in bytes of the tree's src/degenmfg/*.py."""
    return sum(p.stat().st_size for p in (tree / "src" / "degenmfg").glob("*.py"))


def bytecode_caches(tree: Path) -> list:
    """The __pycache__ directories under the tree's src/degenmfg/ and bench/."""
    return sorted(p for top in ("src/degenmfg", "bench") for p in (tree / top).rglob("__pycache__"))


def run_once(tree: Path, args) -> dict:
    """One benchmark run in ``tree``, traced as args.trace says: its result
    object, or a failure record."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["machine"] = json.loads(lines[-2].removeprefix("machine "))
    except (IndexError, ValueError) as exc:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "error": f"exit {proc.returncode}, no result line: {exc!r}"}
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="root of the base source tree")
    parser.add_argument("head", type=Path, help="root of the head source tree")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pairs, a verdict per per-layer metric")
    parser.add_argument("--json", type=Path, help="write samples, summaries and verdicts here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = dict(zip(SIDES, (args.base.resolve(), args.head.resolve())))
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{side} tree {tree} has no bench/run.py")
        caches = bytecode_caches(tree)
        if caches:
            parser.error(f"{side} tree holds cached bytecode in {caches[0]}: remove it, or "
                         "its runs skip compiling from source")

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run_once(trees[side], args)
            runs[side].append(result)
            wall = result.get("metrics", {}).get("wall_s", {}).get("value")
            shown = "" if wall is None else f"wall_s {wall} "
            print(f"pair {i + 1}/{args.pairs} {side}: {shown}correct {result['correct']}",
                  file=sys.stderr, flush=True)

    ok = all(r["correct"] is True for side in SIDES for r in runs[side])
    summary = {}
    if ok:
        for m in spec["per_layer" if args.trace else "end_to_end"]:
            base, head = ([r["metrics"][m["name"]]["value"] for r in runs[s]] for s in SIDES)
            summary[m["name"]] = verdict(base, head, m["better"], m.get("bound", math.inf))
    traced = " traced" if args.trace else ""
    print(f"{args.workload} seed {args.seed}, {args.pairs}{traced} pairs of {args.seconds:g} s")
    for side in SIDES:
        correct = sum(r["correct"] is True for r in runs[side])
        failed = sum(r.get("failed", 0) for r in runs[side])
        print(f"  {side}: {trees[side]}: src {source_bytes(trees[side])} bytes, "
              f"correct {correct}/{args.pairs}, failed commands {failed}")
    for name, s in summary.items():
        b, h = s["base"], s["head"]
        print(f"  {name}: base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
              f"  head {h['median']:.6g} [{h['q1']:.6g}, {h['q3']:.6g}]"
              f"  head wins {s['head_wins']}/{s['pairs']}  {s['verdict']}")
    if args.json:
        record = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                  "seconds": args.seconds, "trace": args.trace,
                  "trees": {k: str(v) for k, v in trees.items()},
                  "source_bytes": {k: source_bytes(v) for k, v in trees.items()},
                  "runs": runs, "metrics": summary}
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
