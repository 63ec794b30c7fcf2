#!/usr/bin/env python3
"""Paired A/B runs of the dirsim benchmark over two source trees.

    bench/ab_pairs.py OLD NEW --workload W [--workload W2 ...]
                      --pairs N --seconds S [--seed N] [--trace 0|1]

OLD and NEW are dirsim source trees (a checkout, or a commit exported
with `git archive <rev> | tar -x -C DIR`). Each is copied without its
build trees and VCS metadata to `<workdir>/old` and `<workdir>/new`:
two paths of equal length, because `paper_grid`'s timings follow the
byte length of the benchmark's working directory and arguments, so two
checkouts at paths of different lengths can differ with no code
change. Both copies are built once. Then, for each workload in turn,
each pair runs `perfbench/run.py` once in each copy, the side that
goes first alternating from pair to pair, with the same environment
(its own `PWD`; `CARGO_TARGET_DIR` unset, so each copy builds into its
own `.bench_build/`).

It prints, per workload and metric, each side's median and quartiles,
the ratio of the medians (NEW / OLD) and the pairs NEW won, reading
each metric's better direction and bound from OLD's BENCHMARK.json.
Then, per side, the median and range of the minor page faults of a
run (the getrusage(RUSAGE_CHILDREN) delta around each run.py call,
which covers run.py's up-to-date build check as well as the benchmark
itself) and of a cell (a run's faults over its attempted cells). A
run is time-bounded, so a faster side makes more passes: where the
passes fault (`finite_sweep` generates its traces in each) that
raises its faults per run but not per cell, and where set-up faults
most (the grids) it lowers its faults per cell but not per run. A
flip of glibc's heap trimming moves both, where otherwise it reads as
an unexplained `setup_s` move.

It exits 1 when a run fails or reports failed cells, or when, on any
workload, an end-to-end metric fails either verdict:
  - past its bound: the median ratio is worse than the metric's
    BENCHMARK.json bound;
  - a consistent loss: over at least 10 pairs, NEW won at most a
    tenth of them (a tie counts for neither side) and NEW's median is
    worse than OLD's by more than OLD's interquartile range. This is
    what sees a loss too small for the bound, such as a 20% slowdown.

`--seed` and `--trace` are passed to both sides' run.py (by default
neither is, so each workload runs at its default seed, untraced). A
held-out seed checks a gain at a seed the change was not tuned on.
`--trace 1` runs print the per-layer metrics, where a gain went, and
the table then carries no bound verdicts: the bounds are for the
end-to-end metrics of untraced runs.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Top-level entries a copy leaves behind: build trees, VCS metadata,
# test and tool scratch.
SKIPPED = {".git", "build", ".bench_build", "Testing", "__pycache__"}


def copy_tree(source, target):
    def ignore(directory, names):
        if Path(directory).resolve() != source.resolve():
            return {name for name in names if name == "__pycache__"}
        return {name for name in names
                if name in SKIPPED or name.startswith("build-")}
    shutil.copytree(source, target, ignore=ignore)


def child_env(tree):
    env = dict(os.environ, PWD=str(tree))
    env.pop("CARGO_TARGET_DIR", None)
    return env


def build(tree):
    """Build the copy's benchmark through its own run.py's build()."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "import run; run.build()")
    result = subprocess.run([sys.executable, "-c", code], cwd=tree,
                            env=child_env(tree), capture_output=True,
                            text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
        raise SystemExit(f"ab_pairs: building {tree} failed")


def minor_faults():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def run_once(tree, workload, args):
    """One run.py invocation: (its result object, or None on failure;
    the minor page faults of the run and its descendants)."""
    command = [sys.executable, "perfbench/run.py", "--workload",
               workload, "--seconds", str(args.seconds)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.trace == "1":
        command += ["--trace", "1"]
    before = minor_faults()
    result = subprocess.run(command, cwd=tree, env=child_env(tree),
                            capture_output=True, text=True)
    faults = minor_faults() - before
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stderr[-2000:])
        return None, faults
    try:
        return json.loads(lines[-1]), faults
    except json.JSONDecodeError:
        return None, faults


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def metric_specs(tree):
    """name -> {"better", "bound"?} from the tree's BENCHMARK.json."""
    path = tree / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    specs = {}
    for group in ("end_to_end", "per_layer"):
        for metric in spec.get(group, []):
            specs[metric["name"]] = metric
    return specs


# The failing verdicts report() returns, and how its table shows them.
PAST_BOUND = "past its bound"
CONSISTENT_LOSS = "a consistent loss"
SHOWN = {None: "ok", PAST_BOUND: "WORSE", CONSISTENT_LOSS: "LOST"}
# A consistent loss needs this many pairs, of which NEW won at most
# this share.
LOSS_MIN_PAIRS = 10
LOSS_MAX_WON = 0.1


def report(runs, specs, verdicts):
    """Print the table; return {end-to-end metric: its failing verdict}
    (empty without @p verdicts)."""
    names = sorted({name for side in runs.values() for run in side
                    for name in run["metrics"]})
    print(f"{'metric':44} {'old median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'ratio':>7} {'new won':>8}  bound")
    failures = {}
    for name in names:
        pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                 for a, b in zip(runs["old"], runs["new"])
                 if name in a["metrics"] and name in b["metrics"]]
        if not pairs:
            continue
        old = [a for a, _ in pairs]
        new = [b for _, b in pairs]
        spec = specs.get(name, {})
        lower = spec.get("better") == "lower"
        # A tie is a win for neither side.
        won = sum(1 for a, b in pairs if (b < a if lower else b > a))
        old_median = statistics.median(old)
        new_median = statistics.median(new)
        ratio = new_median / old_median if old_median else float("nan")
        shown = ""
        if verdicts and "bound" in spec:
            worse = (new_median - old_median if lower
                     else old_median - new_median)
            q1, q3 = quartiles(old)
            if old_median and worse / old_median > spec["bound"]:
                failures[name] = PAST_BOUND
            elif (len(pairs) >= LOSS_MIN_PAIRS
                  and won <= LOSS_MAX_WON * len(pairs)
                  and worse > q3 - q1):
                failures[name] = CONSISTENT_LOSS
            shown = f"{spec['bound']:.2f} {SHOWN[failures.get(name)]}"
        cells = []
        for median, values in ((old_median, old), (new_median, new)):
            q1, q3 = quartiles(values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{name:44} {cells[0]:>32} {cells[1]:>32} {ratio:7.3f} "
              f"{won:>4}/{len(pairs):<3}  {shown}")
    return failures


def measure(trees, workload, args):
    """Alternate args.pairs pairs of runs of @p workload; return the
    result objects and minor faults per side, and whether any run
    failed."""
    runs = {"old": [], "new": []}
    faults = {"old": [], "new": []}
    failed = False
    for pair in range(args.pairs):
        order = ("old", "new") if pair % 2 == 0 else ("new", "old")
        for side in order:
            result, run_faults = run_once(trees[side], workload, args)
            faults[side].append(run_faults)
            if result is None or result.get("failed", 1) != 0:
                print(f"{workload} pair {pair + 1}: {side} run failed",
                      file=sys.stderr)
                failed = True
                result = result or {"metrics": {}}
            runs[side].append(result)
        print(f"{workload} pair {pair + 1}/{args.pairs} done "
              f"({order[0]} first)", file=sys.stderr)
    return runs, faults, failed


def spread(values, digits):
    return (f"median {statistics.median(values):,.{digits}f} [range "
            f"{min(values):,.{digits}f}, {max(values):,.{digits}f}]")


def report_faults(side, runs, faults):
    per_cell = [run_faults / run["attempted"]
                for run, run_faults in zip(runs, faults)
                if run.get("attempted")]
    line = f"{side} minor page faults per run: {spread(faults, 0)}"
    if per_cell:
        line += f"; per cell: {spread(per_cell, 1)}"
    print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the baseline source tree")
    parser.add_argument("new", type=Path, help="the changed source tree")
    parser.add_argument("--workload", required=True, action="append",
                        help="a perfbench workload; repeat it to "
                             "measure several on one build of each "
                             "side")
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int,
                        help="perfbench seed for both sides (default: "
                             "each workload's own)")
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="1: compare the per-layer metrics of "
                             "traced runs, with no bound verdicts")
    parser.add_argument("--workdir", type=Path,
                        help="where the copies go (default: a new "
                             "temporary directory, removed at the end)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for tree in (args.old, args.new):
        if not (tree / "perfbench" / "run.py").exists():
            parser.error(f"{tree} is not a dirsim source tree")
        if args.workdir and args.workdir.resolve().is_relative_to(
                tree.resolve()):
            # copytree would copy the copies into themselves.
            parser.error(f"--workdir {args.workdir} is inside {tree}")

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="ab_pairs_"))
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        trees = {"old": workdir / "old", "new": workdir / "new"}
        for side, source in (("old", args.old), ("new", args.new)):
            if trees[side].exists():
                parser.error(f"{trees[side]} already exists")
            copy_tree(source, trees[side])
            print(f"building {side} ({source})", file=sys.stderr)
            build(trees[side])

        seed = "default seed" if args.seed is None else f"seed {args.seed}"
        traced = ", traced" if args.trace == "1" else ""
        specs = metric_specs(args.old)
        status = 0
        for workload in args.workload:
            runs, faults, failed = measure(trees, workload, args)
            print(f"{workload}: {args.pairs} pairs of {args.seconds:g} s, "
                  f"{seed}{traced}, old {args.old} vs new {args.new}")
            failures = report(runs, specs, args.trace == "0")
            for side in ("old", "new"):
                report_faults(side, runs[side], faults[side])
            if failures:
                print("failed: " + ", ".join(
                    f"{name} ({why})" for name, why in failures.items()))
            if failed or failures:
                status = 1
            sys.stdout.flush()
        return status
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
