#!/usr/bin/env python3
"""Paired A/B runs of the dirsim benchmark over two source trees.

    bench/ab_pairs.py OLD NEW --workload W --pairs N --seconds S

OLD and NEW are dirsim source trees (a checkout, or a commit exported
with `git archive <rev> | tar -x -C DIR`). Each is copied without its
build trees and VCS metadata to `<workdir>/old` and `<workdir>/new`:
two paths of equal length, because `paper_grid`'s timings follow the
byte length of the benchmark's working directory and arguments, so two
checkouts at paths of different lengths can differ with no code
change. Both copies are built first. Then each pair runs
`perfbench/run.py` once in each copy, the side that goes first
alternating from pair to pair, with the same environment (its own
`PWD`; `CARGO_TARGET_DIR` unset, so each copy builds into its own
`.bench_build/`).

It prints, per metric, each side's median and quartiles, the ratio of
the medians (NEW / OLD) and the pairs NEW won, reading each metric's
better direction and bound from OLD's BENCHMARK.json. Then, per side,
the median and range of the minor page faults of a run: the
getrusage(RUSAGE_CHILDREN) delta around each run.py call, which covers
run.py's up-to-date build check as well as the benchmark itself. A
flip of glibc's heap trimming shows there as a jump in faults, where
otherwise it reads as an unexplained `setup_s` move. It exits 1 when
a run fails or reports failed cells, or when an end-to-end metric's
median ratio is worse than its bound.
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


def run_once(tree, args):
    """One run.py invocation: (its result object, or None on failure;
    the minor page faults of the run and its descendants)."""
    command = [sys.executable, "perfbench/run.py", "--workload",
               args.workload, "--seconds", str(args.seconds)]
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


def report(runs, specs):
    """Print the table; return the end-to-end metrics past their bound."""
    names = sorted({name for side in runs.values() for run in side
                    for name in run["metrics"]})
    print(f"{'metric':44} {'old median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'ratio':>7} {'new won':>8}  bound")
    breaches = []
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
        won = sum(1 for a, b in pairs if (b < a if lower else b > a))
        old_median = statistics.median(old)
        new_median = statistics.median(new)
        ratio = new_median / old_median if old_median else float("nan")
        verdict = ""
        if "bound" in spec and old_median:
            worse = ratio - 1 if lower else 1 - ratio
            verdict = f"{spec['bound']:.2f} " + (
                "WORSE" if worse > spec["bound"] else "ok")
            if worse > spec["bound"]:
                breaches.append(name)
        cells = []
        for median, values in ((old_median, old), (new_median, new)):
            q1, q3 = quartiles(values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{name:44} {cells[0]:>32} {cells[1]:>32} {ratio:7.3f} "
              f"{won:>4}/{len(pairs):<3}  {verdict}")
    return breaches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the baseline source tree")
    parser.add_argument("new", type=Path, help="the changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=30)
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

        runs = {"old": [], "new": []}
        faults = {"old": [], "new": []}
        failed = False
        for pair in range(args.pairs):
            order = ("old", "new") if pair % 2 == 0 else ("new", "old")
            for side in order:
                result, run_faults = run_once(trees[side], args)
                faults[side].append(run_faults)
                if result is None or result.get("failed", 1) != 0:
                    print(f"pair {pair + 1}: {side} run failed",
                          file=sys.stderr)
                    failed = True
                    result = result or {"metrics": {}}
                runs[side].append(result)
            print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr)

        print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
              f"old {args.old} vs new {args.new}")
        breaches = report(runs, metric_specs(args.old))
        for side in ("old", "new"):
            print(f"{side} minor page faults per run: median "
                  f"{statistics.median(faults[side]):,.0f} [range "
                  f"{min(faults[side]):,}, {max(faults[side]):,}]")
        if breaches:
            print("past their bound: " + ", ".join(breaches))
        return 1 if failed or breaches else 0
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
