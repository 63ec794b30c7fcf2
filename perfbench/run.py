#!/usr/bin/env python3
"""Build and run the dirsim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a dirsim source tree. The first run configures
and builds the benchmark (perfbench/CMakeLists.txt, which compiles
the library from src/) under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs rebuild incrementally. The benchmark's own
stdout passes through: a host-shape line, then the result object as
the last line. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_grid", "scale1024_grid", "finite_sweep")
# The benchmark stops measuring by itself; this only stops a hung run.
RUN_TIMEOUT_S = 170


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def cpus():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, build incrementally; return the binary's path."""
    out = build_root() / "perfbench"
    if not (out / "build.ninja").exists() and not (out / "Makefile").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "dirsim_perfbench",
         "-j", str(cpus())],
        stdout=sys.stderr, check=True)
    return out / "dirsim_perfbench"


def commit():
    # The ceiling keeps git from reporting an enclosing repository's
    # commit when this tree is a plain copy.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", str(build_root() / "perfbench-work"),
               "--golden", str(HERE / "golden.json"),
               "--commit", commit()]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
