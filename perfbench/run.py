#!/usr/bin/env python3
"""Builds and runs one benchmark workload from the root of a source tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: serve-mixed, engine-syndrift20, distrib-commit (see
perfbench/README.md). The script builds the `perfbench` package (its own
cargo workspace, compiled against the repository's crates from source),
then runs two processes: `prepare` writes, untimed and from the seed, the
state the workload restarts from; `run` restores it, measures, checks the
outputs and prints every figure, ending with one JSON result line. With
`--trace 1` the result line carries the per-layer figures.

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); scratch
state lives under `.bench_work/` and is removed after the run, except the
span traces of the last traced run in `.bench_work/traces/`.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-mixed", "engine-syndrift20", "distrib-commit")
# Sources the benchmark compiles against; without them there is nothing to
# measure and the run fails fast.
REQUIRED = (
    "Cargo.toml",
    "crates/core/Cargo.toml",
    "crates/engine/Cargo.toml",
    "crates/serve/Cargo.toml",
    "crates/distrib/Cargo.toml",
    "crates/synth/Cargo.toml",
    "vendor/rand/Cargo.toml",
    "vendor/serde/Cargo.toml",
    "vendor/serde_json/Cargo.toml",
)
# Whole-run budget, kept under the 180 s a run may take once built.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"source tree incomplete, missing {', '.join(missing)}")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed", 1)
    binary = os.path.join(target, "release", "perfbench")

    started = time.monotonic()
    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work]
    try:
        prep = subprocess.run([binary, "prepare", *flags], cwd=ROOT,
                              stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        if prep.returncode != 0:
            fail("prepare failed", 1)
        left = RUN_TIMEOUT_S - (time.monotonic() - started)
        run = subprocess.run([binary, "run", *flags], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True,
                             timeout=max(left, 1))
        lines = run.stdout.rstrip("\n").split("\n")
        if run.returncode != 0:
            sys.stdout.write("\n".join(lines) + "\n")
            fail("run failed", 1)
        for line in lines:
            print(line)
        traces = os.path.join(work, "traces")
        if os.path.isdir(traces):
            keep = os.path.join(work_root, "traces")
            shutil.rmtree(keep, ignore_errors=True)
            shutil.move(traces, keep)
    except subprocess.TimeoutExpired:
        fail("timed out", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
