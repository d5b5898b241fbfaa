#!/usr/bin/env python3
"""Steadiness report for repeated runs of one workload.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seed0 1]
        [--seconds N] [--save runs.jsonl] [--load runs.jsonl ...]

Runs `perfbench/run.py` once per seed (seed0, seed0+1, ...), or reads result
lines saved by an earlier call, and reports for every end-to-end metric in
BENCHMARK.json its median, first and third quartiles (as Python's
`statistics.quantiles(values, n=4)` gives them) and the spread
`(q3 - q1) / median`. A metric whose spread exceeds its bound is flagged
UNSTEADY, `setup_s` included; one above a third of its bound is marked
`>1/3`. A run that fails, fails a
correctness gate or reports failed operations is flagged too.

With two `--load` files the report also compares the second set's medians
against the first's, flagging a metric that got worse by more than its
bound. Exit status is 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    host = next((l[5:] for l in lines if l.startswith("host ")), "{}")
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "error": f"exit {proc.returncode}", "host": json.loads(host)}
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["host"] = json.loads(host)
    return result


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of `values`."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, base, new):
    """Share by which `new` is worse than `base` for this metric's direction."""
    if not base:
        return 0.0
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def report(results, bench, label):
    flagged = []
    bad = [r for r in results if "error" in r or not r.get("correct")
           or r.get("failed", 0) > 0]
    for r in bad:
        flagged.append(f"run seed={r['seed']}: {r.get('error') or 'gate/failed ops'}")
    good = [r for r in results if r not in bad]
    steal = [r.get("host", {}).get("steal_jiffies", 0) for r in results]
    print(f"== {label}: {len(good)} good runs of {len(results)}; "
          f"steal jiffies per run {steal}")
    medians = {}
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in good
                if m["name"] in r.get("metrics", {})]
        if not vals:
            flagged.append(f"{m['name']}: no values")
            continue
        med, q1, q3, sp = spread(vals)
        medians[m["name"]] = med
        mark = ""
        if sp > m["bound"]:
            mark = "UNSTEADY"
            flagged.append(f"{m['name']}: spread {sp:.4f} > bound {m['bound']}")
        elif sp > m["bound"] / 3:
            mark = ">1/3"
        print(f"  {m['name']:<18} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"spread {sp:7.4f}  bound {m['bound']:<5} {m['unit']:<5} {mark}")
    return medians, flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    ap.add_argument("--load", action="append", default=[])
    args = ap.parse_args()
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]

    sets = []
    if args.load:
        for path in args.load:
            with open(path) as f:
                rows = [json.loads(l) for l in f if l.strip()]
            sets.append((path, [r for r in rows if r.get("workload", args.workload) == args.workload]))
    else:
        results = []
        for i in range(args.runs):
            r = run_once(args.workload, args.seed0 + i, seconds)
            r["workload"] = args.workload
            results.append(r)
            vals = {k: round(v["value"], 6) for k, v in r.get("metrics", {}).items()}
            print(f"seed {r['seed']}: {r.get('error') or vals}", flush=True)
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps(r) + "\n")
        sets.append((f"{args.workload} x{args.runs}", results))

    flagged = []
    all_medians = []
    for label, results in sets:
        med, fl = report(results, bench, label)
        all_medians.append(med)
        flagged += fl
    if len(all_medians) == 2:
        print("== second set against first")
        for m in bench["end_to_end"]:
            a, b = all_medians[0].get(m["name"]), all_medians[1].get(m["name"])
            if a is None or b is None:
                continue
            w = worse_by(m, a, b)
            mark = "REGRESSED" if w > m["bound"] else ""
            if mark:
                flagged.append(f"{m['name']}: second median worse by {w:.4f}")
            print(f"  {m['name']:<18} {a:<14.6g} -> {b:<14.6g} worse by {w:+.4f} "
                  f"(bound {m['bound']}) {mark}")
    for f in flagged:
        print(f"FLAG {f}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
