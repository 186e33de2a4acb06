"""Steadiness check: two sets of benchmark runs of the same code, one seed per run.

    python3 bench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]

Run from the repository root; reads BENCHMARK.json there and runs its
command.  For every workload and end-to-end metric it prints, per set, the
median and the spread (distance between the first and third quartile of
statistics.quantiles(values, n=4), as a share of the median), and for the
second set the shift of its median in the metric's worse direction.  The
check fails (exit status 1) when a spread or a shift exceeds the metric's
bound, when a run is incorrect, or when the share of failed operations
differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

SETS = 2


def run_once(spec, workload, seed):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma list (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    ok = True
    for workload in names:
        sets = []
        for k in range(SETS):
            seeds = range(args.first_seed + k * args.runs,
                          args.first_seed + (k + 1) * args.runs)
            sets.append([run_once(spec, workload, s) for s in seeds])
        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
        share_set = {f / a for f, a in shares}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n{workload}: failed/attempted {sorted(shares)[:4]}"
              f"{' ...' if len(shares) > 4 else ''}, correct={correct}")
        ok &= correct and len(share_set) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            cells = []
            first_median = None
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                median = statistics.median(values)
                s = spread(values)
                cell = f"median {median:.6g} spread {s:.3f}"
                if s > bound:
                    ok = False
                    cell += " (over bound)"
                if first_median is None:
                    first_median = median
                else:
                    shift = sign * (median - first_median) / first_median
                    cell += f" shift {shift:+.3f}"
                    if shift > bound:
                        ok = False
                        cell += " (over bound)"
                cells.append(cell)
            print(f"  {name:<12} bound {bound:<5} " + " | ".join(cells))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
