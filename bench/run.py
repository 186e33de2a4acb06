"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a modlat checkout: the package is imported from
./src and from nowhere else, and without ./src/modlat the command fails
with exit status 1 and prints no result.

With --trace 0 the result holds the end-to-end metrics.  Set-up time is the
median over fresh interpreters started between rounds, each importing
modlat and generating the run's first inputs.  A warm-up pass runs before
the measured rounds and is not reported.  Every reported time is scaled to
the reference machine speed measured by calibration.py; the unscaled
figures and the scale go to stderr.  With --trace 1 every round runs
twice over the same inputs, once with every traced boundary wrapped (see
tracer.py) and once without, in alternating order, each pass after every
modlat cache is emptied.  The traced passes give the per-layer metrics; the
traced minus the untraced busy time is the tracing overhead.  Spans are
written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
OUT_DIR = ".bench_out"
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


def import_modlat():
    """Put ./src first on the import path and make sure modlat came from it."""
    package = os.path.join(SRC, "modlat")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"error: no modlat package under {SRC}; "
                 "run from the root of a modlat checkout")
    sys.path[:0] = [SRC, HERE]
    import modlat
    if os.path.dirname(os.path.abspath(modlat.__file__)) != package:
        sys.exit(f"error: modlat was imported from {modlat.__file__}, not {package}")


def probe(name: str, seed: int):
    """Print the set-up time of this fresh interpreter."""
    start = perf_counter()
    import_modlat()
    import workloads
    workloads.WORKLOADS[name](seed)
    print(json.dumps({"setup_s": perf_counter() - start}))


class Probes:
    """Set-up samples from fresh interpreters, one at a time.

    The machine's speed drifts by tens of percent over seconds, so the
    samples are spread over the run instead of taken back to back.
    """

    def __init__(self, name: str, seed: int, seconds: float):
        self.argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                     "--seed", str(seed), "--probe"]
        self.seconds = seconds
        self.samples = []
        self.spent_s = 0.0

    def take(self, elapsed: float | None = None):
        """Take the samples due by `elapsed` seconds of rounds (all if None)."""
        while len(self.samples) < SETUP_PROBES and (
                elapsed is None
                or elapsed >= len(self.samples) * self.seconds / SETUP_PROBES):
            start = perf_counter()
            done = subprocess.run(self.argv, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S, check=True)
            self.samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
            self.spent_s += perf_counter() - start


def percentile(values, q: float) -> float:
    """Value at quantile q, interpolated between the closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def run_rounds(workload, ledger, seconds: float, probes: Probes):
    """Whole rounds until `seconds` have passed outside the probes."""
    start = perf_counter()
    index = 0
    while True:
        workload.round(index, ledger)
        index += 1
        busy = perf_counter() - start - probes.spent_s
        probes.take(busy)
        if busy >= seconds:
            return


def run_paired(workload, tracer, seconds: float):
    """Whole rounds, each traced and untraced over the same inputs, until
    `seconds` have passed.  Returns the (traced, untraced) ledgers."""
    import workloads
    traced, plain = workloads.Ledger(), workloads.Ledger()
    start = perf_counter()
    index = 0
    while perf_counter() - start < seconds:
        for with_trace in ((True, False) if index % 2 == 0 else (False, True)):
            for cache in workloads.MODLAT_CACHES:
                cache.cache_clear()
            if with_trace:
                tracer.install()
                workload.round(index, traced)
                tracer.uninstall()
            else:
                workload.round(index, plain)
        index += 1
    return traced, plain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lattice-scale", "criterion-queries"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        probe(args.workload, args.seed)
        return 0

    import_modlat()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warmup(workloads.Ledger())

    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        if hasattr(workload, "before_cache_clear"):
            workload.before_cache_clear = lambda: tracer.fold_tables(cleared=True)
        traced, plain = run_paired(workload, tracer, args.seconds)
        mismatches = traced.mismatches + plain.mismatches
        attempted = traced.attempted + plain.attempted
        failed = traced.failed + plain.failed
        overhead_s = traced.busy_s - plain.busy_s
        metrics = tracer.metrics(overhead_s, 100.0 * overhead_s / plain.busy_s)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        from calibration import Calibration
        calibration = Calibration()
        probes = Probes(args.workload, args.seed, args.seconds)
        ledger = workloads.Ledger(calibration)
        run_rounds(workload, ledger, args.seconds, probes)
        probes.take()
        mismatches = ledger.mismatches
        attempted, failed = ledger.attempted, ledger.failed
        latencies = ledger.latencies
        unscaled = {
            "setup_s": (statistics.median(s["setup_s"] for s in probes.samples), "s"),
            "ops_per_s": ((attempted - failed) / ledger.busy_s, "1/s"),
            "op_p50_ms": (1e3 * percentile(latencies, 0.5), "ms"),
            "op_tail_ms": (1e3 * percentile(latencies, workload.tail), "ms"),
        }
        scale = calibration.scale()
        print(json.dumps({"unscaled": {k: v for k, (v, _) in unscaled.items()},
                          "scale": scale, "slices": len(calibration.samples)}),
              file=sys.stderr)
        metrics = {k: {"value": v / scale if u == "1/s" else v * scale, "unit": u}
                   for k, (v, u) in unscaled.items()}

    for problem in mismatches:
        print(f"mismatch: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
