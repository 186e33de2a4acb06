"""Machine-speed calibration for the times the benchmark reports.

The 2-core VMs this benchmark runs on change speed by 15 to 40% from one
minute to the next, as other tenants load the host; CPU time drifts as much
as wall time.  Interquartile spreads of raw request rates over ten runs
reached 0.16 to 0.28, against a 0.25 bound.  So a fixed slice of work that
uses no modlat code runs between operations, every PERIOD_S of operation
time, and every time the benchmark reports is scaled by REFERENCE_S over the
slice's mean time in the same run: a figure reads as it would have on a
machine where the slice takes REFERENCE_S.  A change to modlat cannot
change the slice's work; the cyclic garbage collector is off while it runs,
so the size of modlat's heap does not enter its time either.

The slice mixes what modlat's operations spend their time on: building and
running an argparse parser, exact integer elimination, and set work over
monomials and subgroups (the latter two from `reference`).
"""

from __future__ import annotations

import argparse
import gc
import random
from time import perf_counter

import reference as ref

PERIOD_S = 0.25
# About a slice's time on the 2-core VM of the README's reference figures.
REFERENCE_S = 0.010
WARMUP_SLICES = 3


class Calibration:
    """Slices of fixed work spread over a run, and the scale they give."""

    def __init__(self):
        rng = random.Random("calibration")
        self.matrix = [[rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
        self.ideal = [tuple(rng.randint(0, 2) for _ in range(6)) for _ in range(4)]
        for _ in range(WARMUP_SLICES):
            self._work()
        self.samples = [self._timed()]
        self.due_s = PERIOD_S

    def after_op(self, seconds: float):
        """Count an operation's time; run a slice when one is due."""
        self.due_s -= seconds
        if self.due_s <= 0:
            self.samples.append(self._timed())
            self.due_s += PERIOD_S

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference time."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)

    def _timed(self) -> float:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self._work()
            return perf_counter() - start
        finally:
            if collecting:
                gc.enable()

    def _work(self):
        for _ in range(4):
            parser = argparse.ArgumentParser(prog="calibration")
            commands = parser.add_subparsers(dest="command")
            for i in range(12):
                command = commands.add_parser(f"c{i}")
                command.add_argument("--name")
                command.add_argument("--size", type=int)
                command.add_argument("rest", nargs="*")
            parser.parse_args(["c3", "--name", "x", "--size", "3", "y"])
        ref.det(self.matrix)
        ref.monomial_ass(self.ideal, "abcdef")
        ref.subgroup_type((2, 6, 12), ((1, 2, 3), (0, 3, 5)))
