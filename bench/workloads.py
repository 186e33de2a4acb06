"""The workloads: seeded inputs, a fixed warm-up pass, measured rounds.

Every workload is closed-loop with one client: an operation starts when the
previous one has returned.  Only the call into modlat is timed; the checks
against `reference` run between operations, outside the timed region.

A round always attempts the same number of operations of each kind, so the
share of failed operations is the same in every run whatever its seed or
length.  Inputs of round r come from the seed and r alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import sys
import traceback
from math import prod
from time import perf_counter

import reference as ref
from modlat import cli, complexes, intlinalg, oracle
from modlat.intlinalg import IntMatrix
from modlat.zmodules import ZModule


class Ledger:
    """Latency, failure and check bookkeeping for one run.  With a
    calibration, each recorded operation counts towards its next slice."""

    def __init__(self, calibration=None):
        self.calibration = calibration
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.mismatches = []

    def record(self, seconds: float, failed: bool = False):
        self.attempted += 1
        self.failed += failed
        self.busy_s += seconds
        self.latencies.append(seconds)
        if self.calibration is not None:
            self.calibration.after_op(seconds)

    def check(self, ok: bool, what: str):
        if not ok and len(self.mismatches) < 20:
            self.mismatches.append(what)


# -- oracle closures (inside lattice-scale) --------------------------------------

KIND_SETS = (
    ("serre", frozenset({"subobjects", "quotients", "extensions", "finite_sums"})),
    ("subext", frozenset({"subobjects", "extensions"})),
    ("coherent", frozenset({"kernels", "cokernels", "extensions", "finite_sums"})),
)
# Primes 2 and 3, exponent 1: 12 classes.  Building every table for it takes
# about a third of a second; the acceptance universe (exponent 2) takes 25 s.
SMALL_UNIVERSE = dict(primes=(2, 3), max_exponent=1, max_rank=1, max_torsion_factors=2)
# Every lru-cached function in modlat: the oracle tables and the monomial
# decompositions.
MODLAT_CACHES = tuple({
    id(value): value
    for name, module in sorted(sys.modules.items())
    if name.split(".")[0] == "modlat" and module is not None
    for value in vars(module).values() if hasattr(value, "cache_clear")
}.values())


def _key(module: ZModule):
    return module.free_rank, module.torsion


def closure_problem(kind_name, members, gens, closure):
    """What is wrong with a closure, judged by `reference` alone (None if
    nothing): serre and subext closures must equal their criterion sets,
    coherent closures must have the properties of `ref.coherent_problems`."""
    if kind_name == "serre":
        ok = closure == ref.serre_set(members, gens)
        return None if ok else "differs from the support criterion"
    if kind_name == "subext":
        ok = closure == ref.subext_set(members, gens)
        return None if ok else "differs from the associated-primes criterion"
    problems = ref.coherent_problems(set(closure), members, gens)
    return "; ".join(problems) if problems else None


# -- lattice-scale -----------------------------------------------------------------


class OpTimeout(Exception):
    """Raised by the interval timer when an operation exceeds its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


# Length-8 sequences whose homology table does not finish: each Smith
# reduction in complexes.homology keeps unreduced transforms, and the cycle
# basis in degree 2 already has entries of about a thousand bits.
FAULTY_KOSZUL = ((39, 57, 58, 26, 34, 15, 20, 27),)
LIMIT_S = 0.5          # Koszul homology tables
SAFETY_LIMIT_S = 10.0  # every other operation; none comes near it
WARMUP_OPS = 48
SNF_SHAPES = ((12, 12), (16, 16), (12, 20), (20, 12))


class LatticeScale:
    """Exact linear algebra with no shared work between operations.

    A round: Koszul homology tables (length 5 with two-digit entries, half
    of them scaled by a common factor; length 6 with one-digit multiples of
    a common factor), Smith forms of dense and rectangular matrices,
    derivation witnesses with replay on torsion ambients of three to five
    invariant factors, and oracle closures of {Z} under the three kind-sets
    over SMALL_UNIVERSE with every modlat cache cleared first, in a seeded
    order, then the known-faulty sequences.  A Koszul table runs under
    LIMIT_S; one that runs out is failed and charged the whole limit.
    """

    name = "lattice-scale"
    tail = 0.90
    koszul_plain, koszul_scaled, koszul_long = 20, 20, 12
    smith_forms = 100
    derivations = 40
    cold_closures = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.first_round = self.operations(0)
        # Called just before the modlat caches are cleared (the tracer folds
        # their hit counts, which clearing resets).
        self.before_cache_clear = None
        self.universe = oracle.Universe(**SMALL_UNIVERSE)
        self.reference_universe = ref.universe(
            SMALL_UNIVERSE["primes"], SMALL_UNIVERSE["max_exponent"],
            SMALL_UNIVERSE["max_rank"], SMALL_UNIVERSE["max_torsion_factors"])
        signal.signal(signal.SIGALRM, _on_alarm)

    def round(self, index: int, ledger: Ledger):
        for op in self.first_round if index == 0 else self.operations(index):
            self.run(op, ledger)

    def warmup(self, ledger: Ledger):
        """The first WARMUP_OPS operations of a round drawn from a fixed seed."""
        for op in self._operations(random.Random("lattice-warmup"))[:WARMUP_OPS]:
            self.run(op, ledger, record=False)

    def operations(self, index: int):
        """The round's operations: seeded ones shuffled, then the faulty ones."""
        return self._operations(random.Random(f"{self.seed}:lattice:{index}"))

    def _operations(self, rng):
        ops = []
        for _ in range(self.koszul_plain):
            ops.append(("koszul", tuple(rng.randint(10, 99) for _ in range(5))))
        # Common factors, shapes and ambient sizes take each value equally
        # often, so every round has the same make-up.
        for i in range(self.koszul_scaled):
            g = (2, 3, 5, 6, 7)[i % 5]
            ops.append(("koszul", tuple(g * rng.randint(-(-10 // g), 99 // g)
                                        for _ in range(5))))
        for i in range(self.koszul_long):
            g = (2, 3)[i % 2]
            ops.append(("koszul", tuple(g * rng.randint(1, 9 // g) for _ in range(6))))
        for i in range(self.smith_forms):
            ops.append(("snf", _dense(rng, *SNF_SHAPES[i % len(SNF_SHAPES)])))
        for i in range(self.derivations):
            ops.append(("derive", _torsion_subgroup(rng, 3 + i % 3)))
        ops += [("close", None)] * self.cold_closures
        rng.shuffle(ops)
        return ops + [("koszul", seq) for seq in FAULTY_KOSZUL]

    def run(self, op, ledger: Ledger, record: bool = True):
        kind, data = op
        if kind == "close":
            if self.before_cache_clear is not None:
                self.before_cache_clear()
            for cache in MODLAT_CACHES:
                cache.cache_clear()
        limit = LIMIT_S if kind == "koszul" else SAFETY_LIMIT_S
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = perf_counter()
        try:
            if kind == "koszul":
                table = complexes.homology_table(complexes.koszul_complex(data))
            elif kind == "close":
                closures = [(name, oracle.close((ZModule.free(1),), kinds, self.universe))
                            for name, kinds in KIND_SETS]
            elif kind == "snf":
                dec = intlinalg.snf(IntMatrix(data))
            else:
                torsion, columns = data
                ambient = ZModule(0, torsion)
                gens = IntMatrix.from_columns(columns, rows=len(torsion))
                final = oracle.derive_submodule(ambient, gens).replay()
            elapsed, failed = perf_counter() - start, False
        except OpTimeout:
            elapsed, failed = limit, True
        except Exception:  # a crash fails the operation; the run goes on
            traceback.print_exc(file=sys.stderr)
            elapsed, failed = perf_counter() - start, True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if record:
            ledger.record(elapsed, failed)
        if failed:
            return
        if kind == "koszul":
            got = [_key(table[i]) for i in range(len(data) + 1)]
            ledger.check(got == ref.koszul_homology(data),
                         f"Koszul homology of {data}: {got}")
        elif kind == "close":
            for name, result in closures:
                problem = closure_problem(name, self.reference_universe, ((1, ()),),
                                          frozenset(_key(m) for m in result.members))
                ledger.check(problem is None, f"{name} closure of Z: {problem}")
        elif kind == "snf":
            problems = ref.smith_problems(data, dec.u.to_lists(), dec.d.to_lists(),
                                          dec.v.to_lists())
            ledger.check(not problems, f"Smith form of a {len(data)}x{len(data[0])} "
                                       f"matrix: {problems}")
        else:
            expected = (0, ref.subgroup_type(torsion, columns))
            ledger.check(_key(final) == expected,
                         f"derivation in {torsion} of {columns}: {_key(final)}")


def _dense(rng, rows, cols):
    return tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))


def _torsion_subgroup(rng, factors):
    """A canonical torsion ambient with the given number of invariant
    factors (order at most 5000) and 1 to 3 random subgroup generators."""
    while True:
        chain = [rng.choice((2, 3, 6))]
        for _ in range(factors - 1):
            chain.append(chain[-1] * rng.choice((1, 1, 2, 3)))
        if prod(chain) <= 5000:
            break
    columns = tuple(tuple(rng.randint(-3, 3) for _ in chain)
                    for _ in range(rng.randint(1, 3)))
    return tuple(chain), columns


# -- criterion-queries ---------------------------------------------------------------

VARIABLES = "abcdefgh"
Z_ORDERS = (2, 3, 4, 5, 6, 8, 9, 10, 12, 25, 27)
CLASSIFY_KINDS = ("serre", "torsion", "coherent", "subext")
CONTEXT_SIZES = tuple(range(3, len(VARIABLES) + 1))
WARMUP_QUERIES = 60
# Equal counts of each request kind the workload is defined by: each listed
# command, on both backends where it has both.  Neither these counts nor the
# repeat share come from measured traffic; they are chosen parameters.
QUERY_KINDS = (
    "module-z", "module-m", "ass-z", "ass-m", "supp-z", "supp-m", "grade",
    "filtration", "member-gens-z", "member-crit-z", "member-gens-m",
    "member-crit-m", "koszul", "snf", "derive",
)
# Each kind's fresh requests of a round take every pairing of monomial
# context size and classify kind once, and the third of the pairings in
# REPEATED come once more, verbatim.  A request's cost depends mostly on
# that pairing (an 8-variable closure criterion costs ten times a
# 3-variable one), so every round has the same make-up and only the drawn
# ideals, literals and matrices change with the seed.
STRATA = tuple((n, k) for k in CLASSIFY_KINDS for n in CONTEXT_SIZES)
REPEATED = frozenset((n, k) for n, k in STRATA
                     if (n + CLASSIFY_KINDS.index(k)) % 3 == 0)
REPEAT_SHARE = len(REPEATED) / (len(STRATA) + len(REPEATED))  # 0.25


def call_cli(argv) -> tuple[int | None, str, float]:
    """Exit code (None after a crash), captured stdout and latency."""
    buffer = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
    except Exception:  # a crash fails the request; the run goes on
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, buffer.getvalue(), perf_counter() - start


class CriterionQueries:
    """Requests through modlat.cli.main(argv), stdout captured, JSON parsed.

    A round has one fresh request of each of QUERY_KINDS for each of
    STRATA, over both backends and monomial contexts of 3 to 8 variables;
    REPEAT_SHARE of the round's requests repeat an earlier one verbatim.
    """

    name = "criterion-queries"
    tail = 0.99

    def __init__(self, seed: int):
        self.seed = seed
        self.first_round = self.requests(0)

    def requests(self, index: int):
        """The round's argv list, each paired with its reference check."""
        return _requests(random.Random(f"{self.seed}:queries:{index}"))

    def warmup(self, ledger: Ledger):
        """The first WARMUP_QUERIES requests of a round from a fixed seed."""
        requests = _requests(random.Random("queries-warmup"))[:WARMUP_QUERIES]
        self._serve(requests, ledger, record=False)

    def round(self, index: int, ledger: Ledger):
        self._serve(self.first_round if index == 0 else self.requests(index), ledger)

    def _serve(self, requests, ledger: Ledger, record: bool = True):
        seen = {}
        for argv, check in requests:
            key = tuple(argv)
            code, text, elapsed = call_cli(argv)
            if record:
                ledger.record(elapsed, failed=code != 0)
            if code != 0:
                continue
            if key in seen:
                ledger.check(text == seen[key], f"{argv}: repeat gave different bytes")
                continue
            seen[key] = text
            problem = check(json.loads(text))
            ledger.check(problem is None, f"{argv}: {problem}")


def _requests(rng):
    """Fresh requests in seeded order; each repeat at a seeded later place."""
    fresh = [(_query(rng, kind, n, kind_name), (n, kind_name) in REPEATED)
             for kind in QUERY_KINDS for n, kind_name in STRATA]
    rng.shuffle(fresh)
    keyed = [(i, request) for i, (request, _) in enumerate(fresh)]
    keyed += [(rng.uniform(i, len(fresh)), request)
              for i, (request, repeat) in enumerate(fresh) if repeat]
    keyed.sort(key=lambda pair: pair[0])
    return [request for _, request in keyed]


def _z_literal(rng, max_rank=2, max_terms=3):
    rank = rng.randrange(max_rank + 1)
    orders = [rng.choice(Z_ORDERS) for _ in range(rng.randrange(max_terms + 1))]
    terms = (["Z"] * rank if rng.random() < 0.5 else ([f"Z^{rank}"] if rank else []))
    terms += [f"Z/{d}" for d in orders]
    rng.shuffle(terms)
    return (" + ".join(terms) if terms else "0"), ref.canonical(rank, orders)


def _ideal(rng, names, max_gens, max_exp=2):
    n = len(names)
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        vec = [0] * n
        for i in rng.sample(range(n), rng.randint(1, min(3, n))):
            vec[i] = rng.randint(1, max_exp)
        gens.append(tuple(vec))
    return gens


def _ideal_text(gens, names):
    return "(" + ", ".join(ref.monomial_text(g, names) for g in gens) + ")"


def _context(n):
    names = list(VARIABLES[:n])
    return names, ["--backend", "monomial", "--vars", ",".join(names)]


def _query(rng, kind, n_vars, kind_name):
    """One fresh request: (argv, check) where check(payload) -> problem|None.
    Monomial requests use the first n_vars variables; classify requests ask
    about kind_name."""
    if kind in ("module-z", "ass-z", "supp-z"):
        text, (rank, torsion) = _z_literal(rng)
        command = kind.split("-")[0]
        if command == "module":
            expect = {"canonical": ref.zmodule_text(rank, torsion),
                      "free_rank": rank, "invariant_factors": list(torsion)}
            return [command, text], lambda p: _diff(
                {k: p.get(k) for k in expect}, expect)
        if command == "ass":
            return [command, text], lambda p: _diff(set(p["ass"]),
                                                    ref.z_ass(rank, torsion))
        return [command, text], lambda p: _diff(
            p["supp"]["members"] if p["supp"]["members"] == "all"
            else set(p["supp"]["members"]), ref.z_supp(rank, torsion))
    if kind in ("module-m", "ass-m", "supp-m"):
        names, backend = _context(n_vars)
        ideals = [_ideal(rng, names, 6 if len(names) == 8 else 4)
                  for _ in range(1 if kind != "module-m" else rng.randint(1, 3))]
        text = " + ".join("R/" + _ideal_text(g, names) for g in ideals)
        command = kind.split("-")[0]
        argv = [command, *backend, text]
        if command == "module":
            return argv, lambda p: _diff(
                sorted(map(sorted, ref.parse_monomial_module(p["canonical"], names))),
                sorted(map(sorted, (ref.minimalize(g) for g in ideals))))
        local = ref.monomial_ass if command == "ass" else ref.monomial_supp
        return argv, lambda p: _diff(
            {ref.parse_prime(q) for q in (p["ass"] if command == "ass"
                                          else p["supp"]["members"])},
            local(ideals[0], names))
    if kind == "grade":
        text, (rank, torsion) = _z_literal(rng)
        n = rng.choice((0, 1, 2, 3, 5, 6, 10, 12, 30))
        return ["grade", "--module", text, "--ideal", f"({n})"], \
            lambda p: _diff(p["grade"], ref.z_grade(n, rank, torsion))
    if kind == "filtration":
        text, module = _z_literal(rng, max_terms=4)
        return ["filtration", text], lambda p: _filtration_problem(p, module)
    if kind in ("member-gens-z", "member-crit-z"):
        text, module = _z_literal(rng)
        argv = ["classify", "member", "--kind", kind_name, "--module", text]
        if kind == "member-gens-z":
            gens = [_z_literal(rng, 1, 2) for _ in range(rng.randint(1, 3))]
            gens = [(t, m) for t, m in gens if t != "0"] or [("Z/2", (0, (2,)))]
            allowed = _union(ref.z_ass if kind_name == "subext" else ref.z_supp,
                             [m for _, m in gens])
            argv += ["--gens", ",".join(t for t, _ in gens)]
        else:
            primes = rng.sample(["(0)", "(2)", "(3)", "(5)", "(7)"], rng.randint(0, 3))
            if kind_name == "subext":
                allowed = set(primes)
                argv += ["--criterion", "set{" + ",".join(primes) + "}"]
            else:
                allowed = "all" if "(0)" in primes else set(primes)
                argv += ["--criterion", "closure{" + ",".join(primes) + "}"]
        inside = (ref.z_ass if kind_name == "subext" else ref.z_supp)(*module)
        expect = _within(inside, allowed)
        return argv, lambda p: _diff(p["member"], expect)
    if kind in ("member-gens-m", "member-crit-m"):
        names, backend = _context(n_vars)
        module_gens = _ideal(rng, names, 3)
        local = ref.monomial_ass if kind_name == "subext" else ref.monomial_supp
        argv = ["classify", "member", *backend, "--kind", kind_name,
                "--module", "R/" + _ideal_text(module_gens, names)]
        if kind == "member-gens-m":
            # Principal ideals only: the --gens list is split at every comma,
            # so a generator module cannot be R/(m1, m2).
            gens = [_ideal(rng, names, 1) for _ in range(rng.randint(1, 3))]
            allowed = lambda: set().union(*(local(g, names) for g in gens))
            argv += ["--gens", ",".join("R/" + _ideal_text(g, names) for g in gens)]
        else:
            primes = [frozenset(rng.sample(names, rng.randint(0, len(names))))
                      for _ in range(rng.randint(1, 3))]
            literal = ",".join("(" + (",".join(sorted(p)) or "0") + ")" for p in primes)
            if kind_name == "subext":
                allowed = lambda: set(primes)
                argv += ["--criterion", "set{" + literal + "}"]
            else:
                allowed = lambda: ref.closure_of(primes, names)
                argv += ["--criterion", "closure{" + literal + "}"]
        return argv, lambda p: _diff(p["member"],
                                     local(module_gens, names) <= allowed())
    if kind == "koszul":
        g = rng.choice((1, 2, 3, 6))
        seq = [g * rng.randint(1, 15) for _ in range(rng.randint(2, 4))]
        return ["koszul", ",".join(map(str, seq))], lambda p: _diff(
            [p["homology"][str(i)] for i in range(len(seq) + 1)],
            [ref.zmodule_text(*h) for h in ref.koszul_homology(seq)])
    if kind == "snf":
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        return ["snf", json.dumps(a)], lambda p: "; ".join(
            ref.smith_problems(a, p["u"], p["d"], p["v"])) or None
    # derive: torsion ambient with up to three invariant factors
    chain = [rng.choice((2, 3, 4))]
    for _ in range(rng.randint(0, 2)):
        chain.append(chain[-1] * rng.choice((1, 2, 3)))
    columns = [[rng.randint(-3, 3) for _ in chain] for _ in range(rng.randint(1, 3))]
    sub = "; ".join("+".join(f"{c}*g{i}" for i, c in enumerate(col)).replace("+-", "-")
                    for col in columns)
    # "--sub=" keeps argparse from reading a leading minus sign as an option.
    return ["oracle", "derive", "--ambient", " + ".join(f"Z/{d}" for d in chain),
            f"--sub={sub}"], lambda p: _diff(
                p["subgroup_class"], ref.zmodule_text(0, ref.subgroup_type(chain, columns)))


def _union(local, modules):
    parts = [local(*m) for m in modules]
    return "all" if "all" in parts else set().union(*parts)


def _within(inside, allowed):
    if allowed == "all":
        return True
    return inside != "all" and inside <= allowed


def _filtration_problem(payload, module):
    rank, torsion = module
    if ref.parse_zmodule(payload["module"]) != module:
        return f"module read as {payload['module']}"
    orders = [int(i[1:-1]) for i in payload["ideals"]]
    steps = [ref.parse_zmodule(s) for s in payload["steps"]]
    if len(steps) != len(orders) + 1 or steps[0] != module or steps[-1] != (0, ()):
        return "chain does not run from the module to zero"
    for d, (r0, t0), (r1, t1) in zip(orders, steps, steps[1:]):
        if (d == 0 and (r1 != r0 - 1 or prod(t1) != prod(t0))) or \
                (d != 0 and (r1 != r0 or prod(t0) != prod(t1) * d)):
            return f"step by ({d}) does not peel a cyclic of that annihilator"
    if sorted(orders) != sorted(list(torsion) + [0] * rank):
        return "annihilators are not the generator orders"
    return None


def _diff(got, expect):
    return None if got == expect else f"got {got!r}, expected {expect!r}"


WORKLOADS = {w.name: w for w in (LatticeScale, CriterionQueries)}
