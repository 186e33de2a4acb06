"""Verification suite drivers.

Each driver exercises one family of checks and returns a SuiteReport; the
command line runs them through `run_suite` / `run_all_suites` and the test
suite calls them directly.  All randomness is derived from the caller's seed,
so reports are reproducible.
"""

from __future__ import annotations

import random
from itertools import combinations

from . import classify, complexes, oracle, zmodules
from .classify import (
    CheckOutcome,
    ClosureKind,
    SuiteReport,
    ass_union,
    correspondence_suite,
    generated_member,
    roundtrip_suite,
    supp_union,
)
from .intlinalg import IntMatrix, det, invert_unimodular, snf
from .monomials import MonomialIdeal, MonomialModule
from .oracle import Universe
from .spectrum import PrimeId, SpecSubset, Z_BACKEND, monomial_backend
from .zmodules import ZModule

ACCEPTANCE_UNIVERSE = Universe(primes=(2, 3), max_exponent=2, max_rank=1,
                               max_torsion_factors=2)


def _rng(seed, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def random_int_matrix(rng: random.Random, max_dim: int = 6,
                      max_entry: int = 50) -> IntMatrix:
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    return IntMatrix(
        [[rng.randint(-max_entry, max_entry) for _ in range(cols)]
         for _ in range(rows)]
    )


def snf_suite(trials: int = 1000, seed: int = 0) -> SuiteReport:
    """Random Smith form checks: exact factorization, unimodularity,
    divisibility chain, and agreement between the two pivot strategies."""
    rng = _rng(seed, "snf")
    failures = []
    for t in range(trials):
        a = random_int_matrix(rng)
        dec = snf(a)
        if dec.u @ a @ dec.v != dec.d:
            failures.append(f"trial {t}: U*A*V != D for {a.to_lists()}")
            continue
        if abs(det(dec.u)) != 1 or abs(det(dec.v)) != 1:
            failures.append(f"trial {t}: transform not unimodular")
            continue
        diag = dec.diagonal()
        if any(x < 0 for x in diag):
            failures.append(f"trial {t}: negative diagonal {diag}")
            continue
        chain = [x for x in diag if x != 0]
        if any(b % a_ for a_, b in zip(chain, chain[1:])):
            failures.append(f"trial {t}: chain violated {diag}")
            continue
        other = snf(a, strategy="first_nonzero")
        if other.diagonal() != diag:
            failures.append(f"trial {t}: strategies disagree on {a.to_lists()}")
            continue
        if invert_unimodular(dec.u) @ dec.d @ invert_unimodular(dec.v) != a:
            failures.append(f"trial {t}: inverse recomposition failed")
    checks = (CheckOutcome(
        f"{trials} random matrices reduce exactly under both pivot strategies",
        not failures, "; ".join(failures[:3])),)
    return SuiteReport("snf", seed, checks)


# -- adjunction probes --------------------------------------------------------


def closed_probe_subsets(backend, max_generators: int = 3) -> list[SpecSubset]:
    backend = tuple(backend)
    if backend == Z_BACKEND:
        pool = [PrimeId.z_generic()] + [PrimeId.z_maximal(p) for p in (2, 3, 5)]
    else:
        from .spectrum import all_monomial_primes
        pool = list(all_monomial_primes(backend[1]))
    out = []
    for size in range(min(max_generators, len(pool)) + 1):
        for combo in combinations(pool, size):
            out.append(SpecSubset.closure(combo, backend=backend))
    return out


def probe_modules(backend) -> list:
    backend = tuple(backend)
    if backend == Z_BACKEND:
        return [
            ZModule.zero(), ZModule.free(1), ZModule.cyclic(2), ZModule.cyclic(3),
            ZModule.cyclic(4), ZModule.cyclic(6),
            ZModule.from_cyclic_orders(1, [2]),
        ]
    context = backend[1]
    mods = [MonomialModule.zero(context),
            MonomialModule.cyclic(MonomialIdeal.zero(context))]
    for i, v in enumerate(context):
        vec = tuple(1 if j == i else 0 for j in range(len(context)))
        mods.append(MonomialModule.cyclic(MonomialIdeal.of(context, [vec])))
    return mods


def adjunction_suite(backend, seed: int = 0) -> SuiteReport:
    """Exhaustive adjunction and round-trip checks over the probe lattices."""
    backend = tuple(backend)
    subsets = closed_probe_subsets(backend)
    modules = probe_modules(backend)
    families = [[]] + [[m] for m in modules] + [
        list(pair) for pair in combinations(modules, 2)
    ]
    checks = []
    for pair in ("supp-criterion", "serre-torsion"):
        report = classify.adjunction_report(pair, families, subsets)
        checks.append(CheckOutcome(
            f"{pair} adjunction over {len(families)}x{len(subsets)} probes",
            report.passed,
            "; ".join(c.name for c in report.failures()[:3])))
    arbitrary = [SpecSubset.explicit(s.generators, backend=backend) for s in subsets]
    report = classify.adjunction_report("ass-criterion", families, arbitrary)
    checks.append(CheckOutcome(
        f"ass-criterion adjunction over {len(families)}x{len(arbitrary)} probes",
        report.passed,
        "; ".join(c.name for c in report.failures()[:3])))
    # round trip: the support join of the canonical probe family of a closed
    # subset recovers the subset
    rt_failures = []
    for subset in subsets:
        probes = classify._probe_family(subset)
        if probes and supp_union(probes, backend) != subset:
            rt_failures.append(str(subset))
        if not probes and not subset.leq(SpecSubset.empty(backend)):
            rt_failures.append(str(subset))
    checks.append(CheckOutcome(
        "support join of canonical probes recovers each closed subset",
        not rt_failures, "; ".join(rt_failures[:3])))
    return SuiteReport(f"adjunction:{backend}", seed, tuple(checks))


# -- oracle closures ----------------------------------------------------------


def _supp_criterion_set(gens, universe: Universe) -> frozenset:
    target = supp_union(gens, Z_BACKEND)
    return frozenset(
        m for m in universe.members() if zmodules.supp(m).leq(target)
    )


def _ass_criterion_set(gens, universe: Universe) -> frozenset:
    target = ass_union(gens, Z_BACKEND)
    return frozenset(
        m for m in universe.members() if zmodules.ass(m).leq(target)
    )


def generator_sets(universe: Universe, max_size: int = 2):
    members = [m for m in universe.members() if not m.is_zero()]
    out = [()]
    out.extend((m,) for m in members)
    if max_size >= 2:
        out.extend(combinations(members, 2))
    return out


def _closure_check(universe: Universe, max_size: int, kinds, criterion,
                   what: str) -> CheckOutcome:
    """Oracle closure of every generator set up to the given size against
    the set that `criterion(gens, universe)` describes."""
    failures = []
    count = 0
    for gens in generator_sets(universe, max_size):
        count += 1
        result = oracle.close(gens, kinds, universe)
        expected = criterion(gens, universe)
        if result.members != expected:
            missing = sorted(expected - result.members, key=str)
            extra = sorted(result.members - expected, key=str)
            failures.append(
                f"gens={[str(g) for g in gens]}: missing={missing} extra={extra}")
    return CheckOutcome(f"{count} generator sets: closure matches {what}",
                        not failures, "; ".join(failures[:3]))


def serre_closure_suite(universe: Universe = ACCEPTANCE_UNIVERSE,
                        seed: int = 0, max_size: int = 2) -> SuiteReport:
    """Oracle closure under subobjects/quotients/extensions/sums equals the
    support criterion set, for every generator set up to the given size."""
    kinds = {"subobjects", "quotients", "extensions", "finite_sums"}
    check = _closure_check(universe, max_size, kinds, _supp_criterion_set,
                           "the support criterion exactly")
    return SuiteReport("serre-closure", seed, (check,))


def subext_closure_suite(universe: Universe = ACCEPTANCE_UNIVERSE,
                         seed: int = 0, max_size: int = 2) -> SuiteReport:
    """Oracle closure under subobjects/extensions equals the associated-primes
    criterion set, plus the discriminating free-generator probe."""
    check = _closure_check(universe, max_size, {"subobjects", "extensions"},
                           _ass_criterion_set, "the associated-primes criterion")
    probe_serre = generated_member(ZModule.cyclic(2), [ZModule.free(1)],
                                   ClosureKind.SERRE)
    probe_subext = generated_member(ZModule.cyclic(2), [ZModule.free(1)],
                                    ClosureKind.SUBEXT)
    probe = CheckOutcome(
        "Z/2 lies in the Serre closure of Z but not in its sub+ext closure",
        probe_serre and not probe_subext,
        f"serre={probe_serre} subext={probe_subext}")
    return SuiteReport("subext-closure", seed, (check, probe))


def coherent_closure_suite(universe: Universe = ACCEPTANCE_UNIVERSE,
                           trials: int = 50, seed: int = 0) -> SuiteReport:
    """Closures under kernels/cokernels/extensions/sums are submodule- and
    quotient-closed (the coherent-implies-Serre statement at desk scale)."""
    rng = _rng(seed, "coherent")
    kinds = {"kernels", "cokernels", "extensions", "finite_sums"}
    members = [m for m in universe.members() if not m.is_zero()]
    failures = []
    for t in range(trials):
        gens = rng.sample(members, rng.randrange(1, 3))
        result = oracle.close(gens, kinds, universe)
        ok, counter = oracle.check_closed(result.members, "subobjects", universe)
        if not ok:
            failures.append(f"trial {t} gens={[str(g) for g in gens]}: "
                            f"subobject escape {counter}")
            continue
        ok, counter = oracle.check_closed(result.members, "quotients", universe)
        if not ok:
            failures.append(f"trial {t} gens={[str(g) for g in gens]}: "
                            f"quotient escape {counter}")
    checks = (CheckOutcome(
        f"{trials} random coherent closures are closed under submodules and quotients",
        not failures, "; ".join(failures[:2])),)
    return SuiteReport("coherent", seed, checks)


def random_ambient_and_subgroup(rng: random.Random):
    ambient = ZModule.from_cyclic_orders(
        rng.randrange(3),
        [rng.choice((2, 3, 4, 5, 8, 9)) for _ in range(rng.randrange(3))],
    )
    g = ambient.generator_count
    if g == 0:
        return ambient, IntMatrix.zeros(0, 0)
    cols = []
    for _ in range(rng.randrange(1, 4)):
        cols.append([rng.randint(-3, 3) for _ in range(g)])
    return ambient, IntMatrix.from_columns(cols, rows=g)


def derivation_suite(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Random explicit submodules: the derivation witness replays and lands
    on the submodule's class using only the permitted operations."""
    rng = _rng(seed, "derive")
    allowed = {"start", "kernel", "cokernel", "summand", "finite_sum"}
    failures = []
    for t in range(trials):
        ambient, gens = random_ambient_and_subgroup(rng)
        expected = zmodules.subgroup_type(ambient, gens)
        trace = oracle.derive_submodule(ambient, gens)
        try:
            final = trace.replay()
        except oracle.ReplayError as exc:
            failures.append(f"trial {t}: replay failed: {exc}")
            continue
        if final != expected:
            failures.append(f"trial {t}: derived {final}, subgroup is {expected}")
            continue
        if any(s.op not in allowed for s in trace.steps):
            failures.append(f"trial {t}: illegal operation in trace")
    checks = (CheckOutcome(
        f"{trials} random submodule derivations replay to the right class",
        not failures, "; ".join(failures[:3])),)
    return SuiteReport("derivation", seed, checks)


def koszul_cyclic_suite(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Koszul complexes of random generating sets realize the cyclic module:
    degree-zero homology, annihilation, and support all check out."""
    rng = _rng(seed, "koszul")
    failures = []
    from math import gcd
    for t in range(trials):
        size = rng.randrange(1, 5)
        gens = [rng.randint(-30, 30) for _ in range(size)]
        n = 0
        for x in gens:
            n = gcd(n, x)
        report = complexes.koszul_cyclic_check(n, gens)
        if not report.passed:
            bad = [name for name, ok in report.checks if not ok]
            failures.append(f"trial {t} gens={gens}: failed {bad}")
            continue
        if n == 1 and any(not h.is_zero() for _, h in report.homology):
            failures.append(f"trial {t} gens={gens}: unit ideal but inexact")
    checks = (CheckOutcome(
        f"{trials} random Koszul complexes realize their cyclic module",
        not failures, "; ".join(failures[:3])),)
    return SuiteReport("koszul-cyclic", seed, checks)


def filtration_suite(trials: int = 500, seed: int = 0) -> SuiteReport:
    """Cyclic filtrations replay: every step is a legal quotient and the
    ranks and lengths telescope back to the module's invariants."""
    rng = _rng(seed, "filtration")
    failures = []
    for t in range(trials):
        m = classify.random_zmodule(rng, max_rank=2, max_factors=3)
        ideals = zmodules.cyclic_filtration(m)
        steps = zmodules.filtration_steps(m)
        if steps[0] != m or not steps[-1].is_zero():
            failures.append(f"trial {t} M={m}: endpoints wrong")
            continue
        if len(steps) != len(ideals) + 1:
            failures.append(f"trial {t} M={m}: length mismatch")
            continue
        ok = True
        for i, ideal in enumerate(ideals):
            cur, nxt = steps[i], steps[i + 1]
            g = cur.generator_count
            col = IntMatrix.from_columns(
                [[1 if r == 0 else 0 for r in range(g)]], rows=g)
            sub_type = zmodules.subgroup_type(cur, col)
            if sub_type != ZModule.cyclic(ideal.n):
                failures.append(
                    f"trial {t} M={m} step {i}: first generator spans {sub_type}, "
                    f"annihilator says {ideal}")
                ok = False
                break
            quot = zmodules.cokernel(zmodules.ZModuleMap(
                ZModule.free(1), cur, col))
            if quot != nxt:
                failures.append(
                    f"trial {t} M={m} step {i}: quotient {quot} != {nxt}")
                ok = False
                break
        if not ok:
            continue
        free_steps = sum(1 for i in ideals if i.is_zero())
        finite = [i.n for i in ideals if not i.is_zero()]
        if free_steps != m.free_rank:
            failures.append(f"trial {t} M={m}: rank accounting failed")
            continue
        total = 1
        for n in finite:
            total *= n
        if total != m.torsion_order():
            failures.append(f"trial {t} M={m}: order accounting failed")
    checks = (CheckOutcome(
        f"{trials} random filtrations replay with telescoping accounting",
        not failures, "; ".join(failures[:3])),)
    return SuiteReport("filtration", seed, checks)


def coprimary_suite(trials: int = 500, seed: int = 0) -> SuiteReport:
    """Coprimary pieces account for the whole module and the descending
    chains reach zero within the length bound, strictly decreasing."""
    rng = _rng(seed, "coprimary")
    failures = []
    for t in range(trials):
        m = classify.random_zmodule(rng, max_rank=2, max_factors=3)
        comps = zmodules.coprimary_components(m)
        primes = {p for p, _ in comps}
        if primes != set(zmodules.ass(m).generators):
            failures.append(f"trial {t} M={m}: component primes != associated primes")
            continue
        rank_total = sum(c.free_rank for _, c in comps)
        order_total = 1
        for _, c in comps:
            order_total *= c.torsion_order()
        if rank_total != m.free_rank or order_total != m.torsion_order():
            failures.append(f"trial {t} M={m}: diagonal accounting failed")
            continue
        for p, c in comps:
            if p.kind != "z_maximal":
                continue
            chain = zmodules.coprimary_chain(c, p)
            if not chain[-1].is_zero() or chain[0] != c:
                failures.append(f"trial {t} M={m}: chain endpoints wrong at {p}")
                break
            lengths = [zmodules.length(step) for step in chain]
            if any(a <= b for a, b in zip(lengths, lengths[1:])):
                failures.append(f"trial {t} M={m}: chain not strictly decreasing")
                break
            if len(chain) - 1 > zmodules.length(c):
                failures.append(f"trial {t} M={m}: chain longer than the length")
                break
            for step, nxt in zip(chain, chain[1:]):
                # each layer step/next embeds in a power of R/p, so it is
                # elementary: one length unit per surviving generator
                layer_length = zmodules.length(step) - zmodules.length(nxt)
                if layer_length != len(step.torsion):
                    failures.append(
                        f"trial {t} M={m}: layer at {p} is not elementary")
                    break
    checks = (CheckOutcome(
        f"{trials} random modules: coprimary accounting and chains check out",
        not failures, "; ".join(failures[:3])),)
    return SuiteReport("coprimary", seed, checks)


def thick_support_suite(seed: int = 0) -> SuiteReport:
    """Koszul probe complexes of the generators of a closed subset are
    members of its homology-support class and their supports join back to
    the subset; a probe supported outside is rejected."""
    pool = (2, 3, 5, 7)
    failures = []
    count = 0
    for size in range(4):
        for combo in combinations(pool, size):
            count += 1
            subset = SpecSubset.closure(
                [PrimeId.z_maximal(p) for p in combo], backend=Z_BACKEND)
            probes = [complexes.koszul_complex([p]) for p in combo]
            if not all(complexes.thick_member(c, subset) for c in probes):
                failures.append(f"{subset}: generator probe rejected")
                continue
            joined = SpecSubset.empty(Z_BACKEND)
            for c in probes:
                joined = joined.join(complexes.complex_support(c))
            if joined != subset:
                failures.append(f"{subset}: probe supports join to {joined}")
                continue
            outside = next(p for p in pool + (11,) if p not in combo)
            rogue = complexes.koszul_complex([outside])
            if complexes.thick_member(rogue, subset):
                failures.append(f"{subset}: outside probe accepted")
    checks = (CheckOutcome(
        f"{count} closed subsets: membership and support joins are exact",
        not failures, "; ".join(failures[:3])),)
    return SuiteReport("thick-support", seed, checks)


# -- registry -----------------------------------------------------------------


def correspondence_all(trials: int = 500, seed: int = 0,
                       context=("x", "y", "z")) -> list[SuiteReport]:
    reports = []
    for item, spec in sorted(classify.CORRESPONDENCES.items()):
        if "z" in spec.backends:
            reports.append(correspondence_suite(item, Z_BACKEND, trials, seed))
        if "monomial" in spec.backends:
            reports.append(correspondence_suite(
                item, monomial_backend(context), trials, seed))
    return reports


# name -> runner(seed, n, context), in the order `run_all_suites` runs them;
# n(default) is the trial count, which `trials` overrides when given.
_RUNNERS = {
    "snf": lambda seed, n, context: [snf_suite(n(1000), seed)],
    "roundtrip": lambda seed, n, context: [
        roundtrip_suite(Z_BACKEND, seed, probe_trials=n(200)),
        roundtrip_suite(monomial_backend(context), seed, probe_trials=n(200))],
    "adjunction": lambda seed, n, context: [
        adjunction_suite(Z_BACKEND, seed),
        adjunction_suite(monomial_backend(("x", "y")), seed)],
    "serre-closure": lambda seed, n, context: [serre_closure_suite(seed=seed)],
    "subext-closure": lambda seed, n, context: [subext_closure_suite(seed=seed)],
    "coherent": lambda seed, n, context: [
        coherent_closure_suite(trials=n(50), seed=seed)],
    "derivation": lambda seed, n, context: [derivation_suite(n(200), seed)],
    "koszul-cyclic": lambda seed, n, context: [koszul_cyclic_suite(n(200), seed)],
    "filtration": lambda seed, n, context: [filtration_suite(n(500), seed)],
    "coprimary": lambda seed, n, context: [coprimary_suite(n(500), seed)],
    "correspondences": lambda seed, n, context: correspondence_all(
        n(500), seed, context),
    "thick-support": lambda seed, n, context: [thick_support_suite(seed)],
}
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(name: str, seed: int = 0, trials: int | None = None,
              context=("x", "y", "z")) -> list[SuiteReport]:
    """Run one named suite; `trials` scales the randomized drivers."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; pick from {SUITE_NAMES}")

    def n(default):
        return default if trials is None else trials

    return _RUNNERS[name](seed, n, context)


def run_all_suites(seed: int = 0, trials: int | None = None,
                   only: str | None = None,
                   context=("x", "y", "z")) -> list[SuiteReport]:
    names = [only] if only else list(SUITE_NAMES)
    reports = []
    for name in names:
        reports.extend(run_suite(name, seed=seed, trials=trials, context=context))
    return reports
