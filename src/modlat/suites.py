"""Verification suites: report types, random generators and suite drivers.

Each driver exercises one family of checks and returns a SuiteReport; the
randomized ones with one outcome share `_trial_suite`, which owns the seeded
rng and the trial loop.  The command line reaches them through
`run_all_suites` and its classify subcommands, and the test suite calls them
directly.  All randomness is derived from the caller's seed, so reports are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod

from . import complexes, monomials, oracle, zmodules
from .classify import (
    ClosureKind,
    Subcategory,
    ass_member,
    ass_union,
    cyclic_prime_quotient,
    generated_member,
    serre_part,
    supp_member,
    supp_union,
    torsion_closure,
)
from .intlinalg import IntMatrix, det, invert_unimodular, smith_diagonal, snf
from .monomials import MonomialIdeal, MonomialModule
from .oracle import Universe
from .spectrum import (
    PrimeId,
    SpecSubset,
    Z_BACKEND,
    all_monomial_primes,
    monomial_backend,
    v_of_ideal,
)
from .zmodules import INFINITY, IdealZ, ZModule

ACCEPTANCE_UNIVERSE = Universe(primes=(2, 3), max_exponent=2, max_rank=1,
                               max_torsion_factors=2)
RANK_TWO_UNIVERSE = Universe(primes=(2, 3), max_exponent=1, max_rank=2,
                             max_torsion_factors=2)


# -- reports --------------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    name: str
    seed: int | None
    checks: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckOutcome]:
        return [c for c in self.checks if not c.passed]


# -- random generation -----------------------------------------------------

Z_PRIME_POOL = (2, 3, 5, 7)


def random_zmodule(rng: random.Random, max_rank: int = 2) -> ZModule:
    """Z^r, r <= max_rank, plus at most 3 cyclics of order p or p^2."""
    rank = rng.randrange(max_rank + 1)
    orders = [rng.choice(Z_PRIME_POOL) ** rng.randrange(1, 3) for _ in range(rng.randrange(4))]
    return ZModule.from_cyclic_orders(rank, orders)


def random_ideal_z(rng: random.Random) -> IdealZ:
    roll = rng.random()
    if roll < 0.1:
        return IdealZ(0)
    if roll < 0.2:
        return IdealZ(1)
    n = 1
    for _ in range(rng.randrange(1, 3)):
        n *= rng.choice(Z_PRIME_POOL) ** rng.randrange(1, 3)
    return IdealZ(n)


def random_monomial_ideal(rng: random.Random, context) -> MonomialIdeal:
    """At most 3 generators, with exponents 1 or 2 on a random support."""
    roll = rng.random()
    if roll < 0.1:
        return MonomialIdeal.zero(context)
    if roll < 0.15:
        return MonomialIdeal.unit(context)
    n = len(context)
    vectors = []
    for _ in range(rng.randrange(1, 4)):
        vec = [0] * n
        support = rng.sample(range(n), rng.randrange(1, n + 1))
        for i in support:
            vec[i] = rng.randrange(1, 3)
        vectors.append(tuple(vec))
    return MonomialIdeal.of(context, vectors)


def random_monomial_module(rng: random.Random, context) -> MonomialModule:
    count = rng.randrange(3)  # at most 2 summands
    return MonomialModule(
        tuple(context),
        tuple(random_monomial_ideal(rng, context) for _ in range(count)),
    )


def random_module(rng: random.Random, backend):
    if tuple(backend) == Z_BACKEND:
        return random_zmodule(rng)
    return random_monomial_module(rng, backend[1])


def random_int_matrix(rng: random.Random) -> IntMatrix:
    """At most 6 x 6, with entries in [-50, 50]."""
    rows = rng.randrange(1, 7)
    cols = rng.randrange(1, 7)
    return IntMatrix([[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)])


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


# -- the trial loop ---------------------------------------------------------


def _trial_suite(name: str, tag: str, seed: int, trials: int, statement: str,
                 check) -> SuiteReport:
    """A report of one outcome: `check(rng, t)` runs trial t on the rng
    seeded from (seed, tag) and returns its failure, or None when it passes.
    The outcome's detail lists the first 3 failures."""
    rng = random.Random(f"{seed}:{tag}")
    failures = [failure for t in range(trials) if (failure := check(rng, t))]
    return SuiteReport(name, seed, (CheckOutcome(
        statement, not failures, "; ".join(failures[:3])),))


def _snf_trial(rng: random.Random, t: int) -> str | None:
    a = random_int_matrix(rng)
    dec = snf(a)
    if dec.u @ a @ dec.v != dec.d:
        return f"trial {t}: U*A*V != D for {a.to_lists()}"
    if abs(det(dec.u)) != 1 or abs(det(dec.v)) != 1:
        return f"trial {t}: transform not unimodular"
    diag = dec.diagonal()
    if any(x < 0 for x in diag):
        return f"trial {t}: negative diagonal {diag}"
    chain = [x for x in diag if x != 0]
    if any(b % a_ for a_, b in zip(chain, chain[1:])):
        return f"trial {t}: chain violated {diag}"
    if smith_diagonal(a) != diag:
        return f"trial {t}: snf and smith_diagonal disagree on {a.to_lists()}"
    if invert_unimodular(dec.u) @ dec.d @ invert_unimodular(dec.v) != a:
        return f"trial {t}: inverse recomposition failed"
    return None


def snf_suite(trials: int = 1000, seed: int = 0) -> SuiteReport:
    """Random Smith form checks: exact factorization, unimodularity,
    divisibility chain, and agreement with the diagonal elimination."""
    return _trial_suite(
        "snf", "snf", seed, trials,
        f"{trials} random matrices reduce exactly and agree with smith_diagonal",
        _snf_trial)


# -- the ten membership correspondences -------------------------------------


@dataclass(frozen=True)
class Correspondence:
    item: int
    slug: str
    description: str
    backends: tuple[str, ...]  # "z", "monomial"


CORRESPONDENCES = {c.item: c for c in (
    Correspondence(1, "torsion", "ideal-torsion modules vs the vanishing locus", ("z", "monomial")),
    Correspondence(2, "positive-grade", "positive grade against a fixed module vs avoiding its support", ("z",)),
    Correspondence(3, "torsionfree", "ideal-torsionfree modules vs the complement of the vanishing locus", ("z",)),
    Correspondence(4, "grade-bound", "grade at least n against a fixed module, primewise", ("z",)),
    Correspondence(5, "rank-zero", "rank zero vs positive-grade primes", ("z",)),
    Correspondence(6, "regular-elements", "regular elements transfer vs grade-zero primes", ("z", "monomial")),
    Correspondence(7, "classical-torsionfree", "torsionfree modules vs grade-zero primes", ("z",)),
    Correspondence(8, "height-bound", "annihilator height at least n, primewise", ("z", "monomial")),
    Correspondence(9, "dim-bound", "dimension at most n, primewise", ("z", "monomial")),
    Correspondence(10, "finite-length", "finite length vs maximal ideals", ("z", "monomial")),
)}


def _grade_of_prime_z(prime: PrimeId, x: ZModule):
    return zmodules.grade_ideal(IdealZ(0 if prime.kind == "z_generic" else prime.p), x)


def _z_regular_probes(x: ZModule, m: ZModule) -> list[int]:
    """0 and the product of every nonempty set of the primes of x and m and
    one control prime of neither."""
    pool = {p for mod in (x, m) for p, _ in mod.primary_factors}
    pool.add(next(p for p in (2, 3, 5, 7, 11, 13) if p not in pool))
    return [0] + [prod(c) for k in range(1, len(pool) + 1)
                  for c in combinations(sorted(pool), k)]


def _correspondence_trial_z(item: int, rng: random.Random):
    """One trial: returns (context string, module-side values, prime-side predicate)."""
    m = random_zmodule(rng)
    ass_primes = sorted(zmodules.ass(m).generators, key=PrimeId.sort_key)

    if item == 1:
        ideal = random_ideal_z(rng)
        module_side = [("torsion-part-is-everything",
                        zmodules.is_torsion(ideal, m))]
        locus = v_of_ideal(ideal)
        spec_side = all(locus.contains(p) for p in ass_primes)
        ctx = f"M={m} I={ideal}"
    elif item == 2:
        x = _nonzero(lambda: random_zmodule(rng))
        module_side = [("grade-positive", zmodules.grade_module(x, m) > 0),
                       ("hom-vanishes", zmodules.hom(x, m).is_zero())]
        support = zmodules.supp(x)
        spec_side = all(not support.contains(p) for p in ass_primes)
        ctx = f"M={m} X={x}"
    elif item == 3:
        ideal = random_ideal_z(rng)
        module_side = [("torsion-part-vanishes", zmodules.is_torsionfree(ideal, m)),
                       ("grade-positive", zmodules.grade_ideal(ideal, m) > 0)]
        locus = v_of_ideal(ideal)
        spec_side = all(not locus.contains(p) for p in ass_primes)
        ctx = f"M={m} I={ideal}"
    elif item == 4:
        x = _nonzero(lambda: random_zmodule(rng))
        n = rng.randrange(3)
        grade = INFINITY if m.is_zero() else zmodules.grade_module(m, x)
        module_side = [("grade-at-least-n", grade >= n)]
        spec_side = all(_grade_of_prime_z(p, x) >= n for p in ass_primes)
        ctx = f"M={m} X={x} n={n}"
    elif item == 5:
        one = ZModule.free(1)
        module_side = [("rank-zero", zmodules.rank(m) == 0),
                       ("hom-into-ring-vanishes", zmodules.hom(m, one).is_zero()),
                       ("annihilator-grade-positive",
                        zmodules.grade_ideal(zmodules.ann(m), one) > 0)]
        spec_side = all(_grade_of_prime_z(p, one) > 0 for p in ass_primes)
        ctx = f"M={m}"
    elif item == 6:
        x = _nonzero(lambda: random_zmodule(rng))
        probes = _z_regular_probes(x, m)
        transfer = all(
            zmodules.is_regular_element(a, m)
            for a in probes
            if zmodules.is_regular_element(a, x)
        )
        module_side = [("regular-elements-transfer", transfer)]
        spec_side = all(_grade_of_prime_z(p, x) == 0 for p in ass_primes)
        ctx = f"M={m} X={x}"
    elif item == 7:
        module_side = [("no-torsion-part", not m.torsion)]
        one = ZModule.free(1)
        spec_side = all(_grade_of_prime_z(p, one) == 0 for p in ass_primes)
        ctx = f"M={m}"
    elif item == 8:
        n = rng.randrange(3)
        module_side = [("annihilator-height", zmodules.height_ann(m) >= n)]
        spec_side = all(p.height() >= n for p in ass_primes)
        ctx = f"M={m} n={n}"
    elif item == 9:
        n = rng.randrange(3)
        d = zmodules.dim(m)
        module_side = [("dimension-bound", d is None or d <= n)]
        spec_side = all((1 if p.kind == "z_generic" else 0) <= n for p in ass_primes)
        ctx = f"M={m} n={n}"
    elif item == 10:
        module_side = [("finite-length", zmodules.length(m) != INFINITY)]
        spec_side = all(p.is_maximal() for p in ass_primes)
        ctx = f"M={m}"
    else:
        raise ValueError(f"unknown correspondence item {item}")
    return ctx, module_side, spec_side


def _nonzero(draw):
    """The first nonzero module that `draw()` returns."""
    while True:
        x = draw()
        if not x.is_zero():
            return x


def _variable_sums_transfer(x: MonomialModule, m: MonomialModule) -> bool:
    """Whether every sum e_T of a set T of variables regular on x is regular
    on m.  Such sets are closed upward (an associated prime of a monomial
    module is generated by variables, and holds e_T when it holds each x_v
    in T), so only the minimal sets regular on x are decided, smallest
    first; a superset of one found regular on x (and so on m) is skipped."""
    regular = []
    for size in range(1, len(x.context) + 1):
        for combo in combinations(x.context, size):
            if any(t <= set(combo) for t in regular):
                continue
            if all(monomials.variable_sum_regular(combo, s) for s in x.summands):
                if not all(monomials.variable_sum_regular(combo, s) for s in m.summands):
                    return False
                regular.append(set(combo))
    return True


def _correspondence_trial_monomial(item: int, rng: random.Random, context):
    m = random_monomial_module(rng, context)
    ass_primes = sorted(monomials.ass(m), key=PrimeId.sort_key)
    nvars = len(context)

    if item == 1:
        ideal = random_monomial_ideal(rng, context)
        module_side = [("torsion-by-radical-membership",
                        monomials.is_torsion_module(ideal, m))]
        locus = v_of_ideal(ideal)
        spec_side = all(locus.contains(p) for p in ass_primes)
        ctx = f"M={m} I={ideal}"
    elif item == 6:
        x = _nonzero(lambda: random_monomial_module(rng, context))
        module_side = [("regular-variable-sums-transfer", _variable_sums_transfer(x, m))]
        spec_side = all(monomials.grade_zero(p, x) for p in ass_primes)
        ctx = f"M={m} X={x}"
    elif item == 8:
        n = rng.randrange(nvars + 2)
        a = monomials.ann(m)
        ht = INFINITY if a.is_unit() else monomials.height(a)
        module_side = [("annihilator-height", ht >= n)]
        spec_side = all(p.height() >= n for p in ass_primes)
        ctx = f"M={m} n={n}"
    elif item == 9:
        n = rng.randrange(nvars + 1)
        d = monomials.module_dim(m)
        module_side = [("dimension-bound", d is None or d <= n)]
        spec_side = all(nvars - len(p.vars) <= n for p in ass_primes)
        ctx = f"M={m} n={n}"
    elif item == 10:
        module_side = [("pure-powers-of-every-variable",
                        monomials.is_module_finite_length(m))]
        spec_side = all(p.is_maximal() for p in ass_primes)
        ctx = f"M={m}"
    else:
        raise ValueError(f"item {item} is not defined over the monomial backend")
    return ctx, module_side, spec_side


def correspondence_suite(item: int, backend, trials: int, seed: int = 0) -> SuiteReport:
    """Random equivalence check of one of the ten membership correspondences.

    Every trial computes the module-side predicates and the primewise
    spectrum-side predicate through independent code paths and requires them
    all to agree.
    """
    if item not in CORRESPONDENCES:
        raise ValueError(f"unknown correspondence item {item}")
    spec = CORRESPONDENCES[item]
    backend = tuple(backend)
    tag = "z" if backend == Z_BACKEND else "monomial"
    if tag not in spec.backends:
        raise ValueError(f"correspondence {item} ({spec.slug}) is not defined over {tag}")
    rng = random.Random(f"{seed}:correspondence:{item}:{tag}")
    checks = []
    mismatches = 0
    for t in range(trials):
        if tag == "z":
            ctx, module_side, spec_side = _correspondence_trial_z(item, rng)
        else:
            ctx, module_side, spec_side = _correspondence_trial_monomial(item, rng, backend[1])
        bad = [name for name, value in module_side if value != spec_side]
        if bad:
            mismatches += 1
            checks.append(CheckOutcome(
                f"item {item} trial {t}", False,
                f"{ctx}: spec-side={spec_side}, disagreeing: {bad}"))
    checks.append(CheckOutcome(
        f"item {item} ({spec.slug}) over {tag}: {trials} trials",
        mismatches == 0,
        f"{mismatches} mismatches"))
    return SuiteReport(f"correspondence:{item}:{tag}", seed, tuple(checks))


# -- probe lattices and bijection round trips --------------------------------


def probe_subsets(backend, z_primes, max_generators: int,
                  closed: bool) -> list[SpecSubset]:
    """Every subset with at most `max_generators` generators from the
    backend's prime pool (Z's generic point and the maximal ideals at
    `z_primes`, or every monomial prime), by size and then in pool order;
    each denotes the specialization closure of its generators when `closed`,
    else exactly them."""
    backend = tuple(backend)
    if backend == Z_BACKEND:
        pool = [PrimeId.z_generic()] + [PrimeId.z_maximal(p) for p in z_primes]
    else:
        pool = all_monomial_primes(backend[1])
    make = SpecSubset.closure if closed else SpecSubset.explicit
    return [make(combo, backend=backend)
            for size in range(min(max_generators, len(pool)) + 1)
            for combo in combinations(pool, size)]


def _probe_family(subset: SpecSubset) -> list:
    """Modules R/p for the generators of a subset (its canonical probes)."""
    return [cyclic_prime_quotient(p) for p in
            sorted(subset.generators, key=PrimeId.sort_key)]


def roundtrip_suite(backend, seed: int = 0, probe_trials: int = 200) -> SuiteReport:
    """Round-trip and agreement checks for the criterion maps.

    For every representable subset S with at most 4 primes:
    the union of associated primes of the probe family {R/p : p in S} is S.
    For specialization-closed S the support criterion and the
    associated-primes criterion agree on random probe modules, and the join
    of the probe family supports recovers S.
    """
    backend = tuple(backend)
    rng = random.Random(f"{seed}:roundtrip:{backend}")
    subsets = probe_subsets(backend, Z_PRIME_POOL, 4, closed=False)
    checks = []
    for subset in subsets:
        probes = _probe_family(subset)
        recovered = ass_union(probes, backend)
        checks.append(CheckOutcome(
            f"prime-union of probes recovers {subset}",
            recovered == subset,
            "" if recovered == subset else f"got {recovered}"))

    closed = [s for s in subsets if s.is_specialization_closed()]
    for subset in closed:
        probes = _probe_family(subset)
        joined = supp_union(probes, backend)
        ok = joined == subset
        checks.append(CheckOutcome(
            f"support join of probes recovers {subset}",
            ok, "" if ok else f"got {joined}"))

    agreement_failures = []
    for t in range(probe_trials):
        m = random_module(rng, backend)
        subset = rng.choice(closed)
        by_supp = supp_member(m, subset)
        by_ass = ass_member(m, subset)
        if by_supp != by_ass:
            agreement_failures.append(f"M={m} S={subset}")
    checks.append(CheckOutcome(
        f"criterion agreement on closed subsets ({probe_trials} probes)",
        not agreement_failures,
        "; ".join(agreement_failures[:3])))
    return SuiteReport(f"roundtrip:{backend}", seed, tuple(checks))


# -- adjunction checks -----------------------------------------------------

ADJUNCTION_PAIRS = ("supp-criterion", "serre-torsion", "ass-criterion")


def adjunction_report(pair: str, generator_families, subsets) -> SuiteReport:
    """Exhaustive a/b probe check of left(a) <= b iff a <= right(b).

    * "supp-criterion": left sends a generator family to the join of its
      supports; right is support-criterion membership.
    * "serre-torsion": the torsion closure of a Serre description against the
      support criterion of a torsion description (identity on criteria here,
      but evaluated through two different code paths).
    * "ass-criterion": left is the union of associated primes; right is the
      associated-primes criterion, with arbitrary subsets allowed.
    """
    if pair not in ADJUNCTION_PAIRS:
        raise ValueError(f"unknown adjunction pair {pair!r}")
    checks = []
    for gens in generator_families:
        gens = list(gens)
        for subset in subsets:
            if pair == "supp-criterion":
                left = supp_union(gens, subset.backend).leq(subset)
                right = all(supp_member(g, subset) for g in gens)
            elif pair == "serre-torsion":
                below = Subcategory.by_generators(ClosureKind.SERRE, gens)
                above = Subcategory.by_criterion(ClosureKind.TORSION, subset)
                left = torsion_closure(below).criterion_set(subset.backend).leq(
                    above.criterion)
                right = all(serre_part(above).member(g) for g in gens)
            else:
                left = ass_union(gens, subset.backend).leq(subset)
                right = all(ass_member(g, subset) for g in gens)
            name = f"{pair}: gens=[{', '.join(str(g) for g in gens)}] vs {subset}"
            checks.append(CheckOutcome(name, left == right,
                                       "" if left == right else f"left={left} right={right}"))
    return SuiteReport(f"adjunction:{pair}", None, tuple(checks))


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
    subsets = probe_subsets(backend, (2, 3, 5), 3, closed=True)
    modules = probe_modules(backend)
    families = [[]] + [[m] for m in modules] + [
        list(pair) for pair in combinations(modules, 2)
    ]
    arbitrary = [SpecSubset.explicit(s.generators, backend=backend) for s in subsets]
    checks = []
    for pair, probes in zip(ADJUNCTION_PAIRS, (subsets, subsets, arbitrary)):
        report = adjunction_report(pair, families, probes)
        checks.append(CheckOutcome(
            f"{pair} adjunction over {len(families)}x{len(probes)} probes",
            report.passed,
            "; ".join(c.name for c in report.failures()[:3])))
    # round trip: the support join of the canonical probe family of a closed
    # subset recovers the subset
    rt_failures = []
    for subset in subsets:
        probes = _probe_family(subset)
        if probes and supp_union(probes, backend) != subset:
            rt_failures.append(str(subset))
        if not probes and not subset.leq(SpecSubset.empty(backend)):
            rt_failures.append(str(subset))
    checks.append(CheckOutcome(
        "support join of canonical probes recovers each closed subset",
        not rt_failures, "; ".join(rt_failures[:3])))
    return SuiteReport(f"adjunction:{backend}", seed, tuple(checks))


# -- oracle closures ----------------------------------------------------------


def generator_sets(universe: Universe):
    """Every set of at most 2 nonzero members."""
    members = [m for m in universe.members() if not m.is_zero()]
    return [(), *((m,) for m in members), *combinations(members, 2)]


def _closure_check(universe: Universe, kinds, criterion: ClosureKind,
                   what: str) -> CheckOutcome:
    """Oracle closure of every generator set of `generator_sets` against
    the universe's members of the subcategory of kind `criterion` that the
    set generates, decided by the criterion maps."""
    failures = []
    count = 0
    for gens in generator_sets(universe):
        count += 1
        result = oracle.close(gens, kinds, universe)
        expected = frozenset(m for m in universe.members()
                             if generated_member(m, gens, criterion))
        if result.members != expected:
            missing = sorted(expected - result.members, key=str)
            extra = sorted(result.members - expected, key=str)
            failures.append(
                f"gens={[str(g) for g in gens]}: missing={missing} extra={extra}")
    return CheckOutcome(f"{count} generator sets: closure matches {what}",
                        not failures, "; ".join(failures[:3]))


def serre_closure_suite(universe: Universe = ACCEPTANCE_UNIVERSE,
                        seed: int = 0) -> SuiteReport:
    """Oracle closure under subobjects/quotients/extensions/sums equals the
    support criterion set, for every set of at most 2 generators."""
    kinds = {"subobjects", "quotients", "extensions", "finite_sums"}
    check = _closure_check(universe, kinds, ClosureKind.SERRE,
                           "the support criterion exactly")
    return SuiteReport("serre-closure", seed, (check,))


def subext_closure_suite(universe: Universe = ACCEPTANCE_UNIVERSE,
                         seed: int = 0) -> SuiteReport:
    """Oracle closure under subobjects/extensions equals the associated-primes
    criterion set, plus the discriminating free-generator probe."""
    check = _closure_check(universe, {"subobjects", "extensions"},
                           ClosureKind.SUBEXT, "the associated-primes criterion")
    probe_serre = generated_member(ZModule.cyclic(2), [ZModule.free(1)],
                                   ClosureKind.SERRE)
    probe_subext = generated_member(ZModule.cyclic(2), [ZModule.free(1)],
                                    ClosureKind.SUBEXT)
    probe = CheckOutcome(
        "Z/2 lies in the Serre closure of Z but not in its sub+ext closure",
        probe_serre and not probe_subext,
        f"serre={probe_serre} subext={probe_subext}")
    return SuiteReport("subext-closure", seed, (check, probe))


def coherent_closure_suite(universes=(ACCEPTANCE_UNIVERSE, RANK_TWO_UNIVERSE),
                           seed: int = 0) -> SuiteReport:
    """Oracle closure under kernels/cokernels/extensions/sums equals the
    support criterion set, for every set of at most 2 generators in each
    universe: coherent subcategories are Serre, the paper's theorem."""
    kinds = {"kernels", "cokernels", "extensions", "finite_sums"}
    return SuiteReport("coherent", seed, tuple(
        _closure_check(u, kinds, ClosureKind.COHERENT,
                       f"the support criterion exactly, free rank <= {u.max_rank}")
        for u in universes))


def _derivation_trial(rng: random.Random, t: int) -> str | None:
    ambient, gens = random_ambient_and_subgroup(rng)
    expected = zmodules.subgroup_type(ambient, gens)
    trace = oracle.derive_submodule(ambient, gens)
    try:
        final = trace.replay()
    except oracle.ReplayError as exc:
        return f"trial {t}: replay failed: {exc}"
    if final != expected:
        return f"trial {t}: derived {final}, subgroup is {expected}"
    allowed = {"start", "kernel", "cokernel", "summand"}
    if any(s.op not in allowed for s in trace.steps):
        return f"trial {t}: illegal operation in trace"
    return None


def derivation_suite(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Random explicit submodules: the derivation witness replays and lands
    on the submodule's class using only the permitted operations."""
    return _trial_suite(
        "derivation", "derive", seed, trials,
        f"{trials} random submodule derivations replay to the right class",
        _derivation_trial)


def _koszul_cyclic_trial(rng: random.Random, t: int) -> str | None:
    size = rng.randrange(1, 5)
    gens = [rng.randint(-30, 30) for _ in range(size)]
    n = gcd(*gens)
    report = complexes.koszul_cyclic_check(n, gens)
    if not report.passed:
        bad = [name for name, ok in report.checks if not ok]
        return f"trial {t} gens={gens}: failed {bad}"
    if n == 1 and any(not h.is_zero() for _, h in report.homology):
        return f"trial {t} gens={gens}: unit ideal but inexact"
    return None


def koszul_cyclic_suite(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Koszul complexes of random generating sets realize the cyclic module:
    degree-zero homology, annihilation, and support all check out."""
    return _trial_suite(
        "koszul-cyclic", "koszul", seed, trials,
        f"{trials} random Koszul complexes realize their cyclic module",
        _koszul_cyclic_trial)


def _filtration_trial(rng: random.Random, t: int) -> str | None:
    m = random_zmodule(rng)
    ideals = zmodules.cyclic_filtration(m)
    steps = zmodules.filtration_steps(m)
    if steps[0] != m or not steps[-1].is_zero():
        return f"trial {t} M={m}: endpoints wrong"
    if len(steps) != len(ideals) + 1:
        return f"trial {t} M={m}: length mismatch"
    for i, ideal in enumerate(ideals):
        cur, nxt = steps[i], steps[i + 1]
        g = cur.generator_count
        col = IntMatrix.from_columns(
            [[1 if r == 0 else 0 for r in range(g)]], rows=g)
        sub_type = zmodules.subgroup_type(cur, col)
        if sub_type != ZModule.cyclic(ideal.n):
            return (f"trial {t} M={m} step {i}: first generator spans {sub_type}, "
                    f"annihilator says {ideal}")
        quot = zmodules.cokernel(zmodules.ZModuleMap(
            ZModule.free(1), cur, col))
        if quot != nxt:
            return f"trial {t} M={m} step {i}: quotient {quot} != {nxt}"
    if sum(1 for i in ideals if i.is_zero()) != m.free_rank:
        return f"trial {t} M={m}: rank accounting failed"
    if prod(i.n for i in ideals if not i.is_zero()) != m.torsion_order():
        return f"trial {t} M={m}: order accounting failed"
    return None


def filtration_suite(trials: int = 500, seed: int = 0) -> SuiteReport:
    """Cyclic filtrations replay: every step is a legal quotient and the
    ranks and lengths telescope back to the module's invariants."""
    return _trial_suite(
        "filtration", "filtration", seed, trials,
        f"{trials} random filtrations replay with telescoping accounting",
        _filtration_trial)


def _coprimary_trial(rng: random.Random, t: int) -> str | None:
    m = random_zmodule(rng)
    comps = zmodules.coprimary_components(m)
    primes = {p for p, _ in comps}
    if primes != set(zmodules.ass(m).generators):
        return f"trial {t} M={m}: component primes != associated primes"
    rank_total = sum(c.free_rank for _, c in comps)
    order_total = prod(c.torsion_order() for _, c in comps)
    if rank_total != m.free_rank or order_total != m.torsion_order():
        return f"trial {t} M={m}: diagonal accounting failed"
    for p, c in comps:
        if p.kind != "z_maximal":
            continue
        chain = zmodules.coprimary_chain(c, p)
        if not chain[-1].is_zero() or chain[0] != c:
            return f"trial {t} M={m}: chain endpoints wrong at {p}"
        lengths = [zmodules.length(step) for step in chain]
        if any(a <= b for a, b in zip(lengths, lengths[1:])):
            return f"trial {t} M={m}: chain not strictly decreasing"
        if len(chain) - 1 > zmodules.length(c):
            return f"trial {t} M={m}: chain longer than the length"
        for step, nxt in zip(chain, chain[1:]):
            # each layer step/next embeds in a power of R/p, so it is
            # elementary: one length unit per surviving generator
            layer_length = zmodules.length(step) - zmodules.length(nxt)
            if layer_length != len(step.torsion):
                return f"trial {t} M={m}: layer at {p} is not elementary"
    return None


def coprimary_suite(trials: int = 500, seed: int = 0) -> SuiteReport:
    """Coprimary pieces account for the whole module and the descending
    chains reach zero within the length bound, strictly decreasing."""
    return _trial_suite(
        "coprimary", "coprimary", seed, trials,
        f"{trials} random modules: coprimary accounting and chains check out",
        _coprimary_trial)


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
    for item, spec in sorted(CORRESPONDENCES.items()):
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
    "coherent": lambda seed, n, context: [coherent_closure_suite(seed=seed)],
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
