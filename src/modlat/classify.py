"""Membership criteria and lattice maps between subcategory descriptions
and subsets of the spectrum.

Subcategories are never materialized as object collections.  A description is
either a criterion (a Spec subset plus a closure kind) or a finite generator
list; the maps here convert between the two and decide membership:

  * support criterion: a module belongs when its support sits inside the
    subset (torsion classes, Serre and coherent subcategories);
  * associated-primes criterion: a module belongs when its associated primes
    sit inside the subset (subcategories closed under submodules and
    extensions, where the subset may be arbitrary).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import singledispatch
from itertools import combinations

from . import monomials, zmodules
from .monomials import MonomialIdeal, MonomialModule
from .spectrum import PrimeId, SpecSubset, Z_BACKEND, all_monomial_primes, v_of_ideal
from .zmodules import INFINITY, IdealZ, ZModule


class ClosureKind(Enum):
    TORSION = "torsion"
    SERRE = "serre"
    COHERENT = "coherent"
    SUBEXT = "subext"


SUPP_KINDS = (ClosureKind.TORSION, ClosureKind.SERRE, ClosureKind.COHERENT)


@singledispatch
def supp_of(module) -> SpecSubset:
    raise TypeError(f"unsupported module type {type(module).__name__}")


@supp_of.register
def _(module: ZModule) -> SpecSubset:
    return zmodules.supp(module)


@supp_of.register
def _(module: MonomialModule) -> SpecSubset:
    return monomials.supp(module)


@singledispatch
def ass_of(module) -> SpecSubset:
    raise TypeError(f"unsupported module type {type(module).__name__}")


@ass_of.register
def _(module: ZModule) -> SpecSubset:
    return zmodules.ass(module)


@ass_of.register
def _(module: MonomialModule) -> SpecSubset:
    return SpecSubset.explicit(monomials.ass(module), backend=module.backend)


def backend_of(module) -> tuple:
    if isinstance(module, ZModule):
        return Z_BACKEND
    if isinstance(module, MonomialModule):
        return module.backend
    raise TypeError(f"unsupported module type {type(module).__name__}")


# -- criterion maps -------------------------------------------------------


def supp_member(module, subset: SpecSubset) -> bool:
    """Support criterion; the subset must be specialization-closed."""
    if not subset.is_specialization_closed():
        raise ValueError("support criterion needs a specialization-closed subset")
    return supp_of(module).leq(subset)


def supp_union(modules, backend=None) -> SpecSubset:
    """Join of the supports of the given modules (a closed subset)."""
    modules = list(modules)
    if not modules and backend is None:
        raise ValueError("cannot infer a backend from an empty module list")
    out = SpecSubset.empty(backend if backend is not None else backend_of(modules[0]))
    for m in modules:
        out = out.join(supp_of(m))
    return out


def ass_member(module, subset: SpecSubset) -> bool:
    """Associated-primes criterion against an arbitrary subset."""
    return ass_of(module).leq(subset)


def ass_union(modules, backend=None) -> SpecSubset:
    """Union of the associated primes of the given modules (explicit subset)."""
    modules = list(modules)
    if not modules and backend is None:
        raise ValueError("cannot infer a backend from an empty module list")
    backend = backend if backend is not None else backend_of(modules[0])
    primes = set()
    for m in modules:
        primes.update(ass_of(m).generators)
    return SpecSubset.explicit(primes, backend=backend)


def generated_member(module, generators, kind: ClosureKind) -> bool:
    """Membership in the subcategory of the given kind generated by `generators`."""
    generators = list(generators)
    backends = {backend_of(g) for g in generators} | {backend_of(module)}
    if len(backends) > 1:
        raise ValueError("modules from different backends")
    backend = backends.pop()
    if kind in SUPP_KINDS:
        return supp_of(module).leq(supp_union(generators, backend))
    return ass_of(module).leq(ass_union(generators, backend))


@dataclass(frozen=True)
class Subcategory:
    """A finitely described subcategory: criterion or generator list."""

    kind: ClosureKind
    criterion: SpecSubset | None = None
    generators: tuple | None = None

    def __post_init__(self):
        if (self.criterion is None) == (self.generators is None):
            raise ValueError("exactly one of criterion/generators required")
        if self.criterion is not None and self.kind in SUPP_KINDS:
            if not self.criterion.is_specialization_closed():
                raise ValueError(f"{self.kind.value} criterion must be specialization-closed")

    @classmethod
    def by_criterion(cls, kind: ClosureKind, subset: SpecSubset) -> "Subcategory":
        return cls(kind, criterion=subset)

    @classmethod
    def by_generators(cls, kind: ClosureKind, generators) -> "Subcategory":
        return cls(kind, generators=tuple(generators))

    def criterion_set(self, backend=None) -> SpecSubset:
        if self.criterion is not None:
            return self.criterion
        if self.kind in SUPP_KINDS:
            return supp_union(self.generators, backend)
        return ass_union(self.generators, backend)

    def member(self, module) -> bool:
        if self.generators is not None:
            return generated_member(module, self.generators, self.kind)
        if self.kind in SUPP_KINDS:
            return supp_member(module, self.criterion)
        return ass_member(module, self.criterion)


def serre_part(subcat: Subcategory) -> Subcategory:
    """Intersection of a torsion class with the finitely generated world.

    Over a noetherian base this is a pure tag change: the criterion subset is
    untouched.
    """
    if subcat.kind is not ClosureKind.TORSION:
        raise ValueError("serre_part applies to torsion classes")
    return Subcategory(ClosureKind.SERRE, subcat.criterion, subcat.generators)


def torsion_closure(subcat: Subcategory) -> Subcategory:
    """Torsion class generated by a Serre subcategory (tag change only)."""
    if subcat.kind is not ClosureKind.SERRE:
        raise ValueError("torsion_closure applies to Serre subcategories")
    return Subcategory(ClosureKind.TORSION, subcat.criterion, subcat.generators)


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


def _probe_family(subset: SpecSubset) -> list:
    """Modules R/p for the generators of a subset (its canonical probes)."""
    return [cyclic_prime_quotient(p) for p in
            sorted(subset.generators, key=PrimeId.sort_key)]


def cyclic_prime_quotient(prime: PrimeId):
    """The module R/p for a representable prime."""
    if prime.kind == "z_generic":
        return ZModule.free(1)
    if prime.kind == "z_maximal":
        return ZModule.cyclic(prime.p)
    n = len(prime.context)
    vectors = [
        tuple(1 if i == j else 0 for i in range(n))
        for j, v in enumerate(prime.context)
        if v in prime.vars
    ]
    ideal = (MonomialIdeal.of(prime.context, vectors)
             if vectors else MonomialIdeal.zero(prime.context))
    return MonomialModule.cyclic(ideal)


# -- random generation -----------------------------------------------------

Z_PRIME_POOL = (2, 3, 5, 7)


def random_zmodule(rng: random.Random, max_rank: int = 2, max_factors: int = 3,
                   max_exponent: int = 2, primes=Z_PRIME_POOL) -> ZModule:
    rank = rng.randrange(max_rank + 1)
    orders = []
    for _ in range(rng.randrange(max_factors + 1)):
        p = rng.choice(primes)
        orders.append(p ** rng.randrange(1, max_exponent + 1))
    return ZModule.from_cyclic_orders(rank, orders)


def random_ideal_z(rng: random.Random, primes=Z_PRIME_POOL) -> IdealZ:
    roll = rng.random()
    if roll < 0.1:
        return IdealZ(0)
    if roll < 0.2:
        return IdealZ(1)
    n = 1
    for _ in range(rng.randrange(1, 3)):
        n *= rng.choice(primes) ** rng.randrange(1, 3)
    return IdealZ(n)


def random_monomial_ideal(rng: random.Random, context,
                          max_gens: int = 3, max_exponent: int = 2) -> MonomialIdeal:
    roll = rng.random()
    if roll < 0.1:
        return MonomialIdeal.zero(context)
    if roll < 0.15:
        return MonomialIdeal.unit(context)
    n = len(context)
    vectors = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        vec = [0] * n
        support = rng.sample(range(n), rng.randrange(1, n + 1))
        for i in support:
            vec[i] = rng.randrange(1, max_exponent + 1)
        vectors.append(tuple(vec))
    return MonomialIdeal.of(context, vectors)


def random_monomial_module(rng: random.Random, context,
                           max_summands: int = 2) -> MonomialModule:
    count = rng.randrange(max_summands + 1)
    return MonomialModule(
        tuple(context),
        tuple(random_monomial_ideal(rng, context) for _ in range(count)),
    )


def random_module(rng: random.Random, backend):
    if tuple(backend) == Z_BACKEND:
        return random_zmodule(rng)
    return random_monomial_module(rng, backend[1])


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
    pool = set()
    for mod in (x, m):
        for p, _ in mod.primary_factors:
            pool.add(p)
    control = next(p for p in (2, 3, 5, 7, 11, 13) if p not in pool)
    pool.add(control)
    pool = sorted(pool)
    probes = [0]
    for mask in range(1, 2 ** len(pool)):
        prod = 1
        for i, p in enumerate(pool):
            if mask >> i & 1:
                prod *= p
        probes.append(prod)
    return probes


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
        x = _nonzero_zmodule(rng)
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
        x = _nonzero_zmodule(rng)
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
        x = _nonzero_zmodule(rng)
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


def _nonzero_zmodule(rng) -> ZModule:
    while True:
        x = random_zmodule(rng)
        if not x.is_zero():
            return x


def _nonzero_monomial_module(rng, context) -> MonomialModule:
    while True:
        x = random_monomial_module(rng, context)
        if not x.is_zero():
            return x


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
        x = _nonzero_monomial_module(rng, context)
        transfer = True
        for size in range(1, nvars + 1):
            for combo in combinations(context, size):
                x_regular = all(
                    monomials.variable_sum_regular(combo, s) for s in x.summands
                )
                if not x_regular:
                    continue
                if not all(monomials.variable_sum_regular(combo, s) for s in m.summands):
                    transfer = False
        module_side = [("regular-variable-sums-transfer", transfer)]
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


# -- bijection round trips ---------------------------------------------------


def z_prime_pool() -> list[PrimeId]:
    return [PrimeId.z_generic()] + [PrimeId.z_maximal(p) for p in (2, 3, 5, 7)]


def roundtrip_suite(backend, seed: int = 0, probe_trials: int = 200,
                    max_generators: int = 4) -> SuiteReport:
    """Round-trip and agreement checks for the criterion maps.

    For every representable subset S with at most `max_generators` primes:
    the union of associated primes of the probe family {R/p : p in S} is S.
    For specialization-closed S the support criterion and the
    associated-primes criterion agree on random probe modules, and the join
    of the probe family supports recovers S.
    """
    backend = tuple(backend)
    rng = random.Random(f"{seed}:roundtrip:{backend}")
    if backend == Z_BACKEND:
        pool = z_prime_pool()
    else:
        pool = list(all_monomial_primes(backend[1]))
    checks = []
    subsets = []
    for size in range(min(max_generators, len(pool)) + 1):
        for combo in combinations(pool, size):
            subsets.append(SpecSubset.explicit(combo, backend=backend))

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
