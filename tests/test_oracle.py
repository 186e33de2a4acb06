"""Closure oracle tests.

The torsion tables, read off partitions, are compared with the element and
cocycle enumeration of `torsion_reference`; the extension table is also
cross-checked by an element-level search over candidate middle terms
(complete for torsion inputs); closures are checked against the criterion
sets they classify.
"""

import random
import time
from itertools import combinations_with_replacement, product
from math import gcd

import pytest
import torsion_reference as reference

from modlat import intlinalg, oracle, zmodules
from modlat.classify import ass_union, supp_union
from modlat.intlinalg import IntMatrix
from modlat.oracle import (
    ClosureResult,
    DerivationTrace,
    OracleCapError,
    Universe,
    check_closed,
    close,
    derive_submodule,
    extension_types,
    image_types,
    kernel_types,
    quotient_types,
    subobject_types,
    summand_types,
    surjects_onto,
)
from modlat.spectrum import Z_BACKEND
from modlat.suites import RANK_TWO_UNIVERSE as RANK_TWO, generator_sets
from modlat.zmodules import (
    ZModule,
    ZModuleMap,
    ass,
    direct_sum,
    subgroup_lattice,
    subgroup_type,
    supp,
)

SMALL = Universe(primes=(2,), max_exponent=2, max_rank=1, max_torsion_factors=2)
ACCEPT = Universe(primes=(2, 3), max_exponent=2, max_rank=1, max_torsion_factors=2)


def test_universe_enumeration_examples():
    u = Universe(primes=(2,), max_exponent=1, max_rank=0, max_torsion_factors=1)
    assert [str(m) for m in u.members()] == ["0", "Z/2"]
    u = Universe(primes=(2,), max_exponent=2, max_rank=0, max_torsion_factors=1)
    assert [str(m) for m in u.members()] == ["0", "Z/2", "Z/4"]
    u = Universe(primes=(2,), max_exponent=1, max_rank=1, max_torsion_factors=1)
    assert set(u.members()) == {
        ZModule.zero(), ZModule.cyclic(2), ZModule.free(1),
        ZModule.from_cyclic_orders(1, [2])}
    u = Universe(primes=(2,), max_exponent=0, max_rank=1, max_torsion_factors=0)
    assert u.members() == (ZModule.zero(), ZModule.free(1))


def test_universe_membership():
    assert ZModule.cyclic(12) in ACCEPT          # primary parts {4, 9}... (4,3)
    assert ZModule.cyclic(8) not in ACCEPT       # exponent 3
    assert ZModule.from_cyclic_orders(2, []) not in ACCEPT
    assert ZModule.from_cyclic_orders(0, [2, 2, 2]) not in ACCEPT
    assert ZModule.cyclic(5) not in ACCEPT


@pytest.mark.parametrize("primes", [(4,), (6,), (0,), (1,), (-2,), (2, 9), (3, 2, 1)])
def test_universe_refuses_non_primes(primes):
    bad = next(p for p in primes if p not in (2, 3))
    with pytest.raises(ValueError, match=f"^{bad} is not a prime number$"):
        Universe(primes=primes, max_exponent=1, max_rank=0, max_torsion_factors=1)


@pytest.mark.parametrize("bound", ["max_exponent", "max_rank", "max_torsion_factors"])
def test_universe_refuses_negative_bounds(bound):
    bounds = dict(max_exponent=1, max_rank=0, max_torsion_factors=1)
    bounds[bound] = -1
    with pytest.raises(ValueError, match=f"^{bound} must be nonnegative, got -1$"):
        Universe(primes=(2,), **bounds)


def test_universe_sorts_and_dedups_primes():
    u = Universe(primes=(3, 2, 3), max_exponent=1, max_rank=0, max_torsion_factors=1)
    assert u.primes == (2, 3)
    assert Universe(primes=(), max_exponent=1, max_rank=1,
                    max_torsion_factors=1).members() == (ZModule.zero(), ZModule.free(1))


def test_universe_cap():
    with pytest.raises(OracleCapError):
        Universe(primes=(2, 3, 5, 7), max_exponent=4, max_rank=2,
                 max_torsion_factors=4).members()


def test_universe_class_count_matches_its_members():
    for k, exponent, factors, rank in product(range(4), range(4), range(4), range(3)):
        u = Universe(primes=(2, 3, 5)[:k], max_exponent=exponent, max_rank=rank,
                     max_torsion_factors=factors)
        members = u.members()
        assert u.class_count() == len(members) == len(set(members))
        assert all(m in u for m in members)


def _members_by_factoring(universe):
    """The universe by the enumeration `_enumerate_universe` replaced: each
    multiset of prime powers canonicalized by factoring its orders."""
    powers = [p ** e for p in universe.primes
              for e in range(1, universe.max_exponent + 1)]
    out = [ZModule.from_cyclic_orders(rank, t)
           for rank in range(universe.max_rank + 1)
           for size in range(universe.max_torsion_factors + 1)
           for t in combinations_with_replacement(powers, size)]
    return tuple(sorted(out, key=lambda m: (m.free_rank, len(m.torsion), m.torsion)))


def test_universe_members_built_without_factoring():
    from modlat.suites import ACCEPTANCE_UNIVERSE

    for u in (
        # the benchmark's SMALL_UNIVERSE
        Universe(primes=(2, 3), max_exponent=1, max_rank=1, max_torsion_factors=2),
        ACCEPTANCE_UNIVERSE,
        # the CI closures: the CLI default, the torsion cap and past it
        Universe(primes=(2, 3), max_exponent=2, max_rank=1, max_torsion_factors=2),
        Universe(primes=(2,), max_exponent=7, max_rank=1, max_torsion_factors=2),
        Universe(primes=(2,), max_exponent=9, max_rank=1, max_torsion_factors=2),
        # three primes, two of rank and three factors
        Universe(primes=(2, 3, 5), max_exponent=2, max_rank=2, max_torsion_factors=3),
    ):
        assert u.members() == _members_by_factoring(u), u
    # the CI's 5,000 classes, which factoring took seconds to enumerate
    start = time.process_time()
    u = Universe(primes=(2,), max_exponent=4999, max_rank=0, max_torsion_factors=1)
    assert u.members() == (ZModule.zero(),) + tuple(
        ZModule(0, (2 ** e,)) for e in range(1, 5000))
    assert time.process_time() - start < 2.0


def test_universe_refused_before_enumeration():
    # C(10**9 + 10**9, 10**9) classes: the count stops once past the cap
    with pytest.raises(OracleCapError, match="more than 5000 classes"):
        Universe(primes=(2,), max_exponent=10 ** 9, max_rank=0,
                 max_torsion_factors=10 ** 9)


def test_subobject_types_examples():
    assert subobject_types(ZModule.cyclic(4)) == frozenset(
        {ZModule.zero(), ZModule.cyclic(2), ZModule.cyclic(4)})
    assert subobject_types(ZModule.free(1)) == frozenset(
        {ZModule.zero(), ZModule.free(1)})
    sq = ZModule.from_cyclic_orders(0, [2, 2])
    assert subobject_types(sq) == frozenset(
        {ZModule.zero(), ZModule.cyclic(2), sq})


def test_quotient_types_examples():
    assert quotient_types(ZModule.cyclic(4), SMALL) == frozenset(
        {ZModule.zero(), ZModule.cyclic(2), ZModule.cyclic(4)})
    free_quotients = quotient_types(ZModule.free(1), SMALL)
    assert ZModule.cyclic(4) in free_quotients
    assert ZModule.from_cyclic_orders(0, [2, 2]) not in free_quotients
    assert quotient_types(ZModule.zero(), SMALL) == frozenset({ZModule.zero()})


def test_surjections():
    assert surjects_onto(ZModule.free(1), ZModule.cyclic(36))
    assert not surjects_onto(ZModule.cyclic(2), ZModule.cyclic(4))
    assert surjects_onto(ZModule.cyclic(4), ZModule.cyclic(2))
    assert not surjects_onto(ZModule.cyclic(4),
                             ZModule.from_cyclic_orders(0, [2, 2]))
    assert surjects_onto(ZModule.from_cyclic_orders(1, [2]),
                         ZModule.from_cyclic_orders(0, [2, 4]))


def _enclosing(a: ZModule, c: ZModule) -> Universe:
    """A universe that holds every middle term of an extension of c by a:
    their primes, exponents up to the largest of each added, and their free
    ranks and primary factor counts added."""
    top = [max((e for _, e in m.primary_factors), default=0) for m in (a, c)]
    return Universe(primes={p for m in (a, c) for p, _ in m.primary_factors},
                    max_exponent=sum(top), max_rank=a.free_rank + c.free_rank,
                    max_torsion_factors=len(a.primary_factors) + len(c.primary_factors))


def _all_extensions(a: ZModule, c: ZModule) -> frozenset:
    """Every middle term, from `extension_types` over `_enclosing(a, c)`,
    where none escapes."""
    classes, clipped = extension_types(a, c, _enclosing(a, c))
    assert not clipped, (a, c)
    return classes


def _lr_unbounded(mu, nu) -> dict:
    """`oracle._lr` in a box that every lambda fits: len mu + len nu rows
    and mu_1 + nu_1 columns."""
    return oracle._lr(mu, nu, len(mu) + len(nu),
                      max(mu, default=0) + max(nu, default=0))


def test_extension_types_examples():
    assert _all_extensions(ZModule.cyclic(2), ZModule.cyclic(2)) == frozenset(
        {ZModule.from_cyclic_orders(0, [2, 2]), ZModule.cyclic(4)})
    assert _all_extensions(ZModule.free(1), ZModule.free(1)) == frozenset(
        {ZModule.free(2)})
    assert _all_extensions(ZModule.zero(), ZModule.cyclic(4)) == frozenset(
        {ZModule.cyclic(4)})
    # split sum always present
    a, c = ZModule.from_cyclic_orders(1, [2]), ZModule.cyclic(4)
    assert direct_sum(a, c) in _all_extensions(a, c)


def middle_terms_oracle(a: ZModule, c: ZModule) -> frozenset:
    """Element-level search for middle terms of torsion extensions.

    Complete for torsion inputs: candidates have order |a|*|c|, and a
    candidate works exactly when it has a subgroup of class `a` with
    quotient of class `c`.
    """
    assert a.free_rank == 0 and c.free_rank == 0
    target_order = a.torsion_order() * c.torsion_order()
    out = set()
    for b in _all_abelian_groups_of_order(target_order):
        orders = b.torsion
        for sub in reference._all_subgroups(orders):
            if (reference._subgroup_type(orders, sub) == a
                    and reference._quotient_type(orders, sub) == c):
                out.add(b)
                break
    return frozenset(out)


def _all_abelian_groups_of_order(n: int) -> list[ZModule]:
    out = []

    def partitions(total):
        if total == 0:
            yield ()
            return
        for first in range(total, 0, -1):
            for rest in partitions(total - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    from modlat.zmodules import factorize

    per_prime = []
    for p, e in sorted(factorize(n).items()) if n > 1 else []:
        per_prime.append([(p, part) for part in partitions(e)])
    if n == 1:
        return [ZModule.zero()]
    for combo in product(*per_prime):
        orders = []
        for p, part in combo:
            orders.extend(p ** e for e in part)
        out.append(ZModule.from_cyclic_orders(0, orders))
    return out


def test_extension_types_against_element_search():
    pool = [ZModule.zero(), ZModule.cyclic(2), ZModule.cyclic(4),
            ZModule.cyclic(3), ZModule.cyclic(6),
            ZModule.from_cyclic_orders(0, [2, 2])]
    for a in pool:
        for c in pool:
            assert _all_extensions(a, c) == middle_terms_oracle(a, c), (a, c)


THREE_PRIMES = Universe(primes=(2, 3, 5), max_exponent=1, max_rank=2,
                        max_torsion_factors=2)


def test_extension_types_match_cocycle_enumeration():
    # the partition rules against the cocycles enumerated on the whole pair:
    # all 900 acceptance pairs, the 837 three-prime pairs with at most
    # 6 generators, and Z by (Z/5)^3
    for universe in (ACCEPT, THREE_PRIMES):
        members = universe.members()
        for a in members:
            for c in members:
                if a.generator_count + c.generator_count <= 6:
                    assert _all_extensions(a, c) == \
                        reference._cocycle_middle_terms(a, c), (a, c)
    cube = ZModule(0, (5, 5, 5))
    assert _all_extensions(ZModule.free(1), cube) == \
        reference._cocycle_middle_terms(ZModule.free(1), cube)


# name: (universe whose member pairs are extended, universe of the table).
# The second holds neither the prime 5 nor free rank 2; the third has
# exponents up to 2 and one factor against cubes and two factors.
BOUNDED_EXTENSION_CASES = {
    "accept": (ACCEPT, ACCEPT),
    "prime-outside": (THREE_PRIMES, Universe(primes=(2, 3), max_exponent=1, max_rank=1,
                                             max_torsion_factors=2)),
    "narrow-box": (Universe(primes=(2,), max_exponent=3, max_rank=1, max_torsion_factors=2),
                   Universe(primes=(2,), max_exponent=2, max_rank=1, max_torsion_factors=1)),
}


@pytest.mark.parametrize("case", BOUNDED_EXTENSION_CASES)
def test_extension_types_restrict_the_reference_to_the_universe(case):
    # the middle terms grown inside the universe, and the clip flag read off
    # the dominance-order ends, against every middle term of the reference
    pairs, universe = BOUNDED_EXTENSION_CASES[case]
    flags = set()
    for a in pairs.members():
        for c in pairs.members():
            every = reference.extension_types(a, c)
            inside = frozenset(m for m in every if m in universe)
            assert extension_types(a, c, universe) == (inside, inside != every), (a, c)
            flags.add(inside != every)
    assert flags == {False, True}


def _outcome(table, *args):
    try:
        return table(*args)
    except OracleCapError as exc:
        return f"OracleCapError: {exc}"


def _every_pair(a, c):
    return True


def _free_sub_torsion_quotient(a, c):
    return a.free_rank and not c.free_rank and a.generator_count + c.generator_count <= 5


# name: (universe, pairs whose tables are compared, tables compared).
# Three factors over three primes take minutes by enumeration, so there
# only the extensions of a torsion quotient by a sub with a free part are
# compared: they split by prime and by the free part of the sub, and
# (Z/5)^3 is the largest quotient.
TORSION_REFERENCE_CASES = {
    "accept": (ACCEPT, _every_pair, None),
    "three-primes": (THREE_PRIMES, _every_pair, None),
    "two-primary-cubes": (Universe(primes=(2,), max_exponent=3, max_rank=1,
                                   max_torsion_factors=2), _every_pair, None),
    "three-factors": (Universe(primes=(2, 3, 5), max_exponent=1, max_rank=1,
                               max_torsion_factors=3), _free_sub_torsion_quotient,
                      ("extension_types",)),
}
PAIR_TABLES = ("surjects_onto", "kernel_types", "image_types", "extension_types")


@pytest.mark.parametrize("case", TORSION_REFERENCE_CASES)
def test_tables_match_torsion_reference(case):
    # every table and surjects_onto, refusals included, against the
    # element and cocycle enumeration
    universe, pairs, only = TORSION_REFERENCE_CASES[case]
    members = universe.members()
    compared = 0
    for m in members:
        if only is None:
            for name, args in (("subobject_types", (m,)),
                               ("quotient_types", (m, universe))):
                assert _outcome(getattr(oracle, name), *args) == \
                    _outcome(getattr(reference, name), *args), (name, m)
        for n in members:
            if not pairs(m, n):
                continue
            for name in only or PAIR_TABLES:
                table = _all_extensions if name == "extension_types" else getattr(oracle, name)
                assert _outcome(table, m, n) == \
                    _outcome(getattr(reference, name), m, n), (name, m, n)
            if only is None and n.free_rank <= 1:  # the reference's domain
                assert _outcome(oracle.cokernel_types, m, n, universe) == \
                    _outcome(reference.cokernel_types, m, n, universe), (m, n)
            compared += 1
    assert compared >= 100
    if case == "three-factors":
        # a quotient over two primes, and (Z/5)^3, are among the pairs
        for c in (ZModule(0, (5, 15)), ZModule(0, (5, 5, 5))):
            assert c in members and pairs(ZModule.free(1), c)


def test_littlewood_richardson_products():
    assert _lr_unbounded((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert _lr_unbounded((), (2, 1)) == {(2, 1): 1}
    assert _lr_unbounded((2, 1), ()) == {(2, 1): 1}
    # s21 * s21 = s42 + s411 + s33 + 2 s321 + s3111 + s222 + s2211
    assert _lr_unbounded((2, 1), (2, 1)) == {
        (4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2, (3, 1, 1, 1): 1,
        (2, 2, 2): 1, (2, 2, 1, 1): 1}
    # s1^4 = sum of f^lambda s_lambda, f^lambda the standard tableaux count
    power = {(): 1}
    for _ in range(4):
        step = {}
        for lam, c in power.items():
            for grown, d in _lr_unbounded(lam, (1,)).items():
                step[grown] = step.get(grown, 0) + c * d
        power = step
    assert power == {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1}


def test_littlewood_richardson_symmetry():
    shapes = oracle._subpartitions((3, 2, 2))
    assert len(shapes) == 16
    for mu in shapes:
        for nu in shapes:
            product_ = _lr_unbounded(mu, nu)
            assert product_ == _lr_unbounded(nu, mu), (mu, nu)
            assert all(sum(lam) == sum(mu) + sum(nu) for lam in product_)


def test_littlewood_richardson_in_a_box():
    # a box keeps the lambda that fit it, also when mu does not fit
    shapes = oracle._subpartitions((3, 2, 1))
    for mu in shapes:
        for nu in shapes:
            every = _lr_unbounded(mu, nu)
            for height in range(len(mu) + len(nu) + 1):
                for width in range(max(mu, default=0) + max(nu, default=0) + 1):
                    assert oracle._lr(mu, nu, height, width) == {
                        lam: c for lam, c in every.items()
                        if len(lam) <= height and max(lam, default=0) <= width
                    }, (mu, nu, height, width)


def test_kernel_and_image_types():
    kernels = kernel_types(ZModule.cyclic(4), ZModule.cyclic(2))
    assert kernels == frozenset({ZModule.cyclic(2), ZModule.cyclic(4)})
    assert kernel_types(ZModule.free(1), ZModule.free(1)) == frozenset(
        {ZModule.zero(), ZModule.free(1)})
    images = image_types(ZModule.free(1), ZModule.cyclic(4))
    assert images == frozenset(
        {ZModule.zero(), ZModule.cyclic(2), ZModule.cyclic(4)})
    assert image_types(ZModule.cyclic(2), ZModule.cyclic(4)) == frozenset(
        {ZModule.zero(), ZModule.cyclic(2)})


def test_cokernel_types():
    types, clipped = oracle.cokernel_types(ZModule.free(1), ZModule.free(1), SMALL)
    assert ZModule.cyclic(2) in types
    assert ZModule.cyclic(4) in types
    assert ZModule.zero() in types
    assert ZModule.free(1) in types
    assert clipped  # cokernels Z/8, Z/16, ... escape the universe
    types, clipped = oracle.cokernel_types(
        ZModule.cyclic(2), ZModule.cyclic(4), SMALL)
    assert types == frozenset({ZModule.cyclic(4), ZModule.cyclic(2)})
    assert not clipped
    # onto Z^2 the image is 0, whose cokernel Z^2 leaves the universe, or
    # Z, with cokernel Z + Z/d for every d
    types, clipped = oracle.cokernel_types(ZModule.free(1), ZModule.free(2), SMALL)
    assert types == frozenset({ZModule.free(1), ZModule(1, (2,)), ZModule(1, (4,))})
    assert clipped


def test_summand_types():
    m = ZModule.from_cyclic_orders(1, [12])
    got = summand_types(m)
    assert ZModule.cyclic(4) in got
    assert ZModule.cyclic(3) in got
    assert ZModule.free(1) in got
    assert m in got
    assert ZModule.zero() in got
    assert ZModule.cyclic(2) not in got  # Z/2 is not a direct summand of Z/12


def test_close_examples():
    u = Universe(primes=(2,), max_exponent=3, max_rank=0, max_torsion_factors=2)
    result = close([ZModule.cyclic(2)], {"subobjects", "extensions"}, u)
    assert result.members == frozenset(u.members())
    u2 = Universe(primes=(2,), max_exponent=1, max_rank=2, max_torsion_factors=1)
    result = close([ZModule.free(1)], {"subobjects", "extensions"}, u2)
    assert result.members == frozenset(
        {ZModule.zero(), ZModule.free(1), ZModule.free(2)})
    result = close([], {"subobjects", "extensions"}, u2)
    assert result.members == frozenset({ZModule.zero()})
    with pytest.raises(ValueError):
        close([ZModule.cyclic(5)], {"subobjects"}, u2)
    with pytest.raises(ValueError):
        close([], {"frobnicate"}, u2)


def test_close_clip_flag_from_cokernels():
    u = Universe(primes=(2,), max_exponent=1, max_rank=1, max_torsion_factors=1)
    # Z/4, Z/8, ... are cokernels of Z -> Z outside the universe
    result = close([ZModule.free(1)], {"cokernels"}, u)
    assert result == ClosureResult(
        frozenset({ZModule.zero(), ZModule.free(1), ZModule.cyclic(2)}), True, 2)
    result = close([ZModule.free(1)], {"subobjects", "kernels", "images"}, u)
    assert result == ClosureResult(
        frozenset({ZModule.zero(), ZModule.free(1)}), False, 1)


def test_close_soundness_sandwich():
    # every member of a closure satisfies the support criterion of the
    # generators, whatever the operation set contains beyond the core four
    rng = random.Random("sandwich")
    members = [m for m in ACCEPT.members() if not m.is_zero()]
    for _ in range(10):
        gens = rng.sample(members, rng.randrange(1, 3))
        result = close(gens, {"kernels", "cokernels", "extensions",
                              "finite_sums"}, ACCEPT)
        target = supp_union(gens, Z_BACKEND)
        for m in result.members:
            assert supp(m).leq(target), (gens, m)


def test_close_matches_criteria_small():
    gens = [ZModule.cyclic(2)]
    result = close(gens, {"subobjects", "quotients", "extensions",
                          "finite_sums"}, ACCEPT)
    expected = frozenset(
        m for m in ACCEPT.members()
        if supp(m).leq(supp_union(gens, Z_BACKEND)))
    assert result.members == expected
    result = close(gens, {"subobjects", "extensions"}, ACCEPT)
    expected = frozenset(
        m for m in ACCEPT.members()
        if ass(m).leq(ass_union(gens, Z_BACKEND)))
    assert result.members == expected


def test_closure_operation_implications():
    # closure laws checked on the oracle's own outputs: extension closure
    # gives finite sums; kernel or cokernel closure gives summands and the
    # zero module; kernel+cokernel closure gives images; subobject+cokernel
    # closure gives quotients
    rng = random.Random("bbasic")
    members = [m for m in ACCEPT.members() if not m.is_zero()]
    for _ in range(6):
        gens = rng.sample(members, 2)
        with_ext = close(gens, {"subobjects", "extensions"}, ACCEPT)
        assert ZModule.zero() in with_ext.members
        ok, counter = check_closed(with_ext.members, "finite_sums", ACCEPT)
        assert ok, counter
        for kind in ("kernels", "cokernels"):
            partial = close(gens, {kind, "finite_sums"}, ACCEPT)
            assert ZModule.zero() in partial.members
            ok, counter = check_closed(partial.members, "summands", ACCEPT)
            assert ok, (kind, counter)
        coherent = close(gens, {"kernels", "cokernels", "extensions",
                                "finite_sums"}, ACCEPT)
        ok, counter = check_closed(coherent.members, "images", ACCEPT)
        assert ok, counter
        sub_coker = close(gens, {"subobjects", "cokernels"}, ACCEPT)
        ok, counter = check_closed(sub_coker.members, "quotients", ACCEPT)
        assert ok, counter


def _naive_close(generators, kinds, universe, applied):
    """The fixed point by definition: each round applies every requested kind
    to every input over the members so far, until a round adds nothing.
    Classes are numbered by their place in `universe.members()`, and
    `applied` keeps each application's outcome, keyed by kind and inputs."""
    members = universe.members()
    index = {m: i for i, m in enumerate(members)}
    current = {index[ZModule.zero()], *(index[g] for g in generators)}
    clipped, iterations = False, 0
    while True:
        iterations += 1
        produced = set()
        for kind in kinds:
            arity, _, apply, _ = oracle._OPERATIONS[kind]
            for inputs in product(current, repeat=arity):
                key = kind, inputs
                if key not in applied:
                    results, escaped = apply(universe, *(members[i] for i in inputs))
                    applied[key] = frozenset(index[r] for r in results), escaped
                results, escaped = applied[key]
                produced |= results
                clipped = clipped or escaped
        if produced <= current:
            return ClosureResult(frozenset(members[i] for i in current), clipped, iterations)
        current |= produced


_SERRE = ("subobjects", "quotients", "extensions", "finite_sums")
_COHERENT = ("kernels", "cokernels", "extensions", "finite_sums")


@pytest.mark.parametrize("kinds", [
    _SERRE, _COHERENT, ("subobjects", "images", "summands"),
    ("quotients", "cokernels", "images", "summands")], ids=str)
def test_close_matches_the_naive_fixed_point(kinds):
    # every generator set of the acceptance universe, with the covered kinds
    # applied in the naive fixed point and skipped by close
    applied = {}
    for gens in generator_sets(ACCEPT):
        assert close(gens, kinds, ACCEPT) == _naive_close(gens, kinds, ACCEPT, applied), gens


def test_close_skips_kinds_another_requested_kind_covers(monkeypatch):
    # a finite sum is a split extension, kernels are subgroups of an input,
    # cokernels quotients of one, and summands and images both: beside the
    # kind that covers them they add no class and set no clip flag, so close
    # never applies them there
    cases = [(gens, kinds, u)
             for u in (ACCEPT, Universe((2,), 1, 0, 1), Universe((2,), 3, 1, 3))
             for kinds in (_SERRE, ("extensions", "finite_sums"),
                           ("subobjects", "kernels", "summands", "images"),
                           oracle.CLOSURE_KINDS)
             for gens in ([ZModule.cyclic(2)], [ZModule.free(1)],
                          [ZModule.cyclic(2), ZModule.cyclic(4)])
             if all(g in u for g in gens)]
    expected = [close(*case) for case in cases]
    assert any(r.clipped for r in expected) and not all(r.clipped for r in expected)
    # beside quotients, over universes of rank 1 and 2, compared with close
    # on the kinds that are left
    covered = {"cokernels", "images", "summands"}
    quotient_cases = [(gens, kinds, u)
                      for u in (ACCEPT, Universe((2,), 2, 2, 2), Universe((2, 3), 1, 2, 2))
                      for kinds in (("quotients", "cokernels"),
                                    ("quotients", "images", "summands"),
                                    ("quotients", "extensions", *sorted(covered)))
                      for gens in ([ZModule.cyclic(2)], [ZModule.free(1)],
                                   [ZModule.free(2)], [ZModule.free(1), ZModule.cyclic(4)])
                      if all(g in u for g in gens)]
    left = [close(gens, set(kinds) - covered, u) for gens, kinds, u in quotient_cases]
    assert any(r.clipped for r in left) and not all(r.clipped for r in left)
    assert any(u.max_rank == 2 and "cokernels" in kinds for _, kinds, u in quotient_cases)

    def refuse(*args):
        raise AssertionError("a covered kind was applied")

    for kind in ("finite_sums", "images", "summands", "kernels", "cokernels"):
        arity, work, _, covering = oracle._OPERATIONS[kind]
        monkeypatch.setitem(oracle._OPERATIONS, kind, (arity, work, refuse, covering))
    assert [close(*case) for case in cases] == expected
    assert [close(*case) for case in quotient_cases] == left


def _all_maps(m, n, free_bound=2):
    """Every well-formed map matrix from m to n (free-to-free entries bounded)."""
    from modlat.zmodules import ZModuleMap

    gs, gt = m.generator_count, n.generator_count
    src, tgt = m.generator_orders, n.generator_orders
    col_choices = []
    for j in range(gs):
        d = src[j]
        rows = []
        for i in range(gt):
            e = tgt[i]
            if d == 0:
                rows.append(tuple(range(e)) if e
                            else tuple(range(-free_bound, free_bound + 1)))
            elif e == 0:
                rows.append((0,))
            else:
                rows.append(tuple(x for x in range(e) if (d * x) % e == 0))
        col_choices.append(list(product(*rows)))
    for cols in product(*col_choices):
        yield ZModuleMap(m, n, IntMatrix.from_columns([list(c) for c in cols],
                                                      rows=gt))


def test_operation_tables_match_explicit_map_enumeration():
    # dual route: the structural kernel/image/cokernel tables against the
    # classes observed over every homomorphism, enumerated explicitly
    from modlat.zmodules import cokernel, image, kernel

    pool = [ZModule.zero(), ZModule.cyclic(2), ZModule.cyclic(4),
            ZModule.cyclic(6), ZModule.from_cyclic_orders(0, [2, 2]),
            ZModule.cyclic(3), ZModule.from_cyclic_orders(0, [2, 6])]
    # Z/2 + Z/6 has three primary factors; this universe holds every quotient
    torsion = Universe(primes=(2, 3), max_exponent=2, max_rank=0, max_torsion_factors=3)
    for m in pool:
        for n in pool:
            kernels, cokers, images = set(), set(), set()
            for f in _all_maps(m, n):
                kernels.add(kernel(f))
                cokers.add(cokernel(f))
                images.add(image(f))
            assert kernels == set(kernel_types(m, n)), (m, n)
            assert images == set(image_types(m, n)), (m, n)
            assert oracle.cokernel_types(m, n, torsion) == (cokers, False), (m, n)


def _cokernel_types_by_cosets(source, target, universe):
    """`oracle.cokernel_types` as one presentation per coset representative:
    the image with projection dZ and torsion part H is spanned by H, the
    relations of the target and (rep, d) for a representative of T/H."""
    assert target.free_rank <= 1
    out, clipped = set(), False
    orders = target.torsion
    for sub in reference._all_subgroups(orders):
        sub_type = reference._subgroup_type(orders, sub)
        residue = reference._quotient_type(orders, sub)
        if target.free_rank == 0:
            if surjects_onto(source, sub_type):
                out.add(residue)
            continue
        if surjects_onto(source, sub_type):
            q = direct_sum(ZModule.free(1), residue)
            if q in universe:
                out.add(q)
            else:
                clipped = True
        if not surjects_onto(source, direct_sum(ZModule.free(1), sub_type)):
            continue
        clipped = True
        k = len(orders)
        relations = [[o if i == j else 0 for i in range(k + 1)]
                     for j, o in enumerate(orders)]
        reps, seen = [], set()
        for e in reference._elements(orders):
            if e not in seen:
                reps.append(e)
                seen.update(tuple((x + y) % o for x, y, o in zip(e, s, orders))
                            for s in sub)
        d = 1
        while d * len(reps) <= universe.max_torsion_order():
            for rep in reps:
                cols = [list(rep) + [d]] + [list(e) + [0] for e in sorted(sub)]
                q = zmodules.from_presentation(
                    IntMatrix.from_columns(cols + relations, rows=k + 1))
                if q in universe:
                    out.add(q)
            d += 1
    return frozenset(out), clipped


def test_cokernel_types_match_coset_representatives():
    members = ACCEPT.members()
    for n in members:
        for m in members:
            assert oracle.cokernel_types(m, n, ACCEPT) == \
                _cokernel_types_by_cosets(m, n, ACCEPT), (m, n)
    # a target outside the universe, with quotients on both sides of it
    n = ZModule.from_cyclic_orders(1, [2, 6])
    for m in (ZModule.free(1), ZModule.cyclic(6), n):
        assert oracle.cokernel_types(m, n, SMALL) == \
            _cokernel_types_by_cosets(m, n, SMALL), m


def test_operation_tables_cover_maps_with_free_parts():
    # every cokernel of a map is listed, or lies outside the universe with
    # the clip flag set; targets of free rank 2 too, whose cokernels of
    # rank 2 leave ACCEPT and stay inside RANK_TWO
    from modlat.zmodules import cokernel, image, kernel

    free_pool = [ZModule.free(1), ZModule.from_cyclic_orders(1, [2])]
    mixed = free_pool + [ZModule.cyclic(4)]
    rank_two = [ZModule.free(2), ZModule(2, (2,))]
    for m in mixed + rank_two[:1]:
        for n in mixed + rank_two:
            tables = [oracle.cokernel_types(m, n, u) for u in (ACCEPT, RANK_TWO)]
            # images of rank 2 too, with smaller entries to keep the count down
            for f in _all_maps(m, n, free_bound=3 if m.free_rank < 2 else 2):
                assert kernel(f) in kernel_types(m, n)
                assert image(f) in image_types(m, n)
                c = cokernel(f)
                for u, (types, clipped) in zip((ACCEPT, RANK_TWO), tables):
                    assert c in types if c in u else clipped, (m, n, u, c)


def _surjection(m, p):
    """A map from m onto p when `surjects_onto(m, p)`: free generators onto
    p's free ones, the spare ones onto p's largest invariant factors, and
    m's torsion generators, largest first, onto the rest, largest first."""
    tm, tp = len(m.torsion), len(p.torsion)
    rows = [[0] * m.generator_count for _ in range(p.generator_count)]
    for i in range(p.free_rank):
        rows[tp + i][tm + i] = 1
    spare = range(tm + p.free_rank, m.generator_count)
    for i, j in zip(range(tp - 1, -1, -1), [*spare, *range(tm - 1, -1, -1)]):
        rows[i][j] = 1
    return ZModuleMap(m, p, IntMatrix(rows, p.generator_count, m.generator_count))


def _subgroup_bases(orders):
    """(class of H, class of T/H, elements of H that form a basis of orders
    H's invariant factors) for each subgroup H of T with these orders."""
    out = []
    for sub in reference._all_subgroups(orders):
        h = reference._subgroup_type(orders, sub)
        basis = next(
            ys for ys in product(sorted(sub), repeat=len(h.torsion))
            if not any(any(reference._scale(orders, d, y)) for d, y in zip(h.torsion, ys))
            and reference._span(orders, ys) == sub)
        out.append((h, reference._quotient_type(orders, sub), basis))
    return out


@pytest.mark.parametrize("universe", [RANK_TWO, Universe((2,), 2, 2, 2)], ids=str)
def test_cokernel_types_witnessed_onto_free_rank_two(universe):
    # each listed cokernel of a map into Z^2 + T is the cokernel of one
    # explicit map: a surjection onto Z^k + H, then H onto a subgroup of T
    # and Z^k onto L = diag(1, ..., C's invariant factors) in Z^2, each
    # basis vector of L lifted by an element of T
    from modlat.zmodules import cokernel

    torsion = [c for c in universe.members() if not c.free_rank]
    for n in universe.members():
        if n.free_rank != 2:
            continue
        t = n.torsion
        subgroups = _subgroup_bases(t)
        for m in universe.members():
            missing = set(oracle.cokernel_types(m, n, universe)[0])
            for (h, residue, basis), k in product(subgroups, range(3)):
                image = ZModule(k, h.torsion)
                if not (missing and surjects_onto(m, image)):
                    continue
                onto = _surjection(m, image)
                assert cokernel(onto).is_zero()
                for c in torsion:
                    quotients, _ = extension_types(residue, ZModule(2 - k, c.torsion), universe)
                    if len(c.torsion) > k or not missing & quotients:
                        continue
                    diag = (1,) * (k - len(c.torsion)) + c.torsion
                    for lifts in product(reference._elements(t), repeat=k):
                        cols = [[*y, 0, 0] for y in basis] + [
                            [*x, *(d if r == i else 0 for r in range(2))]
                            for i, (x, d) in enumerate(zip(lifts, diag))]
                        embed = IntMatrix.from_columns(cols, rows=len(t) + 2)
                        missing.discard(cokernel(ZModuleMap(m, n, embed @ onto.matrix)))
                        if not missing & quotients:
                            break
            assert not missing, (m, n, missing)


def test_check_closed_counterexample():
    ok, counter = check_closed({ZModule.zero(), ZModule.cyclic(4)},
                               "subobjects", SMALL)
    assert not ok
    inputs, escaped = counter
    assert escaped == ZModule.cyclic(2)
    ok, _ = check_closed({ZModule.zero()}, "subobjects", SMALL)
    assert ok


# kind: (subset not closed, its first counterexample, a closed subset).
# The closed sums and extensions sets have results outside the universe,
# and so has the cokernel of Z -> Z; those results are skipped.
CHECK_CLOSED_CASES = {
    "subobjects": (("0", "Z + Z/4"), (("Z + Z/4",), "Z"),
                   ("0", "Z", "Z/2", "Z/4", "Z + Z/2", "Z + Z/4")),
    "quotients": (("0", "Z"), (("Z",), "Z/2"), ("0", "Z/2", "Z/4")),
    "summands": (("0", "Z + Z/2"), (("Z + Z/2",), "Z"),
                 ("0", "Z", "Z/2", "Z + Z/2")),
    "finite_sums": (("0", "Z/2"), (("Z/2", "Z/2"), "Z/2 + Z/2"),
                    ("0", "Z/2", "Z/2 + Z/2")),
    "extensions": (("0", "Z/2", "Z/2 + Z/2"), (("Z/2", "Z/2"), "Z/4"),
                   ("0", "Z")),
    "kernels": (("0", "Z/2 + Z/4"), (("Z/2 + Z/4", "Z/2 + Z/4"), "Z/2"),
                ("0", "Z")),
    "cokernels": (("0", "Z"), (("Z", "Z"), "Z/2"), ("0", "Z", "Z/2", "Z/4")),
    "images": (("0", "Z/4"), (("Z/4", "Z/4"), "Z/2"),
               ("0", "Z", "Z/2", "Z/4")),
}


@pytest.mark.parametrize("kind", oracle.CLOSURE_KINDS)
def test_check_closed_every_kind(kind):
    from modlat.literals import parse_zmodule

    not_closed, (inputs, escaped), closed = CHECK_CLOSED_CASES[kind]
    ok, counter = check_closed({parse_zmodule(m) for m in not_closed}, kind, SMALL)
    assert not ok
    assert counter == (tuple(parse_zmodule(m) for m in inputs),
                       parse_zmodule(escaped))
    assert check_closed({parse_zmodule(m) for m in closed}, kind, SMALL) == (
        True, None)


def test_check_closed_unknown_kind():
    for subset in (set(), {ZModule.zero()}):
        with pytest.raises(ValueError):
            check_closed(subset, "frobnicate", SMALL)


def test_subgroup_type_examples():
    assert subgroup_type(ZModule.cyclic(4), IntMatrix([[2]])) == ZModule.cyclic(2)
    assert subgroup_type(ZModule.free(1), IntMatrix([[2]])) == ZModule.free(1)
    two = ZModule.from_cyclic_orders(0, [2, 2])
    diag = subgroup_type(two, IntMatrix([[1], [1]]))
    assert diag == ZModule.cyclic(2)


def test_derive_submodule_spec_examples():
    trace = derive_submodule(ZModule.cyclic(4), IntMatrix([[2]]))
    assert [s.op for s in trace.steps] == ["start", "cokernel", "kernel"]
    assert trace.replay() == ZModule.cyclic(2)

    trace = derive_submodule(ZModule.free(1), IntMatrix([[2]]))
    ops = [s.op for s in trace.steps]
    assert ops[0] == "start" and ops[-1] == "kernel"
    assert any(s.op == "cokernel" and s.result == ZModule.cyclic(2)
               for s in trace.steps)
    assert trace.replay() == ZModule.free(1)

    m = ZModule.from_cyclic_orders(1, [4])
    trace = derive_submodule(m, IntMatrix.identity(2))
    assert [s.op for s in trace.steps] == ["start"]
    assert trace.replay() == m


def test_derive_submodule_random():
    rng = random.Random("derive-unit")
    for _ in range(60):
        ambient = ZModule.from_cyclic_orders(
            rng.randrange(2), [rng.choice((2, 3, 4, 9)) for _ in
                               range(rng.randrange(3))])
        g = ambient.generator_count
        if g == 0:
            continue
        cols = [[rng.randint(-2, 2) for _ in range(g)]
                for _ in range(rng.randrange(1, 3))]
        gens = IntMatrix.from_columns(cols, rows=g)
        trace = derive_submodule(ambient, gens)
        assert trace.replay() == subgroup_type(ambient, gens)
        allowed = {"start", "kernel", "cokernel", "summand"}
        assert all(s.op in allowed for s in trace.steps)


def test_scalar_cokernel_closed_form_matches_general_cokernel():
    rng = random.Random("scalar-cokernel")
    modules = [ZModule.zero(), ZModule.free(2), ZModule.cyclic(12)]
    modules += [ZModule.from_cyclic_orders(rng.randrange(3), [
        rng.randint(2, 60) for _ in range(rng.randrange(4))]) for _ in range(80)]
    for m in modules:
        for d in (1, 2, 6, rng.randint(1, 100), rng.randint(1, 10 ** 6)):
            assert oracle._scalar_cokernel(d, m) == zmodules.cokernel(
                zmodules.scalar_map(d, m)), (d, m)
            # the derivation's cokernel step records the same matrix
            assert oracle._scalar_endo(d, m) == zmodules.scalar_map(d, m).matrix, (d, m)


def test_derivation_takes_one_snf_per_kernel_step_and_no_inverse(monkeypatch):
    # each stage's canonical generators take one Smith form, which also
    # gives U^-1; the colon step takes none
    forms, inverted = [], []
    real_snf = oracle.snf
    monkeypatch.setattr(oracle, "snf", lambda a: forms.append(a) or real_snf(a))
    monkeypatch.setattr(intlinalg, "invert_unimodular",
                        lambda a: inverted.append(a))
    rng = random.Random("derive-stages")
    stages = set()
    for _ in range(30):
        ambient = ZModule.from_cyclic_orders(
            rng.randrange(2), [rng.choice((2, 3, 4, 6)) for _ in range(2)])
        g = ambient.generator_count
        gens = IntMatrix.from_columns([[rng.randint(-2, 2) for _ in range(g)]], rows=g)
        forms.clear()
        trace = derive_submodule(ambient, gens)
        kernels = sum(s.op == "kernel" for s in trace.steps)
        assert len(forms) == kernels
        stages.add(kernels)
    assert not inverted
    assert {1, 2} <= stages


def _step_by_smith_form(below, x, stage_gens):
    """`_Subgroup.step` as the Smith form of [x | basis] reads it: the first
    row of its kernel basis generates the colon ideal, and a solve through
    the same form gives the coefficients."""
    a = intlinalg.hstack(x, below.basis)
    dec = intlinalg.snf(a)
    rank = sum(1 for v in dec.diagonal() if v)
    d = 0
    for v in dec.v.row(0)[rank:]:
        d = gcd(d, v)
    sol = intlinalg.solve(a, stage_gens)
    assert sol is not None
    return d, [c % d if d else c for c in sol.row(0)]


def test_step_matches_the_smith_form_reference():
    rng = random.Random("step-reference")
    free_quotients = steps = 0
    for trial in range(80):
        ambient = ZModule.from_cyclic_orders(
            trial % 3, [rng.choice((2, 3, 4, 6, 9, 12)) for _ in range(rng.randrange(3))])
        g = ambient.generator_count
        if g == 0:
            continue
        gens = IntMatrix.from_columns(
            [[rng.randint(-4, 4) for _ in range(g)] for _ in range(rng.randint(1, 2))],
            rows=g)
        below = oracle._Subgroup(ambient, subgroup_lattice(ambient, gens))
        for i in range(g):
            x = IntMatrix.from_columns([[1 if r == i else 0 for r in range(g)]], rows=g)
            if below.contains(x):
                continue
            stage = below.with_element(x)
            _, stage_gens = stage.canonical_generators()
            d, coeffs = below.step(x, stage_gens)
            assert (d, coeffs) == _step_by_smith_form(below, x, stage_gens)
            free_quotients += d == 0
            steps += 1
            below = stage
    assert steps > 100 and free_quotients > 10


def test_kernels_and_subgroup_classes_take_no_smith_transform(monkeypatch):
    ambient = ZModule.from_cyclic_orders(1, [2, 4])
    gens = IntMatrix([[1], [2], [0]])
    trace = derive_submodule(ambient, gens)

    def no_snf(*args, **kwargs):
        raise AssertionError("snf called")

    monkeypatch.setattr(intlinalg, "snf", no_snf)
    monkeypatch.setattr(oracle, "snf", no_snf)
    f = ZModuleMap(ambient, ZModule.cyclic(4), IntMatrix([[2, 1, 3]]))
    assert zmodules.kernel(f) == ZModule.from_cyclic_orders(1, [2])
    assert zmodules.image(f) == ZModule.cyclic(4)
    sub = oracle._Subgroup(ambient, subgroup_lattice(ambient, gens))
    assert sub.contains(IntMatrix([[1], [2], [0]]))
    assert sub.contains(IntMatrix([[0], [0], [0]]))
    assert not sub.contains(IntMatrix([[0], [1], [0]]))
    assert not sub.contains(IntMatrix([[0], [0], [1]]))
    assert zmodules.from_presentation(sub.relations()) == ZModule.cyclic(2)
    assert subgroup_type(ambient, gens) == ZModule.cyclic(2)
    assert trace.replay() == ZModule.cyclic(2)


def test_lattice_type_matches_the_presented_relations():
    # along each derivation chain, as the stages grow one generator at a time
    rng = random.Random("lattice-type")
    for _ in range(150):
        ambient = ZModule.from_cyclic_orders(rng.randrange(3), [
            rng.choice((2, 3, 4, 6, 9, 12)) for _ in range(rng.randrange(4))])
        g = ambient.generator_count
        if g == 0:
            continue
        gens = IntMatrix.from_columns([[rng.randint(-3, 3) for _ in range(g)]
                                       for _ in range(rng.randint(1, 2))], rows=g)
        stage = oracle._Subgroup(ambient, subgroup_lattice(ambient, gens))
        for i in range(g):
            expected = reference.presented(stage.relations())
            assert zmodules.lattice_type(ambient, stage.basis) == expected, (ambient, gens)
            x = IntMatrix.from_columns([[int(r == i) for r in range(g)]], rows=g)
            stage = stage.with_element(x)


def test_replay_detects_tampering():
    trace = derive_submodule(ZModule.cyclic(4), IntMatrix([[2]]))
    bad_steps = list(trace.steps)
    last = bad_steps[-1]
    bad_steps[-1] = oracle.TraceStep(last.op, last.inputs, last.matrix,
                                     ZModule.cyclic(4))
    tampered = DerivationTrace(trace.ambient, tuple(bad_steps))
    with pytest.raises(oracle.ReplayError):
        tampered.replay()


def test_replay_rejects_finite_sum():
    # no derivation emits finite sums, so replay knows no such op
    two = ZModule.cyclic(2)
    trace = DerivationTrace(two, (oracle.TraceStep("start", (), None, two),
                                  oracle.TraceStep("finite_sum", (0, 0), None,
                                                   direct_sum(two, two))))
    with pytest.raises(oracle.ReplayError, match="unknown op 'finite_sum' at step 1"):
        trace.replay()


def test_oracle_cap_error_is_a_value_error():
    assert issubclass(OracleCapError, ValueError)


def test_torsion_cap():
    huge = ZModule.from_cyclic_orders(0, [2 ** 8, 2 ** 8])
    with pytest.raises(OracleCapError):
        subobject_types(huge)


_CAP_UNIVERSE = Universe(primes=(2,), max_exponent=8, max_rank=0, max_torsion_factors=2)
_OVER = "OracleCapError: torsion order {} above cap 16384"

# (table, argument literals, outcome): frozensets as sorted str lists.
# Only the torsion order of the parts a table enumerated at first counts:
# a target's for surjections, images and cokernels, target then source for
# kernels, the first member of a universe over the cap for quotients, and
# never an extension, whose universe holds every middle term.
CAP_CASES = [
    ("subobject_types", ("Z/256 + Z/256",), _OVER.format(65536)),
    ("subobject_types", ("Z^2 + Z/3 + Z/6561",), _OVER.format(19683)),
    ("surjects_onto", ("Z^2", "Z/128 + Z/128"), True),
    ("surjects_onto", ("Z", "Z/128 + Z/128"), False),
    ("surjects_onto", ("Z", "Z/16384"), True),
    ("surjects_onto", ("Z", "Z/16385"), _OVER.format(16385)),
    ("surjects_onto", ("Z^2", "Z/2 + Z/16384"), _OVER.format(32768)),
    ("surjects_onto", ("Z/2", "Z + Z/65536"), False),
    ("surjects_onto", ("Z/256 + Z/256", "Z/8 + Z/8"), True),
    ("surjects_onto", ("Z/256 + Z/256", "Z/4 + Z/4 + Z/4"), False),
    ("kernel_types", ("Z/256 + Z/256", "Z/2"), _OVER.format(65536)),
    ("kernel_types", ("Z/2", "Z/256 + Z/256"), _OVER.format(65536)),
    ("kernel_types", ("Z/19683", "Z + Z/256 + Z/256"), _OVER.format(65536)),
    ("kernel_types", ("Z + Z/19683", "Z"), _OVER.format(19683)),
    ("image_types", ("Z/256 + Z/256", "Z/4"), ["0", "Z/2", "Z/4"]),
    ("image_types", ("Z/2", "Z/256 + Z/256"), _OVER.format(65536)),
    ("cokernel_types", ("Z/256 + Z/256", "Z/4"), (["0", "Z/2", "Z/4"], False)),
    ("cokernel_types", ("Z", "Z + Z/256 + Z/256"), _OVER.format(65536)),
    ("cokernel_types", ("Z", "Z^2 + Z/256 + Z/256"), _OVER.format(65536)),
    ("quotient_types", ("Z",), _OVER.format(32768)),
    ("quotient_types", ("Z/2",), _OVER.format(32768)),
    ("extension_types", ("Z/2", "Z/65536"), (["Z/131072", "Z/2 + Z/65536"], False)),
    ("extension_types", ("Z + Z/3", "Z/32768"),
     (["Z + Z/3", "Z + Z/6", "Z + Z/12", "Z + Z/24", "Z + Z/48", "Z + Z/96",
       "Z + Z/192", "Z + Z/384", "Z + Z/768", "Z + Z/1536", "Z + Z/3072",
       "Z + Z/6144", "Z + Z/12288", "Z + Z/24576", "Z + Z/49152",
       "Z + Z/98304"], False)),
]


def _pinned(value):
    if isinstance(value, frozenset):
        return sorted(map(str, value), key=lambda t: (len(t), t))
    if isinstance(value, tuple):
        return _pinned(value[0]), value[1]
    return value


@pytest.mark.parametrize("table, literals, expected", CAP_CASES, ids=[
    f"{table}({', '.join(literals)})" for table, literals, _ in CAP_CASES])
def test_cap_refusals_pinned(table, literals, expected):
    # outcomes recorded with the element enumeration the tables replaced
    from modlat.literals import parse_zmodule

    args = [parse_zmodule(text) for text in literals]
    if table == "quotient_types":
        args.append(_CAP_UNIVERSE)
    elif table == "cokernel_types":
        args.append(SMALL)
    elif table == "extension_types":
        args.append(_enclosing(*args))
    assert _pinned(_outcome(getattr(oracle, table), *args)) == _pinned(expected)


def test_closure_result_type():
    u = Universe(primes=(2,), max_exponent=1, max_rank=0, max_torsion_factors=1)
    result = close([], {"subobjects"}, u)
    assert isinstance(result, ClosureResult)
    assert result.iterations >= 1
