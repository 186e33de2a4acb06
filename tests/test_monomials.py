"""Monomial backend tests.

The brute-force oracle for minimal primes enumerates every monomial prime and
tests ideal containment generator by generator, independently of the
vertex-cover route under test.  Irreducible decompositions are compared with
the leq-pruned splitting of `monomial_reference`, and at the generator cap
with large exponents by the properties that fix them.
"""

import random
from itertools import product

import pytest

import monomial_reference as reference
from modlat import monomials, spectrum
from modlat.monomials import (
    MonomialIdeal,
    MonomialModule,
    ann,
    ass,
    ass_cyclic,
    dim_cyclic,
    grade_zero,
    height,
    irreducible_decomposition,
    is_finite_length_cyclic,
    is_torsion_module,
    min_primes,
    module_dim,
    supp,
    variable_sum_regular,
)
from modlat.spectrum import (
    PrimeId,
    SpecSubset,
    all_monomial_primes,
    monomial_backend,
    v_of_ideal,
)

XY = ("x", "y")


def ideal(context, *vectors):
    return MonomialIdeal.of(context, vectors)


def mono_prime(vars_, context=XY):
    return PrimeId.monomial(context, vars_)


def prime_contains_ideal(p: PrimeId, i: MonomialIdeal) -> bool:
    """Oracle: a monomial lies in a monomial prime iff its support meets
    the prime's variables."""
    return all(
        any(e > 0 and v in p.vars for v, e in zip(i.context, g))
        for g in i.gens
    )


def min_primes_oracle(i: MonomialIdeal) -> frozenset:
    primes = [p for p in all_monomial_primes(i.context)
              if prime_contains_ideal(p, i)]
    return frozenset(
        p for p in primes
        if not any(q is not p and q.vars < p.vars for q in primes)
    )


def test_minimality_of_generators():
    i = ideal(XY, (2, 0), (3, 1), (1, 0))
    assert i.gens == frozenset({(1, 0)})
    assert MonomialIdeal.unit(XY).is_unit()
    assert MonomialIdeal.zero(XY).is_zero()


def test_membership():
    i = ideal(XY, (2, 0), (1, 1))
    assert i.contains_monomial((2, 1))
    assert not i.contains_monomial((1, 0))
    assert i.radical_contains((1, 0))
    assert not i.radical_contains((0, 1))


def test_decomposition_mixed_generator():
    i = ideal(XY, (2, 0), (1, 1))
    comps = irreducible_decomposition(i)
    assert set(comps) == {ideal(XY, (1, 0)), ideal(XY, (2, 0), (0, 1))}
    # two-sided membership: generators of the ideal lie in every component,
    # and x itself does not lie in the intersection
    for comp in comps:
        for g in i.gens:
            assert comp.contains_monomial(g)
    inter = comps[0].intersect(comps[1])
    assert inter == i


def test_decomposition_trivial_cases():
    assert irreducible_decomposition(ideal(XY, (1, 0))) == (ideal(XY, (1, 0)),)
    pure = ideal(XY, (2, 0), (0, 3))
    assert irreducible_decomposition(pure) == (pure,)
    with pytest.raises(ValueError):
        irreducible_decomposition(MonomialIdeal.zero(XY))
    with pytest.raises(ValueError):
        irreducible_decomposition(MonomialIdeal.unit(XY))


def test_ass_cyclic_examples():
    i = ideal(XY, (2, 0), (1, 1))
    assert ass_cyclic(i) == frozenset({mono_prime(["x"]), mono_prime(["x", "y"])})
    assert ass_cyclic(ideal(XY, (1, 0))) == frozenset({mono_prime(["x"])})
    assert ass_cyclic(MonomialIdeal.zero(XY)) == frozenset({mono_prime([])})
    assert ass_cyclic(MonomialIdeal.unit(XY)) == frozenset()


def test_min_primes_examples():
    i = ideal(XY, (2, 0), (1, 1))
    assert min_primes(i) == frozenset({mono_prime(["x"])})
    assert dim_cyclic(i) == 1
    assert height(i) == 1
    assert min_primes(MonomialIdeal.zero(XY)) == frozenset({mono_prime([])})
    assert dim_cyclic(MonomialIdeal.zero(XY)) == 2
    assert height(MonomialIdeal.zero(XY)) == 0
    maximal = ideal(XY, (1, 0), (0, 1))
    assert dim_cyclic(maximal) == 0
    assert height(maximal) == 2
    with pytest.raises(ValueError):
        min_primes(MonomialIdeal.unit(XY))


def random_ideal(rng, context, max_gens=5, max_exp=3):
    n = len(context)
    vectors = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        vec = [0] * n
        for i in rng.sample(range(n), rng.randrange(1, n + 1)):
            vec[i] = rng.randrange(1, max_exp + 1)
        vectors.append(tuple(vec))
    return MonomialIdeal.of(context, vectors)


def test_min_primes_match_oracle_and_sit_inside_ass():
    context = ("a", "b", "c", "d")
    rng = random.Random("minprimes")
    for _ in range(60):
        i = random_ideal(rng, context)
        got = min_primes(i)
        assert got == min_primes_oracle(i)
        assert got <= ass_cyclic(i)


def assert_irredundant_decomposition(i, comps):
    """The properties that fix the unique irredundant decomposition."""
    # every component is generated by pure powers
    for comp in comps:
        for g in comp.gens:
            assert sum(1 for e in g if e) == 1
    # intersection equals the ideal: both inclusions via generators
    inter = comps[0]
    for comp in comps[1:]:
        inter = inter.intersect(comp)
    assert inter == i
    # irredundance: no component contains another
    for a in comps:
        for b in comps:
            assert a is b or not a.leq(b)


def test_decomposition_intersection_property():
    context = ("a", "b", "c")
    rng = random.Random("decomp")
    for _ in range(60):
        i = random_ideal(rng, context, max_gens=4, max_exp=3)
        assert_irredundant_decomposition(i, irreducible_decomposition(i))


@pytest.mark.parametrize("support", [6, 7])
def test_decomposition_at_the_generator_cap_with_large_exponents(support):
    # 8 variables, exactly MAX_GENERATORS minimal generators, exponents up
    # to 9: the reference takes seconds per ideal here, so the components
    # are checked by the properties that determine them.
    context = tuple("abcdefgh")
    rng = random.Random(f"cap-exponents:{support}")
    for _ in range(2):
        gens = frozenset()
        while len(gens) < monomials.MAX_GENERATORS:
            vec = [0] * len(context)
            for j in rng.sample(range(len(context)), support):
                vec[j] = rng.randint(1, 9)
            gens = MonomialIdeal(context, gens | {tuple(vec)}).gens
        i = MonomialIdeal(context, gens)
        assert_irredundant_decomposition(i, irreducible_decomposition(i))


def test_decomposition_matches_reference_on_every_two_variable_ideal():
    vectors = [v for v in product(range(3), repeat=2) if any(v)]
    ideals = {MonomialIdeal.of(XY, [v for i, v in enumerate(vectors) if mask >> i & 1])
              for mask in range(1, 2 ** len(vectors))}
    assert len(ideals) == 18
    for i in ideals:
        assert irreducible_decomposition(i) == reference.decompose(i), i


def test_decomposition_matches_reference_seeded():
    rng = random.Random("exponent-vectors")
    names = "abcdefgh"
    for _ in range(400):
        context = tuple(names[:rng.randint(1, 8)])
        n = len(context)
        vectors = []
        for _ in range(rng.randint(1, 7)):
            vec = [0] * n
            for j in rng.sample(range(n), rng.randint(1, min(n, 4))):
                vec[j] = rng.randint(1, 3)
            vectors.append(tuple(vec))
        i = MonomialIdeal.of(context, vectors)
        assert irreducible_decomposition(i) == reference.decompose(i), i
        assert (spectrum.minimal_variable_covers(i.supports(), context)
                == reference.minimal_variable_covers(i.supports(), context)), i


def test_monomial_caches_are_bounded():
    caches = [value for module in (monomials, spectrum)
              for value in vars(module).values() if hasattr(value, "cache_parameters")]
    assert caches
    for cache in caches:
        assert cache.cache_parameters()["maxsize"] is not None, cache.__name__


def test_dim_height_duality():
    context = ("a", "b", "c", "d")
    rng = random.Random("dimheight")
    nvars = len(context)
    for _ in range(60):
        i = random_ideal(rng, context)
        primes = min_primes_oracle(i)
        assert dim_cyclic(i) == max(nvars - len(p.vars) for p in primes)
        assert height(i) == min(len(p.vars) for p in primes)
        sizes = {len(p.vars) for p in primes}
        if len(sizes) == 1:
            assert dim_cyclic(i) + height(i) == nvars


def test_module_constructors_drop_zero_summands():
    m = MonomialModule(XY, (MonomialIdeal.unit(XY), ideal(XY, (1, 0))))
    assert len(m.summands) == 1
    assert MonomialModule.zero(XY).is_zero()


def test_module_ass_supp_ann():
    jx, jy = ideal(XY, (1, 0)), ideal(XY, (0, 1))
    m = MonomialModule(XY, (jx, jy))
    assert ass(m) == frozenset({mono_prime(["x"]), mono_prime(["y"])})
    assert ann(m) == ideal(XY, (1, 1))
    # membership probes for the intersection
    assert ann(m).contains_monomial((1, 1))
    assert not ann(m).contains_monomial((1, 0))
    free = MonomialModule.cyclic(MonomialIdeal.zero(XY))
    assert ass(free) == frozenset({mono_prime([])})
    assert supp(free).is_whole()
    empty = MonomialModule.zero(XY)
    assert ass(empty) == frozenset()
    assert supp(empty) == SpecSubset.empty(monomial_backend(XY))
    assert ann(empty).is_unit()


def test_ass_supp_additive():
    context = ("a", "b", "c")
    rng = random.Random("monadd")
    for _ in range(30):
        i1, i2 = random_ideal(rng, context), random_ideal(rng, context)
        m1 = MonomialModule.cyclic(i1)
        m2 = MonomialModule.cyclic(i2)
        both = MonomialModule(context, (i1, i2))
        assert ass(both) == ass(m1) | ass(m2)
        assert supp(both) == supp(m1).join(supp(m2))


def test_grade_zero_examples():
    i = ideal(XY, (2, 0), (1, 1))
    x_mod = MonomialModule.cyclic(i)
    assert grade_zero(mono_prime(["x"]), x_mod)
    assert not grade_zero(mono_prime(["y"]),
                          MonomialModule.cyclic(ideal(XY, (1, 0))))
    assert grade_zero(mono_prime([]), x_mod)
    with pytest.raises(ValueError):
        grade_zero(mono_prime(["x"]), MonomialModule.zero(XY))


def test_variable_sum_regularity():
    # x + y kills the class of x - y modulo (xy) squared relations
    square = ideal(XY, (2, 0), (1, 1), (0, 2))
    assert not variable_sum_regular(["x", "y"], square)
    assert variable_sum_regular(["x", "y"], ideal(XY, (1, 1)))
    assert not variable_sum_regular(["x"], ideal(XY, (1, 1)))
    assert variable_sum_regular(["x"], MonomialIdeal.zero(XY))
    with pytest.raises(ValueError):
        variable_sum_regular([], square)


def test_regularity_matches_associated_primes():
    # a variable sum is regular exactly when its support is inside no
    # associated prime (zero divisors are the union of the associated primes)
    context = ("a", "b", "c")
    rng = random.Random("regular")
    for _ in range(50):
        i = random_ideal(rng, context, max_gens=3, max_exp=2)
        primes = ass_cyclic(i)
        for size in range(1, len(context) + 1):
            for combo_mask in range(1 << len(context)):
                combo = [v for k, v in enumerate(context) if combo_mask >> k & 1]
                if len(combo) != size:
                    continue
                got = variable_sum_regular(combo, i)
                expected = not any(set(combo) <= p.vars for p in primes)
                assert got == expected, (i, combo)


def test_finite_length():
    assert is_finite_length_cyclic(ideal(XY, (2, 0), (0, 3)))
    assert not is_finite_length_cyclic(ideal(XY, (2, 0), (1, 1)))
    assert is_finite_length_cyclic(MonomialIdeal.unit(XY))
    assert module_dim(MonomialModule.zero(XY)) is None


def test_v_of_ideal_monomial():
    i = ideal(XY, (2, 0), (1, 1))
    assert v_of_ideal(i) == SpecSubset.closure([mono_prime(["x"])])
    assert v_of_ideal(MonomialIdeal.zero(XY)).is_whole()
    assert v_of_ideal(MonomialIdeal.unit(XY)) == SpecSubset.empty(
        monomial_backend(XY))


def test_torsion_module_predicate():
    j = ideal(XY, (2, 0))           # (x^2)
    m = MonomialModule.cyclic(j)
    assert is_torsion_module(ideal(XY, (1, 0)), m)       # x^k lands in (x^2)
    assert not is_torsion_module(ideal(XY, (0, 1)), m)   # no power of y does
    assert is_torsion_module(MonomialIdeal.zero(XY), m)
    r = MonomialModule.cyclic(MonomialIdeal.zero(XY))
    assert not is_torsion_module(ideal(XY, (1, 0)), r)


def test_context_cap():
    context = tuple(f"v{i}" for i in range(9))
    big = MonomialIdeal.of(context, [tuple(1 if j == 0 else 0 for j in range(9))])
    with pytest.raises(ValueError):
        irreducible_decomposition(big)
