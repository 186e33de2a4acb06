"""Prime and spectrum-subset lattice tests.

Closure denotations and minimal variable covers are compared with the subset
enumerations of `monomial_reference`.
"""

import json
import random
from itertools import combinations

import pytest

import monomial_reference as reference
from modlat.cli import main
from modlat.spectrum import (
    PrimeId,
    SpecSubset,
    Z_BACKEND,
    _prime_table,
    all_monomial_primes,
    minimal_variable_covers,
    monomial_backend,
    specialization_closure,
    v_of_ideal,
)
from modlat.zmodules import IdealZ

XY = ("x", "y")


def zp(p):
    return PrimeId.z_maximal(p)


def mono(vars_, context=XY):
    return PrimeId.monomial(context, vars_)


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeId.z_maximal(6)
    with pytest.raises(ValueError):
        PrimeId.monomial(XY, ["z"])
    assert PrimeId.z_maximal(97).p == 97


def test_prime_containment():
    assert PrimeId.z_generic().contained_in(zp(5))
    assert not zp(5).contained_in(PrimeId.z_generic())
    assert not zp(2).contained_in(zp(3))
    assert mono([]).contained_in(mono(["x", "y"]))
    assert mono(["x"]).contained_in(mono(["x", "y"]))
    assert not mono(["x"]).contained_in(mono(["y"]))


def test_closure_of_empty_set():
    s = SpecSubset.closure([], backend=Z_BACKEND)
    assert not s.contains(zp(2))
    assert s.is_specialization_closed()


def test_closure_of_generic_is_everything():
    s = specialization_closure([PrimeId.z_generic()])
    assert s.contains(zp(2))
    assert s.contains(zp(7919))
    assert s.is_whole()
    assert not s.is_finite()


def test_monomial_closure_members():
    s = specialization_closure([mono(["x"])])
    assert s.members() == frozenset({mono(["x"]), mono(["x", "y"])})


def test_mixed_backends_rejected():
    with pytest.raises(ValueError):
        specialization_closure([zp(2), mono(["x"])])


def test_contains_examples():
    s = specialization_closure([zp(2)])
    assert s.contains(zp(2))
    assert not s.contains(zp(3))
    t = specialization_closure([mono([])])
    assert t.contains(mono(["x", "y"]))


def test_v_of_integer_ideal():
    s = v_of_ideal(IdealZ(12))
    assert s == SpecSubset.closure([zp(2), zp(3)])
    assert v_of_ideal(IdealZ(0)).is_whole()
    assert v_of_ideal(IdealZ(1)) == SpecSubset.empty(Z_BACKEND)
    # the complement of any D(n), n != 0, has finitely many members
    assert v_of_ideal(IdealZ(360)).is_finite()


def test_join_and_meet_examples():
    v2, v3 = v_of_ideal(IdealZ(2)), v_of_ideal(IdealZ(3))
    assert v2.join(v3) == SpecSubset.closure([zp(2), zp(3)])
    vx = SpecSubset.closure([mono(["x"])])
    vy = SpecSubset.closure([mono(["y"])])
    met = vx.meet(vy)
    # oracle: scan every monomial prime for joint membership
    expected = {p for p in all_monomial_primes(XY)
                if vx.contains(p) and vy.contains(p)}
    assert met.members() == frozenset(expected)
    assert met == SpecSubset.closure([mono(["x", "y"])])


def test_leq():
    empty = SpecSubset.empty(Z_BACKEND)
    assert empty.leq(v_of_ideal(IdealZ(6)))
    assert empty.leq(SpecSubset.whole_spec(Z_BACKEND))
    assert v_of_ideal(IdealZ(2)).leq(v_of_ideal(IdealZ(6)))
    assert not v_of_ideal(IdealZ(5)).leq(v_of_ideal(IdealZ(6)))
    assert not SpecSubset.whole_spec(Z_BACKEND).leq(v_of_ideal(IdealZ(6)))


def test_closure_idempotent_and_monotone():
    gens = [zp(2), zp(3)]
    s = specialization_closure(gens)
    assert specialization_closure(s.generators) == s
    bigger = specialization_closure(gens + [zp(5)])
    assert s.leq(bigger)


def test_specialization_stability_exhaustive_monomial():
    # p in S and p <= q forces q in S, over every closure in <= 5 variables
    context = ("a", "b", "c", "d", "e")
    primes = all_monomial_primes(context)
    import random

    rng = random.Random("spcl")
    for _ in range(40):
        gens = rng.sample(primes, rng.randrange(1, 4))
        s = specialization_closure(gens)
        members = s.members()
        for p in members:
            for q in primes:
                if p.contained_in(q):
                    assert q in members


def test_closed_set_is_union_of_generator_cones():
    # membership in a closed subset is exactly membership in some V(p)
    s = specialization_closure([mono(["x"]), mono(["y"])])
    for q in all_monomial_primes(XY):
        expected = any(g.contained_in(q) for g in s.generators)
        assert s.contains(q) == expected
    t = specialization_closure([zp(2), zp(5)])
    for q in [PrimeId.z_generic(), zp(2), zp(3), zp(5), zp(11)]:
        assert t.contains(q) == any(g.contained_in(q) for g in t.generators)


def test_explicit_set_semantics():
    s = SpecSubset.explicit([PrimeId.z_generic(), zp(2)])
    assert s.contains(PrimeId.z_generic())
    assert s.contains(zp(2))
    assert not s.contains(zp(3))
    assert not s.is_specialization_closed()
    maximals = SpecSubset.explicit([zp(2), zp(3)])
    assert maximals.is_specialization_closed()


def test_denotation_equality():
    # a closure of maximal primes denotes the same set as the explicit list
    assert (specialization_closure([zp(2), zp(3)])
            == SpecSubset.explicit([zp(2), zp(3)]))
    assert (specialization_closure([PrimeId.z_generic()])
            != SpecSubset.explicit([PrimeId.z_generic()]))
    assert (specialization_closure([mono(["x"])])
            == SpecSubset.explicit([mono(["x"]), mono(["x", "y"])],
                                   backend=monomial_backend(XY)))


def test_minimal_variable_covers():
    covers = minimal_variable_covers([{"x"}, {"x", "y"}], XY)
    assert covers == (frozenset({"x"}),)
    assert minimal_variable_covers([], XY) == (frozenset(),)
    assert minimal_variable_covers([set()], XY) == ()


def test_sorting_and_strings():
    assert str(zp(7)) == "(7)"
    assert str(PrimeId.z_generic()) == "(0)"
    assert str(mono(["y", "x"])) == "(x,y)"
    assert str(mono([])) == "(0)"
    s = SpecSubset.closure([zp(3), zp(2)])
    assert str(s) == "closure{(2),(3)}"


# -- leq and is_specialization_closed against a denotation reference ---------


def _reference_denotation(subset, universe):
    """Denoted set of variable sets (monomial) or of primes (Z), or "all"."""
    if subset.backend == Z_BACKEND:
        if subset.closed and PrimeId.z_generic() in subset.generators:
            return "all"
        return frozenset(subset.generators)
    if not subset.closed:
        return frozenset(p.vars for p in subset.generators)
    return frozenset(q.vars for q in universe
                     if any(g.vars <= q.vars for g in subset.generators))


def _reference_leq(da, db):
    if db == "all":
        return True
    return da != "all" and da <= db


def _reference_closed(den, universe, backend):
    if den == "all":
        return True
    if backend == Z_BACKEND:
        return PrimeId.z_generic() not in den
    return all(q.vars in den for q in universe
               for vs in den if vs <= q.vars)


def _check_against_reference(subsets, universe):
    dens = [_reference_denotation(s, universe) for s in subsets]
    for s, den in zip(subsets, dens):
        assert s.is_specialization_closed() == _reference_closed(
            den, universe, s.backend), s
    for a, da in zip(subsets, dens):
        for b, db in zip(subsets, dens):
            assert a.leq(b) == _reference_leq(da, db), (a, b)


def _antichains(primes):
    """Every antichain of the given primes under containment."""
    out = [()]
    for p in primes:
        out += [chain + (p,) for chain in out
                if not any(q.vars <= p.vars or p.vars <= q.vars for q in chain)]
    return out


def test_leq_and_closedness_exhaustive_three_variables():
    context = ("a", "b", "c")
    primes = all_monomial_primes(context)
    backend = monomial_backend(context)
    explicit = [SpecSubset.explicit([p for i, p in enumerate(primes) if mask >> i & 1],
                                    backend=backend)
                for mask in range(2 ** len(primes))]
    closed = [SpecSubset.closure(chain, backend=backend)
              for chain in _antichains(primes)]
    assert len(explicit) == 256 and len(closed) == 20
    _check_against_reference(explicit + closed, primes)


def test_leq_and_closedness_sampled_four_variables():
    context = ("a", "b", "c", "d")
    primes = all_monomial_primes(context)
    backend = monomial_backend(context)
    rng = random.Random("leq-4")
    subsets = []
    for _ in range(80):
        gens = rng.sample(primes, rng.randrange(0, 6))
        subsets.append(SpecSubset.closure(gens, backend=backend))
        cone = SpecSubset.closure(gens, backend=backend).members()
        # upward closed sets, and the same with one member dropped
        members = sorted(cone, key=PrimeId.sort_key)
        subsets.append(SpecSubset.explicit(members, backend=backend))
        if members:
            members.pop(rng.randrange(len(members)))
        subsets.append(SpecSubset.explicit(members, backend=backend))
        subsets.append(SpecSubset.explicit(rng.sample(primes, rng.randrange(0, 17)),
                                           backend=backend))
    _check_against_reference(subsets, primes)


def test_leq_and_closedness_integers():
    pool = [PrimeId.z_generic(), zp(2), zp(3), zp(5)]
    subsets = []
    for mask in range(2 ** len(pool)):
        gens = [p for i, p in enumerate(pool) if mask >> i & 1]
        subsets.append(SpecSubset.explicit(gens, backend=Z_BACKEND))
        subsets.append(SpecSubset.closure(gens, backend=Z_BACKEND))
    _check_against_reference(subsets, pool)


def test_containment_across_backends_rejected():
    other = PrimeId.monomial(("x", "z"), ["x"])
    for p, q in [(zp(2), mono(["x"])), (mono(["x"]), PrimeId.z_generic()),
                 (mono(["x"]), other)]:
        with pytest.raises(ValueError, match="different backends"):
            p.contained_in(q)


# -- bitmask denotations and Berge covers against subset enumeration ---------


@pytest.mark.parametrize("context, count", [(("a", "b", "c"), 20),
                                            (("a", "b", "c", "d"), 168)])
def test_denotation_and_covers_match_reference_on_every_antichain(context, count):
    backend = monomial_backend(context)
    chains = _antichains(all_monomial_primes(context))
    assert len(chains) == count
    for chain in chains:
        subset = SpecSubset.closure(chain, backend=backend)
        assert subset._denotation == reference.denotation(subset), subset
        supports = [p.vars for p in chain]
        assert (minimal_variable_covers(supports, context)
                == reference.minimal_variable_covers(supports, context)), supports


def test_denotation_and_covers_match_reference_seeded():
    rng = random.Random("berge")
    names = "abcdefgh"
    for _ in range(2000):
        context = tuple(names[:rng.randint(1, 8)])
        # supports may repeat, nest or be empty
        supports = [frozenset(rng.sample(context, rng.randint(0, len(context))))
                    for _ in range(rng.randint(0, 7))]
        assert (minimal_variable_covers(supports, context)
                == reference.minimal_variable_covers(supports, context)), supports
        subset = SpecSubset.closure([PrimeId.monomial(context, s) for s in supports],
                                    backend=monomial_backend(context))
        assert subset._denotation == reference.denotation(subset), subset


def test_supp_request_expands_its_closure_once(capsys):
    argv = ["supp", "--backend", "monomial", "--vars", "a,b,c,d,e,f,g,h",
            "R/(a*b, c*d^2, e*f*g)"]
    before = _prime_table.cache_info()
    assert main(argv) == 0
    after = _prime_table.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1
    # the variable sets meeting {a, b}, {c, d} and {e, f, g}, with or without h
    members = json.loads(capsys.readouterr().out)["supp"]["members"]
    assert len(members) == 3 * 3 * 7 * 2


@pytest.mark.parametrize("n", range(5))
def test_all_monomial_primes_by_size_then_combinations(n):
    context = tuple("abcde"[:n])
    expected = tuple(PrimeId.monomial(context, combo)
                     for size in range(n + 1) for combo in combinations(context, size))
    primes = all_monomial_primes(context)
    assert primes == expected
    assert [p.vars for p in primes] == [p.vars for p in expected]
    assert len(_prime_table(context)) == 2 ** n


def test_all_monomial_primes_refused_past_the_cap():
    with pytest.raises(ValueError):
        all_monomial_primes(tuple(f"x{i}" for i in range(9)))


def test_closure_past_the_cap_builds_no_table():
    # V(x0, ..., x28) in 30 variables has two members; the table would have 2^30
    context = tuple(f"x{i}" for i in range(30))
    subset = SpecSubset.closure([PrimeId.monomial(context, context[:29])])
    before = _prime_table.cache_info()
    assert subset.sorted_members() == [PrimeId.monomial(context, context[:29]),
                                       PrimeId.monomial(context, context)]
    after = _prime_table.cache_info()
    assert after.hits + after.misses == before.hits + before.misses
