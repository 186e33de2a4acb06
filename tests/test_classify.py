"""Criterion map and membership tests."""

import random

import pytest

from modlat.classify import (
    ClosureKind,
    Subcategory,
    ass_member,
    ass_of,
    ass_union,
    backend_of,
    cyclic_prime_quotient,
    generated_member,
    serre_part,
    supp_member,
    supp_of,
    supp_union,
    torsion_closure,
)
from modlat.monomials import MonomialIdeal, MonomialModule
from modlat.spectrum import PrimeId, SpecSubset, Z_BACKEND, monomial_backend
from modlat.suites import (
    adjunction_report,
    correspondence_suite,
    random_zmodule,
    roundtrip_suite,
)
from modlat.zmodules import IdealZ, ZModule, grade_ideal, is_torsionfree

XY = ("x", "y")


def zp(p):
    return PrimeId.z_maximal(p)


def test_supp_member_examples():
    s = SpecSubset.closure([zp(2), zp(3)])
    assert supp_member(ZModule.cyclic(12), s)
    assert not supp_member(ZModule.free(1), SpecSubset.closure([zp(2)]))
    assert supp_member(ZModule.zero(), SpecSubset.empty(Z_BACKEND))
    with pytest.raises(ValueError):
        supp_member(ZModule.cyclic(2),
                    SpecSubset.explicit([PrimeId.z_generic()]))


def test_supp_union_examples():
    assert supp_union([ZModule.cyclic(2), ZModule.cyclic(3)]) == \
        SpecSubset.closure([zp(2), zp(3)])
    assert supp_union([], backend=Z_BACKEND) == SpecSubset.empty(Z_BACKEND)
    assert supp_union([ZModule.free(1)]).is_whole()
    with pytest.raises(ValueError):
        supp_union([])


def test_ass_member_examples():
    assert not ass_member(ZModule.cyclic(2),
                          SpecSubset.explicit([PrimeId.z_generic()]))
    assert ass_member(ZModule.free(1),
                      SpecSubset.explicit([PrimeId.z_generic()]))
    assert ass_member(ZModule.zero(), SpecSubset.explicit([], backend=Z_BACKEND))


def test_ass_union_examples():
    m = ZModule.from_cyclic_orders(1, [12])
    assert ass_union([m]) == SpecSubset.explicit(
        [PrimeId.z_generic(), zp(2), zp(3)])
    assert ass_union([ZModule.cyclic(5)]) == SpecSubset.explicit([zp(5)])
    assert ass_union([], backend=Z_BACKEND) == SpecSubset.explicit(
        [], backend=Z_BACKEND)


def test_generated_member_examples():
    assert generated_member(ZModule.cyclic(2), [ZModule.free(1)],
                            ClosureKind.SERRE)
    assert not generated_member(ZModule.cyclic(2), [ZModule.free(1)],
                                ClosureKind.SUBEXT)
    assert generated_member(ZModule.zero(), [], ClosureKind.TORSION) or True
    assert generated_member(ZModule.zero(), [ZModule.cyclic(3)],
                            ClosureKind.SUBEXT)
    with pytest.raises(ValueError):
        generated_member(ZModule.cyclic(2),
                         [MonomialModule.zero(XY)], ClosureKind.SERRE)


def test_subcategory_descriptions():
    s = SpecSubset.closure([zp(2)])
    crit = Subcategory.by_criterion(ClosureKind.SERRE, s)
    assert crit.member(ZModule.cyclic(4))
    assert not crit.member(ZModule.cyclic(3))
    gens = Subcategory.by_generators(ClosureKind.SUBEXT, [ZModule.free(1)])
    assert gens.member(ZModule.free(2))
    assert not gens.member(ZModule.cyclic(2))
    with pytest.raises(ValueError):
        Subcategory.by_criterion(
            ClosureKind.SERRE, SpecSubset.explicit([PrimeId.z_generic()]))
    # arbitrary subsets are fine for the submodule+extension kind
    Subcategory.by_criterion(
        ClosureKind.SUBEXT, SpecSubset.explicit([PrimeId.z_generic()]))


def test_tag_conversions():
    s = SpecSubset.closure([zp(2)])
    torsion = Subcategory.by_criterion(ClosureKind.TORSION, s)
    serre = serre_part(torsion)
    assert serre.kind is ClosureKind.SERRE
    assert serre.criterion == s
    assert torsion_closure(serre).kind is ClosureKind.TORSION
    with pytest.raises(ValueError):
        serre_part(serre)


def test_adjunction_exhaustive():
    subsets = [SpecSubset.empty(Z_BACKEND),
               SpecSubset.closure([zp(2)]),
               SpecSubset.closure([zp(2), zp(3)]),
               SpecSubset.whole_spec(Z_BACKEND)]
    families = [[], [ZModule.cyclic(2)], [ZModule.free(1)],
                [ZModule.cyclic(2), ZModule.cyclic(9)]]
    for pair in ("supp-criterion", "serre-torsion"):
        assert adjunction_report(pair, families, subsets).passed
    arbitrary = subsets + [SpecSubset.explicit([PrimeId.z_generic()]),
                           SpecSubset.explicit([PrimeId.z_generic(), zp(2)])]
    assert adjunction_report("ass-criterion", families, arbitrary).passed


def test_round_trip_on_closure():
    s = SpecSubset.closure([zp(2), zp(3)])
    probes = [cyclic_prime_quotient(p) for p in s.generators]
    assert supp_union(probes) == s


def test_maps_monotone():
    small = SpecSubset.closure([zp(2)])
    large = SpecSubset.closure([zp(2), zp(3)])
    probes = [ZModule.cyclic(2), ZModule.cyclic(6), ZModule.free(1)]
    for m in probes:
        if supp_member(m, small):
            assert supp_member(m, large)
    assert supp_union([ZModule.cyclic(2)]).leq(
        supp_union([ZModule.cyclic(2), ZModule.cyclic(3)]))


def test_ass_and_supp_criteria_agree_on_closed():
    rng = random.Random("agree")
    closed = [SpecSubset.empty(Z_BACKEND), SpecSubset.closure([zp(2)]),
              SpecSubset.closure([zp(2), zp(5)]),
              SpecSubset.whole_spec(Z_BACKEND)]
    for _ in range(200):
        m = random_zmodule(rng)
        s = rng.choice(closed)
        assert supp_member(m, s) == ass_member(m, s)


def test_subext_membership_implies_serre_membership():
    rng = random.Random("implies")
    for _ in range(150):
        m = random_zmodule(rng)
        gens = [random_zmodule(rng) for _ in range(rng.randrange(1, 3))]
        if generated_member(m, gens, ClosureKind.SUBEXT):
            assert generated_member(m, gens, ClosureKind.SERRE)


def test_torsion_universe_collapse():
    # on torsion modules the Serre and sub+ext generated memberships agree
    rng = random.Random("torsionworld")
    for _ in range(150):
        m = random_zmodule(rng, max_rank=0)
        gens = [random_zmodule(rng, max_rank=0) for _ in range(rng.randrange(1, 3))]
        assert (generated_member(m, gens, ClosureKind.SERRE)
                == generated_member(m, gens, ClosureKind.SUBEXT))
    # and the free-generator probe separates them
    assert generated_member(ZModule.cyclic(2), [ZModule.free(1)],
                            ClosureKind.SERRE)
    assert not generated_member(ZModule.cyclic(2), [ZModule.free(1)],
                                ClosureKind.SUBEXT)


def test_cyclic_prime_quotients():
    assert cyclic_prime_quotient(PrimeId.z_generic()) == ZModule.free(1)
    assert cyclic_prime_quotient(zp(7)) == ZModule.cyclic(7)
    q = cyclic_prime_quotient(PrimeId.monomial(XY, ["x"]))
    assert ass_of(q) == SpecSubset.explicit(
        [PrimeId.monomial(XY, ["x"])], backend=monomial_backend(XY))


def test_correspondence_worked_examples():
    # torsionfree: M = Z/12 against I = (5): both routes agree on True
    m, ideal = ZModule.cyclic(12), IdealZ(5)
    assert is_torsionfree(ideal, m)
    assert grade_ideal(ideal, m) > 0
    locus_ok = all(
        not p.contained_in(q)
        for p in ass_of(m).generators
        for q in [zp(5)]
    )
    assert locus_ok
    # finite length: Z/4 has finite length and its primes are maximal
    assert all(p.is_maximal() for p in ass_of(ZModule.cyclic(4)).generators)
    # rank zero: the zero module belongs everywhere
    assert ass_of(ZModule.zero()).generators == frozenset()


@pytest.mark.parametrize("item", range(1, 11))
def test_correspondence_items_z(item):
    report = correspondence_suite(item, Z_BACKEND, trials=120, seed=7)
    assert report.passed, [c.detail for c in report.failures()]


@pytest.mark.parametrize("item", (1, 6, 8, 9, 10))
def test_correspondence_items_monomial(item):
    report = correspondence_suite(item, monomial_backend(("x", "y", "z")),
                                  trials=120, seed=7)
    assert report.passed, [c.detail for c in report.failures()]


def test_correspondence_rejects_wrong_backend():
    with pytest.raises(ValueError):
        correspondence_suite(2, monomial_backend(XY), trials=1)
    with pytest.raises(ValueError):
        correspondence_suite(11, Z_BACKEND, trials=1)


def test_roundtrip_suites():
    assert roundtrip_suite(Z_BACKEND, seed=3, probe_trials=80).passed
    assert roundtrip_suite(monomial_backend(XY), seed=3, probe_trials=80).passed


def test_supp_of_dispatch():
    assert supp_of(ZModule.cyclic(4)) == SpecSubset.closure([zp(2)])
    m = MonomialModule.cyclic(MonomialIdeal.of(XY, [(1, 0)]))
    assert supp_of(m) == SpecSubset.closure([PrimeId.monomial(XY, ["x"])])
    assert ass_of(m) == SpecSubset.explicit([PrimeId.monomial(XY, ["x"])],
                                            backend=m.backend)
    assert backend_of(ZModule.cyclic(4)) == Z_BACKEND
    assert backend_of(m) == m.backend
    with pytest.raises(TypeError):
        supp_of(42)
    with pytest.raises(TypeError, match="unsupported module type int"):
        ass_of(42)
    with pytest.raises(TypeError, match="unsupported module type int"):
        backend_of(42)
