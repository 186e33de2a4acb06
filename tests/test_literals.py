"""Literal grammar tests: parse/print round trips and error reporting."""

import pytest

from modlat.intlinalg import IntMatrix
from modlat.literals import (
    LiteralError,
    parse_context,
    parse_ideal_z,
    parse_int_matrix,
    parse_module,
    parse_monomial,
    parse_monomial_ideal,
    parse_monomial_module,
    parse_prime,
    parse_spec_subset,
    parse_subgroup_elements,
    parse_zmodule,
    split_top_level,
)
from modlat.monomials import MonomialIdeal
from modlat.spectrum import PrimeId, SpecSubset, Z_BACKEND, monomial_backend
from modlat.zmodules import IdealZ, ZModule

MONO = monomial_backend(("x", "y", "z"))


def test_parse_context():
    assert parse_context("k[x,y,z]") == ("x", "y", "z")
    assert parse_context("x, y") == ("x", "y")
    with pytest.raises(LiteralError):
        parse_context("k[]")
    with pytest.raises(LiteralError):
        parse_context("k[x,x]")


def test_parse_zmodule():
    assert parse_zmodule("0") == ZModule.zero()
    assert parse_zmodule("Z") == ZModule.free(1)
    assert parse_zmodule("Z^3") == ZModule.free(3)
    assert parse_zmodule("Z^1 + Z/12") == ZModule.from_cyclic_orders(1, [12])
    # normalization happens on parse
    assert parse_zmodule("Z/4 + Z/3") == ZModule(0, (12,))
    assert parse_zmodule("Z/2 + Z/6") == ZModule(0, (2, 6))
    with pytest.raises(LiteralError):
        parse_zmodule("Q/Z")
    with pytest.raises(LiteralError):
        parse_zmodule("Z/")


def test_zmodule_print_parse_round_trip():
    mods = [ZModule.zero(), ZModule.free(2), ZModule(0, (2, 6)),
            ZModule.from_cyclic_orders(1, [12])]
    for m in mods:
        assert parse_zmodule(str(m)) == m


def test_parse_monomials():
    ctx = MONO[1]
    assert parse_monomial("x^2*y", ctx) == (2, 1, 0)
    assert parse_monomial("1", ctx) == (0, 0, 0)
    assert parse_monomial("z", ctx) == (0, 0, 1)
    with pytest.raises(LiteralError):
        parse_monomial("w", ctx)


def test_parse_monomial_ideal_and_module():
    ctx = MONO[1]
    i = parse_monomial_ideal("(x^2, x*y)", ctx)
    assert i == MonomialIdeal.of(ctx, [(2, 0, 0), (1, 1, 0)])
    assert parse_monomial_ideal("(0)", ctx).is_zero()
    assert parse_monomial_ideal("(1)", ctx).is_unit()
    m = parse_monomial_module("R/(x^2,x*y) + R/(z)", ctx)
    assert len(m.summands) == 2
    assert parse_monomial_module("R", ctx).summands[0].is_zero()
    assert parse_monomial_module("0", ctx).is_zero()
    # round trip through the canonical printer
    assert parse_monomial_module(str(m), ctx) == m


def test_parse_ideal_z():
    assert parse_ideal_z("(12)") == IdealZ(12)
    assert parse_ideal_z("(0)") == IdealZ(0)
    with pytest.raises(LiteralError):
        parse_ideal_z("12")


def test_parse_prime():
    assert parse_prime("(0)", Z_BACKEND) == PrimeId.z_generic()
    assert parse_prime("(7)", Z_BACKEND) == PrimeId.z_maximal(7)
    assert parse_prime("(x,z)", MONO) == PrimeId.monomial(MONO[1], ["x", "z"])
    assert parse_prime("(0)", MONO) == PrimeId.monomial(MONO[1], [])
    with pytest.raises(ValueError):
        parse_prime("(6)", Z_BACKEND)
    with pytest.raises(LiteralError):
        parse_prime("(w)", MONO)


def test_parse_spec_subset():
    s = parse_spec_subset("closure{(2),(3)}", Z_BACKEND)
    assert s == SpecSubset.closure([PrimeId.z_maximal(2), PrimeId.z_maximal(3)])
    t = parse_spec_subset("set{(0),(2)}", Z_BACKEND)
    assert t == SpecSubset.explicit([PrimeId.z_generic(), PrimeId.z_maximal(2)])
    assert parse_spec_subset("set{}", Z_BACKEND).generators == frozenset()
    u = parse_spec_subset("closure{(x,y),(z)}", MONO)
    assert len(u.generators) == 2
    # string round trip
    assert parse_spec_subset(str(s), Z_BACKEND) == s
    with pytest.raises(LiteralError):
        parse_spec_subset("cone{(2)}", Z_BACKEND)


def test_parse_matrix():
    assert parse_int_matrix("[[2,4],[6,8]]") == IntMatrix([[2, 4], [6, 8]])
    assert parse_int_matrix("[]").shape == (0, 0)
    with pytest.raises(LiteralError):
        parse_int_matrix("[[2.5]]")
    with pytest.raises(LiteralError, match="integer entries"):
        parse_int_matrix("[[true, 2], [3, 4]]")
    with pytest.raises(LiteralError):
        parse_int_matrix("{}")


def test_parse_subgroup_elements():
    ambient = ZModule.from_cyclic_orders(1, [4])
    m = parse_subgroup_elements("2*g0; g0+3*g1", ambient)
    assert m.to_lists() == [[2, 1], [0, 3]]
    m = parse_subgroup_elements("-g1", ambient)
    assert m.to_lists() == [[0], [-1]]
    with pytest.raises(LiteralError):
        parse_subgroup_elements("g7", ambient)
    with pytest.raises(LiteralError):
        parse_subgroup_elements("2x", ambient)


def test_parse_module_dispatch():
    assert parse_module("Z/6", Z_BACKEND) == ZModule.cyclic(6)
    m = parse_module("R/(x)", MONO)
    assert m.summands[0] == MonomialIdeal.of(MONO[1], [(1, 0, 0)])


def test_error_positions():
    try:
        parse_zmodule("Z/4 + W")
    except LiteralError as exc:
        assert exc.pos > 0
        assert "module term" in exc.expected
    else:
        raise AssertionError("expected a LiteralError")


def test_split_top_level():
    assert split_top_level("R/(x, y),R/(z)") == ["R/(x, y)", "R/(z)"]
    assert split_top_level("Z/2,Z") == ["Z/2", "Z"]
    assert split_top_level("(x,(y,z)),w") == ["(x,(y,z))", "w"]
    assert split_top_level("a,,b") == ["a", "", "b"]
    assert split_top_level("  ") == []
