"""Parsing and printing of the command-line literal grammar.

Grammar summary:

  integer module   Z^2 + Z/2 + Z/6        (also "Z", "0")
  monomial module  R/(x^2,x*y) + R/(z)    (also "R", "0")
  ring context     k[x,y,z]
  integer ideal    (12)   (0)   (1)
  monomial ideal   (x^2, x*y)   (0)   (1)
  prime            (0)   (7)   (x,z)
  spec subset      closure{(2),(3)}   set{(0),(2)}
  matrix           [[2,4],[6,8]]          (JSON rows)
  subgroup gens    2*g0; g0+3*g1          (elements separated by ';')

Modules normalize on parse: "Z/4 + Z/3" becomes invariant factor 12.
"""

from __future__ import annotations

import json
import re

from .intlinalg import IntMatrix
from .monomials import MonomialIdeal, MonomialModule
from .spectrum import PrimeId, SpecSubset, Z_BACKEND
from .zmodules import IdealZ, ZModule


class LiteralError(ValueError):
    """A literal failed to parse; carries position and expectation."""

    def __init__(self, text: str, pos: int, expected: str):
        self.text = text
        self.pos = pos
        self.expected = expected
        super().__init__(f"at position {pos} in {text!r}: expected {expected}")


_IDENT = re.compile(r"[a-zA-Z_][a-zA-Z_0-9]*")
_INT = re.compile(r"[0-9]+")


def split_top_level(text: str) -> list[str]:
    """Split at commas outside parentheses; blank text gives no pieces.

    "R/(x, y),R/(z)" gives ["R/(x, y)", "R/(z)"].
    """
    if not text.strip():
        return []
    parts = []
    depth = start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_context(text: str) -> tuple[str, ...]:
    """Ring context: "k[x,y,z]" or a bare comma list "x,y,z"."""
    raw = text.strip()
    m = re.fullmatch(r"[a-zA-Z_]\w*\[(?P<vars>[^\]]*)\]", raw)
    inner = m.group("vars") if m else raw
    names = [v.strip() for v in inner.split(",") if v.strip()]
    if not names:
        raise LiteralError(text, 0, "a nonempty variable list")
    seen = set()
    for v in names:
        if not _IDENT.fullmatch(v):
            raise LiteralError(text, text.find(v), "a variable name")
        if v in seen:
            raise LiteralError(text, text.find(v), "distinct variable names")
        seen.add(v)
    return tuple(names)


def parse_int_matrix(text: str) -> IntMatrix:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LiteralError(text, exc.pos, "a JSON array of integer rows") from exc
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise LiteralError(text, 0, "a JSON array of integer rows")
    for row in data:
        for x in row:
            if type(x) is not int:  # JSON true and false load as bool
                raise LiteralError(text, 0, "integer entries")
    return IntMatrix(data)


def parse_zmodule(text: str) -> ZModule:
    raw = text.strip()
    if raw == "0":
        return ZModule.zero()
    rank = 0
    orders: list[int] = []
    pos = 0
    for term in raw.split("+"):
        piece = term.strip()
        if not piece:
            raise LiteralError(text, pos, "a module term (Z, Z^r or Z/d)")
        if piece == "Z":
            rank += 1
        elif piece.startswith("Z^"):
            body = piece[2:]
            if not _INT.fullmatch(body):
                raise LiteralError(text, pos, "an exponent after Z^")
            rank += int(body)
        elif piece.startswith("Z/"):
            body = piece[2:]
            if not _INT.fullmatch(body):
                raise LiteralError(text, pos, "a modulus after Z/")
            orders.append(int(body))
        else:
            raise LiteralError(text, pos, "a module term (Z, Z^r or Z/d)")
        pos += len(term) + 1
    return ZModule.from_cyclic_orders(rank, orders)


def parse_monomial(text: str, context) -> tuple[int, ...]:
    """A monomial such as x^2*y, a single variable, or 1."""
    raw = text.strip()
    vec = [0] * len(context)
    if raw == "1":
        return tuple(vec)
    pos = 0
    for factor in raw.split("*"):
        piece = factor.strip()
        m = re.fullmatch(r"(?P<var>[a-zA-Z_]\w*)(\^(?P<exp>[0-9]+))?", piece)
        if not m:
            raise LiteralError(text, pos, "a variable power like x or x^2")
        var = m.group("var")
        if var not in context:
            raise LiteralError(text, pos, f"a variable from {context}")
        vec[context.index(var)] += int(m.group("exp") or 1)
        pos += len(factor) + 1
    return tuple(vec)


def parse_monomial_ideal(text: str, context) -> MonomialIdeal:
    raw = text.strip()
    if not (raw.startswith("(") and raw.endswith(")")):
        raise LiteralError(text, 0, "a parenthesized generator list")
    inner = raw[1:-1].strip()
    if inner == "" or inner == "0":
        return MonomialIdeal.zero(context)
    vectors = [parse_monomial(part, context) for part in inner.split(",")]
    return MonomialIdeal.of(context, vectors)


def parse_monomial_module(text: str, context) -> MonomialModule:
    raw = text.strip()
    if raw == "0":
        return MonomialModule.zero(context)
    summands = []
    pos = 0
    for term in raw.split("+"):
        piece = term.strip()
        if piece == "R":
            summands.append(MonomialIdeal.zero(context))
        elif piece.startswith("R/"):
            summands.append(parse_monomial_ideal(piece[2:], context))
        else:
            raise LiteralError(text, pos, "a summand R or R/(...)")
        pos += len(term) + 1
    return MonomialModule(tuple(context), tuple(summands))


def parse_module(text: str, backend):
    backend = tuple(backend)
    if backend == Z_BACKEND:
        return parse_zmodule(text)
    return parse_monomial_module(text, backend[1])


def parse_ideal_z(text: str) -> IdealZ:
    raw = text.strip()
    m = re.fullmatch(r"\(\s*([0-9]+)\s*\)", raw)
    if not m:
        raise LiteralError(text, 0, "an integer ideal like (12)")
    return IdealZ(int(m.group(1)))


def parse_ideal(text: str, backend):
    backend = tuple(backend)
    if backend == Z_BACKEND:
        return parse_ideal_z(text)
    return parse_monomial_ideal(text, backend[1])


def parse_prime(text: str, backend) -> PrimeId:
    backend = tuple(backend)
    raw = text.strip()
    if not (raw.startswith("(") and raw.endswith(")")):
        raise LiteralError(text, 0, "a parenthesized prime like (7) or (x,z)")
    inner = raw[1:-1].strip()
    if backend == Z_BACKEND:
        if inner == "0":
            return PrimeId.z_generic()
        if not _INT.fullmatch(inner):
            raise LiteralError(text, 1, "0 or a prime number")
        return PrimeId.z_maximal(int(inner))
    context = backend[1]
    if inner == "0" or inner == "":
        return PrimeId.monomial(context, [])
    names = [v.strip() for v in inner.split(",")]
    for v in names:
        if v not in context:
            raise LiteralError(text, text.find(v), f"a variable from {context}")
    return PrimeId.monomial(context, names)


def parse_spec_subset(text: str, backend) -> SpecSubset:
    backend = tuple(backend)
    raw = text.strip()
    m = re.fullmatch(r"(?P<tag>closure|set)\s*\{(?P<body>.*)\}", raw, re.DOTALL)
    if not m:
        raise LiteralError(text, 0, "closure{...} or set{...}")
    tag, body = m.group("tag"), m.group("body").strip()
    primes = [parse_prime(part, backend) for part in split_top_level(body)]
    if tag == "closure":
        return SpecSubset(backend, frozenset(primes), True)
    return SpecSubset(backend, frozenset(primes), False)


def parse_subgroup_elements(text: str, ambient: ZModule) -> IntMatrix:
    """Subgroup generators as combinations of g0..g(k-1), separated by ';'."""
    g = ambient.generator_count
    columns = []
    for element in text.split(";"):
        element = element.strip()
        if not element:
            continue
        vec = [0] * g
        for term in re.split(r"(?=[+-])", element.replace(" ", "")):
            if not term:
                continue
            m = re.fullmatch(r"(?P<sign>[+-]?)(?:(?P<coef>[0-9]+)\*?)?g(?P<idx>[0-9]+)", term)
            if not m:
                raise LiteralError(text, text.find(term), "a term like 2*g0 or -g1")
            idx = int(m.group("idx"))
            if idx >= g:
                raise LiteralError(
                    text, text.find(term), f"a generator index below {g}"
                )
            coef = int(m.group("coef") or 1)
            if m.group("sign") == "-":
                coef = -coef
            vec[idx] += coef
        columns.append(vec)
    if not columns:
        columns = [[0] * g]
    return IntMatrix.from_columns(columns, rows=g)
