"""Monomial ideals in a polynomial ring and direct sums of their cyclics.

The coefficient field never materializes: associated primes, supports,
dimensions and heights of monomial-presented modules are pure exponent-vector
combinatorics, independent of the characteristic.  Modules are formal finite
direct sums of cyclic quotients R/I with I monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .spectrum import (
    PrimeId,
    SpecSubset,
    _check_context,
    minimal_variable_covers,
    monomial_backend,
    v_of_ideal,
)


# The decomposition's work grows with the number of minimal generators and
# with their exponents.  Over 720 seeded 8-variable ideals (supports of 4 to
# 7 variables, exponents up to 4) the slowest took 0.08 s at 8 generators,
# 0.08 s at 9 and 0.20 s at 10; over 30 each with exponents up to 9 and
# supports of 6 or of 7, 0.25 and 0.31 s at 8 (CPU time, one Xeon vCPU).
MAX_GENERATORS = 8


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm_vec(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _support(vec: tuple[int, ...], context) -> frozenset:
    return frozenset(v for v, e in zip(context, vec) if e > 0)


def _minimalize(vectors) -> frozenset:
    vectors = set(vectors)
    out = set()
    for v in sorted(vectors):
        if not any(w != v and _divides(w, v) for w in vectors):
            out.add(v)
    return frozenset(out)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generating exponent vectors."""

    context: tuple[str, ...]
    gens: frozenset

    def __post_init__(self):
        n = len(self.context)
        for g in self.gens:
            if len(g) != n or any(e < 0 for e in g):
                raise ValueError(f"bad exponent vector {g!r} for context {self.context}")
        object.__setattr__(self, "gens", _minimalize(self.gens))

    @classmethod
    def of(cls, context, vectors) -> "MonomialIdeal":
        return cls(tuple(context), frozenset(tuple(v) for v in vectors))

    @classmethod
    def zero(cls, context) -> "MonomialIdeal":
        return cls(tuple(context), frozenset())

    @classmethod
    def unit(cls, context) -> "MonomialIdeal":
        context = tuple(context)
        return cls(context, frozenset({(0,) * len(context)}))

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return (0,) * len(self.context) in self.gens

    def contains_monomial(self, vec) -> bool:
        vec = tuple(vec)
        return any(_divides(g, vec) for g in self.gens)

    def radical_contains(self, vec) -> bool:
        """Whether some power of the monomial lies in the ideal."""
        sup = _support(tuple(vec), self.context)
        return any(_support(g, self.context) <= sup for g in self.gens)

    def colon_monomial(self, vec) -> "MonomialIdeal":
        """The ideal (self : m) for a monomial m."""
        vec = tuple(vec)
        return MonomialIdeal.of(
            self.context,
            [tuple(max(g[i] - vec[i], 0) for i in range(len(vec))) for g in self.gens],
        )

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.context != other.context:
            raise ValueError("context mismatch")
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.context)
        return MonomialIdeal.of(
            self.context,
            [_lcm_vec(a, b) for a in self.gens for b in other.gens],
        )

    def leq(self, other: "MonomialIdeal") -> bool:
        """Ideal containment self <= other."""
        if self.context != other.context:
            raise ValueError("context mismatch")
        return all(other.contains_monomial(g) for g in self.gens)

    def supports(self) -> tuple:
        return tuple(sorted(_support(g, self.context) for g in self.gens))

    def sorted_gens(self) -> list:
        return sorted(self.gens)

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        if self.is_unit():
            return "(1)"
        terms = []
        for g in self.sorted_gens():
            factors = []
            for var, e in zip(self.context, g):
                if e == 1:
                    factors.append(var)
                elif e > 1:
                    factors.append(f"{var}^{e}")
            terms.append("*".join(factors))
        return "(" + ", ".join(terms) + ")"


@lru_cache(maxsize=4096)
def _decompose(ideal: MonomialIdeal) -> tuple:
    # Components are exponent vectors a, each standing for m^a = (x_i^a_i :
    # a_i > 0), kept irredundant generator by generator from m^0 = (0).  A
    # component that contains h stays; any other m^a + (h) is the
    # intersection of its copies with a_i set to h_i over the variables of
    # h, since (J, uv) = (J, u) /\ (J, v) for coprime u and v.  A copy m^g
    # that contains another component m^b, 0 < g_i <= b_i wherever b_i > 0,
    # is dropped; one that stayed contains no copy, or it would contain the
    # copy's source.  What is left is the unique irredundant decomposition.
    components = [(0,) * len(ideal.context)]
    for h in sorted(ideal.gens):
        kept, grown = [], set()
        for a in components:
            if any(0 < x <= y for x, y in zip(a, h)):
                kept.append(a)
            else:
                grown.update(a[:i] + (e,) + a[i + 1:] for i, e in enumerate(h) if e)
        others = kept + list(grown)
        components = kept + [g for g in grown if not any(
            b != g and all(0 < x <= y for x, y in zip(g, b) if y) for b in others)]
    n = len(ideal.context)
    return tuple(sorted((
        MonomialIdeal(ideal.context, frozenset(
            tuple(e if j == i else 0 for j in range(n)) for i, e in enumerate(a) if e))
        for a in components), key=lambda q: q.sorted_gens()))


def irreducible_decomposition(ideal: MonomialIdeal) -> tuple:
    """Irredundant decomposition into ideals generated by pure variable powers."""
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("decomposition is only defined for proper nonzero ideals")
    _check_context(ideal.context)
    if len(ideal.gens) > MAX_GENERATORS:
        raise ValueError(f"ideal has {len(ideal.gens)} minimal generators, "
                         f"cap is {MAX_GENERATORS}")
    return _decompose(ideal)


def ass_cyclic(ideal: MonomialIdeal) -> frozenset:
    """Associated primes of R/I: radicals of the irreducible components."""
    if ideal.is_unit():
        return frozenset()
    if ideal.is_zero():
        return frozenset({PrimeId.monomial(ideal.context, [])})
    return frozenset(
        PrimeId.monomial(ideal.context, {v for g in comp.gens for v in _support(g, ideal.context)})
        for comp in irreducible_decomposition(ideal)
    )


def min_primes(ideal: MonomialIdeal) -> frozenset:
    """Minimal primes of R/I: minimal variable covers of the generator supports."""
    if ideal.is_unit():
        raise ValueError("the unit ideal has no minimal primes")
    if ideal.is_zero():
        # V(0) is the whole spectrum: refused past the variable cap, as
        # minimal_variable_covers refuses every other ideal
        _check_context(ideal.context)
        return frozenset({PrimeId.monomial(ideal.context, [])})
    covers = minimal_variable_covers(ideal.supports(), ideal.context)
    return frozenset(PrimeId.monomial(ideal.context, c) for c in covers)


def height(ideal: MonomialIdeal) -> int:
    return min(len(p.vars) for p in min_primes(ideal))


def dim_cyclic(ideal: MonomialIdeal) -> int:
    n = len(ideal.context)
    return max(n - len(p.vars) for p in min_primes(ideal))


def is_finite_length_cyclic(ideal: MonomialIdeal) -> bool:
    """R/I has finite length exactly when every variable has a pure power in I."""
    if ideal.is_unit():
        return True
    pure = {next(iter(_support(g, ideal.context))) for g in ideal.gens
            if len(_support(g, ideal.context)) == 1}
    return pure == set(ideal.context)


def variable_sum_regular(variables, ideal: MonomialIdeal) -> bool:
    """Whether the sum of the given variables is a nonzerodivisor on R/I.

    The sum e_T = sum of x_v over v in T kills a nonzero class exactly when
    the intersection of the colon ideals (I : x_v) escapes I, so regularity
    is the containment of that intersection in I.
    """
    variables = sorted(set(variables))
    if not variables:
        raise ValueError("empty variable sum")
    if ideal.is_unit():
        return True
    inter = None
    for v in variables:
        idx = ideal.context.index(v)
        vec = tuple(1 if i == idx else 0 for i in range(len(ideal.context)))
        col = ideal.colon_monomial(vec)
        inter = col if inter is None else inter.intersect(col)
    return inter.leq(ideal)


@dataclass(frozen=True)
class MonomialModule:
    """Formal finite direct sum of cyclic modules R/I with I monomial."""

    context: tuple[str, ...]
    summands: tuple[MonomialIdeal, ...]

    def __post_init__(self):
        for s in self.summands:
            if s.context != self.context:
                raise ValueError("summand context mismatch")
        kept = tuple(sorted(
            (s for s in self.summands if not s.is_unit()),
            key=lambda q: q.sorted_gens(),
        ))
        object.__setattr__(self, "summands", kept)

    @classmethod
    def zero(cls, context) -> "MonomialModule":
        return cls(tuple(context), ())

    @classmethod
    def cyclic(cls, ideal: MonomialIdeal) -> "MonomialModule":
        return cls(ideal.context, (ideal,))

    @classmethod
    def of(cls, ideals) -> "MonomialModule":
        ideals = tuple(ideals)
        if not ideals:
            raise ValueError("cannot infer a context from an empty sum")
        return cls(ideals[0].context, ideals)

    def is_zero(self) -> bool:
        return not self.summands

    @property
    def backend(self) -> tuple:
        return monomial_backend(self.context)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for s in self.summands:
            parts.append("R" if s.is_zero() else f"R/{s}")
        return " + ".join(parts)


def ass(m: MonomialModule) -> frozenset:
    out = set()
    for s in m.summands:
        out.update(ass_cyclic(s))
    return frozenset(out)


def supp(m: MonomialModule) -> SpecSubset:
    gens = set()
    for s in m.summands:
        gens.update(min_primes(s))
    return SpecSubset(monomial_backend(m.context), frozenset(gens), True)


def ann(m: MonomialModule) -> MonomialIdeal:
    if m.is_zero():
        return MonomialIdeal.unit(m.context)
    out = None
    for s in m.summands:
        out = s if out is None else out.intersect(s)
    return out


def grade_zero(prime: PrimeId, x: MonomialModule) -> bool:
    """Whether grade(prime, x) = 0: the prime sits inside an associated prime."""
    if x.is_zero():
        raise ValueError("grade against the zero module is undefined")
    if prime.backend != x.backend:
        raise ValueError("backend mismatch")
    return any(prime.vars <= q.vars for q in ass(x))


def is_module_finite_length(m: MonomialModule) -> bool:
    return all(is_finite_length_cyclic(s) for s in m.summands)


def module_dim(m: MonomialModule):
    """Krull dimension of the module; None for the zero module."""
    if m.is_zero():
        return None
    return max(dim_cyclic(s) for s in m.summands)


def is_torsion_module(ideal: MonomialIdeal, m: MonomialModule) -> bool:
    """Whether every element is killed by a power of the ideal.

    R/J is I-torsion exactly when I lies in the radical of J, i.e. every
    generator of I has a power inside J.
    """
    if ideal.context != m.context:
        raise ValueError("context mismatch")
    return all(
        all(s.radical_contains(g) for g in ideal.gens)
        for s in m.summands
    )


@v_of_ideal.register
def _(ideal: MonomialIdeal) -> SpecSubset:
    if ideal.is_unit():
        return SpecSubset.empty(monomial_backend(ideal.context))
    if ideal.is_zero():
        return SpecSubset.whole_spec(monomial_backend(ideal.context))
    return SpecSubset(monomial_backend(ideal.context), min_primes(ideal), True)
