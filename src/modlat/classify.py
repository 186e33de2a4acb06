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

from dataclasses import dataclass
from enum import Enum

from . import monomials, zmodules
from .monomials import MonomialIdeal, MonomialModule
from .spectrum import PrimeId, SpecSubset, Z_BACKEND
from .zmodules import ZModule


class ClosureKind(Enum):
    TORSION = "torsion"
    SERRE = "serre"
    COHERENT = "coherent"
    SUBEXT = "subext"


SUPP_KINDS = (ClosureKind.TORSION, ClosureKind.SERRE, ClosureKind.COHERENT)


def _backend(module) -> tuple:
    """(backend, support, associated primes) of `module`'s type, the last two
    as functions of the module: the one type test every map here reads."""
    if isinstance(module, ZModule):
        return Z_BACKEND, zmodules.supp, zmodules.ass
    if isinstance(module, MonomialModule):
        return module.backend, monomials.supp, _monomial_ass
    raise TypeError(f"unsupported module type {type(module).__name__}")


def _monomial_ass(module: MonomialModule) -> SpecSubset:
    return SpecSubset.explicit(monomials.ass(module), backend=module.backend)


def supp_of(module) -> SpecSubset:
    return _backend(module)[1](module)


def ass_of(module) -> SpecSubset:
    return _backend(module)[2](module)


def backend_of(module) -> tuple:
    return _backend(module)[0]


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
