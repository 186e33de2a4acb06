"""Reference torsion tables by element and cocycle enumeration.

`modlat.oracle` reads its subobject, quotient, kernel, image, cokernel and
extension tables off partitions.  This module keeps the enumeration those
tables were first built with, so the tests can compare the two:

- subgroups of a finite group are enumerated element by element, and
  homomorphism images by every assignment of the source generators;
- kernels are the subgroups of the source torsion whose quotient embeds in
  the target;
- extensions are split into torsion pairs of one prime (free part of the
  quotient, primes of a torsion quotient, free part of the sub), and the
  cocycles of the last torsion pairs are enumerated.  `_cocycle_middle_terms`
  alone is complete for every pair.

Enumeration above `oracle.TORSION_ORDER_CAP` raises `OracleCapError`, as the
oracle tables do.  `presented` reads the class a presentation presents off
its full Smith form, for the tests whose reference must not share the
modulus that `zmodules.from_presentation` works modulo.
"""

from functools import lru_cache
from itertools import product
from math import gcd

from modlat import zmodules
from modlat.intlinalg import IntMatrix, hstack, snf
from modlat.oracle import TORSION_ORDER_CAP, OracleCapError, Universe
from modlat.zmodules import (
    IdealZ,
    ZModule,
    direct_sum,
    is_torsion,
    prime_divisors,
    subgroup_type,
    torsion_submodule,
)


def presented(a: IntMatrix) -> ZModule:
    """The cokernel of `a` (rows = generators, columns = relations), its free
    rank and invariant factors read off `snf(a).diagonal()`."""
    diag = snf(a).diagonal()
    return ZModule(a.rows - sum(1 for x in diag if x), tuple(x for x in diag if x > 1))


# -- element-level machinery for finite torsion parts -----------------------


@lru_cache(maxsize=None)
def _elements(orders: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    total = 1
    for d in orders:
        total *= d
    if total > TORSION_ORDER_CAP:
        raise OracleCapError(f"torsion order {total} above cap {TORSION_ORDER_CAP}")
    return tuple(product(*(range(d) for d in orders)))


def _add(orders, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, orders))


def _scale(orders, c, a):
    return tuple((c * x) % d for x, d in zip(a, orders))


def _span(orders: tuple[int, ...], gens) -> frozenset:
    zero = (0,) * len(orders)
    seen = {zero}
    frontier = [zero]
    gens = list(gens)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = _add(orders, cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


@lru_cache(maxsize=None)
def _all_subgroups(orders: tuple[int, ...]) -> tuple[frozenset, ...]:
    """Every subgroup of the finite group with the given cyclic orders.

    Each subgroup found is enlarged by one element x at a time, to
    sub + <x> = {s + m*x}; the elements of one coset of sub give the same
    enlargement, so one per coset is tried."""
    elements = _elements(orders)
    zero_sub = frozenset({(0,) * len(orders)})
    found = {zero_sub}
    frontier = [zero_sub]
    while frontier:
        sub = frontier.pop()
        tried = set(sub)
        for x in elements:
            if x in tried:
                continue
            tried.update(_add(orders, x, s) for s in sub)
            multiples = _span(orders, (x,))
            bigger = frozenset(_add(orders, s, m) for s in sub for m in multiples)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def _lift_columns(orders, elements) -> IntMatrix:
    return IntMatrix.from_columns([list(e) for e in elements], rows=len(orders))


@lru_cache(maxsize=None)
def _subgroup_type(orders: tuple[int, ...], subgroup: frozenset) -> ZModule:
    return subgroup_type(ZModule(0, orders), _lift_columns(orders, sorted(subgroup)))


@lru_cache(maxsize=None)
def _quotient_type(orders: tuple[int, ...], subgroup: frozenset) -> ZModule:
    if not orders:
        return ZModule.zero()
    rel = IntMatrix.diagonal(orders)
    return zmodules.from_presentation(
        hstack(_lift_columns(orders, sorted(subgroup)), rel)
    )


@lru_cache(maxsize=None)
def _hom_image_subgroups(src: tuple[int, ...], tgt: tuple[int, ...]) -> tuple[frozenset, ...]:
    """Image subgroups of all homomorphisms between the two torsion groups."""
    elements = _elements(tgt)
    candidates = []
    for d in src:
        candidates.append([e for e in elements if _scale(tgt, d, e) == (0,) * len(tgt)])
    images = set()
    for assignment in product(*candidates):
        images.add(_span(tgt, assignment))
    return tuple(images)


# -- extension cocycles -------------------------------------------------------


@lru_cache(maxsize=None)
def _unit_orbit_reps(moduli: tuple[int, ...], c: int) -> tuple:
    """Representatives of sub/(c*sub) modulo unit scaling.

    Scaling a quotient generator of order c by a unit is an automorphism and
    multiplies the cocycle value by that unit, so one representative per
    scaling orbit suffices.
    """
    units = [u for u in range(1, c) if gcd(u, c) == 1]
    seen = set()
    reps = []
    for vec in product(*(range(m) for m in moduli)):
        if vec in seen:
            continue
        reps.append(vec)
        seen.update(
            tuple((u * x) % m for x, m in zip(vec, moduli)) for u in units
        )
    return tuple(reps)


def _cocycle_tuples(a_orders, c_tors):
    """Cocycle tuples covering every extension class up to equivalence.

    The value for a quotient generator of order c lives in sub/(c*sub).
    The first value of each equal-order run is reduced modulo unit scaling;
    later values in the run are reduced modulo the combined action of unit
    scalings and shears by the earlier generators of the run (both are
    automorphisms of the quotient).
    """
    if not c_tors:
        yield ()
        return
    all_vectors = {}
    moduli_for = {}
    for c in set(c_tors):
        moduli = tuple(c if o == 0 else gcd(o, c) for o in a_orders)
        moduli_for[c] = moduli
        all_vectors[c] = tuple(product(*(range(m) for m in moduli)))

    def residues(prefix, index):
        c = c_tors[index]
        moduli = moduli_for[c]
        run = [prefix[j] for j in range(index) if c_tors[j] == c]
        if not run:
            return _unit_orbit_reps(moduli, c)
        units = [u for u in range(1, c) if gcd(u, c) == 1]
        shear_span = {(0,) * len(moduli)}
        for base in run:
            shear_span = {
                tuple((s[i] + t * base[i]) % moduli[i] for i in range(len(moduli)))
                for s in shear_span
                for t in range(c)
            }
        seen = set()
        reps = []
        for vec in all_vectors[c]:
            if vec in seen:
                continue
            reps.append(vec)
            for u in units:
                scaled = tuple((u * x) % m for x, m in zip(vec, moduli))
                seen.update(
                    tuple((scaled[i] + s[i]) % moduli[i] for i in range(len(moduli)))
                    for s in shear_span
                )
        return tuple(reps)

    def rec(prefix):
        index = len(prefix)
        if index == len(c_tors):
            yield tuple(prefix)
            return
        for vec in residues(prefix, index):
            prefix.append(vec)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([])


def _cocycle_middle_terms(sub: ZModule, quotient: ZModule) -> frozenset:
    """Middle-term classes of all extensions of `quotient` by `sub`, by
    enumeration of cocycle data.

    Each torsion generator of the quotient, of order c, picks its lifted
    relation value in sub/(c*sub), reduced modulo quotient automorphisms.
    The resulting presentation is canonicalized; the split sum is always
    among the results.  Complete for every pair; `extension_types` calls it
    on torsion pairs of one prime.
    """
    a_orders = sub.generator_orders
    c_tors = quotient.torsion
    ga, gc = sub.generator_count, quotient.generator_count
    ka, kc = len(sub.torsion), len(c_tors)

    out = set()
    for eps in _cocycle_tuples(a_orders, c_tors):
        rows = []
        for i in range(ga + gc):
            row = []
            for j in range(ka):
                row.append(sub.torsion[j] if i == j else 0)
            for j in range(kc):
                if i < ga:
                    row.append(eps[j][i])
                else:
                    row.append(c_tors[j] if (i - ga) == j else 0)
            rows.append(row)
        pres = IntMatrix._from_rows(rows, ga + gc, ka + kc)
        out.add(zmodules.from_presentation(pres))
    return frozenset(out)


# -- reference tables ----------------------------------------------------------


@lru_cache(maxsize=None)
def surjects_onto(source: ZModule, target: ZModule) -> bool:
    """Whether some surjection source -> target exists: the torsion side by
    complete enumeration of homomorphism images, the spare free generators
    then covering a quotient with at most that many generators."""
    if target.is_zero():
        return True
    if target.free_rank > source.free_rank:
        return False
    spare = source.free_rank - target.free_rank
    tgt_orders = target.torsion
    if not tgt_orders:
        return True
    for image in _hom_image_subgroups(source.torsion, tgt_orders):
        residue = _quotient_type(tgt_orders, image)
        if residue.generator_count <= spare:
            return True
    return False


@lru_cache(maxsize=None)
def subobject_types(module: ZModule) -> frozenset:
    torsion_types = {
        _subgroup_type(module.torsion, sub)
        for sub in _all_subgroups(module.torsion)
    }
    return frozenset(
        direct_sum(ZModule.free(j), t)
        for j in range(module.free_rank + 1)
        for t in torsion_types
    )


@lru_cache(maxsize=None)
def quotient_types(module: ZModule, universe: Universe) -> frozenset:
    return frozenset(n for n in universe.members() if surjects_onto(module, n))


@lru_cache(maxsize=None)
def kernel_types(source: ZModule, target: ZModule) -> frozenset:
    """Z^(r - rank of the free block) + K, with K over the subgroups of the
    source torsion whose quotient embeds in the target."""
    src = source.torsion
    embeddable = subobject_types(target)
    torsion_kernels = {
        _subgroup_type(src, sub) for sub in _all_subgroups(src)
        if _quotient_type(src, sub) in embeddable
    }
    return frozenset(
        direct_sum(ZModule.free(source.free_rank - rk), t)
        for rk in range(min(source.free_rank, target.free_rank) + 1)
        for t in torsion_kernels
    )


@lru_cache(maxsize=None)
def image_types(source: ZModule, target: ZModule) -> frozenset:
    return frozenset(
        t for t in subobject_types(target) if surjects_onto(source, t)
    )


@lru_cache(maxsize=None)
def cokernel_types(source: ZModule, target: ZModule,
                   universe: Universe) -> tuple[frozenset, bool]:
    """Quotients of the target by the subgroups the source surjects onto:
    the finite ones H, and Z + H with projection dZ onto the free part,
    whose quotients are `extension_types(T/H, Z/d)` over d up to the
    universe's largest torsion order."""
    if target.free_rank > 1:
        raise OracleCapError("cokernel enumeration supports target free rank <= 1")
    out = set()
    clipped = False
    tgt_orders = target.torsion
    bound = universe.max_torsion_order()
    for sub in _all_subgroups(tgt_orders):
        sub_type = _subgroup_type(tgt_orders, sub)
        residue = _quotient_type(tgt_orders, sub)
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
        d = 1
        while d * residue.torsion_order() <= bound:
            out.update(q for q in extension_types(residue, ZModule.cyclic(d))
                       if q in universe)
            d += 1
    return frozenset(out), clipped


@lru_cache(maxsize=None)
def extension_types(sub: ZModule, quotient: ZModule) -> frozenset:
    """Middle terms of 0 -> sub -> E -> quotient -> 0, split down to torsion
    pairs of one prime:

    - ext(A, Z^c + T) = Z^c + ext(A, T);
    - for A = Z^a + T_A and a torsion T, a middle term is Z^a, the part of
      T_A at primes not dividing |T|, and for each p the torsion of one
      middle term of ext(Z^a + A_p, T_p);
    - for a p-group T, ext(Z^a + T_A, T) is Z^a + E, with K over the
      subgroups of T whose quotient needs at most a generators and E over
      ext(T_A, K).

    Torsion pairs of one prime go to `_cocycle_middle_terms`, as does a
    p-group T above the cap.
    """
    if sub.is_zero() or quotient.is_zero():
        return frozenset({direct_sum(sub, quotient)})
    if quotient.free_rank:
        free = ZModule.free(quotient.free_rank)
        return frozenset(direct_sum(free, e) for e in
                         extension_types(sub, ZModule(0, quotient.torsion)))
    rank = sub.free_rank
    primes = prime_divisors(quotient.torsion[-1])
    sub_torsion = ZModule(0, sub.torsion)
    if len(primes) > 1 or not is_torsion(IdealZ(primes[0]), sub_torsion):
        away = [q ** e for q, e in sub.primary_factors if q not in primes]
        local = [
            {ZModule(0, e.torsion) for e in extension_types(
                direct_sum(ZModule.free(rank), torsion_submodule(IdealZ(p), sub)),
                torsion_submodule(IdealZ(p), quotient))}
            for p in primes
        ]
        return frozenset(
            direct_sum(ZModule.from_cyclic_orders(rank, away), *parts)
            for parts in product(*local)
        )
    orders = quotient.torsion
    if rank == 0 or quotient.torsion_order() > TORSION_ORDER_CAP:
        return _cocycle_middle_terms(sub, quotient)
    kernels = {
        _subgroup_type(orders, k) for k in _all_subgroups(orders)
        if _quotient_type(orders, k).generator_count <= rank
    }
    return frozenset(
        direct_sum(ZModule.free(rank), e)
        for k in kernels for e in extension_types(sub_torsion, k)
    )
