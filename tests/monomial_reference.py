"""Reference monomial spectra by subset enumeration.

`modlat.spectrum` expands a closed subset on variable bitmasks and finds
minimal variable covers as Berge transversals; `modlat.monomials` grows
irreducible components on exponent vectors one generator at a time, pruning
after each.  This module keeps the enumerations those functions replaced, so
the tests can compare the two:

- `denotation` lists V(p) by every combination of the variables p lacks;
- `minimal_variable_covers` tries all 2^n variable sets, smallest first;
- `decompose` splits a mixed generator in two at its first variable and
  prunes the components by `MonomialIdeal.leq` at every level.
"""

from functools import lru_cache
from itertools import combinations

from modlat.monomials import MonomialIdeal, _support
from modlat.spectrum import Z_BACKEND, PrimeId


def denotation(subset):
    """("all",) for the whole spectrum of Z, else the frozen member set."""
    if subset.backend == Z_BACKEND:
        if subset.closed and any(p.kind == "z_generic" for p in subset.generators):
            return ("all",)
        return subset.generators
    if not subset.closed:
        return subset.generators
    context = subset.backend[1]
    members = set()
    for gen in subset.generators:
        rest = [v for v in context if v not in gen.vars]
        for size in range(len(rest) + 1):
            for extra in combinations(rest, size):
                members.add(PrimeId.monomial(context, gen.vars | set(extra)))
    return frozenset(members)


def minimal_variable_covers(supports, context) -> tuple:
    """Inclusion-minimal variable sets meeting every support, in the order
    of `combinations` by size."""
    context = tuple(context)
    supports = [frozenset(s) for s in supports]
    if any(not s for s in supports):
        return ()
    covers = []
    for size in range(len(context) + 1):
        for combo in combinations(context, size):
            cand = frozenset(combo)
            if any(c <= cand for c in covers):
                continue
            if all(cand & s for s in supports):
                covers.append(cand)
    return tuple(covers)


@lru_cache(maxsize=None)
def decompose(ideal: MonomialIdeal) -> tuple:
    """Irredundant irreducible components, sorted by their generators."""
    mixed = None
    for g in ideal.sorted_gens():
        if len(_support(g, ideal.context)) >= 2:
            mixed = g
            break
    if mixed is None:
        return (ideal,)
    # Split the mixed generator at its first supported variable: with
    # m = u * v and gcd(u, v) = 1, (G, m) = (G, u) /\ (G, v).
    idx = next(i for i, e in enumerate(mixed) if e > 0)
    u = tuple(mixed[i] if i == idx else 0 for i in range(len(mixed)))
    v = tuple(0 if i == idx else mixed[i] for i in range(len(mixed)))
    rest = ideal.gens - {mixed}
    left = MonomialIdeal(ideal.context, rest | {u})
    right = MonomialIdeal(ideal.context, rest | {v})
    components = set(decompose(left)) | set(decompose(right))
    # Drop a component when it contains another one (their intersection is
    # the smaller ideal).
    kept = [
        q
        for q in components
        if not any(other != q and other.leq(q) for other in components)
    ]
    return tuple(sorted(kept, key=lambda q: q.sorted_gens()))
