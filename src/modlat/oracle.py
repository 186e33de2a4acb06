"""Brute-force verification over finite universes of integer modules.

The oracle enumerates a finite universe of isomorphism classes, computes
genuine closures of generator sets under chosen operations, and produces
replayable derivation witnesses for submodule membership.

Torsion parts are read off partitions, prime by prime: the subgroup and
quotient types of a p-group are the partitions inside its type, a subgroup
of type mu with quotient of type nu exists exactly when the
Littlewood-Richardson coefficient c^lambda_{mu nu} is nonzero, and so do
the middle terms of extensions.  Surjections follow an interlacing rule,
kernels and cokernels the (mu, nu) pairs, and a free part of an extension's
sub turns into a choice of such a pair.  `tests/torsion_reference.py`
builds the same tables by element and cocycle enumeration, as the tests'
reference.  Every cokernel, onto a target of any free rank, is read from the
extension table.
Each table returns the result classes of one application that lie in the
universe, and whether some exact result does not: results outside the
universe are discarded and recorded through a clip flag, never silently.
The extension table grows only the middle terms inside the universe's
bounds, and reads its flag off the dominance-order ends of each
Littlewood-Richardson product.  One operation table serves both `close` and
`check_closed`, and `close` reaches its fixed point semi-naively: each round
applies operations only to inputs that include a class the round before
added, and no kind is applied whose results another requested kind gives
too: finite sums beside extensions, kernels beside subobjects, cokernels
beside quotients, and summands and images beside either.  A closure past
CLOSURE_WORK_CAP is refused before it starts.  Universes are closed under
subgroups and sub-multisets of primary factors, which is what makes the
universe-restricted fixed points meaningful.

Explicit subgroups are echelon lattices, so membership, subgroup classes
and each derivation stage's colon step take no Smith transform; only each
stage's canonical generators take one, with U^-1 from the same elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product, takewhile, zip_longest
from math import gcd

from . import zmodules
from .intlinalg import (
    IntMatrix,
    column_basis,
    echelon_pivots,
    forward_substitute,
    hstack,
    snf,
    solve_echelon,
)
from .spectrum import is_prime_number
from .zmodules import (ZModule, ZModuleMap, _module, direct_sum, presentation_matrix,
                       prime_types)

TORSION_ORDER_CAP = 2 ** 14
# A universe of more classes is refused when it is built, before any class is
# enumerated.  A closure adds at least one class per round, so it stops
# within CLASS_CAP + 1 rounds.
CLASS_CAP = 5000
# A closure over N classes is refused before any table is read when the sum
# of N^w over its applied kinds, w from each kind's row, passes this.  On a
# grid of universes up to it, admitted closures took at most 3.5 s of CPU
# (2-vCPU VM), cokernel ones of all 144 classes over (2,), e = 7, r = 3,
# f = 2 the slowest.
CLOSURE_WORK_CAP = 25_000


class OracleCapError(ValueError):
    """A brute-force enumeration exceeded its configured cap."""


@dataclass(frozen=True)
class Universe:
    """A finite family of isomorphism classes of integer modules.

    Members are Z^s + (sum of prime-power cyclics) with s <= max_rank, at
    most max_torsion_factors primary summands, primes from `primes` and
    exponents at most max_exponent.  A non-prime in `primes`, or a negative
    bound, is a ValueError; more than CLASS_CAP classes is an OracleCapError.
    """

    primes: tuple[int, ...]
    max_exponent: int
    max_rank: int
    max_torsion_factors: int

    def __post_init__(self):
        for p in self.primes:
            if not is_prime_number(p):
                raise ValueError(f"{p!r} is not a prime number")
        for bound in ("max_exponent", "max_rank", "max_torsion_factors"):
            if getattr(self, bound) < 0:
                raise ValueError(f"{bound} must be nonnegative, got {getattr(self, bound)}")
        object.__setattr__(self, "primes", tuple(sorted(set(self.primes))))
        if self.class_count() > CLASS_CAP:
            raise OracleCapError(
                f"universe has more than {CLASS_CAP} classes, cap is {CLASS_CAP}")

    def class_count(self) -> int:
        """(max_rank + 1) * C(k + f, f) for k prime powers and at most f
        factors, multiplied out one factor at a time.  Once k > 0, C(k + i, i)
        exceeds i, so the product passes CLASS_CAP within CLASS_CAP steps;
        it stops there and returns that partial count."""
        powers = len(self.primes) * self.max_exponent
        count = self.max_rank + 1
        for i in range(1, self.max_torsion_factors + 1 if powers else 1):
            if count > CLASS_CAP:
                break
            count = count * (powers + i) // i
        return count

    def members(self) -> tuple[ZModule, ...]:
        return _enumerate_universe(self)

    def max_torsion_order(self) -> int:
        if not self.primes:
            return 1
        return (max(self.primes) ** self.max_exponent) ** self.max_torsion_factors

    def __contains__(self, module: ZModule) -> bool:
        if module.free_rank > self.max_rank:
            return False
        factors = module.primary_factors
        if len(factors) > self.max_torsion_factors:
            return False
        return all(p in self.primes and e <= self.max_exponent for p, e in factors)


@lru_cache(maxsize=None)
def _enumerate_universe(universe: Universe) -> tuple[ZModule, ...]:
    # Each multiset of (p, e) pairs is one torsion class, built from its
    # type at each prime without factoring: pairs come by p, e descending.
    powers = [(p, e) for p in universe.primes for e in range(universe.max_exponent, 0, -1)]
    torsion = []
    for size in range(universe.max_torsion_factors + 1):
        for combo in combinations_with_replacement(powers, size):
            parts: dict[int, tuple[int, ...]] = {}
            for p, e in combo:
                parts[p] = parts.get(p, ()) + (e,)
            torsion.append(_module(0, parts.items()).torsion)
    out = [ZModule(rank, t) for rank in range(universe.max_rank + 1) for t in torsion]
    return tuple(sorted(out, key=lambda m: (m.free_rank, len(m.torsion), m.torsion)))


# -- torsion types as partitions ---------------------------------------------
#
# A finite abelian p-group is the sum of Z/p^e over a partition of exponents,
# its type.  Its subgroup types and its quotient types are the partitions
# inside its type, and it has a subgroup of type mu with quotient of type nu
# exactly when the Littlewood-Richardson coefficient c^lambda_{mu nu} is
# nonzero (Hall; Macdonald, Symmetric Functions and Hall Polynomials, ch. II).
# Every table below works prime by prime on these types.


def _check_cap(module: ZModule) -> None:
    total = module.torsion_order()
    if total > TORSION_ORDER_CAP:
        raise OracleCapError(f"torsion order {total} above cap {TORSION_ORDER_CAP}")


def _subpartitions(lam: tuple[int, ...], top: int | None = None) -> list:
    """Every partition mu with mu_i <= lam_i, and mu_1 <= top if given."""
    if not lam:
        return [()]
    top = lam[0] if top is None else min(top, lam[0])
    return [()] + [(m,) + rest for m in range(1, top + 1)
                   for rest in _subpartitions(lam[1:], m)]


def _strips(shape, size: int, last, start: int, height: int, width: int):
    """(grown shape, cells per row) for each horizontal strip of `size` cells
    on `shape` that keeps the reading word a lattice word and the shape
    inside a box of `height` rows and `width` columns: the strip may put
    no more cells in rows 0..r than `last`, the strip before, has in rows
    above r, plus `start`."""
    rows = shape + (0,) * (len(shape) < height)

    def grow(r, left, lead, new, counts):
        if r == len(rows):
            if not left:
                yield tuple(x for x in new if x), counts
            return
        room = min(left, lead, rows[r - 1] - rows[r] if r else width - rows[0])
        below = last[r] if r < len(last) else 0
        for a in range(room + 1):
            yield from grow(r + 1, left - a, lead - a + below,
                            new + (rows[r] + a,), counts + (a,))

    return grow(0, size, start, (), ())


@lru_cache(maxsize=None)
def _lr(mu: tuple[int, ...], nu: tuple[int, ...], height: int, width: int) -> dict:
    """lambda -> c^lambda_{mu nu}, for every lambda inside a box of `height`
    rows and `width` columns where it is nonzero.

    The Littlewood-Richardson tableaux of shape lambda/mu and content nu are
    grown row by row of nu: the k-th row adds a horizontal strip of nu_k
    cells labelled k, and the labels read right to left, top row first,
    never have more k than k - 1.  That depends only on the strip before.
    A shape only grows, so one that leaves the box is never grown further.
    """
    # (shape, cells per row of the last strip) -> tableaux
    states = {(mu, ()): 1} if len(mu) <= height and sum(mu[:1]) <= width else {}
    for k, size in enumerate(nu):
        grown: dict = {}
        for (shape, last), count in states.items():
            # no strip comes before the first, so nothing bounds it
            for state in _strips(shape, size, last, size if k == 0 else 0, height, width):
                grown[state] = grown.get(state, 0) + count
        states = grown
    out: dict = {}
    for (shape, _), count in states.items():
        out[shape] = out.get(shape, 0) + count
    return out


@lru_cache(maxsize=None)
def _pairs(lam: tuple[int, ...]) -> tuple:
    """(mu, nu) for each subgroup of a p-group of type lam: its type and the
    type of its quotient, the pairs with c^lam_{mu nu} nonzero."""
    subs = _subpartitions(lam)
    n = sum(lam)
    return tuple((mu, nu) for mu in subs for nu in subs
                 if sum(mu) + sum(nu) == n and lam in _lr(mu, nu, len(lam), sum(lam[:1])))


@lru_cache(maxsize=None)
def _subgroups(module: ZModule) -> frozenset:
    """(class of H, class of T/H) over the subgroups H of the torsion part T
    of `module`: at each prime, one of the type pairs of `_pairs`."""
    _check_cap(module)
    lam = prime_types(module)
    return frozenset(
        (_module(0, zip(lam, (mu for mu, _ in choice))),
         _module(0, zip(lam, (nu for _, nu in choice))))
        for choice in product(*map(_pairs, lam.values()))
    )


@lru_cache(maxsize=None)
def surjects_onto(source: ZModule, target: ZModule) -> bool:
    """Whether some surjection source -> target exists.

    Z^s + T_B is a quotient of Z^r + T exactly when s <= r and, with
    k = r - s spare free generators, each primary part of type beta of T_B
    and the part of type tau of T at its prime interlace:
    beta_(i+k) <= tau_i for all i.
    """
    if target.is_zero():
        return True
    if target.free_rank > source.free_rank:
        return False
    if not target.torsion:
        return True
    _check_cap(target)
    spare = source.free_rank - target.free_rank
    tau = prime_types(source)
    return all(
        b <= t
        for p, beta in prime_types(target).items()
        for b, t in zip_longest(beta[spare:], tau.get(p, ()), fillvalue=0)
    )


# -- operation tables --------------------------------------------------------


@lru_cache(maxsize=None)
def subobject_types(module: ZModule) -> frozenset:
    """Isomorphism classes of subgroups: free rank up to the ambient rank,
    torsion part any subgroup type of the ambient torsion."""
    return frozenset(
        ZModule(j, t.torsion)
        for t, _ in _subgroups(module)
        for j in range(module.free_rank + 1)
    )


@lru_cache(maxsize=None)
def quotient_types(module: ZModule, universe: Universe) -> frozenset:
    """Quotient classes of `module` that lie in the universe.

    A module with free part has quotients of arbitrarily large torsion, so
    the answer is inherently universe-relative: each candidate is decided
    exactly by `surjects_onto`.
    """
    return frozenset(n for n in universe.members() if surjects_onto(module, n))


@lru_cache(maxsize=None)
def summand_types(module: ZModule) -> frozenset:
    factors = module.primary_factors
    out = set()
    for rank in range(module.free_rank + 1):
        for size in range(len(factors) + 1):
            for combo in combinations(range(len(factors)), size):
                orders = [factors[i][0] ** factors[i][1] for i in combo]
                out.add(ZModule.from_cyclic_orders(rank, orders))
    return frozenset(out)


@lru_cache(maxsize=None)
def kernel_types(source: ZModule, target: ZModule) -> frozenset:
    """Kernel classes of all maps source -> target.

    A kernel splits as Z^(r - rank of the free block) + ker(torsion block);
    the free block rank takes every value up to min of the free ranks.  The
    torsion kernels are exactly the subgroups K of the source torsion whose
    quotient is isomorphic to a subgroup of the target (the map onto that
    subgroup has kernel K).
    """
    embeddable = subobject_types(target)
    torsion_kernels = {k for k, q in _subgroups(source) if q in embeddable}
    return frozenset(
        ZModule(source.free_rank - rk, t.torsion)
        for rk in range(min(source.free_rank, target.free_rank) + 1)
        for t in torsion_kernels
    )


@lru_cache(maxsize=None)
def image_types(source: ZModule, target: ZModule) -> frozenset:
    """Image classes of maps source -> target: subgroup types of the target
    that are also epimorphic images of the source."""
    return frozenset(
        t for t in subobject_types(target) if surjects_onto(source, t)
    )


@lru_cache(maxsize=None)
def cokernel_types(source: ZModule, target: ZModule,
                   universe: Universe) -> tuple[frozenset, bool]:
    """Cokernel classes of maps source -> target that lie in the universe,
    and whether some cokernel does not.

    The image S of a map into Z^f + T meets T in some H and projects onto a
    lattice L of rank k <= f in Z^f.  So S is Z^k + H, which the source must
    surject onto, and Z^f/L is Z^(f-k) + C with C finite of at most k
    invariant factors.  The cokernel is an extension of Z^f/L by T/H, and
    every class in Ext(Z^f/L, T/H) occurs: since Ext(Z^f, -) = 0, Hom(L, T/H)
    maps onto it, and a map on L is a choice of lifts of L's basis into T.
    C is a quotient of the cokernel's torsion, so a cokernel in the universe
    has C among the universe's torsion classes, and the cokernels are the
    `extension_types(T/H, Z^(f-k) + C)` over H, k and such C.  Each k >= 1
    admits C of any order, so it sets the clip flag.  The subgroups H of T
    enter only through the classes of H and T/H.
    """
    f = target.free_rank
    out = set()
    clipped = False
    for sub_type, residue in _subgroups(target):
        ranks = [k for k in range(min(f, source.free_rank) + 1)
                 if surjects_onto(source, ZModule(k, sub_type.torsion))]
        if ranks:  # a prefix: the source surjects onto Z^(k-1) + H if onto Z^k + H
            classes, escaped = _cokernels_by_residue(residue, f, ranks[-1], universe)
            out |= classes
            clipped = clipped or escaped
    return frozenset(out), clipped


@lru_cache(maxsize=None)
def _cokernels_by_residue(residue: ZModule, f: int, k: int,
                          universe: Universe) -> tuple[frozenset, bool]:
    """The classes of `extension_types(residue, Z^(f-j) + C)` over j <= k and
    the universe's torsion classes C of at most j invariant factors, and
    whether some class leaves the universe, as it does whenever k >= 1."""
    out = set()
    clipped = k > 0
    for j in range(k + 1):
        # members lead with the torsion classes, fewest invariant factors first
        for c in takewhile(lambda c: not c.free_rank and len(c.torsion) <= j,
                           universe.members()):
            classes, escaped = extension_types(residue, ZModule(f - j, c.torsion), universe)
            out |= classes
            clipped = clipped or escaped
    return frozenset(out), clipped


@lru_cache(maxsize=None)
def extension_types(sub: ZModule, quotient: ZModule,
                    universe: Universe) -> tuple[frozenset, bool]:
    """Middle-term classes of the extensions of `quotient` by `sub` that lie
    in the universe, and whether some middle term does not.

    For sub = Z^a + A and quotient = Z^c + T, every middle term is
    Z^(a+c) + E, and E is chosen prime by prime:

    - An extension of Z^c splits, and Ext(T, Z^a + A) is the product over
      the primes p of T of Ext(T_p, Z^a + A_p); away from p it is split.
    - With no free part in the sub, E_p is any middle term of A_p and T_p:
      a type lambda with c^lambda_{alpha tau} nonzero.
    - A free part Z^a of the sub turns into a choice of subgroup K of T_p
      whose quotient needs at most a generators, and E_p then runs over the
      middle terms of A_p and K: write T_p = (Z^a + K)/N with N free of
      rank a, and the preimage of N in Z^a + E is Z^a + A with quotient T.

    So E_p has a type lambda with c^lambda_{alpha kappa} nonzero for a pair
    (kappa, nu) of tau with at most a parts in nu.  Such lambda lie between
    the union of the parts of alpha and kappa and the sum alpha + kappa in
    dominance order, and both ends have coefficient 1 (Macdonald, ch. I,
    section 9).  So some middle term leaves the universe exactly when the
    rank passes max_rank, or at some prime alpha_1 + kappa_1 passes
    max_exponent (0 at a prime outside the universe), or the largest
    len alpha + len kappa at each prime sum past max_torsion_factors.  Only
    the lambda inside those bounds are grown.  No pair raises OracleCapError.
    """
    a = sub.free_rank
    rank = a + quotient.free_rank
    if rank > universe.max_rank:
        return frozenset(), True
    alpha, tau = prime_types(sub), prime_types(quotient)
    height = universe.max_torsion_factors
    options, longest, clipped = [], 0, False
    for p in alpha.keys() | tau.keys():
        width = universe.max_exponent if p in universe.primes else 0
        alpha_p = alpha.get(p, ())
        kappas = {kappa for kappa, nu in _pairs(tau.get(p, ())) if len(nu) <= a}
        options.append({(p, lam) for kappa in kappas
                        for lam in _lr(alpha_p, kappa, height, width)})
        longest += len(alpha_p) + max(len(kappa) for kappa in kappas)
        clipped |= sum(alpha_p[:1]) + max(sum(kappa[:1]) for kappa in kappas) > width
    return frozenset(
        _module(rank, choice) for choice in product(*options)
        if sum(len(lam) for _, lam in choice) <= height
    ), clipped or longest > height


# -- closures ---------------------------------------------------------------


def _sums(universe: Universe, a: ZModule, b: ZModule) -> tuple[frozenset, bool]:
    s = direct_sum(a, b)
    return (frozenset({s}), False) if s in universe else (frozenset(), True)


# kind -> (arity; w, so that a closure over N classes reads the table at most
# N^w times, the quotient table scanning every member per application; the
# table: one application's result classes in the universe, and whether some
# result is not; the kinds whose results include its own).  Universes are
# closed under subgroups and sub-multisets of primary factors, so only a free
# part's quotients, sums, extensions and cokernels can leave one.  A direct
# sum is the split extension, a kernel a subgroup of its source, a cokernel a
# quotient of its target, and summands and images are both.  Tables are looked
# up by name at call time.
_OPERATIONS = {
    "subobjects": (1, 1, lambda u, m: (subobject_types(m), False), ()),
    "quotients": (1, 2, lambda u, m: (quotient_types(m, u), m.free_rank > 0), ()),
    "extensions": (2, 2, lambda u, a, c: extension_types(a, c, u), ()),
    "finite_sums": (2, 2, _sums, ("extensions",)),
    "kernels": (2, 2, lambda u, a, b: (kernel_types(a, b), False), ("subobjects",)),
    "cokernels": (2, 2, lambda u, a, b: cokernel_types(a, b, u), ("quotients",)),
    "summands": (1, 1, lambda u, m: (summand_types(m), False), ("subobjects", "quotients")),
    "images": (2, 2, lambda u, a, b: (image_types(a, b), False), ("subobjects", "quotients")),
}
CLOSURE_KINDS = tuple(_OPERATIONS)


def _applications(kind: str, members, universe: Universe, new):
    """(inputs, (results, clipped)) for every application of one operation to
    `members` that has an input in `new`, inputs in the order of `members`:
    a second input pairs with every member when the first is in `new`, and
    otherwise only with those in `new`."""
    if kind not in _OPERATIONS:
        raise ValueError(f"unknown closure kind {kind!r}")
    arity, _, apply, _ = _OPERATIONS[kind]
    fresh = [m for m in members if m in new]
    for x in fresh if arity == 1 else members:
        for rest in product(members if x in new else fresh, repeat=arity - 1):
            yield (x, *rest), apply(universe, x, *rest)


@dataclass(frozen=True)
class ClosureResult:
    members: frozenset
    clipped: bool
    iterations: int


def close(generators, kinds, universe: Universe) -> ClosureResult:
    """Least subset of the universe containing the generators and stable
    under the chosen operations (restricted to the universe).

    The zero module is always included: every subcategory described here is
    nonempty and replete.  The clip flag reports that some exactly-computed
    operation result fell outside the universe and was discarded.  Each
    iteration applies the operations only to inputs that include a class
    added by the iteration before; the other applications were made already.
    A kind is not applied beside a kind its row says covers it: its results
    are among that kind's, it clips only where that kind does, and its
    torsion-cap checks read classes no larger than its inputs, which the
    covering kind, earlier in CLOSURE_KINDS order, checks at every member.
    Over N classes, the closure is refused before any table is read when the
    sum of N^w over the applied kinds passes CLOSURE_WORK_CAP.
    """
    kinds = frozenset(kinds)
    unknown = kinds - _OPERATIONS.keys()
    if unknown:
        raise ValueError(f"unknown closure kinds: {sorted(unknown)}")
    current = {ZModule.zero()}
    for g in generators:
        if g not in universe:
            raise ValueError(f"generator {g} lies outside the universe")
        current.add(g)
    applied = [k for k, (*_, covering) in _OPERATIONS.items()
               if k in kinds and not kinds.intersection(covering)]
    work = sum(universe.class_count() ** _OPERATIONS[k][1] for k in applied)
    if work > CLOSURE_WORK_CAP:
        raise OracleCapError(f"closure work {work} above cap {CLOSURE_WORK_CAP}")
    clipped = False
    iterations = 0
    fresh = set(current)
    while fresh:
        iterations += 1
        produced = set()
        for kind in applied:
            for _, (results, escaped) in _applications(kind, current, universe, fresh):
                produced |= results
                clipped = clipped or escaped
        fresh = produced - current
        current |= fresh
    return ClosureResult(frozenset(current), clipped, iterations)


def check_closed(subset, kind: str, universe: Universe):
    """Verify closure of `subset` under one operation, within the universe.

    Returns (True, None) or (False, counterexample) where the counterexample
    names the inputs and the escaping module class: the first one met with
    inputs in (free_rank, torsion) order and results in str order.
    """
    subset = frozenset(subset)
    ordered = sorted(subset, key=lambda m: (m.free_rank, m.torsion))
    for inputs, (results, _) in _applications(kind, ordered, universe, subset):
        escaped = [r for r in results if r not in subset]
        if escaped:
            return False, (inputs, min(escaped, key=str))
    return True, None


# -- explicit subgroups and derivation traces --------------------------------


class _Subgroup:
    """A subgroup of a canonical module, as a `column_basis` lattice."""

    def __init__(self, ambient: ZModule, basis: IntMatrix):
        self.ambient = ambient
        self.basis = basis

    def contains(self, column: IntMatrix) -> bool:
        return solve_echelon(self.basis, column) is not None

    def with_element(self, column: IntMatrix) -> "_Subgroup":
        return _Subgroup(
            self.ambient, column_basis(hstack(self.basis, column))
        )

    def step(self, x: IntMatrix, stage_gens: IntMatrix) -> tuple[int, list[int]]:
        """The map from stage = subgroup + Z*x onto stage/subgroup.

        Returns d >= 0 generating {a : a * x lies in the subgroup}, so that
        stage/subgroup = Z/d, and the image a of each of the `stage_gens`
        columns: v = (element of the subgroup) + a * x determines a modulo d.

        Both read one `column_basis` of the lattice in Z^(g+1) spanned by
        (x; 1) and (basis; 0), whose elements are (a * x + b; a) with b in
        the subgroup.  Its vectors (0; a) are those with a * x in the
        subgroup, so its last-row pivot is d, or there is none and d = 0.
        For v = b + a * x, (v; 0) is (a * x + b; a) - (0; a), so forward
        substitution through the other pivots leaves (0; c * d - a): a is
        minus the last-row residue, modulo d.
        """
        g, k = self.basis.shape
        rows = [(xi,) + row for (xi,), row in zip(x.data, self.basis.data)]
        rows.append((1,) + (0,) * k)
        cols, pivots = echelon_pivots(column_basis(IntMatrix._from_rows(rows, g + 1, k + 1)))
        d = 0
        if pivots and pivots[-1] == g:
            d = cols.pop()[g]
            pivots.pop()
        coeffs = []
        for column in stage_gens.columns():
            rest = list(column) + [0]
            forward_substitute(cols, pivots, rest)
            if any(rest[:g]):
                raise AssertionError("stage generator escaped stage = below + Z*x")
            coeffs.append(-rest[g] % d if d else -rest[g])
        return d, coeffs

    def relations(self) -> IntMatrix:
        """The ambient relations in lattice coordinates: a presentation of
        the subgroup on the lattice basis."""
        x = solve_echelon(self.basis, presentation_matrix(self.ambient))
        if x is None:
            raise AssertionError("ambient relations escaped the subgroup lattice")
        return x

    def canonical_generators(self):
        """Canonical form plus matching generator columns in ambient coordinates.

        The generators follow the module convention: torsion generators
        ascending, then free generators.  The Smith diagonal already runs in
        that order (nonunit factors ascending, zeros last), so they are the
        columns of U^-1 whose factor is not 1.
        """
        x = self.relations()
        dec = snf(x)
        diag = dec.diagonal() + (0,) * (x.rows - min(x.shape))
        keep = [i for i, d in enumerate(diag) if d != 1]
        module = ZModule(diag.count(0), tuple(d for d in diag if d > 1))
        gens = [[row[i] for i in keep] for row in dec.u_inverse().data]
        return module, self.basis @ IntMatrix._from_rows(gens, x.rows, len(keep))


@dataclass(frozen=True)
class TraceStep:
    """One replayable derivation step.

    op is one of start | kernel | cokernel | summand; inputs
    reference earlier steps.  A summand step stores the idempotent-style
    endomorphism whose kernel extracts the summand, so replay runs it as a
    kernel.
    """

    op: str
    inputs: tuple[int, ...]
    matrix: IntMatrix | None
    result: ZModule


class ReplayError(RuntimeError):
    pass


@dataclass(frozen=True)
class DerivationTrace:
    ambient: ZModule
    steps: tuple[TraceStep, ...]

    @property
    def target(self) -> ZModule:
        return self.steps[-1].result

    def replay(self) -> ZModule:
        """Re-execute every step and verify the stored results."""
        results: list[ZModule] = []
        for idx, step in enumerate(self.steps):
            if step.op == "start":
                value = self.ambient
            elif step.op == "kernel":
                src = results[step.inputs[0]]
                tgt = results[step.inputs[1]]
                value = zmodules.kernel(ZModuleMap(src, tgt, step.matrix))
            elif step.op == "summand":
                src = results[step.inputs[0]]
                value = zmodules.kernel(ZModuleMap(src, src, step.matrix))
            elif step.op == "cokernel":
                src = results[step.inputs[0]]
                value = zmodules.cokernel(ZModuleMap(src, src, step.matrix))
            else:
                raise ReplayError(f"unknown op {step.op!r} at step {idx}")
            if value != step.result:
                raise ReplayError(
                    f"step {idx} ({step.op}) produced {value}, trace says {step.result}"
                )
            results.append(value)
        return results[-1]


def derive_submodule(ambient: ZModule, gens: IntMatrix) -> DerivationTrace:
    """Constructive witness that a subgroup's class is derivable from the
    ambient module using kernels, cokernels and summand extraction.

    The subgroup is given by generator columns in ambient coordinates.  The
    witness ascends the chain M < M + Z*x < ... < ambient, adding at each
    stage the first canonical generator still missing, then derives each
    stage from the next: with d generating (stage : x), the cyclic module
    Z/d appears as a summand of stage/(d*stage) (a cokernel), and the
    previous stage is the kernel of the induced map onto it.
    """
    sub = _Subgroup(ambient, zmodules.subgroup_lattice(ambient, gens))
    g = ambient.generator_count

    # A generator, once in, stays in, so one pass over the generators adds
    # at each stage the first one still missing.
    chain: list[tuple[_Subgroup, IntMatrix | None]] = [(sub, None)]
    for i in range(g):
        x = IntMatrix.from_columns([[1 if r == i else 0 for r in range(g)]], rows=g)
        if not chain[-1][0].contains(x):
            chain.append((chain[-1][0].with_element(x), x))
    # Each stage's canonical form is computed once, and its class is also the
    # result of the kernel step that derives the stage below from it.  Of
    # the subgroup itself only the class is needed.
    forms = [stage.canonical_generators() for stage, _ in chain[1:]]

    steps = [TraceStep("start", (), None, ambient)]
    current_idx = 0
    for pos in range(len(chain) - 1, 0, -1):
        x = chain[pos][1]
        below = chain[pos - 1][0]
        stage_type, stage_gens = forms[pos - 1]
        d, coeffs = below.step(x, stage_gens)
        if d == 0:
            # stage/below is infinite cyclic: extract a free summand
            kill = stage_type.generator_count - 1
            endo = _killing_endo(stage_type, kill)
            steps.append(TraceStep("summand", (current_idx,), endo, ZModule.free(1)))
            quotient_idx = len(steps) - 1
            quotient_type = ZModule.free(1)
        else:
            endo = _scalar_endo(d, stage_type)
            q = _scalar_cokernel(d, stage_type)
            steps.append(TraceStep("cokernel", (current_idx,), endo, q))
            quotient_type = ZModule.cyclic(d)
            if q == quotient_type:
                quotient_idx = len(steps) - 1
            else:
                kill = len(q.torsion) - 1  # the factor of order exactly d
                steps.append(TraceStep(
                    "summand", (len(steps) - 1,), _killing_endo(q, kill), quotient_type
                ))
                quotient_idx = len(steps) - 1
        pi = IntMatrix._from_rows([coeffs], 1, stage_type.generator_count)
        below_type = (forms[pos - 2][0] if pos > 1
                      else zmodules.lattice_type(ambient, below.basis))
        steps.append(TraceStep(
            "kernel", (current_idx, quotient_idx), pi, below_type
        ))
        current_idx = len(steps) - 1
    return DerivationTrace(ambient, tuple(steps))


def _scalar_endo(d: int, module: ZModule) -> IntMatrix:
    """The matrix of `zmodules.scalar_map(d, module)`, built directly:
    diag(d mod a_1, ..., d mod a_k, d, ..., d) over the invariant factors
    a_i, then the free generators."""
    entries = [d % a for a in module.torsion] + [d] * module.free_rank
    n = len(entries)
    return IntMatrix._from_rows(
        [[x if i == j else 0 for j in range(n)] for i, x in enumerate(entries)], n, n)


def _scalar_cokernel(d: int, module: ZModule) -> ZModule:
    """Cokernel of multiplication by d >= 1 on `module`: Z/gcd(d, a) for each
    invariant factor a, and Z/d for each free generator.  These orders divide
    one another in the order of the factors, and all divide d, so dropping
    the units leaves the canonical chain."""
    orders = [gcd(d, a) for a in module.torsion] + [d] * module.free_rank
    return ZModule(0, tuple(x for x in orders if x > 1))


def _killing_endo(module: ZModule, index: int) -> IntMatrix:
    g = module.generator_count
    rows = [[1 if (i == j and i != index) else 0 for j in range(g)] for i in range(g)]
    return IntMatrix._from_rows(rows, g, g)
