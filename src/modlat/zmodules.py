"""Finitely generated modules over the integers.

A module is kept in canonical form: a free rank plus the chain of invariant
factors of its torsion part.  Equality of canonical forms is isomorphism, so
every construction (kernels, cokernels, Hom, Ext, filtrations) normalizes its
result through Smith reduction or through closed formulas on the canonical
pieces.

Generator convention used by maps and presentations: torsion generators come
first, in invariant-factor order, followed by the free generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, prod

from .intlinalg import (
    IntMatrix,
    _diagonal_modulo,
    _rank_and_modulus,
    column_basis,
    hstack,
    solve_echelon,
)
from .spectrum import (
    PRIME_TEST_EXACT_BELOW,
    PrimeId,
    SpecSubset,
    Z_BACKEND,
    is_prime_number,
    v_of_ideal,
)

INFINITY = math.inf
# Trial division stops at this divisor, which takes about 0.1 s to reach
# (one Xeon vCPU).
TRIAL_DIVISION_LIMIT = 10 ** 6


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division up to
    TRIAL_DIVISION_LIMIT.  A cofactor left past the limit is accepted only
    as a power p^k of a prime p where `is_prime_number` is exact; any other
    is a ValueError."""
    return dict(_prime_powers(n))


# The oracle canonicalizes sums and tests universe membership over the same
# few torsion orders millions of times; the bound keeps a long-lived process
# from growing without limit.
@lru_cache(maxsize=1024)
def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    rest, d = n, 2
    while d * d <= rest:
        if d > TRIAL_DIVISION_LIMIT:
            # No prime up to the limit divides rest, so it is p^k for a
            # prime p above the limit, certified where the test is exact,
            # or it is refused.
            for k in range(1, rest.bit_length()):
                p = _integer_root(rest, k)
                if p <= TRIAL_DIVISION_LIMIT:
                    break
                if p ** k == rest and p < PRIME_TEST_EXACT_BELOW and is_prime_number(p):
                    out[p] = k
                    return tuple(out.items())
            raise ValueError(
                f"cannot factor {n}: its cofactor {rest} has no prime factor "
                f"up to {TRIAL_DIVISION_LIMIT} and is not certified prime")
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return tuple(out.items())


def _integer_root(n: int, k: int) -> int:
    """The floor of the k-th root of n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorize(n))) if n > 1 else ()


@dataclass(frozen=True)
class IdealZ:
    """The ideal (n) of the integers, canonical nonnegative generator."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("canonical generator must be nonnegative")

    def is_zero(self) -> bool:
        return self.n == 0

    def is_unit(self) -> bool:
        return self.n == 1

    def __str__(self) -> str:
        return f"({self.n})"


@dataclass(frozen=True)
class ZModule:
    """Canonical form of a finitely generated abelian group."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")

    @classmethod
    def zero(cls) -> "ZModule":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "ZModule":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "ZModule":
        """Z/n, with Z/0 = Z and Z/1 = 0."""
        if n < 0:
            n = -n
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls(0, ())
        return cls(0, (n,))

    @classmethod
    def from_cyclic_orders(cls, free_rank: int, orders) -> "ZModule":
        """Canonicalize a direct sum of cyclic groups of the given orders."""
        per_prime: dict[int, list[int]] = {}
        for n in orders:
            n = abs(int(n))
            if n == 0:
                free_rank += 1
                continue
            if n == 1:
                continue
            for p, e in factorize(n).items():
                per_prime.setdefault(p, []).append(e)
        return _module(free_rank, ((p, sorted(exps, reverse=True))
                                   for p, exps in per_prime.items()))

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def generator_count(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def generator_orders(self) -> tuple[int, ...]:
        return self.torsion + (0,) * self.free_rank

    def torsion_order(self) -> int:
        out = 1
        for d in self.torsion:
            out *= d
        return out

    @cached_property
    def primary_factors(self) -> tuple[tuple[int, int], ...]:
        """The multiset of prime-power cyclic summands, as (p, e) pairs,
        computed once per instance (the oracle reads it on every universe
        membership test)."""
        out = []
        for d in self.torsion:
            for p, e in factorize(d).items():
                out.append((p, e))
        return tuple(sorted(out))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def prime_types(module: ZModule) -> dict[int, tuple[int, ...]]:
    """The type of each primary part: prime -> exponents, largest first."""
    out: dict[int, tuple[int, ...]] = {}
    for p, e in reversed(module.primary_factors):
        out[p] = out.get(p, ()) + (e,)
    return out


def _module(rank: int, parts) -> ZModule:
    """Z^rank plus the p-group of each (p, type) pair, without factorizing:
    a type lists its exponents largest first."""
    chain: list[int] = []
    for p, lam in parts:
        chain.extend([1] * (len(lam) - len(chain)))
        for i, e in enumerate(lam):
            chain[i] *= p ** e
    return ZModule(rank, tuple(reversed(chain)))


def direct_sum(*modules: ZModule) -> ZModule:
    rank = sum(m.free_rank for m in modules)
    torsions = [m.torsion for m in modules if m.torsion]
    if len(torsions) <= 1:  # one torsion chain is canonical already
        return ZModule(rank, torsions[0] if torsions else ())
    return ZModule.from_cyclic_orders(rank, [d for t in torsions for d in t])


def from_presentation(a: IntMatrix) -> ZModule:
    """Cokernel of `a` (rows = generators, columns = relations)."""
    return _cokernel_of(a, *_rank_and_modulus(a))


def presentation_matrix(m: ZModule) -> IntMatrix:
    """Relations of the canonical presentation (one column per torsion factor)."""
    k = len(m.torsion)
    rows = [[m.torsion[i] if i == j else 0 for j in range(k)] for i in range(k)]
    rows += [[0] * k] * m.free_rank
    return IntMatrix._from_rows(rows, m.generator_count, k)


# -- invariants ---------------------------------------------------------


def ann(m: ZModule) -> IdealZ:
    if m.is_zero():
        return IdealZ(1)
    if m.free_rank > 0:
        return IdealZ(0)
    return IdealZ(m.torsion[-1])


def supp(m: ZModule) -> SpecSubset:
    if m.is_zero():
        return SpecSubset.empty(Z_BACKEND)
    if m.free_rank > 0:
        return SpecSubset.whole_spec(Z_BACKEND)
    return SpecSubset.closure(
        [PrimeId.z_maximal(p) for p in prime_divisors(m.torsion[-1])]
    )


def ass(m: ZModule) -> SpecSubset:
    """Associated primes, as an explicit (non-closed) subset."""
    primes = set()
    if m.free_rank > 0:
        primes.add(PrimeId.z_generic())
    if m.torsion:
        primes.update(PrimeId.z_maximal(p) for p in prime_divisors(m.torsion[-1]))
    return SpecSubset.explicit(primes, backend=Z_BACKEND)


def rank(m: ZModule) -> int:
    return m.free_rank


def length(m: ZModule):
    if m.free_rank > 0:
        return INFINITY
    return sum(e for _, e in m.primary_factors)


def dim(m: ZModule):
    """Krull dimension; None for the zero module."""
    if m.is_zero():
        return None
    return 1 if m.free_rank > 0 else 0


def height_ann(m: ZModule):
    """Height of the annihilator ideal; infinite for the zero module."""
    a = ann(m)
    if a.is_unit():
        return INFINITY
    return 0 if a.is_zero() else 1


# -- torsion and grade --------------------------------------------------


def torsion_submodule(ideal: IdealZ, m: ZModule) -> ZModule:
    """Elements annihilated by some power of the ideal.

    Convention for the zero ideal: multiplication by 0 kills everything, so
    the whole module is (0)-torsion.
    """
    if ideal.is_zero():
        return m
    if ideal.is_unit():
        return ZModule.zero()
    return _module(0, ((p, lam) for p, lam in prime_types(m).items() if ideal.n % p == 0))


def is_torsion(ideal: IdealZ, m: ZModule) -> bool:
    return torsion_submodule(ideal, m) == m


def is_torsionfree(ideal: IdealZ, m: ZModule) -> bool:
    return torsion_submodule(ideal, m).is_zero()


def grade_ideal(ideal: IdealZ, m: ZModule):
    """Least degree where Ext(Z/n, m) is nonzero; values in {0, 1, inf}.

    grade((1), m) = inf by the empty-infimum convention (Z/1 = 0, every Ext
    group vanishes).  For n = 0 the test module is Z itself, so the grade is
    0 exactly when m is nonzero.
    """
    n = ideal.n
    if n == 1:
        return INFINITY
    if n == 0:
        return 0 if not m.is_zero() else INFINITY
    if any(gcd(n, d) > 1 for d in m.torsion):
        return 0
    if m.free_rank > 0:
        return 1
    return INFINITY


def grade_module(n: ZModule, m: ZModule):
    """Least degree where Ext(n, m) is nonzero, for nonzero n."""
    if n.is_zero():
        raise ValueError("grade against the zero module is an empty infimum")
    grades = []
    if n.free_rank > 0:
        grades.append(INFINITY if m.is_zero() else 0)
    grades.extend(grade_ideal(IdealZ(d), m) for d in n.torsion)
    return min(grades)


def is_regular_element(a: int, m: ZModule) -> bool:
    """Whether multiplication by `a` is injective on m."""
    if a == 0:
        return m.is_zero()
    return all(gcd(a, d) == 1 for d in m.torsion)


# -- Hom and Ext --------------------------------------------------------


def hom(m: ZModule, n: ZModule) -> ZModule:
    """Hom(m, n) via the bilinear closed forms for cyclic pieces."""
    free = m.free_rank * n.free_rank
    orders: list[int] = []
    for _ in range(m.free_rank):
        orders.extend(n.torsion)
    for a in m.torsion:
        orders.extend(gcd(a, b) for b in n.torsion)
    return ZModule.from_cyclic_orders(free, orders)


def ext1(m: ZModule, n: ZModule) -> ZModule:
    """Ext^1(m, n): free pieces of m contribute nothing, Z/a contributes n/an."""
    orders: list[int] = []
    for a in m.torsion:
        orders.extend([a] * n.free_rank)
        orders.extend(gcd(a, b) for b in n.torsion)
    return ZModule.from_cyclic_orders(0, orders)


# -- maps ---------------------------------------------------------------


@dataclass(frozen=True)
class ZModuleMap:
    """A homomorphism given on canonical generators.

    matrix[i][j] is the coefficient of target generator i in the image of
    source generator j.  Entries are reduced modulo the target orders on
    construction; a map whose matrix does not respect the source relations is
    rejected.
    """

    source: ZModule
    target: ZModule
    matrix: IntMatrix

    def __post_init__(self):
        gs, gt = self.source.generator_count, self.target.generator_count
        if self.matrix.shape != (gt, gs):
            raise ValueError(f"matrix shape {self.matrix.shape}, expected {(gt, gs)}")
        src_orders = self.source.generator_orders
        tgt_orders = self.target.generator_orders
        reduced = [list(row) for row in self.matrix.data]
        for i in range(gt):
            e = tgt_orders[i]
            if e:
                reduced[i] = [x % e for x in reduced[i]]
        for j in range(gs):
            d = src_orders[j]
            if d == 0:
                continue
            for i in range(gt):
                e = tgt_orders[i]
                val = d * reduced[i][j]
                if (e == 0 and val != 0) or (e != 0 and val % e):
                    raise ValueError(
                        f"relation not respected: order-{d} generator {j} "
                        f"maps outside the target relations"
                    )
        object.__setattr__(self, "matrix", IntMatrix._from_rows(reduced, gt, gs))


def identity_map(m: ZModule) -> ZModuleMap:
    return ZModuleMap(m, m, IntMatrix.identity(m.generator_count))


def scalar_map(c: int, m: ZModule) -> ZModuleMap:
    g = m.generator_count
    return ZModuleMap(m, m, IntMatrix.identity(g).scale(c))


def kernel(f: ZModuleMap) -> ZModule:
    """ker f as H_1 of Z^(k_M) --(R_M; -A1)--> Z^(g_M + k_N) --[A | R_N]--> Z^(g_N).

    g counts generators, k torsion generators, and R_M, R_N are the canonical
    relations.  A1 = A·R_M / R_N is exact on the torsion rows because f
    respects the relations, and the free rows of A·R_M are zero.  H_1 is
    Z^(n_1 - rk d_1 - rk d_2) plus the nonunit invariant factors of d_2.
    The relations give both ranks and d_2's modulus: the top block of R_M is
    diag(s), so d_2 has rank k_M, and the columns of d_2's transpose span
    every s_j e_j: s[-1] kills the transpose's cokernel, whose exponent is
    d_2's largest invariant factor.  d_1 has rank k_N + rk A_free
    (`_relations_rank_and_modulus`).  So only d_2 takes a Smith diagonal.
    """
    s, t = f.source.torsion, f.target.torsion
    d2 = IntMatrix._from_rows(presentation_matrix(f.source).data + tuple(
        [-(f.matrix[i, j] * s[j] // t[i]) for j in range(len(s))] for i in range(len(t))),
        f.source.generator_count + len(t), len(s))
    h = _cokernel_of(d2, len(s), s[-1] if s else 1)
    return ZModule(h.free_rank - _relations_rank_and_modulus(f)[0], h.torsion)


def cokernel(f: ZModuleMap) -> ZModule:
    """Z^(g_N) / [A | R_N], on the rank and modulus the relations give."""
    return _cokernel_of(hstack(f.matrix, presentation_matrix(f.target)),
                        *_relations_rank_and_modulus(f))


def _relations_rank_and_modulus(f: ZModuleMap) -> tuple[int, int]:
    """Rank r of [A | R_N] and a nonzero multiple M of its largest invariant
    factor.  Over Q the columns of R_N span the k_N torsion rows, so r is
    k_N plus the rank of A_free, the free rows of A.  The cokernel's torsion
    maps to the torsion of coker(A_free), which the modulus of A_free kills,
    with kernel in a quotient of the target's torsion, which t[-1] kills.
    So its exponent, the largest factor, divides M, their product."""
    t, a = f.target.torsion, f.matrix
    rank, modulus = _rank_and_modulus(
        IntMatrix._from_rows(a.data[len(t):], a.rows - len(t), a.cols))
    return len(t) + rank, (t[-1] if t else 1) * modulus


def _cokernel_of(a: IntMatrix, rank: int, modulus: int) -> ZModule:
    """`from_presentation(a)`, given the rank of `a` and a nonzero multiple
    of its largest invariant factor."""
    diag = _diagonal_modulo(a, rank, modulus)
    return ZModule(a.rows - rank, tuple(x for x in diag if x > 1))


def image(f: ZModuleMap) -> ZModule:
    return subgroup_type(f.target, f.matrix)


def subgroup_lattice(ambient: ZModule, gens: IntMatrix) -> IntMatrix:
    """`column_basis` of the columns of `gens` and the ambient relations."""
    if gens.rows != ambient.generator_count:
        raise ValueError(
            f"elements need {ambient.generator_count} coordinates, got {gens.rows}"
        )
    return column_basis(hstack(gens, presentation_matrix(ambient)))


def subgroup_type(ambient: ZModule, gens: IntMatrix) -> ZModule:
    """Class of the subgroup the columns of `gens` generate."""
    return lattice_type(ambient, subgroup_lattice(ambient, gens))


def lattice_type(ambient: ZModule, lattice: IntMatrix) -> ZModule:
    """Class of a subgroup from a `column_basis` of its lattice that spans
    the ambient relations, as `subgroup_lattice` gives: those relations X
    in basis coordinates present the subgroup.  The relations diag(s)
    lead in the k torsion rows, so the first k pivots lie there and later
    columns are zero there; the basis's lower triangular top-left block
    times X's first k rows is diag(s).  So X has rank k and the minor
    prod(s) / (the product of the first k pivots).  Its largest invariant
    factor divides that minor, and it is 1 or the exponent of the subgroup's
    torsion, which divides the ambient's exponent s[-1]: so it divides
    their gcd."""
    s = ambient.torsion
    k = len(s)
    minor = prod(s) // prod(lattice[j, j] for j in range(k))
    return _cokernel_of(solve_echelon(lattice, presentation_matrix(ambient)), k,
                        gcd(minor, s[-1]) if s else 1)


# -- filtrations and coprimary structure ---------------------------------


def cyclic_filtration(m: ZModule) -> tuple[IdealZ, ...]:
    """Annihilators of the steps of the canonical cyclic filtration.

    Generators are consumed in canonical order (torsion ascending, then
    free); peeling the canonical form one generator at a time makes each
    intermediate quotient another canonical direct sum, so the annihilator
    of step i is simply the i-th generator order.
    """
    return tuple(IdealZ(d) for d in m.generator_orders)


def filtration_steps(m: ZModule) -> tuple[ZModule, ...]:
    """The descending chain of quotients realized by cyclic_filtration: after
    i generators, the canonical chain without its first i orders."""
    k = len(m.torsion)
    return tuple(ZModule(m.free_rank - max(i - k, 0), m.torsion[i:])
                 for i in range(m.generator_count + 1))


def coprimary_components(m: ZModule) -> tuple[tuple[PrimeId, ZModule], ...]:
    """One coprimary quotient per associated prime.

    The generic component is the free part, the component at (p) is the
    p-primary torsion part; the diagonal map into their sum is injective.
    """
    out = []
    if m.free_rank > 0:
        out.append((PrimeId.z_generic(), ZModule.free(m.free_rank)))
    out += [(PrimeId.z_maximal(p), _module(0, [(p, lam)]))
            for p, lam in sorted(prime_types(m).items())]
    return tuple(out)


def coprimary_chain(m: ZModule, prime: PrimeId) -> tuple[ZModule, ...]:
    """The descending chain m >= p*m >= p^2*m >= ... down to zero.

    Each step is the intersection of the kernels of a generating set of
    Hom(step, Z/p); over the integers that intersection is p times the step.
    Requires m to be coprimary at the given maximal prime.
    """
    if prime.kind != "z_maximal":
        raise ValueError("coprimary chains are taken at maximal primes")
    if m.is_zero():
        raise ValueError("the zero module has no associated prime")
    expected = SpecSubset.explicit([prime], backend=Z_BACKEND)
    if ass(m) != expected:
        raise ValueError(f"module is not coprimary at {prime}")
    p = prime.p
    chain = [m]
    current = m
    while not current.is_zero():
        current = ZModule.from_cyclic_orders(0, [d // p for d in current.torsion])
        chain.append(current)
    return tuple(chain)


@v_of_ideal.register
def _(ideal: IdealZ) -> SpecSubset:
    if ideal.is_zero():
        return SpecSubset.whole_spec(Z_BACKEND)
    if ideal.is_unit():
        return SpecSubset.empty(Z_BACKEND)
    return SpecSubset.closure([PrimeId.z_maximal(p) for p in prime_divisors(ideal.n)])
