"""Bounded complexes of free modules over the integers.

Homology is read off the Smith diagonals of the differentials, with no
kernel basis or transform:

    H_i = Z^(n_i - rk d_i - rk d_{i+1}) + Z/e_1 + ... + Z/e_k

where d_i leaves degree i, n_i is the rank in degree i, and e_1 | ... | e_k
are the nonunit invariant factors of d_{i+1}.  The Koszul complex of an
integer sequence is built with the contraction differential

    d(e_{j_1 < ... < j_i}) = sum_k (-1)^(k+1) x_{j_k} e_{... without j_k ...}

which is fixed once and for all so outputs are deterministic.

Its differentials need no elimination to find their rank and their largest
invariant factor.  For a nonzero term a_j, the rows of d_i on the
(i-1)-subsets without j and its columns on the i-subsets with j form +-a_j
times a permutation matrix, so rk d_i = C(r-1, i-1) (the complex is exact
over Q).  K(x) is unimodularly equivalent to K(g, 0, ..., 0) for g the gcd
of the terms, so every invariant factor of d_i is g.  g divides every entry,
so the diagonal read modulo g is (g, ..., g) with no elimination.
`koszul_complex` attaches these pairs to the complex it returns, and builds
it without multiplying the differentials to check d∘d = 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, gcd

from .intlinalg import IntMatrix, _diagonal_modulo, smith_diagonal
from .spectrum import SpecSubset, Z_BACKEND
from .zmodules import IdealZ, ZModule, supp, v_of_ideal

KOSZUL_SKELETONS = 16  # lengths cached; a length-r skeleton has r * 2^(r-1) entries


@dataclass(frozen=True)
class FreeComplex:
    """A bounded complex of free modules given by integer differentials.

    ranks[k] is the rank in degree bottom_degree + k and differentials[k]
    maps degree bottom_degree + k + 1 into degree bottom_degree + k.
    """

    bottom_degree: int
    ranks: tuple[int, ...]
    differentials: tuple[IntMatrix, ...]
    # (rank, a multiple of the largest invariant factor) of each
    # differential, when known
    _known: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.differentials) != max(len(self.ranks) - 1, 0):
            raise ValueError("need exactly one differential per adjacent pair")
        for k, d in enumerate(self.differentials):
            if d.shape != (self.ranks[k], self.ranks[k + 1]):
                raise ValueError(
                    f"differential {k} has shape {d.shape}, "
                    f"expected {(self.ranks[k], self.ranks[k + 1])}"
                )
        for k in range(len(self.differentials) - 1):
            if not (self.differentials[k] @ self.differentials[k + 1]).is_zero():
                raise ValueError("consecutive differentials do not compose to zero")

    @classmethod
    def _from_known(cls, bottom_degree, ranks, differentials, known) -> "FreeComplex":
        """A complex the package built itself, with the (rank, modulus) pair
        of each differential: nothing is checked."""
        self = object.__new__(cls)
        vars(self).update(bottom_degree=bottom_degree, ranks=ranks,
                          differentials=differentials, _known=known)
        return self

    @property
    def top_degree(self) -> int:
        return self.bottom_degree + len(self.ranks) - 1

    def rank_in(self, degree: int) -> int:
        k = degree - self.bottom_degree
        if 0 <= k < len(self.ranks):
            return self.ranks[k]
        return 0

    def differential(self, degree: int) -> IntMatrix:
        """The map out of `degree` into `degree - 1`, zero outside support."""
        k = degree - self.bottom_degree
        if 1 <= k < len(self.ranks):
            return self.differentials[k - 1]
        return IntMatrix.zeros(self.rank_in(degree - 1), self.rank_in(degree))

    def degrees(self):
        return range(self.bottom_degree, self.top_degree + 1)


@lru_cache(maxsize=KOSZUL_SKELETONS)
def _koszul_skeleton(r: int) -> tuple:
    """The ranks of the length-r Koszul complex, and the (row, column, j,
    parity) of each entry (-1)^parity * x_j of each d_i."""
    bases = [list(combinations(range(r), i)) for i in range(r + 1)]
    index = [{sub: k for k, sub in enumerate(level)} for level in bases]
    return tuple(map(len, bases)), tuple(
        tuple((index[i - 1][sub[:k] + sub[k + 1:]], col, j, k % 2)
              for col, sub in enumerate(bases[i]) for k, j in enumerate(sub))
        for i in range(1, r + 1))


def koszul_complex(sequence) -> FreeComplex:
    """The exterior-algebra Koszul complex of an integer sequence, its
    differentials filled in from the skeleton of its length.

    Terms are taken with `operator.index`, as `IntMatrix(...)` takes its
    entries, so a non-integer term raises TypeError.  The modulus of d_i is
    its largest invariant factor, the gcd g of the terms."""
    xs = list(map(operator.index, sequence))
    if not xs:
        raise ValueError("Koszul complex of an empty sequence")
    r = len(xs)
    ranks, skeleton = _koszul_skeleton(r)
    signed = (xs, [-x for x in xs])
    diffs = []
    for m, n, entries in zip(ranks, ranks[1:], skeleton):
        mat = [[0] * n for _ in range(m)]
        for row, col, j, parity in entries:
            mat[row][col] = signed[parity][j]
        diffs.append(IntMatrix._from_rows(mat, m, n))
    g = gcd(*xs)
    known = tuple((comb(r - 1, i), g) if g else (0, 1) for i in range(r))
    return FreeComplex._from_known(0, ranks, tuple(diffs), known)


def _reduce(complex_: FreeComplex, degree: int) -> tuple[int, tuple[int, ...]]:
    """Rank and nonunit invariant factors of the differential out of `degree`."""
    d, k = complex_.differential(degree), degree - complex_.bottom_degree
    if complex_._known and 1 <= k < len(complex_.ranks):
        diag = _diagonal_modulo(d, *complex_._known[k - 1])
    else:
        diag = smith_diagonal(d)
    diag = [x for x in diag if x]
    return len(diag), tuple(x for x in diag if x != 1)


def _homology(complex_: FreeComplex, degree: int, out, into) -> ZModule:
    return ZModule(complex_.rank_in(degree) - out[0] - into[0], into[1])


def homology(complex_: FreeComplex, degree: int) -> ZModule:
    """ker(d_degree) / im(d_degree+1) in canonical form."""
    if degree < complex_.bottom_degree or degree > complex_.top_degree:
        return ZModule.zero()
    return _homology(complex_, degree, _reduce(complex_, degree),
                     _reduce(complex_, degree + 1))


def homology_table(complex_: FreeComplex) -> dict[int, ZModule]:
    """Homology in every degree, reducing each differential once."""
    lo = complex_.bottom_degree
    reduced = [_reduce(complex_, i) for i in range(lo, complex_.top_degree + 2)]
    return {i: _homology(complex_, i, reduced[i - lo], reduced[i - lo + 1])
            for i in complex_.degrees()}


def complex_support(complex_: FreeComplex) -> SpecSubset:
    return homology_support(homology_table(complex_))


def homology_support(table: dict[int, ZModule]) -> SpecSubset:
    """Join of the supports of the modules in a homology table."""
    out = SpecSubset.empty(Z_BACKEND)
    for h in table.values():
        out = out.join(supp(h))
    return out


def thick_member(complex_: FreeComplex, subset: SpecSubset) -> bool:
    """Whether every homology module is supported inside the closed subset."""
    if subset.backend != Z_BACKEND:
        raise ValueError("perfect complexes live over the integer backend")
    if not subset.is_specialization_closed():
        raise ValueError("membership criterion needs a specialization-closed subset")
    return all(supp(h).leq(subset) for h in homology_table(complex_).values())


def _annihilated_by(n: int, m: ZModule) -> bool:
    if n == 0:
        return True
    return m.free_rank == 0 and all(n % d == 0 for d in m.torsion)


@dataclass(frozen=True)
class KoszulCyclicReport:
    """Outcome of checking that K(gens) presents the cyclic module Z/n."""

    modulus: int
    generators: tuple[int, ...]
    homology: tuple[tuple[int, ZModule], ...]
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def koszul_cyclic_check(n: int, generators) -> KoszulCyclicReport:
    """Build K(generators) and verify it realizes Z/n homologically.

    Checks: degree-zero homology is Z/n; every homology module is killed by
    n; every homology module is supported in the vanishing locus of (n).
    The generators must actually generate (n); n and the generators are
    taken with `operator.index`, like the terms of `koszul_complex`.
    """
    n = operator.index(n)
    gens = list(map(operator.index, generators))
    if not gens:
        raise ValueError("empty generating set")
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != n:
        raise ValueError(f"generators span ({g}), not ({n})")
    complex_ = koszul_complex(gens)
    table = homology_table(complex_)
    locus = v_of_ideal(IdealZ(n))
    checks = (
        ("h0_is_cyclic", table[0] == ZModule.cyclic(n)),
        ("homology_killed_by_modulus",
         all(_annihilated_by(n, h) for h in table.values())),
        ("support_in_vanishing_locus",
         all(supp(h).leq(locus) for h in table.values())),
    )
    return KoszulCyclicReport(
        modulus=n,
        generators=tuple(gens),
        homology=tuple(sorted(table.items())),
        checks=checks,
    )
