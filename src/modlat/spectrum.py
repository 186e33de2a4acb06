"""Prime ideals and finitely generated subsets of the spectrum.

Two backends are supported: the integers (primes are the zero ideal and the
ideals generated by a prime number) and a polynomial ring over a field where
only monomial primes, i.e. primes generated by a subset of the variables, are
represented.  A SpecSubset is a finite list of primes together with a flag
saying whether it denotes exactly those primes or their specialization
closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, singledispatch

Z_BACKEND = ("z",)

DEFAULT_MAX_VARS = 8
# psi_12, the least strong pseudoprime to each of the twelve bases 2, ..., 37
# (Sorenson and Webster, Math. Comp. 2017).
PRIME_TEST_EXACT_BELOW = 318_665_857_834_031_151_167_461


def monomial_backend(context) -> tuple:
    return ("monomial", tuple(context))


def is_prime_number(n: int) -> bool:
    """Miller-Rabin to the twelve prime bases 2, ..., 37.

    Exact for every n below PRIME_TEST_EXACT_BELOW (about 3.2e23); above it
    a composite can pass, so True there means only probably prime.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeId:
    """A representable prime ideal of one of the two backends."""

    kind: str  # "z_generic" | "z_maximal" | "monomial"
    p: int | None = None
    vars: frozenset | None = None
    context: tuple | None = None

    def __post_init__(self):
        if self.kind == "z_generic":
            if self.p is not None or self.vars is not None:
                raise ValueError("generic prime takes no data")
        elif self.kind == "z_maximal":
            if self.p is None or not is_prime_number(self.p):
                raise ValueError(f"{self.p!r} is not a prime number")
        elif self.kind == "monomial":
            if self.context is None or self.vars is None:
                raise ValueError("monomial prime needs a context and a variable set")
            if not self.vars <= set(self.context):
                raise ValueError("variables outside the ring context")
        else:
            raise ValueError(f"unknown prime kind {self.kind!r}")

    @classmethod
    def z_generic(cls) -> "PrimeId":
        return cls("z_generic")

    @classmethod
    def z_maximal(cls, p: int) -> "PrimeId":
        return cls("z_maximal", p=p)

    @classmethod
    def monomial(cls, context, variables) -> "PrimeId":
        return cls("monomial", vars=frozenset(variables), context=tuple(context))

    @property
    def backend(self) -> tuple:
        if self.kind == "monomial":
            return monomial_backend(self.context)
        return Z_BACKEND

    def is_maximal(self) -> bool:
        if self.kind == "z_maximal":
            return True
        if self.kind == "monomial":
            return self.vars == set(self.context)
        return False

    def height(self) -> int:
        if self.kind == "z_generic":
            return 0
        if self.kind == "z_maximal":
            return 1
        return len(self.vars)

    def contained_in(self, other: "PrimeId") -> bool:
        """Ideal containment self <= other (specialization order)."""
        monomial = self.kind == "monomial"
        if monomial != (other.kind == "monomial") or (
                monomial and self.context != other.context):
            raise ValueError("primes from different backends")
        if self.kind == "z_generic":
            return True
        if self.kind == "z_maximal":
            return other.kind == "z_maximal" and self.p == other.p
        return self.vars <= other.vars

    def sort_key(self):
        if self.kind == "z_generic":
            return (0, 0, ())
        if self.kind == "z_maximal":
            return (1, self.p, ())
        return (2, len(self.vars), tuple(sorted(self.vars)))

    def __str__(self) -> str:
        if self.kind == "z_generic":
            return "(0)"
        if self.kind == "z_maximal":
            return f"({self.p})"
        if not self.vars:
            return "(0)"
        return "(" + ",".join(sorted(self.vars)) + ")"


def _check_context(context):
    if len(context) > DEFAULT_MAX_VARS:
        raise ValueError(f"context has {len(context)} variables, cap is {DEFAULT_MAX_VARS}")


def _by_size_then_context(masks, n: int) -> list:
    """Variable bitmasks by popcount and then by their bits' indices, which
    for each size is the order combinations(context, size) yields."""
    return sorted(masks, key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1]))


def _prime_of_mask(context: tuple, mask: int) -> PrimeId:
    return PrimeId.monomial(context, [v for i, v in enumerate(context) if mask >> i & 1])


@lru_cache(maxsize=64)
def _prime_table(context: tuple) -> tuple:
    """The 2^n monomial primes of a context, indexed by variable bitmask
    (bit i for context[i]); refused above DEFAULT_MAX_VARS variables."""
    _check_context(context)
    return tuple(_prime_of_mask(context, mask) for mask in range(1 << len(context)))


def all_monomial_primes(context) -> tuple:
    """Every monomial prime of the context, by size and then in context order."""
    context = tuple(context)
    table = _prime_table(context)
    return tuple(table[mask] for mask in _by_size_then_context(range(len(table)), len(context)))


def _common_backend(primes, backend=None) -> tuple:
    backends = {p.backend for p in primes}
    if backend is not None:
        backends.add(tuple(backend))
    if not backends:
        raise ValueError("cannot infer a backend from an empty prime set")
    if len(backends) > 1:
        raise ValueError(f"mixed backends: {sorted(backends)}")
    return backends.pop()


@dataclass(frozen=True, eq=False)
class SpecSubset:
    """Finitely generated subset of Spec, optionally specialization-closed.

    With closed=True the subset denotes the union of V(p) over the listed
    generators; with closed=False it denotes exactly the listed primes.
    Equality and ordering compare denoted sets, not presentations.
    """

    backend: tuple
    generators: frozenset
    closed: bool

    def __post_init__(self):
        for p in self.generators:
            if p.backend != self.backend:
                raise ValueError("generator backend mismatch")

    @classmethod
    def empty(cls, backend) -> "SpecSubset":
        return cls(tuple(backend), frozenset(), True)

    @classmethod
    def closure(cls, primes, backend=None) -> "SpecSubset":
        primes = frozenset(primes)
        return cls(_common_backend(primes, backend), primes, True)

    @classmethod
    def explicit(cls, primes, backend=None) -> "SpecSubset":
        primes = frozenset(primes)
        return cls(_common_backend(primes, backend), primes, False)

    @classmethod
    def whole_spec(cls, backend) -> "SpecSubset":
        backend = tuple(backend)
        if backend == Z_BACKEND:
            return cls.closure([PrimeId.z_generic()])
        return cls.closure([PrimeId.monomial(backend[1], [])])

    # -- denotation -----------------------------------------------------

    @cached_property
    def _denotation(self):
        """("all",) for the whole spectrum of Z, else the frozen member set,
        computed once per instance."""
        if self.backend == Z_BACKEND:
            if self.closed and any(p.kind == "z_generic" for p in self.generators):
                return ("all",)
            return self.generators
        if not self.closed:
            return self.generators
        # V(p) is every prime whose variables contain p's: p's bitmask joined
        # with each submask of its complement.
        context = self.backend[1]
        full = (1 << len(context)) - 1
        masks = set()
        for gen in self.generators:
            base = sum(1 << i for i, v in enumerate(context) if v in gen.vars)
            rest = sub = full & ~base
            while True:
                masks.add(base | sub)
                if not sub:
                    break
                sub = (sub - 1) & rest
        if len(context) > DEFAULT_MAX_VARS:
            # no table past the cap: build only the members asked for
            return frozenset(_prime_of_mask(context, mask) for mask in masks)
        table = _prime_table(context)
        return frozenset(table[mask] for mask in masks)

    def is_whole(self) -> bool:
        den = self._denotation
        if den == ("all",):
            return True
        if self.backend == Z_BACKEND:
            return False
        return len(den) == 2 ** len(self.backend[1])

    def is_finite(self) -> bool:
        return self._denotation != ("all",)

    def members(self) -> frozenset:
        den = self._denotation
        if den == ("all",):
            raise ValueError("subset denotes the whole (infinite) spectrum")
        return den

    def contains(self, prime: PrimeId) -> bool:
        if prime.backend != self.backend:
            raise ValueError("backend mismatch")
        if self.closed:
            return any(g.contained_in(prime) for g in self.generators)
        return prime in self.generators

    def leq(self, other: "SpecSubset") -> bool:
        """Inclusion of denoted sets, read from the generators except when
        self is closed and other explicit."""
        if self.backend != other.backend:
            raise ValueError("backend mismatch")
        if other.closed:
            # each point of self, closed or not, lies in some V(h) of other
            return all(any(h.contained_in(g) for h in other.generators)
                       for g in self.generators)
        if not self.closed:
            return self.generators <= other.generators
        da = self._denotation
        return da != ("all",) and da <= other.generators

    def join(self, other: "SpecSubset") -> "SpecSubset":
        if self.backend != other.backend:
            raise ValueError("backend mismatch")
        if self.closed and other.closed:
            return SpecSubset(self.backend, self.generators | other.generators, True)
        da, db = self._denotation, other._denotation
        if da == ("all",) or db == ("all",):
            return SpecSubset.whole_spec(self.backend)
        return SpecSubset(self.backend, da | db, False)

    def meet(self, other: "SpecSubset") -> "SpecSubset":
        if self.backend != other.backend:
            raise ValueError("backend mismatch")
        da, db = self._denotation, other._denotation
        if da == ("all",):
            return other
        if db == ("all",):
            return self
        common = da & db
        if self.closed and other.closed:
            minimal = frozenset(
                p for p in common
                if not any(q is not p and q.contained_in(p) and q != p for q in common)
            )
            return SpecSubset(self.backend, minimal, True)
        return SpecSubset(self.backend, common, False)

    def is_specialization_closed(self) -> bool:
        if self.closed:
            return True
        if self.backend == Z_BACKEND:
            # A finite set of primes of Z is closed exactly when it avoids
            # the generic point (whose closure is everything).
            return all(p.kind != "z_generic" for p in self.generators)
        # Monomial primes form a boolean lattice, so a set is upward closed
        # when adding any one variable to a member gives a member.
        varsets = {p.vars for p in self.generators}
        return all(vs | {v} in varsets
                   for vs in varsets for v in self.backend[1])

    def sorted_members(self) -> list:
        return sorted(self.members(), key=PrimeId.sort_key)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpecSubset)
            and self.backend == other.backend
            and self._denotation == other._denotation
        )

    def __hash__(self) -> int:
        return hash((self.backend, self._denotation))

    def __str__(self) -> str:
        tag = "closure" if self.closed else "set"
        inner = ",".join(str(p) for p in sorted(self.generators, key=PrimeId.sort_key))
        return f"{tag}{{{inner}}}"


def specialization_closure(primes, backend=None) -> SpecSubset:
    """Smallest specialization-closed subset containing the given primes."""
    return SpecSubset.closure(primes, backend)


def leq(a: SpecSubset, b: SpecSubset) -> bool:
    return a.leq(b)


@singledispatch
def v_of_ideal(ideal) -> SpecSubset:
    """Closed subset V(I): the primes containing the ideal."""
    raise TypeError(f"no vanishing-locus rule for {type(ideal).__name__}")


def minimal_variable_covers(supports, context) -> tuple:
    """Inclusion-minimal variable sets meeting every support in `supports`,
    by size and then in context order.

    `supports` is an iterable of sets of variable names.  An empty support is
    uncoverable and yields no covers; an empty collection is covered by the
    empty set.  Berge's incremental transversals (Hypergraphs, 1989): after
    each support, the covers that meet it stay, and each other cover grows by
    one of its variables unless the result contains a cover that stayed.
    """
    context = tuple(context)
    _check_context(context)
    bit = {v: 1 << i for i, v in enumerate(context)}
    masks = [sum(bit.get(v, 0) for v in frozenset(s)) for s in supports]
    if not all(masks):
        return ()
    covers = [0]
    for s in dict.fromkeys(masks):
        kept = [c for c in covers if c & s]
        grown = [c | b for c in covers if not c & s
                 for b in bit.values() if b & s]
        covers = kept + [g for g in grown if not any(k & g == k for k in kept)]
    return tuple(frozenset(v for v in context if c & bit[v])
                 for c in _by_size_then_context(covers, len(context)))
