"""Reference computations for the benchmark's output checks.

Nothing here imports modlat.  Each function recomputes an answer by a
different route from the package's own (closed forms, element enumeration,
brute-force colon ideals, fraction-free determinants), so a check that
passes is evidence about the package, not a comparison of the package with
itself.

Integer modules are (free_rank, invariant_factors) pairs; monomial ideals
are collections of exponent tuples; primes of the monomial ring are
frozensets of variable names.
"""

from __future__ import annotations

import re
from itertools import combinations, product
from math import comb, gcd, prod


# -- integers ----------------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def canonical(rank: int, orders) -> tuple[int, tuple[int, ...]]:
    """Invariant factors of Z^rank + sum Z/n, through primary decomposition."""
    per_prime: dict[int, list[int]] = {}
    for n in orders:
        n = abs(n)
        if n == 0:
            rank += 1
        for p, e in factorize(n).items() if n > 1 else ():
            per_prime.setdefault(p, []).append(e)
    width = max((len(v) for v in per_prime.values()), default=0)
    factors = [1] * width
    for p, exps in per_prime.items():
        for slot, e in enumerate(sorted(exps, reverse=True)):
            factors[slot] *= p ** e
    return rank, tuple(sorted(factors))


def zmodule_text(rank: int, torsion) -> str:
    parts = ([] if rank == 0 else ["Z"] if rank == 1 else [f"Z^{rank}"])
    parts += [f"Z/{d}" for d in torsion]
    return " + ".join(parts) if parts else "0"


def parse_zmodule(text: str) -> tuple[int, tuple[int, ...]]:
    """Read a printed integer module back; canonicalizes what it reads."""
    rank, orders = 0, []
    if text.strip() != "0":
        for term in text.split("+"):
            term = term.strip()
            if term == "Z":
                rank += 1
            elif term.startswith("Z^"):
                rank += int(term[2:])
            elif term.startswith("Z/"):
                orders.append(int(term[2:]))
            else:
                raise ValueError(f"unreadable module term {term!r}")
    return canonical(rank, orders)


def z_ass(rank: int, torsion) -> set[str]:
    """Associated primes: the generic point for a free part, and the prime
    divisors of the invariant factors."""
    out = {"(0)"} if rank else set()
    for d in torsion:
        out.update(f"({p})" for p in factorize(d))
    return out


def z_supp(rank: int, torsion):
    """Support: "all" for a free part, else the closed points dividing the
    invariant factors."""
    if rank:
        return "all"
    return {f"({p})" for d in torsion for p in factorize(d)}


def z_grade(n: int, rank: int, torsion):
    """Least i with Ext^i(Z/n, M) nonzero, from the orders of Hom and Ext.

    |Hom(Z/n, M)| = prod gcd(n, d) and |Ext^1(Z/n, M)| = n^rank prod gcd(n, d)
    for n > 0; for n = 0 the test module is Z and only Hom(Z, M) = M counts.
    """
    if n == 0:
        return 0 if (rank or torsion) else "inf"
    hom = 1
    for d in torsion:
        hom *= gcd(n, d)
    if hom > 1:
        return 0
    if n ** rank * hom > 1:
        return 1
    return "inf"


def det(rows) -> int:
    """Fraction-free (Bareiss) determinant."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def smith_problems(a, u, d, v) -> list[str]:
    """Defining properties of a Smith form U A V = D of the matrix `a`."""
    problems = []
    rows, cols = len(a), len(a[0]) if a else 0
    if rows and cols and matmul(matmul(u, a), v) != [list(r) for r in d]:
        problems.append("U*A*V != D")
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        problems.append("transform not unimodular")
    diag = [d[i][i] for i in range(min(rows, cols))]
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        problems.append("D not diagonal")
    if any(x < 0 for x in diag):
        problems.append("negative diagonal entry")
    nonzero = [x for x in diag if x]
    if diag[len(nonzero):] != [0] * (len(diag) - len(nonzero)):
        problems.append("zero before a nonzero diagonal entry")
    if any(b % a_ for a_, b in zip(nonzero, nonzero[1:])):
        problems.append("divisibility chain broken")
    if rows == cols and prod(diag) != abs(det(a)):
        problems.append("diagonal product != |det A|")
    return problems


def koszul_homology(sequence) -> list[tuple[int, tuple[int, ...]]]:
    """H_i of the Koszul complex: (Z/g)^C(r-1, i) with g the gcd (g != 0)."""
    g = 0
    for x in sequence:
        g = gcd(g, x)
    r = len(sequence)
    return [canonical(0, [g] * comb(r - 1, i)) for i in range(r + 1)]


def subgroup_type(orders, columns) -> tuple[int, ...]:
    """Invariant factors of the subgroup of prod Z/orders spanned by the
    columns, by enumerating its elements and counting p^k-torsion."""
    orders = tuple(orders)
    gens = [tuple(c % o for c, o in zip(col, orders)) for col in columns]
    zero = (0,) * len(orders)
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((x + y) % o for x, y, o in zip(cur, g, orders))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    order_counts: dict[int, int] = {}
    for h in seen:
        k = 1
        for x, o in zip(h, orders):
            step = o // gcd(x, o)
            k = k * step // gcd(k, step)
        order_counts[k] = order_counts.get(k, 0) + 1
    per_prime: list[int] = []
    for p, top in factorize(len(seen)).items():
        # log_p |H[p^k]| = sum_i min(k, e_i); its increments count the
        # cyclic p-factors of exponent at least k.
        logs = [_log(sum(c for k, c in order_counts.items() if p ** j % k == 0), p)
                for j in range(top + 1)]
        at_least = [logs[j] - logs[j - 1] for j in range(1, top + 1)] + [0]
        for j in range(1, top + 1):
            per_prime += [p ** j] * (at_least[j - 1] - at_least[j])
    return canonical(0, per_prime)[1]


def _log(n: int, p: int) -> int:
    e = 0
    while n > 1:
        n //= p
        e += 1
    return e


# -- the oracle universe -----------------------------------------------------


def universe(primes, max_exponent: int, max_rank: int, max_factors: int) -> set:
    powers = [p ** e for p in primes for e in range(1, max_exponent + 1)]
    out = set()
    for rank in range(max_rank + 1):
        for size in range(max_factors + 1):
            for combo in product(powers, repeat=size):
                out.add(canonical(rank, combo))
    return out


def _primary(torsion) -> dict[int, list[int]]:
    parts: dict[int, list[int]] = {}
    for d in torsion:
        for p, e in factorize(d).items():
            parts.setdefault(p, []).append(e)
    return {p: sorted(es, reverse=True) for p, es in parts.items()}


def subgroup_types(module) -> set:
    """Subgroup classes of Z^r + T: Z^j + T' with j <= r and T' a subgroup
    type of T, which per prime are the partitions contained in T's."""
    rank, torsion = module
    choices = []
    for p, exps in _primary(torsion).items():
        options = set()
        for mu in product(*(range(e + 1) for e in exps)):
            options.add(tuple(sorted((p ** m for m in mu if m), reverse=True)))
        choices.append(options)
    out = set()
    for pick in product(*choices):
        orders = [q for part in pick for q in part]
        for j in range(rank + 1):
            out.add(canonical(j, orders))
    return out


def serre_set(members, gens) -> set:
    """Universe members whose support lies in the union of the generators'."""
    if any(g[0] for g in gens):
        return set(members)
    allowed = set().union(*(z_supp(*g) for g in gens))
    return {m for m in members if m[0] == 0 and z_supp(*m) <= allowed}


def subext_set(members, gens) -> set:
    """Universe members whose associated primes lie in the generators'."""
    allowed = set().union(*(z_ass(*g) for g in gens))
    return {m for m in members if z_ass(*m) <= allowed}


def coherent_problems(closure: set, members: set, gens) -> list[str]:
    """Properties every coherent closure in a subgroup-closed universe has."""
    problems = []
    if not closure <= members:
        problems.append("closure leaves the universe")
    if not ({(0, ())} | set(gens)) <= closure:
        problems.append("closure misses a generator or zero")
    if not closure <= serre_set(members, gens):
        problems.append("closure escapes the generators' support")
    for m in closure:
        if not subgroup_types(m) <= closure:
            problems.append(f"not closed under subobjects of {zmodule_text(*m)}")
            break
    for a in closure:
        for b in closure:
            s = canonical(a[0] + b[0], a[1] + b[1])
            if s in members and s not in closure:
                problems.append("not closed under finite sums")
                return problems
    return problems


# -- monomial ideals ---------------------------------------------------------


def minimalize(gens) -> frozenset:
    gens = set(map(tuple, gens))
    return frozenset(g for g in gens
                     if not any(h != g and all(x <= y for x, y in zip(h, g))
                                for h in gens))


def monomial_text(vec, names) -> str:
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, vec) if e]
    return "*".join(factors) if factors else "1"


def parse_monomial_module(text: str, names) -> list[frozenset]:
    """Summands of a printed monomial module, as minimal generator sets."""
    if text.strip() == "0":
        return []
    out = []
    for term in re.findall(r"R(?:/\(([^)]*)\))?", text):
        gens = []
        if term and term != "0":
            for mono in term.split(","):
                vec = [0] * len(names)
                for factor in mono.strip().split("*"):
                    var, _, exp = factor.partition("^")
                    vec[names.index(var)] += int(exp or 1)
                gens.append(tuple(vec))
        out.append(minimalize(gens))
    return out


def parse_prime(text: str) -> frozenset:
    inner = text.strip()[1:-1]
    return frozenset() if inner in ("", "0") else frozenset(inner.split(","))


def monomial_ass(gens, names) -> set:
    """Ass(R/I) by brute force: the colon ideals (I : m) that are generated
    by variables, over monomials m not in I inside I's exponent box."""
    gens = list(minimalize(gens))
    n = len(names)
    if not gens:
        return {frozenset()}
    box = [max(g[i] for g in gens) for i in range(n)]
    out = set()
    for m in product(*(range(b + 1) for b in box)):
        if any(all(g[i] <= m[i] for i in range(n)) for g in gens):
            continue
        colon = minimalize(tuple(max(g[i] - m[i], 0) for i in range(n))
                           for g in gens)
        if all(sum(c) == 1 for c in colon):
            out.add(frozenset(names[c.index(1)] for c in colon))
    return out


def monomial_supp(gens, names) -> set:
    """Supp(R/I): every variable set meeting the support of each generator."""
    gens = list(minimalize(gens))
    if any(not any(g) for g in gens):
        return set()
    out = set()
    for size in range(len(names) + 1):
        for combo in combinations(range(len(names)), size):
            if all(any(g[i] for i in combo) for g in gens):
                out.add(frozenset(names[i] for i in combo))
    return out


def closure_of(primes, names) -> set:
    """Specialization closure of monomial primes: every superset."""
    out = set()
    for p in primes:
        rest = [v for v in names if v not in p]
        for size in range(len(rest) + 1):
            for extra in combinations(rest, size):
                out.add(frozenset(p) | frozenset(extra))
    return out
