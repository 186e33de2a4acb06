"""Exact integer matrix algebra.

Everything here runs on Python ints, so entry growth during elimination is
absorbed by arbitrary precision arithmetic.  These routines are the substrate
for the rest of the package: Smith diagonals give canonical forms of
finitely generated abelian groups, kernels of module maps and the homology
of free complexes; column-echelon bases give those diagonals their rank
and modulus, and with forward substitution subgroup classes and membership.
Full Smith forms with their transforms serve only the callers that read
generators or U and V; they also record their row operations, one record
per Euclid run, so U^-1 comes from the same elimination.  Each Euclid run
of subtractions and swaps between two rows or two columns is worked out on
two scalars and applied to the pair once, and a single subtraction touches
only the pivot line's nonzero entries.

`IntMatrix(...)` coerces every entry with `operator.index` and checks the
shape.  Matrices the package computes from its own ints are built once,
without either, by the private `IntMatrix._from_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod
from operator import index

_set = object.__setattr__


class IntMatrix:
    """Immutable dense integer matrix, stored row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows: int | None = None, cols: int | None = None):
        tup = tuple(tuple(map(index, row)) for row in data)
        if rows is None:
            rows = len(tup)
        if cols is None:
            cols = len(tup[0]) if tup else 0
        if not tup and not cols:
            tup = ((),) * rows
        if len(tup) != rows:
            raise ValueError(f"expected {rows} rows, got {len(tup)}")
        if any(len(row) != cols for row in tup):
            raise ValueError("rows have unequal lengths")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "data", tup)

    @classmethod
    def _from_rows(cls, data, rows: int, cols: int) -> "IntMatrix":
        """A matrix of ints the package computed itself: `data` holds exactly
        `rows` sequences of `cols` ints, so nothing is coerced or checked."""
        self = object.__new__(cls)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "data", tuple(map(tuple, data)))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not setattr
        return IntMatrix, (self.data, self.rows, self.cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._from_rows([(0,) * cols] * rows, rows, cols)

    @classmethod
    def from_columns(cls, columns, rows: int) -> "IntMatrix":
        cols = list(columns)
        return cls(
            [[col[i] for col in cols] for i in range(rows)],
            rows=rows,
            cols=len(cols),
        )

    @classmethod
    def diagonal(cls, entries) -> "IntMatrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key) -> int:
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Every column, read in one pass."""
        return tuple(zip(*self.data)) if self.rows else ((),) * self.cols

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for x, right in zip(row, other.data):
                if x:
                    acc = [y + x * z for y, z in zip(acc, right)]
            out.append(acc)
        return IntMatrix._from_rows(out, self.rows, other.cols)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * x for x in row] for row in self.data], rows=self.rows, cols=self.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    return IntMatrix._from_rows(
        [ra + rb for ra, rb in zip(a.data, b.data)], a.rows, a.cols + b.cols)


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular U, V with U @ A @ V == D, D diagonal with d_i | d_{i+1}.

    `row_records` are the row operations that built U from the identity, in
    order: (i, k, c) adds c times row k to row i, (i, k) swaps rows i and
    k, (i,) negates row i, and (i, k, quotients, (p, q, r, s)) is a Euclid
    run between rows i and k.  A run subtracts c times row k from row i
    for each c of `quotients` in turn, and swaps the two rows after every
    subtraction but the last; its composite takes the pair (row k, row i)
    to (p*row k + q*row i, r*row k + s*row i).  `row_ops` lists the same
    operations with each run spelled out step by step.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    row_records: tuple = field(compare=False, repr=False)

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal_entries()

    @property
    def row_ops(self) -> tuple:
        """The row operations one step at a time: each run becomes its
        subtractions (i, k, -c), each but the last followed by a swap (i, k)."""
        ops = []
        for rec in self.row_records:
            if len(rec) == 4:
                i, k, quotients, _ = rec
                ops += [op for c in quotients for op in ((i, k, -c), (i, k))][:-1]
            else:
                ops.append(rec)
        return tuple(ops)

    def u_inverse(self) -> IntMatrix:
        """U^-1 without a second elimination.  U = E_k ... E_1 for the row
        operations E_1, ..., E_k, so U^-1 = E_1^-1 ... E_k^-1: starting from
        the identity, each operation in turn is undone as a column operation.
        A run's composite has determinant e = +-1, so its inverse is
        e * (s, -q, -r, p)."""
        m = self.u.rows
        cols = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
        for op in self.row_records:
            if len(op) == 4:
                i, k, _, (p, q, r, s) = op
                e = p * s - q * r
                top, low = cols[k], cols[i]
                cols[k] = [e * (s * x - r * y) for x, y in zip(top, low)]
                cols[i] = [e * (p * y - q * x) for x, y in zip(top, low)]
            elif len(op) == 3:
                i, k, c = op
                cols[k] = [y - c * z for y, z in zip(cols[k], cols[i])]
            elif len(op) == 2:
                i, k = op
                cols[i], cols[k] = cols[k], cols[i]
            else:
                cols[op[0]] = [-y for y in cols[op[0]]]
        return IntMatrix._from_rows(zip(*cols), m, m)


PIVOT_STRATEGIES = ("min_abs", "first_nonzero")


def _find_pivot(d, m, n, t, strategy):
    if strategy == "first_nonzero":
        return next(((i, j) for i in range(t, m) for j in range(t, n) if d[i][j]), None)
    best = None
    for i in range(t, m):
        x = min(filter(None, d[i][t:n]), key=abs, default=0)
        if x and (best is None or abs(x) < abs(d[best[0]][best[1]])):
            best = (i, d[i].index(x, t))
            if x in (1, -1):
                break  # |x| = 1 is least, and a tie keeps the first
    return best


def _euclid_run(a, b):
    """The Euclid run that clears b against the pivot a, where b // a is
    nonzero and a does not divide b.  Each step subtracts c times the pivot
    from the other entry and swaps the two unless that leaves zero.
    Returns the quotients c in order and the run's composite (p, q, r, s):
    it takes each pair (x, y) of entries of the pivot's line and the other
    line to (p*x + q*y, r*x + s*y)."""
    quotients = []
    p, q, r, s = 1, 0, 0, 1
    while True:
        c = b // a
        b -= c * a
        quotients.append(c)
        r, s = r - c * p, s - c * q
        if not b:
            return tuple(quotients), (p, q, r, s)
        a, b, p, q, r, s = b, a, r, s, p, q


def snf(a: IntMatrix, strategy: str = "min_abs") -> SmithDecomposition:
    """Smith normal form of an integer matrix.

    The pivot `strategy` selects which nonzero entry of the working block is
    moved into pivot position: "min_abs" takes a smallest-magnitude entry
    (limits growth), "first_nonzero" takes the first in row-major order.  Both
    produce the same diagonal, which the test suite uses as a cross-check.

    Each working row holds a row of D followed by the same row of U, so a
    row operation is one pass over both.  Step t starts with rows and
    columns before t zero off the diagonal, so that pass starts at column t,
    and a column operation runs over rows t onward.  V is kept as its list
    of columns.  The subtractions and swaps that clear an entry against the
    pivot form a Euclid run between two rows (or two columns).  The run is
    worked out on the two entries, recorded once if it is between rows, and
    its 2 x 2 composite applied to the two rows of D and U (the two columns
    of D and V) in one pass each; in D and U it skips the places where both
    lines are zero.  A run of one subtraction changes the other row or
    column only where the pivot line is nonzero: the pivot row's nonzero
    entries of D and U (V's column t's nonzero entries) are listed once and
    reused until a swap or a longer run changes the pivot line.  Of D's
    rows, such a column subtraction changes only row t while column t is
    zero below the pivot.
    Integer arithmetic is exact, so U, D, V and the row operations are
    those of the step-by-step elimination.

    Returns:
        SmithDecomposition with u @ a @ v == d, |det u| == |det v| == 1,
        nonnegative diagonal satisfying the divisibility chain.
    """
    if strategy not in PIVOT_STRATEGIES:
        raise ValueError(f"unknown pivot strategy {strategy!r}")
    m, n = a.rows, a.cols
    # Row i is [row i of D | row i of U]; D's columns are 0 .. n-1.
    d = [list(row) + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(a.data)]
    vt = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ops = []

    def row_swap(i, k):
        ops.append((i, k))
        d[i], d[k] = d[k], d[i]

    def col_swap(j, k):
        for row in d[t:]:
            row[j], row[k] = row[k], row[j]
        vt[j], vt[k] = vt[k], vt[j]

    t = 0
    while t < min(m, n):
        piv = _find_pivot(d, m, n, t, strategy)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        while True:
            # Clear the pivot column; a nonzero remainder is strictly smaller
            # than the pivot, so swapping it in makes progress.  An entry
            # the pivot's floor quotient leaves alone is swapped in first.
            # `live` lists the pivot line's nonzero (index, entry) pairs
            # (the pivot row from column t here, V's column t below) and is
            # dropped whenever a swap or a longer run changes that line.
            live = None
            for i in range(t + 1, m):
                if d[i][t] and not d[i][t] // d[t][t]:
                    row_swap(i, t)
                    live = None
                c, rest = divmod(d[i][t], d[t][t])
                if rest:
                    quotients, (p, q, r, s) = _euclid_run(d[t][t], d[i][t])
                    ops.append((i, t, quotients, (p, q, r, s)))
                    top, low = d[t], d[i]
                    for k in range(t, n + m):
                        x, y = top[k], low[k]
                        if x or y:
                            top[k], low[k] = p * x + q * y, r * x + s * y
                    live = None
                elif c:
                    ops.append((i, t, -c))
                    if live is None:
                        live = [(k, x) for k, x in enumerate(d[t][t:], t) if x]
                    row = d[i]
                    for k, x in live:
                        row[k] -= c * x
            clean = True  # column t is zero below the pivot
            live = None
            for j in range(t + 1, n):
                if d[t][j] and not d[t][j] // d[t][t]:
                    col_swap(j, t)
                    clean = not any(row[t] for row in d[t + 1:])
                    live = None
                c, rest = divmod(d[t][j], d[t][t])
                if rest:
                    _, (p, q, r, s) = _euclid_run(d[t][t], d[t][j])
                    for row in d[t:]:
                        x, y = row[t], row[j]
                        if x or y:
                            row[t], row[j] = p * x + q * y, r * x + s * y
                    vt[t], vt[j] = ([p * x + q * y for x, y in zip(vt[t], vt[j])],
                                    [r * x + s * y for x, y in zip(vt[t], vt[j])])
                    clean = not any(row[t] for row in d[t + 1:])
                    live = None
                elif c:
                    for row in (d[t],) if clean else d[t:]:
                        row[j] -= c * row[t]
                    if live is None:
                        live = [(k, x) for k, x in enumerate(vt[t]) if x]
                    col = vt[j]
                    for k, x in live:
                        col[k] -= c * x
            if not clean:
                continue
            # Pivot must divide the rest of the block for the chain to hold.
            p = d[t][t]
            bad = None
            if p not in (1, -1):
                for i in range(t + 1, m):
                    row = d[i]
                    if any(row[j] % p for j in range(t + 1, n)):
                        bad = i
                        break
            if bad is None:
                break
            ops.append((t, bad, 1))
            d[t][t:] = [x + y for x, y in zip(d[t][t:], d[bad][t:])]
        if d[t][t] < 0:
            ops.append((t,))
            d[t][t] = -d[t][t]
            d[t][n:] = [-x for x in d[t][n:]]
        t += 1

    return SmithDecomposition(
        IntMatrix._from_rows([row[n:] for row in d], m, m),
        IntMatrix._from_rows([row[:n] for row in d], m, n),
        IntMatrix._from_rows(zip(*vt), n, n),
        tuple(ops),
    )


def _find_unit(rows, modulus):
    """(i, j) of the first entry of `rows`, in row-major order, that is a
    unit modulo `modulus`, or None."""
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x and gcd(x, modulus) == 1:
                return i, j
    return None


def _coprime_part(modulus: int, g: int) -> int:
    """`modulus` with every prime factor of `g` divided out."""
    while (h := gcd(modulus, g)) > 1:
        modulus //= h
    return modulus


def _make_unit(rows, modulus) -> tuple[int, int]:
    """Make the first nonzero entry of `rows`, at (i, j), a unit modulo
    `modulus` when their entries generate the unit ideal but none is a unit.

    Adding k times column l to column j, with k the part of the modulus prime
    to gcd(column j, modulus), keeps every prime that already fails to divide
    column j and brings in those that column l has, so after the other
    columns column j generates the unit ideal.  The same step on rows then
    makes the entry (i, j) a unit.
    """
    i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x)
    g = gcd(modulus, *(row[j] for row in rows))
    for col in range(len(rows[0])):
        if g == 1:
            break
        if gcd(g, *(row[col] for row in rows)) < g:
            k = _coprime_part(modulus, g)
            for row in rows:
                row[j] = (row[j] + k * row[col]) % modulus
            g = gcd(modulus, *(row[j] for row in rows))
    top = rows[i]
    g = gcd(modulus, top[j])
    for row in rows:
        if g == 1:
            break
        if gcd(g, row[j]) < g:
            k = _coprime_part(modulus, g)
            top[:] = [(x + k * y) % modulus for x, y in zip(top, row)]
            g = gcd(modulus, top[j])
    return i, j


def _rank_and_modulus(a: IntMatrix) -> tuple[int, int]:
    """Rank r of `a` and a nonzero multiple M of its largest invariant
    factor, read off `column_basis(a)`: r is its column count, and M its
    r x r minor on the pivot rows, the product of its pivots.  The basis
    spans the column lattice of `a`, so d_1 ... d_r, the gcd of its r x r
    minors, divides M, and so does d_r."""
    if not (a.rows and a.cols):  # most calls: Koszul ends, A_free of torsion targets
        return 0, 1
    cols, pivots = echelon_pivots(column_basis(a))
    return len(cols), prod(col[i] for col, i in zip(cols, pivots))


def smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """The diagonal of `snf(a)`, computed without U or V.

    With r the rank of `a` and M a nonzero multiple of its largest
    invariant factor d_r, both from its column-echelon basis
    (`_rank_and_modulus`), the first r invariant factors divide M.  They
    are therefore the first r invariant factors of [a | M*I] too, whose
    column lattice contains M*Z^rows.  So the elimination works in
    (Z/M)^rows: it reduces every entry modulo M, divides by units modulo M,
    and no entry ever exceeds M (Domich, Kannan and Trotter, Math. Oper.
    Res. 1987).
    """
    return _diagonal_modulo(a, *_rank_and_modulus(a))


def _diagonal_modulo(a: IntMatrix, rank: int, modulus: int) -> tuple[int, ...]:
    """`smith_diagonal(a)` from the rank r of `a` and a nonzero multiple M
    of its largest invariant factor, known to the caller.  When M divides
    every entry (modulo 1 it always does), it divides d_1 and so every
    factor, and all r factors are M.

    Each step pivots on the first entry of the working rows that is a unit
    modulo M: the pivot row leaves them, and every row left subtracts the
    multiple of it that zeroes the pivot's column, only where the pivot row
    is nonzero, so no row or column is ever permuted.  Rows with no unit
    first have their common factor c with M divided out (the Smith form of
    c*X is c times that of X, so every later factor is multiplied by c); if
    there is still none, the entries and M are coprime, and adding multiples
    of other columns and rows to one entry's makes it one (`_make_unit`).
    Rows that vanish modulo M before step r give the factors so far times M
    for each remaining step; the rest of the diagonal is zero.
    """
    if modulus == 1 or not any(x % modulus for row in a.data for x in row):
        return (modulus,) * rank + (0,) * (min(a.shape) - rank)
    rows = [[x % modulus for x in row] for row in a.data]
    diag = []
    scale = 1
    for t in range(rank):
        piv = _find_unit(rows, modulus)
        if piv is None:
            c = gcd(modulus, *(x for row in rows for x in row))
            if c == modulus:
                diag += [scale * modulus] * (rank - t)
                break
            if c > 1:
                scale *= c
                modulus //= c
                rows = [[x // c for x in row] for row in rows]
                piv = _find_unit(rows, modulus)
            if piv is None:
                piv = _make_unit(rows, modulus)
        i, j = piv
        top = rows.pop(i)
        inv = pow(top[j], -1, modulus)
        live = [(k, x) for k, x in enumerate(top) if x]
        for row in rows:
            if q := row[j]:
                f = q * inv % modulus
                for k, x in live:
                    row[k] = (row[k] - f * x) % modulus
        diag.append(scale)
    return tuple(diag) + (0,) * (min(a.shape) - rank)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the integer null space of `a`, as matrix columns.

    The basis is primitive: its columns are columns of a unimodular matrix,
    so they extend to a basis of the ambient lattice.
    """
    dec = snf(a)
    rank = sum(1 for x in dec.diagonal() if x != 0)
    cols = dec.v.columns()[rank:]
    return IntMatrix.from_columns(cols, rows=a.cols)


def solve(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """Integer solution X of a @ X == b, or None when none exists."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    dec = snf(a)
    rows, cols = a.shape
    c = dec.u @ b
    diag = dec.diagonal()
    y = [[0] * b.cols for _ in range(cols)]
    for i in range(rows):
        di = diag[i] if i < len(diag) else 0
        for j in range(b.cols):
            cij = c.data[i][j]
            if di == 0:
                if cij != 0:
                    return None
            else:
                if cij % di:
                    return None
                if i < cols:
                    y[i][j] = cij // di
    return dec.v @ IntMatrix._from_rows(y, cols, b.cols)


def column_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the lattice spanned by the columns of `a` (echelon columns)."""
    work = [list(c) for c in zip(*a.data) if any(c)]
    basis = []
    for r in range(a.rows):
        live = [c for c in work if c[r] != 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[r]))
            c0 = live[0]
            for c in live[1:]:
                q = c[r] // c0[r]
                for i in range(a.rows):
                    c[i] -= q * c0[i]
            live = [c for c in work if c[r] != 0]
        if live:
            col = live[0]
            work.remove(col)
            if col[r] < 0:
                col[:] = [-x for x in col]
            basis.append(col)
    return IntMatrix._from_rows(
        [[c[i] for c in basis] for i in range(a.rows)], a.rows, len(basis))


def echelon_pivots(basis: IntMatrix) -> tuple[list, list[int]]:
    """The columns of a `column_basis` result and their pivot rows."""
    cols = list(basis.columns())
    return cols, [next(i for i, v in enumerate(col) if v) for col in cols]


def forward_substitute(cols, pivots, rest: list[int]) -> list[int]:
    """Coefficients of the echelon `cols` by forward substitution into the
    column `rest`, which is left holding the residue."""
    out = []
    for col, r in zip(cols, pivots):
        q = rest[r] // col[r]
        if q:
            rest[r:] = [y - q * c for y, c in zip(rest[r:], col[r:])]
        out.append(q)
    return out


def solve_echelon(basis: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """`solve(basis, b)` by forward substitution, for a `column_basis` result.

    Column k of such a basis is zero above its pivot row, its pivot is
    positive, and pivot rows increase with k, so column k alone fixes row k
    of X.  A pivot that does not divide leaves a remainder in its row; every
    row of the residue is checked, so a column of `b` outside the span gives
    None.
    """
    if basis.rows != b.rows:
        raise ValueError("row count mismatch")
    cols, pivots = echelon_pivots(basis)
    x = []
    for column in b.columns():
        rest = list(column)
        x.append(forward_substitute(cols, pivots, rest))
        if any(rest):
            return None
    return IntMatrix._from_rows(zip(*x) if x else [()] * basis.cols, basis.cols, b.cols)


def det(a: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix: U @ a @ V == I, so it is V @ U."""
    if a.rows != a.cols:
        raise ValueError("inverse of a non-square matrix")
    dec = snf(a)
    diag = dec.diagonal()
    if 0 in diag:
        raise ValueError("matrix is singular")
    if any(x != 1 for x in diag):
        raise ValueError("matrix is not unimodular")
    return dec.v @ dec.u
