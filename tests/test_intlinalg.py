"""Exact linear algebra tests.

Independent oracles used here: determinantal divisors (gcds of k x k minors)
for the Smith diagonal, exhaustive small-coefficient search for kernels, and
explicit unimodular products for invariance checks.
"""

import hashlib
import random
from collections import Counter
from itertools import chain, combinations, permutations
from math import comb, gcd, prod

import pytest
from torsion_reference import presented

from modlat.intlinalg import (
    PIVOT_STRATEGIES,
    _diagonal_modulo,
    _find_pivot,
    _rank_and_modulus,
    IntMatrix,
    SmithDecomposition,
    column_basis,
    det,
    hstack,
    invert_unimodular,
    kernel_basis,
    smith_diagonal,
    snf,
    solve,
    solve_echelon,
)
from modlat.zmodules import ZModule, from_presentation


def minors_gcd(a: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (the k-th determinantal divisor)."""
    out = 0
    for rows in combinations(range(a.rows), k):
        for cols in combinations(range(a.cols), k):
            sub = IntMatrix([[a[i, j] for j in cols] for i in rows])
            out = gcd(out, det(sub))
    return out


def diagonal_from_determinantal_divisors(a: IntMatrix) -> list[int]:
    """Invariant factors computed through minor gcds, independent of snf."""
    diag = []
    prev = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        dk = minors_gcd(a, k)
        if dk == 0:
            break
        diag.append(dk // prev)
        prev = dk
    while len(diag) < min(a.rows, a.cols):
        diag.append(0)
    return diag


def test_snf_identity():
    a = IntMatrix.identity(3)
    dec = snf(a)
    assert dec.d == a
    assert dec.u == a
    assert dec.v == a


def test_snf_zero_matrix():
    a = IntMatrix.zeros(2, 3)
    dec = snf(a)
    assert dec.d == a
    assert dec.u @ a @ dec.v == dec.d


def test_snf_worked_example():
    a = IntMatrix([[2, 4], [6, 8]])
    dec = snf(a)
    # cross-checks: d1 is the gcd of the entries, d1*d2 the determinant size
    assert minors_gcd(a, 1) == 2
    assert abs(det(a)) == 8
    assert dec.diagonal() == (2, 4)
    assert dec.u @ a @ dec.v == dec.d


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (3, 2), (2, 4), (4, 4)])
def test_snf_matches_determinantal_divisors(rows, cols):
    rng = random.Random(f"dd:{rows}x{cols}")
    for _ in range(25):
        a = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        assert list(snf(a).diagonal()) == diagonal_from_determinantal_divisors(a)


def test_kernel_injective():
    assert kernel_basis(IntMatrix([[1]])).cols == 0


def test_kernel_zero_map():
    basis = kernel_basis(IntMatrix([[0]]))
    assert basis.to_lists() == [[1]] or basis.to_lists() == [[-1]]


def test_kernel_worked_example():
    a = IntMatrix([[2, 4]])
    basis = kernel_basis(a)
    # oracle: exhaustive search for primitive solutions of 2x + 4y = 0
    solutions = [
        (x, y)
        for x in range(-5, 6)
        for y in range(-5, 6)
        if 2 * x + 4 * y == 0 and gcd(x, y) == 1
    ]
    assert basis.cols == 1
    col = basis.columns()[0]
    assert tuple(col) in solutions
    assert (a @ basis).is_zero()


def test_cokernel_single_relation():
    assert from_presentation(IntMatrix([[12]])) == ZModule(0, (12,))


def test_cokernel_diag_2_3():
    assert from_presentation(IntMatrix([[2, 0], [0, 3]])) == ZModule(0, (6,))


def test_cokernel_no_relations():
    assert from_presentation(IntMatrix([[], []], rows=2, cols=0)) == ZModule.free(2)


def random_matrix(rng, max_dim=6, max_entry=50):
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    return IntMatrix(
        [[rng.randint(-max_entry, max_entry) for _ in range(cols)]
         for _ in range(rows)]
    )


def test_snf_round_trip_properties():
    rng = random.Random("roundtrip")
    for _ in range(60):
        a = random_matrix(rng)
        dec = snf(a)
        assert dec.u @ a @ dec.v == dec.d
        assert abs(det(dec.u)) == 1
        assert abs(det(dec.v)) == 1
        assert invert_unimodular(dec.u) @ dec.d @ invert_unimodular(dec.v) == a
        diag = dec.diagonal()
        assert all(x >= 0 for x in diag)
        chain = [x for x in diag if x]
        assert all(b % a_ == 0 for a_, b in zip(chain, chain[1:]))
        assert snf(a, strategy="first_nonzero").diagonal() == diag


def random_unimodular(rng, n):
    m = IntMatrix.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        e = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        e[i][j] = rng.randint(-2, 2)
        m = m @ IntMatrix(e)
    return m


def test_cokernel_invariant_under_unimodular_factors():
    rng = random.Random("unimod")
    for _ in range(30):
        a = random_matrix(rng, max_dim=4, max_entry=9)
        left = random_unimodular(rng, a.rows)
        right = random_unimodular(rng, a.cols)
        assert from_presentation(left @ a @ right) == from_presentation(a)


def test_solve_and_column_basis():
    rng = random.Random("solve")
    for _ in range(40):
        a = random_matrix(rng, max_dim=4, max_entry=6)
        x = random_matrix(rng, max_dim=4, max_entry=4)
        if x.rows != a.cols:
            x = IntMatrix(
                [[rng.randint(-4, 4) for _ in range(2)] for _ in range(a.cols)]
            )
        b = a @ x
        found = solve(a, b)
        assert found is not None
        assert a @ found == b
        basis = column_basis(a)
        # every original column is an integer combination of the basis
        assert solve(basis, a) is not None
        # and conversely
        assert solve(a, basis) is not None or basis.cols <= a.cols


def test_solve_reports_unsolvable():
    assert solve(IntMatrix([[2]]), IntMatrix([[3]])) is None
    assert solve(IntMatrix([[2, 4]]), IntMatrix([[1]])) is None


def test_solve_echelon_matches_solve():
    rng = random.Random("echelon")
    for _ in range(150):
        a = random_matrix(rng, max_dim=5, max_entry=6)
        basis = column_basis(a)
        columns = []
        for _ in range(3):
            if rng.random() < 0.5:
                coeffs = [rng.randint(-3, 3) for _ in range(basis.cols)]
                columns.append([sum(c * x for c, x in zip(coeffs, basis.row(i)))
                                for i in range(basis.rows)])
            else:
                columns.append([rng.randint(-6, 6) for _ in range(basis.rows)])
        for col in columns:
            b = IntMatrix.from_columns([col], rows=basis.rows)
            assert solve_echelon(basis, b) == solve(basis, b)
        b = IntMatrix.from_columns(columns, rows=basis.rows)
        assert solve_echelon(basis, b) == solve(basis, b)


def test_solve_echelon_edge_cases():
    # the pivot 2 does not divide 3, though row 1 alone would allow it
    basis = column_basis(IntMatrix([[2], [1]]))
    assert solve_echelon(basis, IntMatrix([[3], [1]])) is None
    assert solve_echelon(basis, IntMatrix([[4], [2]])) == IntMatrix([[2]])
    # a residue left in row 1, which is no column's pivot row
    basis = column_basis(IntMatrix([[1, 0], [0, 0], [0, 1]]))
    assert basis.shape == (3, 2)
    assert solve_echelon(basis, IntMatrix([[1], [1], [1]])) is None
    basis = column_basis(IntMatrix([[1], [2], [0]]))
    assert solve_echelon(basis, IntMatrix([[1], [3], [0]])) is None
    assert solve_echelon(basis, IntMatrix([[-1], [-2], [0]])) == IntMatrix([[-1]])
    # a basis with no columns spans only zero
    empty = column_basis(IntMatrix.zeros(3, 2))
    assert empty.shape == (3, 0)
    assert solve_echelon(empty, IntMatrix.zeros(3, 2)) == IntMatrix.zeros(0, 2)
    assert solve_echelon(empty, IntMatrix([[0], [1], [0]])) is None
    # a right-hand side with no columns always solves
    basis = column_basis(IntMatrix([[2, 1], [0, 3]]))
    assert solve_echelon(basis, IntMatrix.zeros(2, 0)) == IntMatrix.zeros(basis.cols, 0)
    # in the zero ambient, the zero columns solve with no coefficients
    nothing = column_basis(IntMatrix.zeros(0, 3))
    assert nothing.shape == (0, 0)
    assert solve_echelon(nothing, IntMatrix.zeros(0, 2)) == IntMatrix.zeros(0, 2)
    assert IntMatrix.zeros(0, 2).columns() == ((), ())
    assert IntMatrix.zeros(2, 0).columns() == ()
    with pytest.raises(ValueError):
        solve_echelon(basis, IntMatrix([[1]]))


def test_invert_unimodular_rejects_non_unimodular():
    with pytest.raises(ValueError):
        invert_unimodular(IntMatrix([[2]]))


def test_invert_unimodular_sign_and_rejections():
    a = IntMatrix([[2, 3, 1], [1, 2, 0], [0, 0, -1]])
    assert det(a) == -1
    inv = invert_unimodular(a)
    assert a @ inv == IntMatrix.identity(3) == inv @ a
    with pytest.raises(ValueError, match="singular"):
        invert_unimodular(IntMatrix([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="not unimodular"):
        invert_unimodular(IntMatrix([[2, 1], [1, 2]]))


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    m = IntMatrix([], rows=0, cols=3)
    assert m.shape == (0, 3)
    assert (m @ IntMatrix.zeros(3, 2)).shape == (0, 2)
    m = IntMatrix([], rows=3, cols=0)
    assert m.shape == (3, 0)
    assert m == IntMatrix([[], [], []], rows=3, cols=0) == IntMatrix.zeros(3, 0)
    with pytest.raises(ValueError, match="expected 3 rows, got 0"):
        IntMatrix([], rows=3, cols=2)


def test_public_constructor_rejects_non_integers():
    # entries are coerced with operator.index, so nothing is truncated or parsed
    with pytest.raises(TypeError):
        IntMatrix([[2.7, 5]])
    with pytest.raises(TypeError):
        IntMatrix([[2, "5"]])
    m = IntMatrix([[True, 2], [3, False]])
    assert m == IntMatrix([[1, 2], [3, 0]])
    assert all(type(x) is int for row in m.data for x in row)


def _seeded_matrices(tag, count=60):
    rng = random.Random(tag)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)]
    shapes += [(rng.randrange(1, 8), rng.randrange(1, 8)) for _ in range(count)]
    for rows, cols in shapes:
        yield IntMatrix([[rng.randint(-20, 20) if rng.random() < 0.7 else 0
                          for _ in range(cols)] for _ in range(rows)],
                        rows=rows, cols=cols)


@pytest.mark.parametrize("strategy", PIVOT_STRATEGIES)
def test_u_inverse_from_recorded_row_operations(strategy):
    for a in _seeded_matrices(f"u-inverse:{strategy}"):
        dec = snf(a, strategy)
        inv = dec.u_inverse()
        assert inv == invert_unimodular(dec.u)
        assert inv @ dec.u == IntMatrix.identity(a.rows)
        # U^-1 @ D @ V^-1 recovers the input
        assert inv @ dec.d @ invert_unimodular(dec.v) == a



def test_copy_and_pickle_round_trips():
    """Matrices, Smith forms and Koszul complexes survive copy, deepcopy and
    pickle; a round-tripped matrix still refuses attribute assignment, and
    a round-tripped complex keeps the ranks and moduli it was built with."""
    import copy
    import pickle

    from modlat.complexes import homology_table, koszul_complex

    def round_trips(x):
        return (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)))

    for a in (IntMatrix([[1, -2], [3, 10 ** 40]]), IntMatrix.zeros(3, 0),
              IntMatrix.zeros(0, 2), IntMatrix([])):
        for b in round_trips(a):
            assert b == a and hash(b) == hash(a) and b.shape == a.shape
            with pytest.raises(AttributeError, match="immutable"):
                b.rows = 7
    dec = snf(IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    for copied in round_trips(dec):
        assert copied == dec and copied.row_ops == dec.row_ops
        assert copied.u_inverse() == dec.u_inverse()
    k = koszul_complex([4, 6, 10])
    assert k._known
    for copied in round_trips(k):
        assert copied == k and copied._known == k._known
        assert homology_table(copied) == homology_table(k)

def test_row_operations_do_not_enter_equality_or_repr():
    a = IntMatrix([[2, 4], [6, 8]])
    dec = snf(a)
    assert dec.row_ops
    bare = SmithDecomposition(dec.u, dec.d, dec.v, ())
    assert bare == dec and hash(bare) == hash(dec)
    assert repr(bare) == repr(dec) and "row_ops" not in repr(dec)


def _built_as_public(m):
    """A matrix from the private constructor equals, and hashes like, the
    public constructor's copy, and holds tuples of exact ints."""
    public = IntMatrix(m.to_lists(), rows=m.rows, cols=m.cols)
    assert m == public and hash(m) == hash(public)
    assert type(m.data) is tuple and len(m.data) == m.rows
    assert all(type(row) is tuple and len(row) == m.cols for row in m.data)
    assert all(type(x) is int for row in m.data for x in row)


def test_private_constructor_matches_public(monkeypatch):
    from modlat import complexes, oracle, zmodules
    from modlat.zmodules import ZModule

    for a in _seeded_matrices("private-constructor", count=30):
        _built_as_public(a @ IntMatrix.identity(a.cols))
        _built_as_public(a @ IntMatrix.zeros(a.cols, 2))
        _built_as_public(hstack(a, IntMatrix.zeros(a.rows, 1)))
        _built_as_public(column_basis(a))
        dec = snf(a)
        for part in (dec.u, dec.d, dec.v, dec.u_inverse()):
            _built_as_public(part)
        b = a @ IntMatrix([[1, -2, 0]] * a.cols, rows=a.cols, cols=3)
        _built_as_public(solve(a, b))
        _built_as_public(solve_echelon(column_basis(a), b))
    for n in (0, 1, 4):
        _built_as_public(IntMatrix.identity(n))
        _built_as_public(IntMatrix.zeros(n, 2))
        _built_as_public(IntMatrix.zeros(2, n))
    for d in complexes.koszul_complex([4, 6, 10]).differentials:
        _built_as_public(d)

    built = []
    real = zmodules._diagonal_modulo
    monkeypatch.setattr(zmodules, "_diagonal_modulo",
                        lambda a, *known: built.append(a) or real(a, *known))
    for module in (ZModule(0, ()), ZModule(2, ()), ZModule(1, (2, 6)), ZModule(0, (3, 9))):
        _built_as_public(zmodules.presentation_matrix(module))
        g = module.generator_count
        f = zmodules.ZModuleMap(module, module,
                                IntMatrix.identity(g).scale(5))
        _built_as_public(f.matrix)
        built.clear()
        zmodules.kernel(f)
        _built_as_public(built[0])  # the d2 of the cone
    trace = oracle.derive_submodule(ZModule(1, (2, 4)), IntMatrix([[1], [2], [3]]))
    for step in trace.steps:
        if step.matrix is not None:
            _built_as_public(step.matrix)


def test_matmul_matches_triple_sum():
    rng = random.Random("matmul")
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [tuple(rng.randrange(1, 7) for _ in range(3)) for _ in range(40)]
    for rows, inner, cols in shapes:
        for density in (0.0, 0.3, 1.0):
            def draw(r, c):
                data = [[rng.randint(-9, 9) if rng.random() < density else 0
                         for _ in range(c)] for _ in range(r)]
                if r > 1:
                    data[rng.randrange(r)] = [0] * c
                return data

            a, b = draw(rows, inner), draw(inner, cols)
            expected = [[sum(a[i][k] * b[k][j] for k in range(inner))
                         for j in range(cols)] for i in range(rows)]
            got = IntMatrix(a, rows=rows, cols=inner) @ IntMatrix(b, rows=inner, cols=cols)
            assert got.shape == (rows, cols)
            assert got.to_lists() == expected


def _seeded_matrix(rng, rows, cols, rank=None, scale=1):
    """Entries in [-9, 9]; a product of rows x rank and rank x cols factors
    when `rank` is given; every entry multiplied by `scale`."""
    if rank is None:
        data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    else:
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
        data = [[sum(left[i][k] * right[k][j] for k in range(rank))
                 for j in range(cols)] for i in range(rows)]
    return IntMatrix([[scale * x for x in row] for row in data], rows=rows, cols=cols)


def _two_prime_matrix(rng, rows, cols):
    """Entries 0 or +-2^a 3^b with a + b >= 1, so no entry is a unit modulo a
    minor divisible by 6, and the block's common factor with it varies."""
    return IntMatrix([[rng.choice((0, 1, -1)) * 2 ** rng.randrange(3) * 3 ** rng.randrange(3)
                       * rng.choice((2, 3)) for _ in range(cols)] for _ in range(rows)],
                     rows=rows, cols=cols)


def _late_factor_matrix(rng, rows, cols):
    """L @ D @ R for unimodular L, R and a diagonal D = (1, ..., 1, c_1, ...)
    of a divisibility chain: the common factor with the minor shows only
    after the unit steps."""
    units = rng.randrange(0, min(rows, cols))
    chain, x = [], 1
    for k in range(min(rows, cols)):
        if k >= units:
            x *= rng.choice((1, 2, 3, 4, 6, 9))
        chain.append(x)
    d = [[chain[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    return random_unimodular(rng, rows) @ IntMatrix(d, rows=rows, cols=cols) \
        @ random_unimodular(rng, cols)


def _koszul_cases(rng):
    """Every differential of seeded Koszul complexes of lengths 2-8, plain
    and scaled by 2, 3 and 6, and of the length-8 sequence that once ran for
    minutes, with its closed-form diagonal: K(x) is isomorphic to
    K(g, 0, ..., 0) for g the gcd of x, so the diagonal of d_i is g repeated
    C(r - 1, i - 1) times, then zeros."""
    from modlat.complexes import koszul_complex

    sequences = [(39, 57, 58, 26, 34, 15, 20, 27)]
    for length in range(2, 9):
        for scale in (1, 2, 3, 6):
            sequences.append(tuple(scale * rng.randint(1, 99 // scale) for _ in range(length)))
    for seq in sequences:
        r, g = len(seq), gcd(*seq)
        for i, d in enumerate(koszul_complex(seq).differentials, 1):
            nonzero = (g,) * comb(r - 1, i - 1)
            yield d, nonzero + (0,) * (min(d.shape) - len(nonzero)), r


@pytest.mark.parametrize("kind", ["full", "deficient", "scaled", "no_unit", "late_factor",
                                  "koszul", "small"])
def test_smith_diagonal_matches_snf(kind):
    rng = random.Random(f"smith-diagonal:{kind}")
    if kind == "small":
        # 3,000 up to 6 x 6, empty, zero and rank-deficient ones among them
        for k in range(3000):
            rows, cols = rng.randrange(7), rng.randrange(7)
            rank = rng.randrange(min(rows, cols) + 1) if k % 2 else None
            a = _seeded_matrix(rng, rows, cols, rank=rank, scale=rng.choice((1, 1, 2, 6)))
            assert smith_diagonal(a) == snf(a).diagonal(), a
        return
    if kind == "koszul":
        # A full Smith form of a length-7 table takes seconds, so past
        # length 6 the closed form is the only reference.
        cases = list(_koszul_cases(rng))
        assert len(cases) == 4 * sum(range(2, 9)) + 8
        for a, closed_form, length in cases:
            assert smith_diagonal(a) == closed_form
            if length <= 6:
                assert snf(a).diagonal() == closed_form
        return
    for _ in range(40):
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
        if kind == "full":
            a = _seeded_matrix(rng, rows, cols)
        elif kind == "deficient":
            a = _seeded_matrix(rng, rows, cols, rank=rng.randrange(1, min(rows, cols) + 1))
        elif kind == "scaled":
            a = _seeded_matrix(rng, rows, cols, rank=rng.randrange(1, min(rows, cols) + 1),
                               scale=rng.choice((2, 6, 12)))
        elif kind == "no_unit":
            a = _two_prime_matrix(rng, rows, cols)
        else:
            a = _late_factor_matrix(rng, rows, cols)
        assert smith_diagonal(a) == snf(a).diagonal()


def test_smith_diagonal_matches_determinantal_divisors():
    rng = random.Random("smith-diagonal:dd")
    for _ in range(40):
        a = _seeded_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5),
                           scale=rng.choice((1, 4)))
        assert list(smith_diagonal(a)) == diagonal_from_determinantal_divisors(a)


@pytest.mark.parametrize("a,expected", [
    (IntMatrix.zeros(3, 4), (0, 0, 0)),
    (IntMatrix([], rows=0, cols=3), ()),
    (IntMatrix([[], [], []], rows=3, cols=0), ()),
    (IntMatrix([[0]]), (0,)),
    (IntMatrix([[-7]]), (7,)),
    (IntMatrix([[2, 4], [6, 8]]), (2, 4)),
    (IntMatrix([[6, 0], [0, 6]]), (6, 6)),
])
def test_smith_diagonal_edge_shapes(a, expected):
    assert smith_diagonal(a) == expected == snf(a).diagonal()


def _leibniz_det(rows) -> int:
    """Determinant as a signed sum over permutations, independent of `det`."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def _brute_rank_and_minors(a: IntMatrix):
    """The largest r with a nonzero r x r minor, and the |minors| of that size."""
    for r in range(min(a.rows, a.cols), 0, -1):
        minors = {abs(_leibniz_det([[a[i, j] for j in cols] for i in rows]))
                  for rows in combinations(range(a.rows), r)
                  for cols in combinations(range(a.cols), r)}
        minors.discard(0)
        if minors:
            return r, minors
    return 0, {1}


def _rank_and_modulus_cases():
    yield IntMatrix([], rows=0, cols=4)
    yield IntMatrix([[], [], []], rows=3, cols=0)
    yield IntMatrix.zeros(3, 5)
    yield IntMatrix([[0, 2, 4], [0, 6, 8], [0, 1, 3]])
    yield IntMatrix([[0, 0], [0, 5]])
    rng = random.Random("rank-and-minor")
    for _ in range(120):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 7)
        rank = rng.randrange(0, min(rows, cols) + 1) if rng.random() < 0.5 else None
        a = _seeded_matrix(rng, rows, cols, rank=rank)
        if rng.random() < 0.25:
            a = IntMatrix([(0,) + row[1:] for row in a.data], rows=rows, cols=cols)
        yield a


def test_rank_and_modulus_against_brute_force():
    """The echelon basis's rank is the rank, and its modulus a positive
    multiple of the gcd of the r x r minors, d_1 ... d_r; the class
    `from_presentation` reads modulo it is the full Smith form's."""
    deficient = 0
    for a in _rank_and_modulus_cases():
        rank, modulus = _rank_and_modulus(a)
        brute_rank, minors = _brute_rank_and_minors(a)
        assert rank == brute_rank
        assert modulus > 0 and modulus % gcd(*minors) == 0, a
        assert from_presentation(a) == presented(a), a
        deficient += rank < min(a.shape)
    assert deficient >= 30


def test_koszul_modulus_is_the_invariant_factor_product():
    """On these Koszul differentials the modulus `koszul_complex` attaches is
    g, the gcd of the terms, and the diagonal read modulo it is (g,) * rank:
    the same diagonal as the elimination modulo the column-echelon modulus,
    which takes on primes of the terms and runs to hundreds of digits.  So
    g is the largest invariant factor, and g^rank, which divides the
    echelon modulus, is the product of the invariant factors.  The ranks
    agree."""
    from modlat.complexes import koszul_complex

    rng = random.Random("koszul-digits:20")
    sequences = [(39, 57, 58, 26, 34, 15, 20, 27), (6, 10, 15, 12), (12, -18, 30, 42, 66)]
    sequences += [tuple(rng.randrange(10 ** 19, 10 ** 20) for _ in range(8)) for _ in range(3)]
    for seq in sequences:
        g = gcd(*seq)
        k = koszul_complex(seq)
        for i, (d, (rank, modulus)) in enumerate(zip(k.differentials, k._known), 1):
            assert (rank, modulus) == (comb(len(seq) - 1, i - 1), g), (seq, d.shape)
            echelon_rank, echelon_modulus = _rank_and_modulus(d)
            assert echelon_rank == rank
            diag = _diagonal_modulo(d, rank, echelon_modulus)
            assert diag[:rank] == (g,) * rank, (seq, d.shape)
            assert _diagonal_modulo(d, rank, modulus) == diag
            assert echelon_modulus % prod(diag[:rank]) == 0, (seq, d.shape)


def test_koszul_known_pairs_are_rank_and_minor_gcd():
    """The (rank, modulus) pair `koszul_complex` attaches to each
    differential, against brute force: the rank is the largest size of a
    nonzero minor, and the invariant factors from the gcds of the minors
    are all the modulus, the gcd of the terms; so is the diagonal read
    modulo it.  The homology is the closed form (Z/g)^C(r-1, i)."""
    from modlat.complexes import homology_table, koszul_complex

    sequences = [(0,), (0, 0, 0), (0, 0, 0, 0), (1,), (-1, 0), (7,), (-7, 0, 0),
                 (5, 5), (-4, -4, -4, -4), (0, 4, -6), (-3, 0, 0, 9), (2, 2, 4, 4),
                 (6, 10, 15), (6, -10, 15, 0), (1, 1, 1)]
    rng = random.Random("koszul-known-pairs")
    for _ in range(30):
        sequences.append(tuple(rng.choice((0, 1, -1, 2, -3, 6)) * rng.randint(0, 40)
                               for _ in range(rng.randrange(1, 5))))
    for seq in sequences:
        k = koszul_complex(seq)
        g = gcd(*seq)
        assert len(k._known) == len(seq)
        for d, (rank, modulus) in zip(k.differentials, k._known):
            brute_rank, _ = _brute_rank_and_minors(d)
            factors = diagonal_from_determinantal_divisors(d)
            assert rank == brute_rank and factors[:rank] == [g] * rank, (seq, d.shape)
            assert modulus == (g or 1), (seq, d.shape)
            assert list(_diagonal_modulo(d, rank, modulus)) == factors, (seq, d.shape)
        r = len(seq)  # with g = 0 every differential is zero
        assert homology_table(k) == {
            i: ZModule.from_cyclic_orders(0, [g] * comb(r - 1, i)) if g
            else ZModule.free(comb(r, i)) for i in range(r + 1)}, seq


def _modulus_cases(rng):
    """Empty and zero shapes, then seeded matrices of every kind the Smith
    diagonal tests use, and unimodular ones, whose factors are all 1."""
    yield IntMatrix([], rows=0, cols=3)
    yield IntMatrix([[], [], []], rows=3, cols=0)
    yield IntMatrix.zeros(2, 3)
    for k in range(300):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        kind = k % 5
        if kind == 0:
            yield _seeded_matrix(rng, rows, cols)
        elif kind == 1:
            yield _seeded_matrix(rng, rows, cols, rank=rng.randrange(min(rows, cols) + 1),
                                 scale=rng.choice((1, 2, 6, 12)))
        elif kind == 2:
            yield _two_prime_matrix(rng, rows, cols)
        elif kind == 3:
            yield _late_factor_matrix(rng, rows, cols)
        else:
            yield random_unimodular(rng, rows)


def _caller_inputs(rng):
    """Seeded calls that reach `_diagonal_modulo` through each caller, by
    name: Koszul tables with and without a common factor, kernels and
    cokernels of maps between modules with torsion and free parts, and
    subgroup classes (`lattice_type`)."""
    from modlat import complexes, zmodules

    def module():
        chain = [rng.choice((2, 3, 4, 6))] if rng.random() < 0.8 else []
        for _ in range(rng.randrange(3) if chain else 0):
            chain.append(chain[-1] * rng.choice((1, 2, 3, 5)))
        return ZModule(rng.randrange(3), tuple(chain))

    def relations_respecting(m, n):
        return IntMatrix([[rng.randint(-20, 20) if d == 0 else
                           0 if e == 0 else e // gcd(d, e) * rng.randint(-4, 4)
                           for d in m.generator_orders] for e in n.generator_orders],
                         rows=n.generator_count, cols=m.generator_count)

    for _ in range(40):
        g = rng.choice((1, 2, 3, 6, 12))
        seq = [g * rng.randint(-15, 15) for _ in range(rng.randrange(1, 6))]
        yield "koszul", lambda seq=seq: complexes.homology_table(complexes.koszul_complex(seq))
    for _ in range(120):
        m, n = module(), module()
        f = zmodules.ZModuleMap(m, n, relations_respecting(m, n))
        free_rows = f.matrix.data[len(n.torsion):]
        yield "kernel", lambda f=f: zmodules.kernel(f)
        yield "cokernel with a free part" if any(map(any, free_rows)) else "cokernel", \
            lambda f=f: zmodules.cokernel(f)
        cols = rng.randint(1, 3)
        gens = IntMatrix([[rng.randint(-6, 6) for _ in range(cols)]
                          for _ in range(n.generator_count)], rows=n.generator_count, cols=cols)
        yield "lattice_type", lambda n=n, gens=gens: zmodules.subgroup_type(n, gens)


def test_diagonal_modulo_matches_snf(monkeypatch):
    """`_diagonal_modulo` against `snf(a).diagonal()`, modulo the product P
    of the invariant factors and random multiples of it, modulo the largest
    factor L and a multiple of L that P does not divide: blocks with no
    unit reach `_make_unit`, a modulus of 1 reads every factor as 1, and c
    times a matrix with unit factors is read modulo c, which divides every
    entry.  Each caller passes the rank and a multiple of L."""
    from modlat import complexes, intlinalg, zmodules

    made = []
    real = intlinalg._make_unit
    monkeypatch.setattr(intlinalg, "_make_unit",
                        lambda rows, modulus: made.append(modulus) or real(rows, modulus))
    rng = random.Random("diagonal-modulo")
    pick = random.Random("diagonal-modulo:largest")
    ones = shapes = past_product = dividing = 0
    for a in _modulus_cases(rng):
        diag = snf(a).diagonal()
        nonzero = [x for x in diag if x]
        product, largest = prod(nonzero), max(nonzero, default=1)
        beyond = [k for k in range(2, 31) if largest * k % product] or [1]
        k = pick.choice(beyond)
        for modulus in (product, product * rng.randint(2, 30),
                        product * rng.choice((2, 3, 6)) ** rng.randrange(1, 6),
                        largest, largest * k):
            assert _diagonal_modulo(a, len(nonzero), modulus) == diag, (a, modulus)
        past_product += largest * k % product != 0
        if largest == 1:
            c = pick.choice((2, 6, 12, 10 ** 20 + 39))
            assert _diagonal_modulo(a.scale(c), len(nonzero), c) == tuple(c * x for x in diag)
            dividing += 1
        ones += product == 1
        shapes += not min(a.shape)
    assert len(made) >= 100 and ones >= 100 and shapes == 2
    assert past_product >= 50 and dividing >= 100

    passed = []
    diagonal_modulo = intlinalg._diagonal_modulo
    for module in (complexes, zmodules):
        monkeypatch.setattr(module, "_diagonal_modulo", lambda a, rank, modulus:
                            passed.append((a, rank, modulus)) or diagonal_modulo(a, rank, modulus))
    callers = Counter()
    for caller, call in _caller_inputs(random.Random("diagonal-modulo:callers")):
        call()
        for a, rank, modulus in passed:
            nonzero = [x for x in snf(a).diagonal() if x]
            assert rank == len(nonzero), (caller, a)
            assert modulus % max(nonzero, default=1) == 0, (caller, a, modulus)
            callers[caller] += max(nonzero, default=1) > 1
        passed.clear()
    assert min(callers.values()) >= 20 and len(callers) == 5, callers


def _golden_matrices():
    """Two dense matrices of each lattice-scale Smith shape, entries in
    [-9, 9], then 52 small ones of seeded rank, zero included."""
    rng = random.Random("snf-golden")
    for rows, cols in ((12, 12), (16, 16), (12, 20), (20, 12)):
        for _ in range(2):
            yield IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    for _ in range(52):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        rank = rng.randrange(0, min(rows, cols) + 1)
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
        yield IntMatrix([[sum(left[i][k] * right[k][j] for k in range(rank))
                          for j in range(cols)] for i in range(rows)], rows=rows, cols=cols)


def test_snf_golden_digest():
    """U, D, V and the row operations of `snf`, under both strategies, hash
    to the digest recorded before the elimination was made to touch only
    the live block: the same operations in the same order."""
    h = hashlib.sha256()
    for strategy in PIVOT_STRATEGIES:
        for a in _golden_matrices():
            dec = snf(a, strategy)
            h.update(repr((dec.u.data, dec.d.data, dec.v.data, dec.row_ops)).encode())
    assert h.hexdigest() == "b261ed2149e2a9884e0128daba95a2b050d271750695f0d89da529b87d11ca50"


def _snf_step_by_step(a, strategy):
    """The slow-path reference for `snf`: the same elimination with every
    step of a Euclid run applied to whole rows or columns as it is taken.
    Returns U, D, V and the row operations as tuples, the lengths of the
    row runs and column runs it took (steps between the pivot and one
    other row or column, adds and swaps alike), and a Counter of the runs
    of a single add (one clear, perhaps after a swap): "sparse_row" where
    the pivot row had a zero among its entries of D and U from column t,
    "sparse_v" where V's column t had a zero, and "after_change" where a
    swap or a longer run changed the pivot line since an earlier single
    clear of the same loop."""
    m, n = a.rows, a.cols
    d = [list(row) + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(a.data)]
    vt = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ops, row_runs, col_runs = [], [], []
    counts = Counter()

    def row_add(i, k, c):
        ops.append((i, k, c))
        d[i][t:] = [x + c * y for x, y in zip(d[i][t:], d[k][t:])]

    def col_add(j, k, c, top_only):
        for row in (d[t],) if top_only else d[t:]:
            row[j] += c * row[k]
        vt[j] = [x + c * y for x, y in zip(vt[j], vt[k])]

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
            built = changed = False  # a single clear seen; the pivot line changed since
            for i in range(t + 1, m):
                adds = swaps = 0
                while d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    if q:
                        sparse = 0 in d[t][t:]
                        row_add(i, t, -q)
                        adds += 1
                    if d[i][t] != 0:
                        row_swap(i, t)
                        swaps += 1
                row_runs.append(adds + swaps)
                changed = changed or swaps > 0
                if adds == 1:
                    counts["sparse_row"] += sparse
                    counts["after_change"] += built and changed
                    built, changed = True, False
            clean = True
            built = changed = False
            for j in range(t + 1, n):
                adds = swaps = 0
                while d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    if q:
                        sparse = 0 in vt[t]
                        col_add(j, t, -q, clean)
                        adds += 1
                    if d[t][j] != 0:
                        col_swap(j, t)
                        swaps += 1
                        clean = not any(row[t] for row in d[t + 1:])
                col_runs.append(adds + swaps)
                changed = changed or swaps > 0
                if adds == 1:
                    counts["sparse_v"] += sparse
                    counts["after_change"] += built and changed
                    built, changed = True, False
            if not clean:
                continue
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
            row_add(t, bad, 1)
        if d[t][t] < 0:
            ops.append((t,))
            d[t][t] = -d[t][t]
            d[t][n:] = [-x for x in d[t][n:]]
        t += 1

    u = tuple(tuple(row[n:]) for row in d)
    dd = tuple(tuple(row[:n]) for row in d)
    return (u, dd, tuple(zip(*vt)), tuple(ops)), row_runs, col_runs, counts


def _run_matrices():
    """2,000 seeded matrices: the four lattice-scale Smith shapes with
    entries in [-9, 9], then small ones that are dense, sparse, rank-deficient,
    a single row or column, or zero, with entries up to 10**6."""
    rng = random.Random("snf-runs")
    for rows, cols in ((12, 12), (16, 16), (12, 20), (20, 12)):
        for _ in range(5):
            yield IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    for k in range(1980):
        kind = k % 6
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        if kind == 3:
            rows, cols = (1, rng.randint(1, 9)) if k % 12 == 3 else (rng.randint(1, 9), 1)
        bound = rng.choice((9, 1000, 10 ** 6))
        if kind == 4:
            yield IntMatrix.zeros(rows, cols)
            continue
        density = 0.3 if kind == 1 else 1.0
        if kind == 2:
            rank = rng.randrange(0, min(rows, cols) + 1)
            left = [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rows)]
            right = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rank)]
            yield IntMatrix([[sum(left[i][q] * right[q][j] for q in range(rank))
                              for j in range(cols)] for i in range(rows)], rows=rows, cols=cols)
            continue
        yield IntMatrix([[rng.randint(-bound, bound) if rng.random() < density else 0
                          for _ in range(cols)] for _ in range(rows)])


def _sparse_matrices():
    """Matrices whose zeros persist in U and V: block-diagonal ones with
    blocks of one to five rows and columns, and permutations times
    diagonals (zeros on the diagonal included), on either side."""
    rng = random.Random("snf-sparse")
    for _ in range(150):
        blocks = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rng.randint(2, 4))]
        rows, cols = sum(r for r, _ in blocks), sum(c for _, c in blocks)
        data = [[0] * cols for _ in range(rows)]
        top = left = 0
        bound = rng.choice((9, 1000))
        for r, c in blocks:
            for i in range(top, top + r):
                for j in range(left, left + c):
                    data[i][j] = rng.randint(-bound, bound)
            top, left = top + r, left + c
        yield IntMatrix(data)
    for k in range(150):
        n = rng.randint(2, 12)
        diag = [rng.choice((0, 1, rng.randint(-1000, 1000))) for _ in range(n)]
        perm = rng.sample(range(n), n)
        yield IntMatrix([[diag[j if k % 2 else i] if perm[i] == j else 0 for j in range(n)]
                         for i in range(n)])


def test_snf_matches_the_step_by_step_reference():
    """`snf` works each Euclid run out on two scalars and applies it once,
    and a single subtraction only where the pivot line is nonzero; U, D, V
    and the row operations equal the step-by-step reference's on inputs
    with row runs of 16 steps or more, column runs of at least a
    subtraction, a swap and a subtraction, single clears against pivot
    lines with zeros in D and U and in V, and single clears after the
    pivot line changed in the same loop."""
    longest_row_run = longest_col_run = 0
    counts = Counter()
    for strategy in PIVOT_STRATEGIES:
        for a in chain(_run_matrices(), _sparse_matrices()):
            dec = snf(a, strategy)
            expected, row_runs, col_runs, clears = _snf_step_by_step(a, strategy)
            assert (dec.u.data, dec.d.data, dec.v.data, dec.row_ops) == expected, (a, strategy)
            longest_row_run = max(longest_row_run, *row_runs, 0)
            longest_col_run = max(longest_col_run, *col_runs, 0)
            counts += clears
    assert longest_row_run >= 16
    assert longest_col_run >= 3
    assert counts["sparse_row"] and counts["sparse_v"] and counts["after_change"], counts
