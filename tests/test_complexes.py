"""Free complex and Koszul tests."""

import random
from itertools import combinations
from math import comb, gcd

import pytest
from torsion_reference import presented

from modlat.complexes import (
    FreeComplex,
    complex_support,
    homology,
    homology_table,
    koszul_complex,
    koszul_cyclic_check,
    thick_member,
)
from modlat.intlinalg import (
    IntMatrix,
    _diagonal_modulo,
    invert_unimodular,
    kernel_basis,
    smith_diagonal,
    solve,
)
from modlat.spectrum import PrimeId, SpecSubset, Z_BACKEND
from modlat.zmodules import ZModule, cyclic_filtration, supp


def change_basis(complex_: FreeComplex, transforms) -> FreeComplex:
    """Conjugate each degree by a unimodular basis change.

    transforms[k] is the new-basis matrix in degree bottom_degree + k; the
    differentials become P_{k}^(-1) d P_{k+1}.
    """
    transforms = list(transforms)
    if len(transforms) != len(complex_.ranks):
        raise ValueError("one transform per degree required")
    new_diffs = []
    for k, d in enumerate(complex_.differentials):
        new_diffs.append(invert_unimodular(transforms[k]) @ d @ transforms[k + 1])
    return FreeComplex(complex_.bottom_degree, complex_.ranks, tuple(new_diffs))


def test_koszul_rank_one():
    k = koszul_complex([2])
    assert k.ranks == (1, 1)
    assert k.differentials[0].to_lists() == [[2]]


def test_koszul_two_elements():
    k = koszul_complex([2, 4])
    assert k.ranks == (1, 2, 1)
    assert k.differentials[0].to_lists() == [[2, 4]]
    assert k.differentials[1].to_lists() == [[-4], [2]]
    assert (k.differentials[0] @ k.differentials[1]).is_zero()


def test_koszul_zero_element():
    k = koszul_complex([0])
    assert homology(k, 0) == ZModule.free(1)
    assert homology(k, 1) == ZModule.free(1)


def test_koszul_differentials_compose_to_zero():
    """`koszul_complex` does not multiply its differentials, so this is the
    check that they compose to zero."""
    rng = random.Random("koszul-d2")
    sequences = [[rng.randint(-9, 9) for _ in range(rng.randrange(1, 5))] for _ in range(20)]
    for length in range(5, 9):
        sequences.append([rng.randint(-99, 99) for _ in range(length)])
        sequences.append([rng.randrange(-10 ** 20, 10 ** 20) for _ in range(length)])
    for xs in sequences:
        k = koszul_complex(xs)
        assert len(k.differentials) == len(xs)
        for a, b in zip(k.differentials, k.differentials[1:]):
            assert (a @ b).is_zero()


def _lattice_scale_sequences(rng):
    """Koszul inputs shaped like the lattice-scale benchmark's: length 5 with
    two-digit terms, plain and with a common factor, and length 6 with
    one-digit multiples of 2 or 3."""
    out = [tuple(rng.randint(10, 99) for _ in range(5)) for _ in range(6)]
    for g in (2, 3, 5, 6, 7):
        out.append(tuple(g * rng.randint(-(-10 // g), 99 // g) for _ in range(5)))
    for g in (2, 3):
        out.append(tuple(g * rng.randint(1, 9 // g) for _ in range(6)))
    return out


def test_koszul_known_pairs_give_smith_diagonals():
    """`smith_diagonal` reads its modulus off an echelon basis; it agrees with
    the diagonal modulo the known modulus on lattice-scale's sequences, the
    length-8 one that once ran for minutes, and three of 20-digit terms."""
    sequences = _lattice_scale_sequences(random.Random("koszul-known-diagonals"))
    sequences.append((39, 57, 58, 26, 34, 15, 20, 27))
    rng = random.Random("koszul-digits:20")
    sequences += [tuple(rng.randrange(10 ** 19, 10 ** 20) for _ in range(8)) for _ in range(3)]
    for seq in sequences:
        k = koszul_complex(seq)
        for d, pair in zip(k.differentials, k._known):
            assert _diagonal_modulo(d, *pair) == smith_diagonal(d), seq
        assert homology_table(k) == _closed_form(seq)


# Eight 20-digit terms with gcd g = 6007 * 6221 * 8629 * 9857, each a
# multiple of g and of one of its primes: modulo a power of g no entry of a
# differential is a unit, before or after g is divided out.
SHARED_PRIME_QUOTIENTS = (
    95466432822497359685, 39546973769852244022, 54854659485622088678,
    31330535319838737287, 76373146257997887748, 59320460654778366033,
    27427329742811044339, 93991605959516211861)


def test_koszul_modulus_is_a_power_of_the_gcd(monkeypatch):
    """The modulus of every d_i is g = g^1, the gcd of the terms and d_i's
    largest invariant factor: 1 when two terms are coprime, or when no term
    is coprime to another but the gcd is 1.  g divides every entry, so the
    diagonal modulo g is (g,) * rank with no elimination, even when every
    term's quotient by g shares a prime with g; the homology is the closed
    form (Z/g)^C(r-1, i)."""
    from modlat import intlinalg

    assert koszul_complex([0, 6, -10, 9])._known[0] == (1, 1)
    assert koszul_complex([0, -1, 0])._known[2] == (1, 1)
    # every pair of multiples of 6, 10 and 15 shares a prime, and g = 1
    assert koszul_complex([-30, 12, 20, 45])._known == ((1, 1), (3, 1), (3, 1), (1, 1))
    assert koszul_complex([10, -6, 15])._known[1] == (2, 1)
    assert koszul_complex([6, -10, 14])._known == ((1, 2), (2, 2), (1, 2))
    assert koszul_complex([8])._known == ((1, 8),)
    assert koszul_complex([0, 0])._known == ((0, 1), (0, 1))
    searched = []  # every elimination step, and so every split modulus, starts here
    real = intlinalg._find_unit
    monkeypatch.setattr(intlinalg, "_find_unit", lambda *args: searched.append(args) or real(*args))
    g = 6007 * 6221 * 8629 * 9857
    assert gcd(*SHARED_PRIME_QUOTIENTS) == g
    assert all(gcd(x // g, g) > 1 for x in SHARED_PRIME_QUOTIENTS)
    k = koszul_complex(SHARED_PRIME_QUOTIENTS)
    assert k._known == tuple((comb(7, i), g) for i in range(8))
    for d, (rank, modulus) in zip(k.differentials, k._known):
        assert _diagonal_modulo(d, rank, modulus) == (g,) * rank + (0,) * (min(d.shape) - rank)
    assert homology_table(k) == _closed_form(SHARED_PRIME_QUOTIENTS)
    assert not searched


def test_koszul_differentials_follow_the_contraction_formula():
    """Every entry of d_i, built from the cached skeleton of its length,
    against d(e_J) = sum_k (-1)^k x_(j_k) e_(J without j_k), k from 0; the
    skeleton cache has a fixed bound."""
    from modlat import complexes

    rng = random.Random("koszul-formula")
    for length in range(1, 7):
        for _ in range(2):
            xs = [rng.randint(-50, 50) for _ in range(length)]
            k = koszul_complex(xs)
            for i, d in enumerate(k.differentials, 1):
                faces = list(combinations(range(length), i - 1))
                expected = [[0] * comb(length, i) for _ in faces]
                for col, sub in enumerate(combinations(range(length), i)):
                    for pos, j in enumerate(sub):
                        row = faces.index(sub[:pos] + sub[pos + 1:])
                        expected[row][col] = (-1) ** pos * xs[j]
                assert d.to_lists() == expected, (xs, i)
    info = complexes._koszul_skeleton.cache_info()
    assert info.maxsize == complexes.KOSZUL_SKELETONS and info.hits


def test_homology_examples():
    assert homology(koszul_complex([2]), 0) == ZModule.cyclic(2)
    k24 = koszul_complex([2, 4])
    # oracle: cycles of [2 4] are spanned by (-2, 1); the boundary (-4, 2)
    # is twice that, so the quotient has order two
    assert homology(k24, 1) == ZModule.cyclic(2)
    assert homology(koszul_complex([2]), 5) == ZModule.zero()


def test_homology_invariant_under_basis_change():
    rng = random.Random("basis")
    k = koszul_complex([2, 6, 5])
    for _ in range(5):
        transforms = []
        for r in k.ranks:
            m = IntMatrix.identity(r)
            for _ in range(2 * r):
                i, j = rng.randrange(r), rng.randrange(r)
                if i == j:
                    continue
                e = [[1 if a == b else 0 for b in range(r)] for a in range(r)]
                e[i][j] = rng.randint(-2, 2)
                m = m @ IntMatrix(e)
            transforms.append(m)
        other = change_basis(k, transforms)
        for degree in k.degrees():
            assert homology(other, degree) == homology(k, degree)


def test_complex_validation():
    with pytest.raises(ValueError):
        FreeComplex(0, (1, 1), (IntMatrix([[2, 3]]),))
    with pytest.raises(ValueError):
        # differentials that do not compose to zero
        FreeComplex(0, (1, 1, 1), (IntMatrix([[2]]), IntMatrix([[3]])))
    # The public constructor checks a Koszul complex too, and knows no pairs.
    k = koszul_complex([6, 10, 15])
    public = FreeComplex(k.bottom_degree, k.ranks, k.differentials)
    assert public == k and public._known == () and len(k._known) == 3
    assert homology_table(public) == homology_table(k)
    with pytest.raises(ValueError):
        rows = k.differentials[1].to_lists()
        rows[0][0] += 1
        FreeComplex(0, k.ranks, (k.differentials[0], IntMatrix(rows), k.differentials[2]))


def test_koszul_cyclic_check_examples():
    r = koszul_cyclic_check(2, [2])
    assert r.passed
    assert dict(r.homology)[0] == ZModule.cyclic(2)
    assert dict(r.homology)[1] == ZModule.zero()

    r = koszul_cyclic_check(2, [2, 4])
    assert r.passed
    assert dict(r.homology)[1] == ZModule.cyclic(2)

    r = koszul_cyclic_check(1, [2, 3])
    assert r.passed
    assert all(h.is_zero() for _, h in r.homology)

    with pytest.raises(ValueError):
        koszul_cyclic_check(3, [2, 4])
    with pytest.raises(ValueError):
        koszul_cyclic_check(1, [])


def test_koszul_terms_must_be_integers():
    for bad in ([2.7, 4], [2, 4.0], ["2", 4]):
        with pytest.raises(TypeError):
            koszul_complex(bad)
        with pytest.raises(TypeError):
            koszul_cyclic_check(2, bad)
    with pytest.raises(TypeError):
        koszul_cyclic_check(2.0, [2, 4])
    # anything with __index__ is taken, and any iterable of terms
    assert homology_table(koszul_complex([True, 4])) == homology_table(koszul_complex([1, 4]))
    assert koszul_cyclic_check(2, (x for x in [2, 4])).passed


def test_koszul_cyclic_random():
    rng = random.Random("gfsuite")
    for _ in range(100):
        gens = [rng.randint(-20, 20) for _ in range(rng.randrange(1, 5))]
        n = 0
        for x in gens:
            n = gcd(n, x)
        assert koszul_cyclic_check(n, gens).passed


def test_thick_member_examples():
    s2 = SpecSubset.closure([PrimeId.z_maximal(2)])
    s3 = SpecSubset.closure([PrimeId.z_maximal(3)])
    k2 = koszul_complex([2])
    assert thick_member(k2, s2)
    assert not thick_member(k2, s3)
    exact = koszul_complex([2, 3])
    assert thick_member(exact, s3)
    assert thick_member(exact, SpecSubset.empty(Z_BACKEND))
    with pytest.raises(ValueError):
        thick_member(k2, SpecSubset.explicit([PrimeId.z_generic()]))


def test_complex_support_examples():
    assert complex_support(koszul_complex([6])) == SpecSubset.closure(
        [PrimeId.z_maximal(2), PrimeId.z_maximal(3)])
    assert complex_support(koszul_complex([2, 3])) == SpecSubset.empty(Z_BACKEND)
    assert complex_support(koszul_complex([0])).is_whole()


def test_probe_family_reproduces_closed_subsets():
    # the membership class of a closed subset, probed with the Koszul
    # complexes of its generators, has support join exactly the subset
    from itertools import combinations

    for size in range(4):
        for combo in combinations((2, 3, 5), size):
            subset = SpecSubset.closure(
                [PrimeId.z_maximal(p) for p in combo], backend=Z_BACKEND)
            probes = [koszul_complex([p]) for p in combo]
            assert all(thick_member(c, subset) for c in probes)
            joined = SpecSubset.empty(Z_BACKEND)
            for c in probes:
                joined = joined.join(complex_support(c))
            assert joined == subset


def test_filtration_koszul_supports_join_to_module_support():
    # the cyclic filtration of a torsion module feeds Koszul complexes whose
    # supports join to the module's support
    rng = random.Random("pipeline")
    for _ in range(40):
        m = ZModule.from_cyclic_orders(
            0, [rng.choice((2, 3, 4, 9, 12)) for _ in range(rng.randrange(1, 4))])
        joined = SpecSubset.empty(Z_BACKEND)
        for ideal in cyclic_filtration(m):
            joined = joined.join(complex_support(koszul_complex([ideal.n])))
        assert joined == supp(m)


def test_homology_table_degrees():
    k = koszul_complex([4, 6])
    table = homology_table(k)
    assert sorted(table) == [0, 1, 2]
    assert table[0] == ZModule.cyclic(2)


def _closed_form(sequence):
    """H_i of a Koszul complex is (Z/g)^C(r-1, i), with g the gcd of the
    length-r sequence (nonzero): over Z the sequence is unimodularly
    equivalent to (g, 0, ..., 0)."""
    g = 0
    for x in sequence:
        g = gcd(g, x)
    r = len(sequence)
    return {i: ZModule.from_cyclic_orders(0, [g] * comb(r - 1, i))
            for i in range(r + 1)}


@pytest.mark.parametrize("sequence", [
    (39, 57, 58, 26, 34, 15, 20, 27),
    (12, 18, 30, 42, 66, 78, 102, 6),
])
def test_koszul_length_8_closed_form(sequence):
    assert homology_table(koszul_complex(sequence)) == _closed_form(sequence)


def test_koszul_length_7_closed_form():
    rng = random.Random("koszul-7")
    for _ in range(4):
        g = rng.choice((1, 2, 3, 6))
        sequence = tuple(g * rng.randint(-(-10 // g), 99 // g) for _ in range(7))
        assert homology_table(koszul_complex(sequence)) == _closed_form(sequence)


def _kernel_homology(complex_, degree):
    """ker/im through a cycle basis and an integer solve (transform path)."""
    cycles = kernel_basis(complex_.differential(degree))
    return presented(solve(cycles, complex_.differential(degree + 1)))


def test_homology_matches_kernel_path_on_changed_bases():
    rng = random.Random("non-koszul")
    for _ in range(6):
        sequence = [rng.choice((2, 3, 4, 6, 0, 9)) for _ in range(rng.randrange(2, 4))]
        k = koszul_complex(sequence)
        transforms = []
        for r in k.ranks:
            m = IntMatrix.identity(r)
            for _ in range(2 * r):
                i, j = rng.randrange(r), rng.randrange(r)
                if i != j:
                    e = [[int(a == b) for b in range(r)] for a in range(r)]
                    e[i][j] = rng.randint(-3, 3)
                    m = m @ IntMatrix(e)
            transforms.append(m)
        other = change_basis(k, transforms)
        table = homology_table(other)
        for degree in other.degrees():
            expected = _kernel_homology(other, degree)
            assert homology(other, degree) == expected == table[degree]
