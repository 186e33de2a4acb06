"""Integer-backend module tests.

Brute-force oracles live beside the tests: explicit element models of finite
groups decide annihilators, associated primes, homomorphism counts and
images, independently of the closed formulas under test.
"""

import math
import random
from itertools import product

import pytest
from torsion_reference import presented

from modlat.intlinalg import (
    IntMatrix,
    column_basis,
    hstack,
    kernel_basis,
    snf,
    solve,
    solve_echelon,
)
from modlat.spectrum import PrimeId, SpecSubset, Z_BACKEND
from modlat.zmodules import (
    INFINITY,
    IdealZ,
    ZModule,
    ZModuleMap,
    ann,
    ass,
    cokernel,
    coprimary_chain,
    coprimary_components,
    cyclic_filtration,
    dim,
    direct_sum,
    ext1,
    filtration_steps,
    from_presentation,
    grade_ideal,
    grade_module,
    height_ann,
    hom,
    identity_map,
    image,
    is_torsion,
    is_torsionfree,
    kernel,
    length,
    presentation_matrix,
    rank,
    scalar_map,
    subgroup_lattice,
    supp,
    torsion_submodule,
)


def zp(p):
    return PrimeId.z_maximal(p)


# -- element-level oracle ----------------------------------------------------


class GroupModel:
    """Explicit model of the torsion part: tuples modulo the factors."""

    def __init__(self, module: ZModule):
        assert module.free_rank == 0
        self.orders = module.torsion
        self.elements = list(product(*(range(d) for d in self.orders)))

    def scale(self, c, e):
        return tuple((c * x) % d for x, d in zip(e, self.orders))

    def zero(self):
        return (0,) * len(self.orders)

    def element_annihilator(self, e):
        n = 1
        while self.scale(n, e) != self.zero():
            n += 1
        return n


def test_canonical_form_normalization():
    assert ZModule.from_cyclic_orders(0, [4, 3]) == ZModule(0, (12,))
    assert ZModule.from_cyclic_orders(0, [2, 6]) == ZModule(0, (2, 6))
    assert ZModule.from_cyclic_orders(0, [6, 4]) == ZModule(0, (2, 12))
    assert ZModule.from_cyclic_orders(2, [1, 1]) == ZModule.free(2)
    assert ZModule.cyclic(0) == ZModule.free(1)
    assert ZModule.cyclic(1) == ZModule.zero()
    with pytest.raises(ValueError):
        ZModule(0, (4, 2))
    with pytest.raises(ValueError):
        ZModule(0, (1,))


def test_from_presentation_examples():
    assert from_presentation(IntMatrix([[12]])) == ZModule(0, (12,))
    assert from_presentation(IntMatrix([[], []], rows=2, cols=0)) == ZModule.free(2)
    assert from_presentation(IntMatrix([[2, 0], [0, 3]])) == ZModule(0, (6,))


def test_ann_examples():
    assert ann(ZModule.free(1)) == IdealZ(0)
    assert ann(ZModule.zero()) == IdealZ(1)
    m = ZModule(0, (2, 12))
    assert ann(m) == IdealZ(12)
    # oracle: the least positive integer killing every element of the model
    model = GroupModel(m)
    killer = max(model.element_annihilator(e) for e in model.elements)
    assert math.lcm(*(model.element_annihilator(e) for e in model.elements)) == 12
    assert killer == 12


def test_supp_examples():
    assert supp(ZModule.free(1)).is_whole()
    assert supp(ZModule.zero()) == SpecSubset.empty(Z_BACKEND)
    s = supp(ZModule.cyclic(12))
    assert s == SpecSubset.closure([zp(2), zp(3)])
    # localization vanishing oracle: Z/12 localized at p is nonzero exactly
    # when p divides 12, because inverting everything prime to p kills the
    # coprime part
    for p, expected in ((2, True), (3, True), (5, False)):
        assert s.contains(zp(p)) == expected


def test_ass_examples():
    assert ass(ZModule.cyclic(5)) == SpecSubset.explicit([zp(5)])
    assert ass(ZModule.zero()) == SpecSubset.explicit([], backend=Z_BACKEND)
    m = ZModule.from_cyclic_orders(1, [12])
    got = ass(m)
    assert got == SpecSubset.explicit([PrimeId.z_generic(), zp(2), zp(3)])
    # oracle: annihilators of elements of a bounded model of Z + Z/12;
    # free coordinates bounded by 3 suffice to witness the generic prime
    annihilators = set()
    model = GroupModel(ZModule.cyclic(12))
    for a in range(-3, 4):
        for (b,) in model.elements:
            if a != 0:
                annihilators.add(0)
            elif b != 0:
                annihilators.add(model.element_annihilator((b,)))
    primes = {n for n in annihilators if n == 0 or all(
        n % k for k in range(2, n))}
    expected = {0, 2, 3}
    assert primes == expected


def test_invariants_examples():
    m = ZModule.cyclic(4)
    assert (rank(m), length(m), dim(m), height_ann(m)) == (0, 2, 0, 1)
    f = ZModule.free(1)
    assert (rank(f), length(f), dim(f), height_ann(f)) == (1, INFINITY, 1, 0)
    z = ZModule.zero()
    assert (rank(z), length(z), dim(z)) == (0, 0, None)
    assert height_ann(z) == INFINITY


def test_grade_ideal_examples():
    assert grade_ideal(IdealZ(2), ZModule.free(1)) == 1
    assert grade_ideal(IdealZ(2), ZModule.cyclic(2)) == 0
    assert grade_ideal(IdealZ(2), ZModule.cyclic(3)) == INFINITY
    assert grade_ideal(IdealZ(1), ZModule.cyclic(3)) == INFINITY
    assert grade_ideal(IdealZ(0), ZModule.cyclic(3)) == 0
    assert grade_ideal(IdealZ(0), ZModule.zero()) == INFINITY


def hom_count_oracle(m: ZModule, n: ZModule) -> int:
    """Number of homomorphisms, counted on explicit torsion models."""
    assert m.free_rank == 0
    model = GroupModel(n) if n.free_rank == 0 else None
    count = 1
    for d in m.torsion:
        if n.free_rank:
            return 0 if d else None
        valid = [e for e in model.elements if model.scale(d, e) == model.zero()]
        count *= len(valid)
    return count


def test_hom_examples():
    assert hom(ZModule.cyclic(2), ZModule.cyclic(4)) == ZModule.cyclic(2)
    assert hom_count_oracle(ZModule.cyclic(2), ZModule.cyclic(4)) == 2
    assert hom(ZModule.free(1), ZModule.cyclic(12)) == ZModule.cyclic(12)
    assert hom(ZModule.cyclic(4), ZModule.free(2)) == ZModule.zero()


def test_hom_matches_oracle_on_random_torsion_pairs():
    rng = random.Random("hom")
    for _ in range(40):
        m = ZModule.from_cyclic_orders(0, [rng.choice((2, 3, 4, 6)) for _ in
                                           range(rng.randrange(3))])
        n = ZModule.from_cyclic_orders(0, [rng.choice((2, 3, 4, 9)) for _ in
                                           range(rng.randrange(3))])
        assert hom(m, n).torsion_order() == hom_count_oracle(m, n)


def test_ext_examples():
    assert ext1(ZModule.cyclic(2), ZModule.free(1)) == ZModule.cyclic(2)
    assert ext1(ZModule.free(3), ZModule.cyclic(12)) == ZModule.zero()
    # oracle: extensions of Z/2 by Z correspond to two-generator
    # presentations [a, c | 2c = eps*a]; eps = 0 and eps = 1 are inequivalent
    middles = set()
    for eps in (0, 1):
        pres = IntMatrix([[-eps], [2]])
        middles.add(from_presentation(pres))
    assert middles == {ZModule.free(1), ZModule.from_cyclic_orders(1, [2])}


def test_torsion_submodule_examples():
    assert torsion_submodule(IdealZ(2), ZModule.cyclic(12)) == ZModule.cyclic(4)
    assert torsion_submodule(IdealZ(5), ZModule.cyclic(12)) == ZModule.zero()
    assert is_torsionfree(IdealZ(5), ZModule.cyclic(12))
    m = ZModule.cyclic(6)
    assert torsion_submodule(IdealZ(0), m) == m
    # oracle on the model: elements killed by a power of 2 inside Z/12
    model = GroupModel(ZModule.cyclic(12))
    killed = [e for e in model.elements if model.scale(4, e) == model.zero()]
    assert len(killed) == torsion_submodule(IdealZ(2), ZModule.cyclic(12)).torsion_order()


def test_grade_module():
    assert grade_module(ZModule.free(1), ZModule.cyclic(9)) == 0
    assert grade_module(ZModule.cyclic(2), ZModule.free(1)) == 1
    assert grade_module(direct_sum(ZModule.cyclic(2), ZModule.cyclic(3)),
                        ZModule.cyclic(3)) == 0
    with pytest.raises(ValueError):
        grade_module(ZModule.zero(), ZModule.free(1))


def test_map_validation_and_reduction():
    with pytest.raises(ValueError):
        # torsion cannot map to a free generator
        ZModuleMap(ZModule.cyclic(2), ZModule.free(1), IntMatrix([[1]]))
    f = ZModuleMap(ZModule.cyclic(2), ZModule.cyclic(4), IntMatrix([[6]]))
    assert f.matrix.to_lists() == [[2]]
    with pytest.raises(ValueError):
        ZModuleMap(ZModule.cyclic(2), ZModule.cyclic(4), IntMatrix([[1]]))


def test_kernel_cokernel_image_examples():
    m = ZModule.from_cyclic_orders(0, [4])
    assert kernel(identity_map(m)) == ZModule.zero()
    assert cokernel(scalar_map(2, ZModule.free(1))) == ZModule.cyclic(2)
    f = ZModuleMap(ZModule.free(1), ZModule.cyclic(4), IntMatrix([[2]]))
    assert image(f) == ZModule.cyclic(2)
    # oracle: the image of 1 -> 2 inside a model of Z/4
    model = GroupModel(ZModule.cyclic(4))
    img = {model.scale(k, (2,)) for k in range(4)}
    assert len(img) == 2
    assert kernel(f) == ZModule.free(1)
    # maps into Z, from free modules, and from or to the zero module
    z = ZModule.free(1)
    assert kernel(ZModuleMap(ZModule.free(2), z, IntMatrix([[2, 3]]))) == z
    g = ZModuleMap(ZModule(1, (6,)), z, IntMatrix([[0, 5]]))
    assert kernel(g) == ZModule.cyclic(6) and image(g) == z
    g = ZModuleMap(ZModule.free(2), ZModule.cyclic(4), IntMatrix([[2, 6]]))
    assert kernel(g) == ZModule.free(2) and image(g) == ZModule.cyclic(2)
    assert kernel(ZModuleMap(ZModule.zero(), z, IntMatrix.zeros(1, 0))) == ZModule.zero()
    assert kernel(ZModuleMap(ZModule(0, (2, 4)), ZModule.zero(),
                             IntMatrix.zeros(0, 2))) == ZModule(0, (2, 4))


def test_kernel_cokernel_consistency_random():
    rng = random.Random("maps")
    mods = [ZModule.zero(), ZModule.free(1), ZModule.cyclic(2),
            ZModule.cyclic(4), ZModule.from_cyclic_orders(1, [2]),
            ZModule.from_cyclic_orders(0, [2, 4])]
    for _ in range(60):
        m, n = rng.choice(mods), rng.choice(mods)
        rows, cols = n.generator_count, m.generator_count
        tgt_orders = n.generator_orders
        src_orders = m.generator_orders
        mat = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                d, e = src_orders[j], tgt_orders[i]
                if d == 0 or (e != 0 and (d * 1) % e == 0):
                    mat[i][j] = rng.randrange(e if e else 5)
                # otherwise leave zero: always a legal entry
        f = ZModuleMap(m, n, IntMatrix(mat, rows=rows, cols=cols))
        k, c, im = kernel(f), cokernel(f), image(f)
        # rank bookkeeping: rank m = rank ker + rank im,
        # rank n = rank im + rank coker
        assert m.free_rank == k.free_rank + im.free_rank
        assert n.free_rank == im.free_rank + c.free_rank
        # finite parts: |ker|*|im| = |m| and |im|*|coker| = |n| when all finite
        if m.free_rank == 0 and n.free_rank == 0:
            assert k.torsion_order() * im.torsion_order() == m.torsion_order()
            assert im.torsion_order() * c.torsion_order() == n.torsion_order()


def _random_map(rng, m, n):
    """A map m -> n with random entries that respect the source relations."""
    rows = []
    for e in n.generator_orders:
        row = []
        for d in m.generator_orders:
            if d == 0:
                row.append(rng.randint(-20, 20))
            elif e == 0:
                row.append(0)
            else:
                row.append(e // math.gcd(d, e) * rng.randint(-4, 4))
        rows.append(row)
    return ZModuleMap(m, n, IntMatrix(rows, rows=n.generator_count,
                                      cols=m.generator_count))


def _domain_lattice(f):
    """Basis of {v : f(v) lies in the target relations}, through a kernel
    basis of [A | R_N] (the transform path)."""
    ker = kernel_basis(hstack(f.matrix, presentation_matrix(f.target)))
    gs = f.source.generator_count
    return column_basis(IntMatrix(ker.data[:gs], rows=gs, cols=ker.cols))


def _kernel_by_two_diagonals(f):
    """ker f as the cone's H_1 with both Smith forms taken in full, the
    rank of [A | R_N] read off its own diagonal."""
    s, t = f.source.torsion, f.target.torsion
    d2 = IntMatrix([list(row) for row in presentation_matrix(f.source).data] + [
        [-(f.matrix[i, j] * s[j] // t[i]) for j in range(len(s))] for i in range(len(t))],
        rows=f.source.generator_count + len(t), cols=len(s))
    h = presented(d2)
    d1 = hstack(f.matrix, presentation_matrix(f.target))
    return ZModule(h.free_rank - sum(1 for x in snf(d1).diagonal() if x), h.torsion)


def test_kernel_and_image_match_transform_path():
    rng = random.Random("cone-kernel")
    edge = [ZModule.zero(), ZModule.free(1), ZModule.free(2), ZModule.cyclic(6),
            ZModule.from_cyclic_orders(1, [4]), ZModule.from_cyclic_orders(0, [2, 12])]
    pairs = [(m, n) for m in edge for n in edge]
    for _ in range(300):
        pairs.append(tuple(
            ZModule.from_cyclic_orders(rng.randrange(3), [
                rng.randint(2, 27) for _ in range(rng.randrange(4))])
            for _ in range(2)))
    for _ in range(60):  # free targets, where A_free is all of A
        pairs.append((ZModule.from_cyclic_orders(rng.randrange(4), [
            rng.randint(2, 27) for _ in range(rng.randrange(3))]),
            ZModule.free(rng.randint(1, 3))))
    for m, n in pairs:
        zero = ZModuleMap(m, n, IntMatrix.zeros(n.generator_count, m.generator_count))
        for f in (_random_map(rng, m, n), _random_map(rng, m, n), zero):
            lattice = _domain_lattice(f)
            assert kernel(f) == presented(
                solve(lattice, presentation_matrix(m))), (m, n, f.matrix)
            assert kernel(f) == _kernel_by_two_diagonals(f), (m, n, f.matrix)
            assert cokernel(f) == presented(
                hstack(f.matrix, presentation_matrix(n))), (m, n, f.matrix)
            assert image(f) == presented(lattice), (m, n, f.matrix)
            target_lattice = subgroup_lattice(n, f.matrix)
            assert image(f) == presented(solve_echelon(
                target_lattice, presentation_matrix(n))), (m, n, f.matrix)


def test_cyclic_filtration_examples():
    assert cyclic_filtration(ZModule.cyclic(6)) == (IdealZ(6),)
    assert cyclic_filtration(ZModule.free(2)) == (IdealZ(0), IdealZ(0))
    assert cyclic_filtration(ZModule(0, (2, 4))) == (IdealZ(2), IdealZ(4))
    steps = filtration_steps(ZModule(0, (2, 4)))
    assert steps == (ZModule(0, (2, 4)), ZModule.cyclic(4), ZModule.zero())


def _filtration_steps_by_popping(m):
    """The steps as built before they were read off the canonical chain:
    drop the first generator order, then canonicalize what is left."""
    steps = [m]
    orders = list(m.generator_orders)
    while orders:
        orders.pop(0)
        rank = sum(1 for d in orders if d == 0)
        steps.append(ZModule.from_cyclic_orders(rank, [d for d in orders if d]))
    return tuple(steps)


def test_filtration_steps_match_popping_and_recanonicalizing():
    rng = random.Random("filtration-steps")
    for _ in range(400):
        m = ZModule.from_cyclic_orders(
            rng.randrange(4),
            [rng.choice((2, 3, 5)) ** rng.randrange(1, 4) for _ in range(rng.randrange(7))])
        assert filtration_steps(m) == _filtration_steps_by_popping(m), m


def test_coprimary_components_examples():
    comps = coprimary_components(ZModule.from_cyclic_orders(1, [12]))
    assert comps == (
        (PrimeId.z_generic(), ZModule.free(1)),
        (zp(2), ZModule.cyclic(4)),
        (zp(3), ZModule.cyclic(3)),
    )
    assert coprimary_components(ZModule.cyclic(5)) == ((zp(5), ZModule.cyclic(5)),)
    assert coprimary_components(ZModule.zero()) == ()


def test_coprimary_chain_examples():
    assert coprimary_chain(ZModule.cyclic(4), zp(2)) == (
        ZModule.cyclic(4), ZModule.cyclic(2), ZModule.zero())
    assert coprimary_chain(ZModule.cyclic(3), zp(3)) == (
        ZModule.cyclic(3), ZModule.zero())
    sq = ZModule.from_cyclic_orders(0, [2, 2])
    assert coprimary_chain(sq, zp(2)) == (sq, ZModule.zero())
    with pytest.raises(ValueError):
        coprimary_chain(ZModule.cyclic(6), zp(2))
    with pytest.raises(ValueError):
        coprimary_chain(ZModule.free(1), zp(2))


def random_module(rng):
    return ZModule.from_cyclic_orders(
        rng.randrange(3),
        [rng.choice((2, 3, 4, 5, 8, 9)) for _ in range(rng.randrange(3))],
    )


def test_ass_inside_supp_and_minimal_primes():
    rng = random.Random("asssupp")
    for _ in range(80):
        m = random_module(rng)
        a, s = ass(m), supp(m)
        for p in a.generators:
            assert s.contains(p)
        # generators of the support (minimal primes) are associated
        if not s.is_whole():
            for p in s.generators:
                assert a.contains(p)
        else:
            assert a.contains(PrimeId.z_generic())


def test_additivity_over_sums():
    rng = random.Random("additive")
    for _ in range(40):
        m, n = random_module(rng), random_module(rng)
        s = direct_sum(m, n)
        assert ass(s) == SpecSubset.explicit(
            ass(m).generators | ass(n).generators, backend=Z_BACKEND)
        assert supp(s) == supp(m).join(supp(n))


def test_hom_vanishing_grade_torsion_equivalence():
    # Hom(R/I, M) = 0, grade(I, M) >= 1 and the I-torsion part vanishing are
    # one and the same condition, computed through different routes
    rng = random.Random("vanish")
    for _ in range(120):
        m = random_module(rng)
        n = rng.choice((0, 1, 2, 3, 4, 6, 12, 30))
        ideal = IdealZ(n)
        if n == 1:
            continue
        hom_zero = hom(ZModule.cyclic(n), m).is_zero()
        positive_grade = grade_ideal(ideal, m) >= 1
        torsion_free = is_torsionfree(ideal, m)
        assert hom_zero == positive_grade == torsion_free


def test_rank_zero_hom_grade_equivalence():
    rng = random.Random("rank0")
    one = ZModule.free(1)
    for _ in range(80):
        m = random_module(rng)
        rank_zero = rank(m) == 0
        hom_zero = hom(m, one).is_zero()
        positive = m.is_zero() or grade_module(m, one) > 0
        assert rank_zero == hom_zero == positive


def test_presentation_matrix_shape():
    m = ZModule.from_cyclic_orders(2, [2, 6])
    pm = presentation_matrix(m)
    assert pm.shape == (4, 2)
    assert from_presentation(pm) == m


def test_is_torsion_predicate():
    # a power of 6 kills all of Z/12, but no power of 2 kills the 3-part
    assert is_torsion(IdealZ(6), ZModule.cyclic(12)) is True
    assert is_torsion(IdealZ(2), ZModule.cyclic(12)) is False
    assert is_torsion(IdealZ(12), ZModule.cyclic(12)) is True
    assert is_torsion(IdealZ(6), ZModule.from_cyclic_orders(0, [2, 6]))


def test_factorize_cache_is_bounded_and_results_are_fresh():
    from modlat import zmodules

    first = zmodules.factorize(360)
    assert first == {2: 3, 3: 2, 5: 1}
    first[2] = 99
    assert zmodules.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert zmodules.factorize(1) == {}
    assert zmodules.factorize(97) == {97: 1}
    with pytest.raises(ValueError):
        zmodules.factorize(0)
    assert zmodules._prime_powers.cache_info().maxsize is not None


def _factor_by_every_divisor(n):
    out, d = {}, 2
    while n > 1:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
        if d * d > n > 1:
            out[n] = out.get(n, 0) + 1
            break
    return out


def test_factorize_matches_trial_division_by_every_divisor():
    from modlat import zmodules

    rng = random.Random(1601)
    for n in [1, 2, 10 ** 7] + [rng.randint(1, 10 ** 7) for _ in range(300)]:
        assert zmodules.factorize(n) == _factor_by_every_divisor(n), n


def test_factorize_past_the_trial_limit():
    from modlat import zmodules

    assert zmodules.TRIAL_DIVISION_LIMIT == 10 ** 6
    # a prime cofactor past the limit, certified by Miller-Rabin
    assert zmodules.factorize(12 * 10000000000000000051) == {
        2: 2, 3: 1, 10000000000000000051: 1}
    # powers of a certified prime above the limit, found by integer roots
    assert zmodules.factorize(1000003 ** 2) == {1000003: 2}
    assert zmodules.factorize(12 * 1000003 ** 5) == {2: 2, 3: 1, 1000003: 5}
    assert zmodules.factorize(10000000000000000051 ** 3) == {10000000000000000051: 3}
    # the two primes above the limit leave a composite cofactor
    with pytest.raises(ValueError, match="^cannot factor 1000036000099: "):
        zmodules.factorize(1000003 * 1000033)
    # a square whose root is that composite
    square = (1000003 * 1000033) ** 2
    with pytest.raises(ValueError, match=f"^cannot factor {square}: its cofactor {square} "):
        zmodules.factorize(square)
    # psi_12 passes the twelve Miller-Rabin bases, so it is not certified
    with pytest.raises(ValueError, match="^cannot factor 318665857834031151167461: "):
        zmodules.factorize(318665857834031151167461)
