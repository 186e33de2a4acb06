"""Acceptance criteria.

Each test runs one criterion at its stated scale with exact (tolerance-zero)
assertions and prints a single pass/fail line.  Run with `pytest -s` to see
the lines as they appear, or read the captured output on failure.
"""

import random
from itertools import combinations

from modlat import suites
from modlat.classify import (
    ass_member,
    ass_union,
    cyclic_prime_quotient,
    supp_member,
)
from modlat.intlinalg import IntMatrix, det, snf
from modlat.oracle import Universe
from modlat.spectrum import (
    PrimeId,
    SpecSubset,
    Z_BACKEND,
    all_monomial_primes,
    monomial_backend,
)
from modlat.suites import random_module

SEED = 2026
UNIVERSE = Universe(primes=(2, 3), max_exponent=2, max_rank=1,
                    max_torsion_factors=2)


def report(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"{status}: criterion {number} - {description}"
    if detail and not passed:
        line += f" [{detail}]"
    print(line)
    assert passed, line


def test_criterion_01_smith_normal_form():
    rng = random.Random(f"{SEED}:c1")
    failures = []
    for t in range(1000):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        a = IntMatrix([[rng.randint(-50, 50) for _ in range(cols)]
                       for _ in range(rows)])
        dec = snf(a)
        if dec.u @ a @ dec.v != dec.d:
            failures.append(f"trial {t}: product mismatch")
            break
        if abs(det(dec.u)) != 1 or abs(det(dec.v)) != 1:
            failures.append(f"trial {t}: non-unimodular transform")
            break
        diag = [x for x in dec.diagonal() if x]
        if any(x < 0 for x in dec.diagonal()) or any(
                b % a_ for a_, b in zip(diag, diag[1:])):
            failures.append(f"trial {t}: bad diagonal {dec.diagonal()}")
            break
        if snf(a, strategy="first_nonzero").diagonal() != dec.diagonal():
            failures.append(f"trial {t}: pivot strategies disagree")
            break
    report(1, "1000 random Smith forms are exact, unimodular, chained, "
              "and strategy-independent", not failures,
           "; ".join(failures))


def _representable_subsets(backend, pool, max_gens=4):
    subsets = []
    for size in range(max_gens + 1):
        for combo in combinations(pool, size):
            subsets.append(SpecSubset.explicit(combo, backend=backend))
    return subsets


def test_criterion_02_ass_bijection_roundtrip():
    rng = random.Random(f"{SEED}:c2")
    failures = []
    cases = [
        (Z_BACKEND,
         [PrimeId.z_generic()] + [PrimeId.z_maximal(p) for p in (2, 3, 5, 7)]),
        (monomial_backend(("x", "y", "z")),
         list(all_monomial_primes(("x", "y", "z")))),
    ]
    for backend, pool in cases:
        subsets = _representable_subsets(backend, pool)
        for subset in subsets:
            probes = [cyclic_prime_quotient(p) for p in subset.generators]
            if ass_union(probes, backend) != subset:
                failures.append(f"probe union missed {subset}")
        closed = [s for s in subsets if s.is_specialization_closed()]
        for _ in range(200):
            m = random_module(rng, backend)
            s = rng.choice(closed)
            if supp_member(m, s) != ass_member(m, s):
                failures.append(f"criteria disagree on {m} vs {s}")
    report(2, "probe families recover every representable subset and both "
              "membership criteria agree on closed subsets", not failures,
           "; ".join(failures[:3]))


def test_criterion_03_adjunctions():
    reports = [suites.adjunction_suite(Z_BACKEND, seed=SEED),
               suites.adjunction_suite(monomial_backend(("x", "y")),
                                       seed=SEED)]
    bad = [c.name for r in reports for c in r.failures()]
    report(3, "adjunction and round-trip checks over the probe lattices are "
              "exhaustive and exact", not bad, "; ".join(bad[:3]))


def test_criterion_04_serre_closure_matches_support_criterion():
    r = suites.serre_closure_suite(UNIVERSE, seed=SEED)
    report(4, "closure under subobjects/quotients/extensions/sums equals "
              "the support criterion for every generator set of size <= 2",
           r.passed, "; ".join(c.detail for c in r.failures())[:300])


def test_criterion_05_subext_closure_matches_ass_criterion():
    r = suites.subext_closure_suite(UNIVERSE, seed=SEED)
    report(5, "closure under subobjects/extensions equals the "
              "associated-primes criterion, with the discriminating probe",
           r.passed, "; ".join(c.detail for c in r.failures())[:300])


def test_criterion_06_coherent_closures_and_derivations():
    r1 = suites.coherent_closure_suite((UNIVERSE, suites.RANK_TWO_UNIVERSE), seed=SEED)
    r2 = suites.derivation_suite(trials=200, seed=SEED)
    passed = r1.passed and r2.passed
    detail = "; ".join(c.detail for r in (r1, r2) for c in r.failures())
    report(6, "coherent closure of every generator set equals the support "
              "criterion set, up to free rank 2, and 200 random submodule "
              "derivations replay exactly", passed, detail[:300])


def test_criterion_07_koszul_realizations():
    r = suites.koszul_cyclic_suite(trials=200, seed=SEED)
    report(7, "200 random Koszul complexes realize their cyclic module with "
              "annihilation and support containment", r.passed,
           "; ".join(c.detail for c in r.failures())[:300])


def test_criterion_08_filtrations():
    r = suites.filtration_suite(trials=500, seed=SEED)
    report(8, "500 random cyclic filtrations replay with telescoping "
              "rank/length accounting", r.passed,
           "; ".join(c.detail for c in r.failures())[:300])


def test_criterion_09_coprimary():
    r = suites.coprimary_suite(trials=500, seed=SEED)
    report(9, "500 random modules: coprimary chains strictly descend to zero "
              "within the length and the diagonal accounting holds", r.passed,
           "; ".join(c.detail for c in r.failures())[:300])


def test_criterion_10_membership_correspondences():
    failures = []
    for item, spec in sorted(suites.CORRESPONDENCES.items()):
        backends = []
        if "z" in spec.backends:
            backends.append(Z_BACKEND)
        if "monomial" in spec.backends:
            backends.append(monomial_backend(("x", "y", "z")))
        for backend in backends:
            r = suites.correspondence_suite(item, backend, trials=500,
                                            seed=SEED)
            if not r.passed:
                failures.append(
                    f"item {item} over {backend}: "
                    + "; ".join(c.detail for c in r.failures()[:1]))
    report(10, "all ten membership correspondences hold on 500 random trials "
               "per compatible backend with zero discrepancies",
           not failures, "; ".join(failures[:3]))


def test_criterion_11_thick_support_leg():
    r = suites.thick_support_suite(seed=SEED)
    report(11, "Koszul probes of every small closed subset are members with "
               "support join exactly the subset; outside probes are rejected",
           r.passed, "; ".join(c.detail for c in r.failures())[:300])
