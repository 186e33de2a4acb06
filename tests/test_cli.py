"""Command-line behavior: output shapes, determinism, exit codes."""

import argparse
import json
import os
import random
import subprocess
import sys
import time

import pytest

from modlat import suites
from modlat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_ass_command(capsys):
    code, payload = run_json(capsys, "ass", "--backend", "z", "Z^1 + Z/12")
    assert code == 0
    assert payload["ass"] == ["(0)", "(2)", "(3)"]


def test_snf_command(capsys):
    code, payload = run_json(capsys, "snf", "[[2,4],[6,8]]")
    assert code == 0
    assert payload["d"] == [[2, 0], [0, 4]]


def test_module_normalization(capsys):
    code, payload = run_json(capsys, "module", "Z/4 + Z/3")
    assert code == 0
    assert payload["canonical"] == "Z/12"
    assert payload["invariant_factors"] == [12]


def test_monomial_supp(capsys):
    code, payload = run_json(
        capsys, "supp", "--backend", "monomial", "--vars", "x,y",
        "R/(x^2,x*y)")
    assert code == 0
    assert payload["supp"]["members"] == ["(x)", "(x,y)"]


@pytest.mark.parametrize("module", ["0", "R/(1)"])
def test_monomial_supp_of_zero_past_the_variable_cap(capsys, module):
    # the zero module has no support; past the cap the context is refused
    # before the literal is read, as for every monomial command
    code, payload = run_json(
        capsys, "supp", "--backend", "monomial", "--vars", _VARS_8, module)
    assert code == 0
    assert payload["supp"]["members"] == []
    line = _one_error_line(capsys, "supp", "--backend", "monomial", "--vars", _VARS_30, module)
    assert line == "error: context has 30 variables, cap is 8"


def test_grade_command(capsys):
    code, payload = run_json(capsys, "grade", "--module", "Z", "--ideal", "(2)")
    assert code == 0
    assert payload["grade"] == 1
    code, payload = run_json(capsys, "grade", "--module", "Z/3",
                             "--ideal", "(2)")
    assert payload["grade"] == "inf"


def test_grade_against_a_module(capsys):
    code, out = run(capsys, "grade", "--module", "Z/4", "--against", "Z/2")
    assert code == 0
    assert out == ('{\n  "against": "Z/2",\n  "grade": 0,\n'
                   '  "module": "Z/4"\n}\n')


def test_grade_needs_an_ideal_or_a_module(capsys):
    line = _one_error_line(capsys, "grade", "--module", "Z")
    assert line.endswith("expected --ideal or --against")


def test_filtration_command(capsys):
    code, payload = run_json(capsys, "filtration", "Z/2 + Z/4")
    assert code == 0
    assert payload["ideals"] == ["(2)", "(4)"]
    assert payload["steps"] == ["Z/2 + Z/4", "Z/4", "0"]


def test_koszul_command(capsys):
    code, payload = run_json(capsys, "koszul", "2,4")
    assert code == 0
    assert payload["ranks"] == [1, 2, 1]
    assert payload["homology"]["0"] == "Z/2"
    assert payload["homology"]["1"] == "Z/2"


def test_koszul_sequence_may_start_negative(capsys):
    code, out = run(capsys, "koszul", "-3,5")
    assert code == 0
    assert (code, out) == run(capsys, "koszul", "--", "-3,5")
    assert json.loads(out)["sequence"] == [-3, 5]
    assert run(capsys, "koszul", "-3,-5,6")[0] == 0
    code, out = run(capsys, "koszul", "-h")
    assert code == 0
    assert out.startswith("usage: modlat koszul")
    assert main(["koszul", "-x"]) == 2


def test_koszul_reduces_each_differential_once(capsys, monkeypatch):
    from modlat import complexes

    calls = []

    def counting(name, original):
        def counted(a, *pair):
            calls.append(name)
            return original(a, *pair)
        return counted

    # Koszul differentials are reduced with their known rank and modulus, the
    # zero maps at either end by `smith_diagonal`.
    for name in ("smith_diagonal", "_diagonal_modulo"):
        monkeypatch.setattr(complexes, name, counting(name, getattr(complexes, name)))
    code, payload = run_json(capsys, "koszul", "2,4")
    assert code == 0
    assert payload["support"] == {"literal": "closure{(2)}", "members": ["(2)"]}
    # homology in degrees 0..2 reads four differentials, each reduced once
    assert len(calls) == 4
    assert calls.count("_diagonal_modulo") == 2


def test_classify_member(capsys):
    code, payload = run_json(
        capsys, "classify", "member", "--kind", "serre",
        "--gens", "Z/2,Z", "--module", "Z/4")
    assert code == 0
    assert payload["member"] is True
    code, payload = run_json(
        capsys, "classify", "member", "--kind", "subext",
        "--gens", "Z", "--module", "Z/2")
    assert payload["member"] is False


def test_classify_member_by_criterion(capsys):
    code, payload = run_json(
        capsys, "classify", "member", "--kind", "subext",
        "--criterion", "set{(0)}", "--module", "Z^2")
    assert code == 0
    assert payload["member"] is True


def test_classify_examples(capsys):
    code, payload = run_json(
        capsys, "classify", "examples", "--item", "3", "--backend", "z",
        "--trials", "40")
    assert code == 0
    assert payload["passed"] is True


def test_oracle_close(capsys):
    code, payload = run_json(
        capsys, "oracle", "close", "--gens", "Z/2", "--kinds", "sub,ext",
        "--primes", "2", "--max-exp", "3", "--max-rank", "0",
        "--max-factors", "2")
    assert code == 0
    assert "Z/8" in payload["closure"]
    assert payload["clipped"] is True


_ORACLE_CLOSE_PINNED = {
    "sub,quot,ext,sums": (
        ["extensions", "finite_sums", "quotients", "subobjects"], 4),
    "sub,ext": (["extensions", "subobjects"], 1),
    "ker,coker,ext,sums": (
        ["cokernels", "extensions", "finite_sums", "kernels"], 4),
}
_SERRE_CLOSURE_OF_Z = [
    "0", "Z", "Z + Z/2", "Z + Z/2 + Z/2", "Z + Z/3", "Z + Z/3 + Z/3",
    "Z + Z/6", "Z/2", "Z/2 + Z/2", "Z/3", "Z/3 + Z/3", "Z/6"]


@pytest.mark.parametrize("kinds", sorted(_ORACLE_CLOSE_PINNED))
def test_oracle_close_output_pinned(capsys, kinds):
    names, iterations = _ORACLE_CLOSE_PINNED[kinds]
    expected = {
        "clipped": True,
        "closure": ["0", "Z"] if kinds == "sub,ext" else _SERRE_CLOSURE_OF_Z,
        "generators": ["Z"],
        "iterations": iterations,
        "kinds": names,
        "universe_size": 12,
    }
    code, out = run(capsys, "oracle", "close", "--gens", "Z", "--kinds", kinds,
                    "--primes", "2,3", "--max-exp", "1")
    assert code == 0
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_oracle_close_quotient_clip_flag(capsys):
    # Z/3 and Z/4 are quotients of Z outside the universe, whether read as
    # quotients or as cokernels of maps Z -> Z
    for kinds in ("quot", "coker"):
        code, payload = run_json(capsys, "oracle", "close", "--gens", "Z", "--kinds", kinds,
                                 "--primes", "2", "--max-exp", "1", "--max-factors", "1")
        assert code == 0
        assert payload["closure"] == ["0", "Z", "Z/2"]
        assert payload["clipped"] is True, kinds


def test_oracle_derive(capsys):
    code, payload = run_json(
        capsys, "oracle", "derive", "--ambient", "Z/4", "--sub", "2*g0")
    assert code == 0
    assert payload["subgroup_class"] == "Z/2"
    assert payload["steps"][0]["op"] == "start"


def _step(op, inputs, result, matrix=None):
    return {"op": op, "inputs": inputs, "result": result,
            **({"matrix": matrix} if matrix is not None else {})}


_ORACLE_DERIVE_PINNED = {
    # torsion ambient, the quotient Z/2 is the cokernel itself
    ("Z/4", "2*g0"): ("Z/2", [
        _step("start", [], "Z/4"),
        _step("cokernel", [0], "Z/2", [[2]]),
        _step("kernel", [0, 1], "Z/2", [[1]]),
    ]),
    # free rank 1: the free generator is split off as a summand
    ("Z + Z/6", "3*g0"): ("Z/2", [
        _step("start", [], "Z + Z/6"),
        _step("summand", [0], "Z", [[1, 0], [0, 0]]),
        _step("kernel", [0, 1], "Z/6", [[0, 1]]),
        _step("cokernel", [2], "Z/3", [[3]]),
        _step("kernel", [2, 3], "Z/2", [[1]]),
    ]),
    # one stage whose projection coefficient is reduced modulo d = 2
    ("Z/2 + Z/4", "g0 + g1"): ("Z/4", [
        _step("start", [], "Z/2 + Z/4"),
        _step("cokernel", [0], "Z/2 + Z/2", [[0, 0], [0, 2]]),
        _step("summand", [1], "Z/2", [[1, 0], [0, 0]]),
        _step("kernel", [0, 2], "Z/4", [[1, 1]]),
    ]),
    # two stages, each quotient a summand of a two-factor cokernel
    ("Z/2 + Z/4", "2*g1"): ("Z/2", [
        _step("start", [], "Z/2 + Z/4"),
        _step("cokernel", [0], "Z/2 + Z/2", [[0, 0], [0, 2]]),
        _step("summand", [1], "Z/2", [[1, 0], [0, 0]]),
        _step("kernel", [0, 2], "Z/2 + Z/2", [[0, 1]]),
        _step("cokernel", [3], "Z/2 + Z/2", [[0, 0], [0, 0]]),
        _step("summand", [4], "Z/2", [[1, 0], [0, 0]]),
        _step("kernel", [3, 5], "Z/2", [[1, 0]]),
    ]),
}


@pytest.mark.parametrize("ambient,sub", sorted(_ORACLE_DERIVE_PINNED))
def test_oracle_derive_output_pinned(capsys, ambient, sub):
    subgroup_class, steps = _ORACLE_DERIVE_PINNED[ambient, sub]
    expected = {"ambient": ambient, "steps": steps, "subgroup_class": subgroup_class}
    code, out = run(capsys, "oracle", "derive", "--ambient", ambient, "--sub", sub)
    assert code == 0
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# stdout of `modlat oracle derive`, byte for byte: two torsion ambients and
# one with a free part, where a stage's quotient is infinite cyclic
_ORACLE_DERIVE_GOLDEN = {
    "derive_torsion_three_factors.json": ("Z/4 + Z/12 + Z/36", "2*g0+3*g1; 6*g2"),
    "derive_torsion_two_factors.json": ("Z/6 + Z/18", "g0+4*g1; 3*g1"),
    "derive_free_part.json": ("Z^2 + Z/6", "3*g0+2*g1"),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_DERIVE_GOLDEN))
def test_oracle_derive_golden_stdout(capsys, name):
    ambient, sub = _ORACLE_DERIVE_GOLDEN[name]
    code, out = run(capsys, "oracle", "derive", "--ambient", ambient, f"--sub={sub}")
    assert code == 0
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert out == fh.read()


def test_snf_golden_stdout_with_long_euclid_runs(capsys):
    """stdout of `modlat snf` on a seeded dense 16x16 matrix, byte for byte;
    its elimination takes Euclid runs of up to 67 steps between two rows
    and of up to 5 steps between two columns."""
    rng = random.Random("snf-golden-cli:5")
    matrix = [[rng.randint(-9, 9) for _ in range(16)] for _ in range(16)]
    code, out = run(capsys, "snf", json.dumps(matrix))
    assert code == 0
    with open(os.path.join(GOLDEN, "snf_16x16_long_runs.json"), encoding="utf-8") as fh:
        assert out == fh.read()


def test_suite_vars_reach_the_monomial_reports(capsys):
    code, payload = run_json(capsys, "suite", "--only", "roundtrip",
                             "--vars", "a,b", "--trials", "5")
    assert code == 0
    assert [r["suite"] for r in payload["reports"]] == [
        "roundtrip:('z',)", "roundtrip:('monomial', ('a', 'b'))"]


def test_suite_filter_and_trials(capsys):
    code, payload = run_json(
        capsys, "suite", "--only", "filtration", "--trials", "20",
        "--seed", "5")
    assert code == 0
    assert payload["passed"] is True
    code, payload = run_json(capsys, "suite", "--only", "snf", "--trials", "0")
    assert code == 0
    assert "warning" in payload
    # with trials, each runs the Smith-form checks of suites._snf_trial
    [report] = suites.run_suite("snf", seed=3, trials=20)
    assert report.passed, report.failures()


def test_suite_names_in_run_order_and_unknown_suite():
    assert suites.SUITE_NAMES == (
        "snf", "roundtrip", "adjunction", "serre-closure", "subext-closure",
        "coherent", "derivation", "koszul-cyclic", "filtration", "coprimary",
        "correspondences", "thick-support")
    with pytest.raises(ValueError, match=r"^unknown suite 'nope'; pick from \('snf', "):
        suites.run_suite("nope")


def test_determinism(capsys):
    args = ("classify", "examples", "--item", "10", "--backend", "z",
            "--trials", "30", "--seed", "11")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_usage_errors(capsys):
    code, _ = run(capsys, "snf", "nonsense")
    assert code == 2
    code, _ = run(capsys, "module", "--backend", "monomial", "Z/2")
    assert code == 2


def test_snf_rejects_json_booleans(capsys):
    code = main(["snf", "[[true, 2], [3, 4]]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "integer entries" in lines[0]


def test_text_format(capsys):
    code, out = run(capsys, "--format", "text", "module", "Z/6")
    assert code == 0
    assert "canonical: Z/6" in out


def test_text_format_of_nested_payloads(capsys):
    # a nested dict is indented under its key
    code, out = run(capsys, "--format", "text", "koszul", "2,3")
    assert code == 0
    assert out == (
        "sequence: [2, 3]\n"
        "bottom_degree: 0\n"
        "ranks: [1, 2, 1]\n"
        "differentials: [[[2, 3]], [[-3], [2]]]\n"
        "homology:\n"
        "  0: 0\n"
        "  1: 0\n"
        "  2: 0\n"
        "support:\n"
        "  literal: closure{}\n"
        "  members: []\n")
    # a list of dicts lists each entry indented, the outer ones followed by
    # a blank line
    code, out = run(capsys, "--format", "text", "suite", "--only", "thick-support")
    assert code == 0
    assert out == (
        "seed: 0\n"
        "passed: True\n"
        "reports:\n"
        "  suite: thick-support\n"
        "  seed: 0\n"
        "  passed: True\n"
        "  checks:\n"
        "    statement: 15 closed subsets: membership and support joins are exact\n"
        "    passed: True\n"
        "\n")


def test_oracle_cap_exits_2(capsys):
    code = main(["oracle", "close", "--gens", "Z/2", "--kinds", "sub",
                 "--primes", "2,3,5,7", "--max-exp", "6", "--max-factors", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "cap" in lines[0]


def _one_error_line(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    return lines[0]


def test_prime_power_past_the_trial_limit(capsys):
    # 1000003^2: its prime is past the trial limit and is found as a root
    assert main(["module", "Z/1000006000009"]) == 0
    assert json.loads(capsys.readouterr().out)["canonical"] == "Z/1000006000009"
    assert _one_error_line(capsys, "module", f"Z/{1000003 * 1000033}") == (
        "error: cannot factor 1000036000099: its cofactor 1000036000099 has no "
        "prime factor up to 1000000 and is not certified prime")


@pytest.mark.parametrize("primes", ["4", "6", "0", "1", "-2", "2,9"])
def test_oracle_close_refuses_non_primes(capsys, primes):
    bad = primes.split(",")[-1]
    line = _one_error_line(capsys, "oracle", "close", "--gens", "Z",
                           "--kinds", "sub,quot", "--primes", primes)
    assert line == f"error: {bad} is not a prime number"


@pytest.mark.parametrize("option, bound", [("--max-exp", "max_exponent"),
                                           ("--max-rank", "max_rank"),
                                           ("--max-factors", "max_torsion_factors")])
def test_oracle_close_refuses_negative_bounds(capsys, option, bound):
    line = _one_error_line(capsys, "oracle", "close", "--gens", "Z",
                           "--kinds", "sub,quot", option, "-1")
    assert line == f"error: {bound} must be nonnegative, got -1"


@pytest.mark.parametrize("primes, pos", [("2,,3", 2), ("2,x", 2), ("2,3,", 4),
                                         ("1_1", 0), ("2, 3.0", 3), (",", 0)])
def test_oracle_close_refuses_malformed_primes(capsys, primes, pos):
    line = _one_error_line(capsys, "oracle", "close", "--gens", "Z",
                           "--kinds", "sub", "--primes", primes)
    assert line == f"error: at position {pos} in {primes!r}: expected an integer"


def test_oracle_close_primes_allow_spaces_signs_and_none(capsys):
    base = ("oracle", "close", "--gens", "Z/2", "--kinds", "sub,quot")
    code, out = run(capsys, *base, "--primes", "2,3")
    assert code == 0
    assert run(capsys, *base, "--primes", " 3 , +2 ") == (code, out)
    code, payload = run_json(capsys, "oracle", "close", "--gens", "Z",
                             "--kinds", "sub,quot", "--primes", "")
    assert code == 0 and payload["closure"] == ["0", "Z"]


@pytest.mark.parametrize("sequence, pos", [("1,,2", 2), ("1_000,5", 0), ("1,2,", 4),
                                           (",", 0), ("3, +-5", 3), ("3,x", 2),
                                           ("3,\u0663", 2), ("3,0x10", 2),
                                           ("3," + "7" * 5000, 2)])
def test_koszul_refuses_malformed_terms(capsys, sequence, pos):
    line = _one_error_line(capsys, "koszul", "--", sequence)
    assert line == f"error: at position {pos} in {sequence!r}: expected an integer"


# Each digit pattern of the literals is ASCII only; U+0663 and U+0660 are
# the Arabic-Indic digits three and zero, which int() would accept.
@pytest.mark.parametrize("argv, line", [
    (("module", "Z/\u0663"), "at position 0 in 'Z/\u0663': expected a modulus after Z/"),
    (("module", "Z^\u0663"), "at position 0 in 'Z^\u0663': expected an exponent after Z^"),
    (("classify", "member", "--kind", "subext", "--criterion", "set{(\u0663)}",
      "--module", "Z"), "at position 1 in '(\u0663)': expected 0 or a prime number"),
    (("supp", "--backend", "monomial", "--vars", "x,y", "R/(x^\u0663)"),
     "at position 0 in 'x^\u0663': expected a variable power like x or x^2"),
    (("grade", "--module", "Z", "--ideal", "(\u0663)"),
     "at position 0 in '(\u0663)': expected an integer ideal like (12)"),
    (("oracle", "derive", "--ambient", "Z/4", "--sub", "\u0663*g0"),
     "at position 0 in '\u0663*g0': expected a term like 2*g0 or -g1"),
    (("oracle", "derive", "--ambient", "Z/4", "--sub", "g\u0660"),
     "at position 0 in 'g\u0660': expected a term like 2*g0 or -g1"),
])
def test_literals_refuse_non_ascii_digits(capsys, argv, line):
    assert _one_error_line(capsys, *argv) == f"error: {line}"


def test_koszul_terms_allow_spaces_and_signs(capsys):
    code, out = run(capsys, "koszul", "3,5")
    assert code == 0
    for text in (" 3 , 5 ", "+3,5", "3,+5"):
        assert run(capsys, "koszul", text) == (code, out)
    code, negative = run(capsys, "koszul", "-3,5")
    assert code == 0 and json.loads(negative)["sequence"] == [-3, 5]
    assert run(capsys, "koszul", "--", " -3 ,5") == (code, negative)


def test_gens_split_at_top_level_commas(capsys):
    base = ("classify", "member", "--backend", "monomial",
            "--vars", "a,b,c,d,e,f,g,h", "--kind", "serre",
            "--gens", "R/(a*b*c*d, e*f*g*h),R/(a^2*h)")
    code, payload = run_json(capsys, *base, "--module", "R/(b, e)")
    assert code == 0
    assert payload["generators"] == ["R/(e*f*g*h, a*b*c*d)", "R/(a^2*h)"]
    # V(b, e) lies in V(abcd, efgh), the support of the first generator
    assert payload["member"] is True
    # the prime (b) lies in neither generator's support
    code, payload = run_json(capsys, *base, "--module", "R/(b)")
    assert code == 0
    assert payload["member"] is False



# -- input caps ---------------------------------------------------------------


def _refused(capsys, monkeypatch, target, name, *argv):
    """Run argv with `target.name` made to fail; the cap must refuse first."""
    def never(*args, **kwargs):
        raise AssertionError(f"{name} ran on a refused input")

    monkeypatch.setattr(target, name, never)
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "cap" in lines[0]
    assert elapsed < 1.0
    return lines[0]


def test_koszul_length_cap(capsys, monkeypatch):
    from modlat import cli, complexes

    line = _refused(capsys, monkeypatch, complexes, "koszul_complex",
                    "koszul", ",".join(["3"] * 40))
    assert line == f"error: sequence has 40 terms, cap is {cli.KOSZUL_MAX_LENGTH}"
    _refused(capsys, monkeypatch, complexes, "koszul_complex",
             "koszul", ",".join(["3"] * (cli.KOSZUL_MAX_LENGTH + 1)))
    monkeypatch.undo()
    # the longest admitted sequence, the length-8 case that once ran for minutes
    code, payload = run_json(capsys, "koszul", "39,57,58,26,34,15,20,27")
    assert code == 0
    # the entries are coprime, so the complex is exact
    assert set(payload["homology"].values()) == {"0"}


def test_koszul_digits_cap(capsys, monkeypatch):
    from modlat import cli, complexes

    cap = cli.KOSZUL_MAX_DIGITS
    line = _refused(capsys, monkeypatch, complexes, "koszul_complex",
                    "koszul", "3,-" + "7" * (cap + 1))
    assert line == f"error: a term has {cap + 1} digits, cap is {cap}"
    monkeypatch.undo()
    # the widest admitted terms; they are coprime, so the complex is exact
    code, payload = run_json(capsys, "koszul", f"{10 ** cap - 1},-{10 ** (cap - 1)}")
    assert code == 0
    assert set(payload["homology"].values()) == {"0"}


def test_snf_transforms_past_the_printable_digits(capsys):
    """U or V of an ordinary 20x20 matrix can have entries longer than the
    interpreter prints; the request is refused with one line, in both formats."""
    rng = random.Random(5)
    matrices = [[[rng.randint(-99, 99) for _ in range(20)] for _ in range(20)]
                for _ in range(2)]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for fmt in ("json", "text"):
            code = main(["--format", fmt, "snf", json.dumps(matrices[1])])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "error: an entry of U or V has more than 4300 digits, "
                "the interpreter's limit for printing an integer"]
        from modlat.cli import _check_printable
        from modlat.intlinalg import IntMatrix

        _check_printable(IntMatrix([[-(10 ** 4300 - 1)]]))
        with pytest.raises(ValueError, match="4300 digits"):
            _check_printable(IntMatrix([[0], [10 ** 4300]]))
        # the first matrix of the same draw stays within the limit
        code, payload = run_json(capsys, "snf", json.dumps(matrices[0]))
        assert code == 0 and len(payload["u"]) == 20
    finally:
        sys.set_int_max_str_digits(previous)


def test_snf_size_cap(capsys, monkeypatch):
    from modlat import cli

    big = json.dumps([[1] * 200 for _ in range(200)])
    line = _refused(capsys, monkeypatch, cli, "snf", "snf", big)
    assert line == f"error: matrix is 200x200, cap is {cli.SNF_MAX_DIM} rows and columns"
    wide = json.dumps([[1] * (cli.SNF_MAX_DIM + 1)])
    _refused(capsys, monkeypatch, cli, "snf", "snf", wide)
    _refused(capsys, monkeypatch, cli, "snf", "snf",
             json.dumps([[1]] * (cli.SNF_MAX_DIM + 1)))
    monkeypatch.undo()
    for shape in ([[1] * cli.SNF_MAX_DIM], [[1]] * cli.SNF_MAX_DIM):
        code, payload = run_json(capsys, "snf", json.dumps(shape))
        assert code == 0
        assert payload["d"][0][0] == 1


# -- one parser per process ---------------------------------------------------


_VARS_8 = "a,b,c,d,e,f,g,h"
_VARS_30 = ",".join(f"x{i}" for i in range(30))
_PAIRS = ("a*b", "a*c", "a*d", "a*e", "a*f", "a*g", "a*h", "b*c", "b*d")
_CHAIN_6 = "Z/2 + Z/4 + Z/8 + Z/16 + Z/32 + Z/64"
# Each monomial command, with its literal; `--backend monomial --vars ...`
# goes last.
_MONOMIAL_COMMANDS = (
    ("module", "R"),
    ("module", "R/(a*b, c^2)"),
    ("ass", "R"),
    ("ass", "R/(a*b, c^2)"),
    ("supp", "R/(a*b, c^2)"),
    ("classify", "member", "--kind", "serre", "--module", "R/(a)", "--gens", "R/(a*b)"),
    ("classify", "member", "--kind", "serre", "--module", "R/(a)",
     "--criterion", "closure{(a)}"),
    ("classify", "examples", "--item", "1", "--trials", "5"),
)


# Each request at a cap and one past it.  Koszul and Smith caps are tested
# above, the universe's negative bounds and non-primes with _one_error_line.
@pytest.mark.parametrize("argv, code", [
    # the zero ideal's support: V(0) is the whole spectrum
    (("supp", "--backend", "monomial", "--vars", _VARS_8, "R"), 0),
    (("supp", "--backend", "monomial", "--vars", _VARS_8 + ",i", "R"), 2),
    (("supp", "--backend", "monomial", "--vars", _VARS_30, "R"), 2),
    # irreducible decompositions, at most 8 minimal generators
    (("ass", "--backend", "monomial", "--vars", _VARS_8,
      "R/(" + ",".join(_PAIRS[:8]) + ")"), 0),
    (("ass", "--backend", "monomial", "--vars", _VARS_8,
      "R/(" + ",".join(_PAIRS) + ")"), 2),
    # universes of at most 5,000 classes, counted before any is built:
    # (249 + 1) * C(3 + 3, 3) = 5,000 and (250 + 1) * 20 = 5,020
    (("oracle", "close", "--gens", "Z/2", "--kinds", "sub", "--primes", "2,3,5",
      "--max-exp", "1", "--max-rank", "249", "--max-factors", "3"), 0),
    (("oracle", "close", "--gens", "Z/2", "--kinds", "sub", "--primes", "2,3,5",
      "--max-exp", "1", "--max-rank", "250", "--max-factors", "3"), 2),
    (("oracle", "close", "--gens", "Z/2", "--kinds", "sub", "--primes", "2,3,5,7",
      "--max-exp", "50", "--max-factors", "8"), 2),
    (("oracle", "close", "--gens", "Z/2", "--kinds", "sub", "--primes", "2",
      "--max-exp", str(10 ** 9), "--max-factors", str(10 ** 9)), 2),
    # trial division up to 10^6: two primes below it, then two above it
    (("supp", f"Z/{999979 * 999983}"), 0),
    (("supp", f"Z/{1000003 * 1000033}"), 2),
    # a 20-digit prime left past the limit, which Miller-Rabin certifies
    (("koszul", "10000000000000000051,0"), 0),
    (("supp", "Z/10000000000000000051"), 0),
    (("module", "Z/10000000000000000051"), 0),
    # psi_12, the least strong pseudoprime to bases 2..37, is not certified
    (("supp", "Z/318665857834031151167461"), 2),
    # cokernels onto Z once took every d up to the universe's largest torsion
    # order, (3^12)^2; its 650^2 table reads now pass the closure work cap
    # before any table is read
    (("oracle", "close", "--gens", "Z", "--kinds", "coker", "--primes", "2,3",
      "--max-exp", "12", "--max-factors", "2"), 2),
    # extension middle terms grown only inside the universe: 101 classes
    (("oracle", "close", "--gens", "Z/2", "--kinds", "ext", "--primes", "2",
      "--max-exp", "100", "--max-rank", "0", "--max-factors", "1"), 0),
    # derivations of an ambient with at most 10 generators
    (("oracle", "derive", "--ambient", "Z^4 + " + _CHAIN_6, "--sub", "g0 + 2*g5; 3*g9"), 0),
    (("oracle", "derive", "--ambient", "Z^5 + " + _CHAIN_6, "--sub", "g0"), 2),
    # filtrations of a module with at most 1,000 generators
    (("filtration", " + ".join(["Z/2"] * 1000)), 0),
    (("filtration", " + ".join(["Z/2"] * 1001)), 2),
    (("filtration", "Z^1000000000"), 2),
    # closure work: N^2 table reads for quotients and each binary kind, N for
    # subobjects, summed over the kinds applied; 158^2 = 24,964 and
    # 160^2 = 25,600 around the cap of 25,000
    (("oracle", "close", "--gens", "Z/2", "--kinds", "quot", "--primes", "2",
      "--max-exp", "1", "--max-rank", "78", "--max-factors", "1"), 0),
    (("oracle", "close", "--gens", "Z/2", "--kinds", "quot", "--primes", "2",
      "--max-exp", "1", "--max-rank", "79", "--max-factors", "1"), 2),
    # 5,000 classes: 25 M applications each of quotients and extensions
    (("oracle", "close", "--gens", "Z", "--kinds", "sub,quot,ext,sums", "--primes", "2,3,5",
      "--max-exp", "1", "--max-rank", "249", "--max-factors", "3"), 2),
    (("oracle", "close", "--gens", "Z^249", "--kinds", "quot", "--primes", "2,3,5",
      "--max-exp", "1", "--max-rank", "249", "--max-factors", "3"), 2),
    # every monomial command: at most 8 variables, refused from --vars alone
    *[(argv + ("--backend", "monomial", "--vars", context), code)
      for argv in _MONOMIAL_COMMANDS
      for context, code in ((_VARS_8, 0), (_VARS_8 + ",i", 2))],
    # the round trip and adjunction checks, past the context cap here and
    # past their own cap at the end
    (("classify", "roundtrip", "--backend", "monomial", "--vars", _VARS_8 + ",i"), 2),
    (("classify", "adjunction", "--backend", "monomial", "--vars", _VARS_8 + ",i"), 2),
    (("suite", "--only", "correspondences", "--trials", "2", "--vars", _VARS_8), 0),
    (("suite", "--only", "snf", "--trials", "1", "--vars", _VARS_8 + ",i"), 2),
    # the round trip and adjunction checks run over every set of up to 4 and
    # 3 primes of the context, so their context has at most 3 variables;
    # `suite` runs the round trip on its --vars
    *[(argv + (context,), code)
      for argv in (("classify", "roundtrip", "--backend", "monomial", "--vars"),
                   ("classify", "adjunction", "--backend", "monomial", "--vars"),
                   ("suite", "--only", "roundtrip", "--trials", "2", "--vars"))
      for context, code in (("a,b,c", 0), ("a,b,c,d", 2))],
])
def test_requests_at_and_past_each_cap(capsys, argv, code):
    start = time.process_time()
    if code == 2:
        _one_error_line(capsys, *argv)
    else:
        assert main(list(argv)) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out
    assert time.process_time() - start < 2.0


def test_oracle_close_counts_the_universe_without_enumerating_it(capsys):
    # subobject tables never read the member list, and the size is counted
    from modlat import oracle

    before = oracle._enumerate_universe.cache_info()
    code, payload = run_json(capsys, "oracle", "close", "--gens", "Z/2", "--kinds", "sub",
                             "--primes", "2,3,5", "--max-exp", "1", "--max-rank", "249",
                             "--max-factors", "3")
    assert code == 0 and payload["universe_size"] == 5000
    assert payload["closure"] == ["0", "Z/2"]
    assert oracle._enumerate_universe.cache_info() == before


def _fresh_run(argv, **env):
    """`python -m modlat.cli argv` in a new interpreter, with `env` added to
    its environment."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
               **env)
    return subprocess.run([sys.executable, "-m", "modlat.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def _fresh_process(*argv):
    """Exit code and stdout of `python -m modlat.cli argv` in a new interpreter."""
    done = _fresh_run(argv)
    return done.returncode, done.stdout


def test_oracle_refusal_independent_of_hash_seed():
    # Each kind meets a different over-cap class first; the kinds are tried in
    # CLOSURE_KINDS order, so the message names the same class under any seed.
    argv = ("oracle", "close", "--gens", "Z/512 + Z/512", "--kinds", "sub,quot",
            "--primes", "2", "--max-exp", "9", "--max-factors", "2")
    for seed in ("0", "2"):
        done = _fresh_run(argv, PYTHONHASHSEED=seed)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "error: torsion order 262144 above cap 16384\n"), seed


def test_parser_built_once():
    from modlat.cli import build_parser

    assert build_parser() is build_parser()


def test_cached_parser_text_then_json(capsys):
    code, out = run(capsys, "--format", "text", "module", "Z/6")
    assert code == 0 and out.startswith("canonical: Z/6\n")
    code, out = run(capsys, "module", "Z/6")
    assert code == 0
    assert json.loads(out)["canonical"] == "Z/6"
    assert out == _fresh_process("module", "Z/6")[1]


def test_cached_parser_gens_then_criterion(capsys):
    code, payload = run_json(capsys, "classify", "member", "--kind", "serre",
                             "--gens", "Z/2", "--module", "Z/4")
    assert code == 0 and payload["generators"] == ["Z/2"]
    argv = ("classify", "member", "--kind", "serre",
            "--criterion", "closure{(3)}", "--module", "Z/4")
    code, out = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert "generators" not in payload
    assert payload["criterion"] == "closure{(3)}" and payload["member"] is False
    assert (code, out) == _fresh_process(*argv)


def test_cached_parser_after_usage_error(capsys):
    code, _ = run(capsys, "classify", "member", "--kind", "serre",
                  "--gens", "Z/2", "--criterion", "closure{(2)}", "--module", "Z/4")
    assert code == 2
    code, _ = run(capsys, "koszul")
    assert code == 2
    argv = ("classify", "member", "--backend", "monomial", "--vars", "x,y,z",
            "--kind", "coherent", "--criterion", "closure{(x),(y,z)}",
            "--module", "R/(x*y, x*z)")
    code, out = run(capsys, *argv)
    assert code == 0
    assert (code, out) == _fresh_process(*argv)


# -- plain argv read off the parser, JSON written directly --------------------


def _z_text(rng):
    terms = ["Z"] * rng.randrange(3) + [f"Z/{rng.choice((2, 3, 4, 6, 9, 12))}"
                                        for _ in range(rng.randrange(4))]
    return " + ".join(terms) or "0"


def _monomial_text(rng, names):
    gens = ["*".join(f"{v}^{rng.randint(1, 2)}" for v in rng.sample(names, rng.randint(1, 2)))
            for _ in range(rng.randint(1, 3))]
    return "R/(" + ", ".join(gens) + ")"


def _request(rng, kind):
    """One well-formed argv of a criterion-queries request kind, in the
    workload's shape: options after the subcommand, `--sub=` for derive."""
    names = list("abcdefgh"[:rng.randint(3, 8)])
    backend = ["--backend", "monomial", "--vars", ",".join(names)]
    command, _, flavour = kind.partition("-")
    if kind in ("module-z", "ass-z", "supp-z"):
        return [command, _z_text(rng)]
    if kind in ("module-m", "ass-m", "supp-m"):
        return [command, *backend, _monomial_text(rng, names)]
    if kind == "grade":
        return ["grade", "--module", _z_text(rng), "--ideal", f"({rng.choice((0, 2, 6))})"]
    if kind == "filtration":
        return ["filtration", _z_text(rng)]
    if kind == "koszul":
        return ["koszul", ",".join(str(rng.randint(1, 30)) for _ in range(rng.randint(2, 4)))]
    if kind == "snf":
        return ["snf", json.dumps([[rng.randint(-20, 20) for _ in range(2)] for _ in range(3)])]
    if kind == "derive":
        return ["oracle", "derive", "--ambient", "Z/2 + Z/4 + Z/12",
                f"--sub={rng.randint(-3, 3)}*g0-{rng.randint(0, 3)}*g2; 2*g1"]
    member = ["classify", "member", "--kind", rng.choice(("serre", "torsion", "coherent", "subext"))]
    if flavour.endswith("z"):
        member += ["--module", _z_text(rng)]
        if flavour.startswith("gens"):
            return member + ["--gens", "Z/2,Z"]
        return member + ["--criterion", "set{(2),(3)}"]
    member += [*backend, "--module", _monomial_text(rng, names)]
    if flavour.startswith("gens"):
        return member + ["--gens", ",".join(_monomial_text(rng, names) for _ in range(2))]
    return member + ["--criterion", f"closure{{({names[0]}),({names[1]},{names[2]})}}"]


_REQUEST_KINDS = (
    "module-z", "module-m", "ass-z", "ass-m", "supp-z", "supp-m", "grade",
    "filtration", "member-gens-z", "member-crit-z", "member-gens-m",
    "member-crit-m", "koszul", "snf", "derive")

# (words naming the subcommand, its options, its positionals) for every
# subcommand, each argv well-formed
_SUBCOMMANDS = (
    (["snf"], [], ["[[2,4],[6,8]]"]),
    (["module"], [("--backend", "z")], ["Z/4 + Z/3"]),
    (["ass"], [("--backend", "monomial"), ("--vars", "x,y")], ["R/(x^2,x*y)"]),
    (["supp"], [("--vars", "x,y")], ["Z/6"]),
    (["grade"], [("--module", "Z/3"), ("--against", "Z/9")], []),
    (["filtration"], [], ["Z/2 + Z/4"]),
    (["koszul"], [], ["2,4"]),
    (["classify", "member"], [("--kind", "serre"), ("--module", "Z/4"),
                              ("--criterion", "closure{(2)}")], []),
    (["classify", "examples"], [("--item", "3"), ("--trials", "5"), ("--seed", "2")], []),
    (["classify", "roundtrip"], [("--backend", "z"), ("--seed", "1")], []),
    (["classify", "adjunction"], [("--seed", "0")], []),
    (["oracle", "close"], [("--gens", "Z/2"), ("--kinds", "sub,quot"),
                           ("--primes", "2"), ("--max-exp", "2")], []),
    (["oracle", "derive"], [("--ambient", "Z/4"), ("--sub", "2*g0")], []),
    (["suite"], [("--only", "snf"), ("--trials", "3"), ("--vars", "a,b")], []),
)

# argv the reader leaves to argparse: help, abbreviations, values led by
# "-", repeats, missing, extra or conflicting arguments, bad types and choices
_DECLINED = (
    ["-h"], ["--help"], ["koszul", "-h"], ["classify", "member", "--help"],
    ["--form", "text", "module", "Z"], ["module", "--back", "z", "Z"],
    ["oracle", "derive", "--amb", "Z/4", "--sub=2*g0"],
    ["koszul", "-3,5"], ["koszul", "--", "-3,5"], ["koszul", "-x"],
    ["oracle", "derive", "--ambient", "Z/4", "--sub", "-2*g0"],
    ["oracle", "close", "--kinds", "sub", "--max-exp", "-1"], ["module", "--vars"],
    ["module", "--backend", "z", "--backend", "z", "Z"],
    ["module", "Z", "--format", "text"], ["--format", "text", "--format", "json", "module", "Z"],
    [], ["--format", "json"], ["snf"], ["koszul"], ["grade", "--ideal", "(2)"],
    ["classify"], ["oracle", "derive", "--ambient", "Z/4"],
    ["classify", "member", "--kind", "serre", "--module", "Z/4"],
    ["classify", "member", "--kind", "serre", "--module", "Z/4",
     "--gens", "Z/2", "--criterion", "closure{(2)}"],
    ["module", "Z", "Z"], ["snf", "[[1]]", "[[2]]"], ["nope"], ["classify", "nope"],
    ["classify", "examples", "--item", "x"], ["suite", "--trials", "1.5"],
    ["module", "--backend", "q", "Z"], ["--format", "yaml", "module", "Z"],
    ["classify", "member", "--kind", "nope", "--module", "Z", "--gens", "Z"],
    ["suite", "--only", "nope"],
)


def _argv_variants(rng, words, options, positionals):
    """The subcommand's options and positionals interleaved in a seeded
    order, each option as `--opt value` or `--opt=value`, with `--format`
    sometimes before the subcommand."""
    items = [[name, value] if rng.random() < 0.5 else [f"{name}={value}"]
             for name, value in rng.sample(options, rng.randint(0, len(options)))]
    slots = sorted(rng.sample(range(len(items) + len(positionals)), len(positionals)))
    for slot, value in zip(slots, positionals):
        items.insert(slot, [value])
    head = rng.choice(([], ["--format", "text"], ["--format=json"]))
    return head + words + [arg for item in items for arg in item]


def _parse_args_or_none(capsys, argv):
    from modlat.cli import build_parser

    try:
        return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None
    finally:
        capsys.readouterr()


def test_plain_reader_matches_parse_args(capsys):
    from modlat.cli import _read_plain, build_parser

    parser = build_parser()
    rng = random.Random("plain-argv")
    plain = [_request(rng, kind) for kind in _REQUEST_KINDS for _ in range(20)]
    plain += [_argv_variants(rng, *shape) for shape in _SUBCOMMANDS for _ in range(30)]
    # --format after the subcommand is an option argparse does not know there
    after = [argv + ["--format", "json"] for argv in plain[::7]]
    for argv in plain + after + [list(argv) for argv in _DECLINED]:
        got = _read_plain(parser, list(argv))
        want = _parse_args_or_none(capsys, argv)
        assert got is None or got == want, argv
        # a plain argv is read without argparse; an argparse error never is
        assert (got is not None) == (argv in plain and want is not None), argv
    assert all(_parse_args_or_none(capsys, argv) is None for argv in after)


@pytest.mark.parametrize("kind", _REQUEST_KINDS)
def test_request_kinds_never_reach_parse_args(capsys, monkeypatch, kind):
    argv = _request(random.Random(kind), kind)
    expected = run(capsys, *argv)

    def refuse(*args, **kwargs):
        raise AssertionError(f"parse_args ran on {argv}")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert run(capsys, *argv) == expected
    assert expected[0] == 0 and json.loads(expected[1])


def _random_text(rng):
    return "".join(rng.choice('ab"\\/\n\t\r\x00\x1f\x7f \u00e9\u2028\U0001f600')
                   for _ in range(rng.randrange(6)))


def _random_value(rng, depth=0):
    """Nested dicts with str keys, lists and tuples down to depth 4, over
    None, bools, ints up to 300 digits and strings that need escapes."""
    pick = rng.randrange(7 if depth < 4 else 4)
    if pick == 0:
        return rng.choice((None, True, False))
    if pick == 1:
        return rng.choice((0, -1, rng.randint(-10 ** 6, 10 ** 6),
                           rng.randint(-10 ** 300, 10 ** 300), -10 ** 299))
    if pick in (2, 3):
        return _random_text(rng)
    if pick == 4:
        return {_random_text(rng): _random_value(rng, depth + 1)
                for _ in range(rng.randrange(4))}
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return tuple(items) if pick == 5 else items


def test_json_writer_matches_json_dumps():
    from modlat.cli import _json

    values = []
    for name in sorted(os.listdir(GOLDEN)):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            text = fh.read()
        values.append(json.loads(text))
        assert _json(values[-1], "\n") + "\n" == text, name
    rng = random.Random("json-writer")
    values += [_random_value(rng) for _ in range(2000)]
    values += [{}, [], (), "", {"": [{}, [], -0]}, {"\u00e9\n": {"z": None, "a": ()}}]
    for value in values:
        assert _json(value, "\n") == json.dumps(value, sort_keys=True, indent=2), value


@pytest.mark.parametrize("payload", [{1: "a", 2: [3]}, {"x": 1.5}, {"x": [{2: None}]},
                                     {"x": float("nan")}])
def test_json_writer_falls_back_to_json_dumps(capsys, payload):
    from modlat.cli import _emit, _json

    with pytest.raises(TypeError):
        _json(payload, "\n")
    _emit(payload, argparse.Namespace(format="json"))
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
