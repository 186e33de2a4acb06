"""Command-line front end.

Every command is pure: the same arguments and seed produce byte-identical
JSON, which is `json.dumps(payload, sort_keys=True, indent=2)` byte for byte.
Exit codes: 0 success, 1 a mathematical check failed (counterexample found),
2 usage or parse error, or an input refused by a size cap.

Arguments follow argparse's semantics: abbreviated options, `--opt=value`,
and options interleaved with positionals.  `build_parser` is the only
declaration; `main` reads the plain argv shape straight off its actions and
leaves every other shape, usage error and help text to `parse_args`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from . import classify, complexes, oracle, suites, zmodules
from .classify import ClosureKind
from .intlinalg import snf
from .literals import (
    LiteralError,
    parse_context,
    parse_ideal,
    parse_int_matrix,
    parse_module,
    parse_spec_subset,
    parse_subgroup_elements,
    parse_zmodule,
    split_top_level,
)
from .oracle import Universe
from .spectrum import PrimeId, Z_BACKEND, _check_context, monomial_backend
from .suites import SuiteReport

# Input caps, checked before any work.  A length-r Koszul sequence builds
# differentials of up to C(r, r/2) rows, and reads each diagonal modulo g,
# the gcd of its terms, which divides every entry, so no table eliminates.
# Seeded two-digit terms, with or without a common factor 2, 3 or 6, took at
# most 0.003 s at length 8, 0.008 s at length 9 and 0.02 s at length 10,
# and length-8 sequences of 20-digit terms at most 0.002 s whatever their
# gcd (CPU time, one Xeon vCPU).  A full Smith form keeps unreduced
# transforms: dense 20x20 matrices with entries in [-9, 9] took a median of
# 6 ms and up to 0.2 s over 2,000.  A derivation of an n-generator ambient
# prints up to n stages of n x n matrices: Z^320 printed 144 MB in 20 s, and
# its Smith forms grow with n (seeded ambients took up to 1.0 s at 11
# generators and 79 s at 14).  A filtration prints n + 1 steps of up to n
# summands: 1,000 copies of Z/2 print 3 MB in 0.2 s.  The monomial round
# trip and adjunction checks run over every set of up to 4 and 3 of the 2^n
# primes of an n-variable context: at 3 variables they took 0.35 s and
# 0.62 s, at 4 0.9 s and 4.1 s, and the round trip 7.9 s at 5 (wall time of
# a fresh process).  A randomized trial takes from 0.03 ms (a membership
# correspondence over Z) to 3 ms (item 6 over 8 monomial variables), so
# trial counts stop at the largest default, 1,000: the slowest requests that
# admits, the whole `suite` with or without `--vars a,b,c`, took 7 to 9 s.
KOSZUL_MAX_LENGTH = 8
KOSZUL_MAX_DIGITS = 20
SNF_MAX_DIM = 20
DERIVE_MAX_GENERATORS = 10
FILTRATION_MAX_GENERATORS = 1000
PROBE_SUITE_MAX_VARS = 3
TRIALS_MAX = 1000
_SIGNED_DIGITS = re.compile(r"[+-]?[0-9]+")


def _backend_from_args(args) -> tuple:
    backend = getattr(args, "backend", "z")
    if backend == "z":
        return Z_BACKEND
    variables = getattr(args, "vars", None)
    if not variables:
        raise LiteralError("", 0, "--vars for the monomial backend")
    context = parse_context(variables)
    _check_context(context)  # before any literal, for every monomial command
    return monomial_backend(context)


def _check_probe_context(context) -> None:
    """Refuse a context too large for the monomial round trip and
    adjunction checks, before any of them runs."""
    if len(context) > PROBE_SUITE_MAX_VARS:
        raise ValueError(f"context has {len(context)} variables, cap is "
                         f"{PROBE_SUITE_MAX_VARS} for the round trip and adjunction checks")


def _trials_warning(trials) -> str | None:
    """Refuse a trial count outside 0 .. TRIALS_MAX before any trial runs;
    the warning that a count of 0 passes vacuously, or None."""
    if trials is not None and not 0 <= trials <= TRIALS_MAX:
        raise ValueError(f"{trials} trials requested, must be 0 to {TRIALS_MAX}")
    return "0 trials requested: randomized checks pass vacuously" if trials == 0 else None


def _subset_payload(subset) -> dict:
    return {
        "literal": str(subset),
        "members": ([str(p) for p in subset.sorted_members()]
                    if subset.is_finite() else "all"),
    }


def _report_payload(report: SuiteReport) -> dict:
    return {
        "suite": report.name,
        "seed": report.seed,
        "passed": report.passed,
        "checks": [
            {"statement": c.name, "passed": c.passed,
             **({"detail": c.detail} if c.detail else {})}
            for c in report.checks
        ],
    }


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        try:
            text = _json(payload, "\n")
        except TypeError:  # a value _json does not write
            text = json.dumps(payload, sort_keys=True, indent=2)
        print(text)
        return
    _emit_text(payload)


def _json(value, newline: str) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` byte for byte, where
    `newline` is a newline and the padding of the line `value` starts on.
    The standard library serves `indent` with its pure-Python encoder; this
    writes dicts with str keys, lists, tuples, str, int, bool and None, and
    raises TypeError on anything else."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return _CONSTANTS[value]
    if kind is dict:
        if not value:
            return "{}"
        if any(type(key) is not str for key in value):
            raise TypeError("a dict key that is not a str")
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [_escape(key) + ": " + _json(value[key], inner) for key in sorted(value)]
        ) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(
            [_json(item, inner) for item in value]) + newline + "]"
    raise TypeError(f"{kind.__name__} is not written directly")


_escape = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _emit_text(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for entry in value:
                _emit_text(entry, indent + 1)
                if indent == 0:
                    print()
        else:
            print(f"{pad}{key}: {value}")


def _check_printable(*matrices) -> None:
    """Refuse entries longer than the interpreter prints as decimal integers
    (`sys.get_int_max_str_digits`, where it exists and is not 0)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    widest = max((abs(x) for m in matrices for row in m.data for x in row), default=0)
    # 10**limit has more than 3 * limit bits, so most entries need no power.
    if limit and widest.bit_length() > 3 * limit and widest >= 10 ** limit:
        raise ValueError(f"an entry of U or V has more than {limit} digits, "
                         f"the interpreter's limit for printing an integer")


# -- command handlers ---------------------------------------------------------


def cmd_snf(args) -> tuple[int, dict]:
    matrix = parse_int_matrix(args.matrix)
    if max(matrix.rows, matrix.cols) > SNF_MAX_DIM:
        raise ValueError(f"matrix is {matrix.rows}x{matrix.cols}, "
                         f"cap is {SNF_MAX_DIM} rows and columns")
    dec = snf(matrix)
    _check_printable(dec.u, dec.v)
    return 0, {
        "input": matrix.to_lists(),
        "d": dec.d.to_lists(),
        "u": dec.u.to_lists(),
        "v": dec.v.to_lists(),
    }


def cmd_module(args) -> tuple[int, dict]:
    backend = _backend_from_args(args)
    module = parse_module(args.literal, backend)
    payload = {"canonical": str(module)}
    if backend == Z_BACKEND:
        payload["free_rank"] = module.free_rank
        payload["invariant_factors"] = list(module.torsion)
    else:
        payload["summands"] = [str(s) for s in module.summands]
    return 0, payload


def cmd_ass(args) -> tuple[int, dict]:
    backend = _backend_from_args(args)
    module = parse_module(args.literal, backend)
    subset = classify.ass_of(module)
    return 0, {"module": str(module),
               "ass": [str(p) for p in sorted(subset.generators,
                                              key=PrimeId.sort_key)]}


def cmd_supp(args) -> tuple[int, dict]:
    backend = _backend_from_args(args)
    module = parse_module(args.literal, backend)
    return 0, {"module": str(module), "supp": _subset_payload(classify.supp_of(module))}


def cmd_grade(args) -> tuple[int, dict]:
    module = parse_zmodule(args.module)
    payload = {"module": str(module)}
    if args.ideal is not None:
        ideal = parse_ideal(args.ideal, Z_BACKEND)
        value = zmodules.grade_ideal(ideal, module)
        payload["ideal"] = str(ideal)
    elif args.against is not None:
        other = parse_zmodule(args.against)
        value = zmodules.grade_module(other, module)
        payload["against"] = str(other)
    else:
        raise LiteralError("", 0, "--ideal or --against")
    payload["grade"] = "inf" if value == zmodules.INFINITY else value
    return 0, payload


def cmd_filtration(args) -> tuple[int, dict]:
    module = parse_zmodule(args.literal)
    if module.generator_count > FILTRATION_MAX_GENERATORS:
        raise ValueError(f"module has {module.generator_count} generators, "
                         f"cap is {FILTRATION_MAX_GENERATORS}")
    ideals = zmodules.cyclic_filtration(module)
    steps = zmodules.filtration_steps(module)
    return 0, {
        "module": str(module),
        "ideals": [str(i) for i in ideals],
        "steps": [str(s) for s in steps],
    }


def _int_list(text: str) -> list[int]:
    """The terms of a comma list, each an optional sign and digits with
    spaces around it; blank text gives no terms."""
    if not text.strip():
        return []
    terms, start = [], 0
    for part in text.split(","):
        pos = start + len(part) - len(part.lstrip())
        start += len(part) + 1
        try:
            if not _SIGNED_DIGITS.fullmatch(part.strip()):
                raise ValueError(part)
            terms.append(int(part))
        except ValueError as exc:  # also a term past int's digit limit
            raise LiteralError(text, pos, "an integer") from exc
    return terms


def cmd_koszul(args) -> tuple[int, dict]:
    gens = _int_list(args.sequence)
    if not gens:
        raise LiteralError(args.sequence, 0, "a nonempty integer list")
    if len(gens) > KOSZUL_MAX_LENGTH:
        raise ValueError(f"sequence has {len(gens)} terms, "
                         f"cap is {KOSZUL_MAX_LENGTH}")
    digits = max(len(str(abs(g))) for g in gens)
    if digits > KOSZUL_MAX_DIGITS:
        raise ValueError(f"a term has {digits} digits, "
                         f"cap is {KOSZUL_MAX_DIGITS}")
    complex_ = complexes.koszul_complex(gens)
    table = complexes.homology_table(complex_)
    return 0, {
        "sequence": gens,
        "bottom_degree": complex_.bottom_degree,
        "ranks": list(complex_.ranks),
        "differentials": [d.to_lists() for d in complex_.differentials],
        "homology": {str(i): str(h) for i, h in sorted(table.items())},
        "support": _subset_payload(complexes.homology_support(table)),
    }


def cmd_classify_member(args) -> tuple[int, dict]:
    backend = _backend_from_args(args)
    kind = ClosureKind(args.kind)
    module = parse_module(args.module, backend)
    if args.gens is not None:
        gens = [parse_module(g, backend) for g in split_top_level(args.gens)
                if g.strip()]
        verdict = classify.generated_member(module, gens, kind)
        source = {"generators": [str(g) for g in gens]}
    else:
        subset = parse_spec_subset(args.criterion, backend)
        sub = classify.Subcategory.by_criterion(kind, subset)
        verdict = sub.member(module)
        source = {"criterion": str(subset)}
    return 0, {"module": str(module), "kind": args.kind,
               "member": verdict, **source}


def cmd_classify_suite(args) -> tuple[int, dict]:
    """`classify examples|roundtrip|adjunction`: the subcommand's suite."""
    warning = _trials_warning(getattr(args, "trials", None))
    backend = _backend_from_args(args)
    if args.subcommand != "examples" and backend != Z_BACKEND:
        _check_probe_context(backend[1])
    report = args.suite(args, backend)
    payload = _report_payload(report)
    if warning:
        payload["warning"] = warning
    return (0 if report.passed else 1), payload


_KIND_ALIASES = {**{k: k for k in oracle.CLOSURE_KINDS}, "sub": "subobjects",
                 "quot": "quotients", "ext": "extensions", "sum": "finite_sums",
                 "sums": "finite_sums", "ker": "kernels", "coker": "cokernels"}


def _parse_kinds(text: str) -> set[str]:
    kinds = set()
    for part in text.split(","):
        part = part.strip()
        if part not in _KIND_ALIASES:
            raise LiteralError(text, text.find(part),
                               f"closure kinds among {sorted(_KIND_ALIASES)}")
        kinds.add(_KIND_ALIASES[part])
    return kinds


def _universe_from_args(args) -> Universe:
    return Universe(primes=tuple(_int_list(args.primes)), max_exponent=args.max_exp,
                    max_rank=args.max_rank, max_torsion_factors=args.max_factors)


def cmd_oracle_close(args) -> tuple[int, dict]:
    universe = _universe_from_args(args)
    gens = [parse_zmodule(g) for g in split_top_level(args.gens)]
    kinds = _parse_kinds(args.kinds)
    result = oracle.close(gens, kinds, universe)
    return 0, {
        "generators": [str(g) for g in gens],
        "kinds": sorted(kinds),
        "universe_size": universe.class_count(),
        "closure": sorted(str(m) for m in result.members),
        "clipped": result.clipped,
        "iterations": result.iterations,
    }


def cmd_oracle_derive(args) -> tuple[int, dict]:
    ambient = parse_zmodule(args.ambient)
    if ambient.generator_count > DERIVE_MAX_GENERATORS:
        raise ValueError(f"ambient has {ambient.generator_count} generators, "
                         f"cap is {DERIVE_MAX_GENERATORS}")
    gens = parse_subgroup_elements(args.sub, ambient)
    trace = oracle.derive_submodule(ambient, gens)
    final = trace.replay()
    return 0, {
        "ambient": str(ambient),
        "subgroup_class": str(final),
        "steps": [
            {
                "op": s.op,
                "inputs": list(s.inputs),
                **({"matrix": s.matrix.to_lists()} if s.matrix is not None else {}),
                "result": str(s.result),
            }
            for s in trace.steps
        ],
    }


def cmd_suite(args) -> tuple[int, dict]:
    context = parse_context(args.vars) if args.vars else ("x", "y", "z")
    _check_context(context)
    if args.only in (None, "roundtrip"):
        _check_probe_context(context)
    warning = _trials_warning(args.trials)
    reports = suites.run_all_suites(seed=args.seed, trials=args.trials,
                                    only=args.only, context=context)
    payload = {
        "seed": args.seed,
        "passed": all(r.passed for r in reports),
        "reports": [_report_payload(r) for r in reports],
    }
    if warning:
        payload["warning"] = warning
    return (0 if payload["passed"] else 1), payload


# -- parser -------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="modlat",
        description="Decision procedures for module subcategories over the "
                    "integers and over monomial quotient rings.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend(p):
        p.add_argument("--backend", choices=("z", "monomial"), default="z")
        p.add_argument("--vars", help="comma list of variables for the monomial backend")

    p = sub.add_parser("snf", help="Smith normal form of a JSON matrix")
    p.add_argument("matrix")
    p.set_defaults(handler=cmd_snf)

    p = sub.add_parser("module", help="parse and normalize a module literal")
    add_backend(p)
    p.add_argument("literal")
    p.set_defaults(handler=cmd_module)

    p = sub.add_parser("ass", help="associated primes of a module")
    add_backend(p)
    p.add_argument("literal")
    p.set_defaults(handler=cmd_ass)

    p = sub.add_parser("supp", help="support of a module")
    add_backend(p)
    p.add_argument("literal")
    p.set_defaults(handler=cmd_supp)

    p = sub.add_parser("grade", help="grade of an ideal or module against a module")
    p.add_argument("--module", required=True)
    p.add_argument("--ideal")
    p.add_argument("--against")
    p.set_defaults(handler=cmd_grade)

    p = sub.add_parser("filtration", help="cyclic filtration of a module")
    p.add_argument("literal")
    p.set_defaults(handler=cmd_filtration)

    p = sub.add_parser("koszul", help="Koszul complex of an integer sequence")
    p.add_argument("sequence")
    # argparse reads "-3,5" as an unknown option: it takes only a single
    # number for a negative positional.  A comma list is a positional too.
    p._negative_number_matcher = re.compile(r"^-\d[\d,-]*$")
    p.set_defaults(handler=cmd_koszul)

    p = sub.add_parser("classify", help="membership and lattice map checks")
    csub = p.add_subparsers(dest="subcommand", required=True)

    c = csub.add_parser("member", help="subcategory membership")
    add_backend(c)
    c.add_argument("--kind", choices=sorted(k.value for k in ClosureKind), required=True)
    c.add_argument("--module", required=True)
    group = c.add_mutually_exclusive_group(required=True)
    group.add_argument("--gens", help="comma list of generator module literals")
    group.add_argument("--criterion", help="spec subset literal")
    c.set_defaults(handler=cmd_classify_member)

    c = csub.add_parser("examples", help="run one membership correspondence")
    add_backend(c)
    c.add_argument("--item", type=int, required=True)
    c.add_argument("--trials", type=int, default=500)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(handler=cmd_classify_suite, suite=lambda a, backend:
                   suites.correspondence_suite(a.item, backend, a.trials, a.seed))

    c = csub.add_parser("roundtrip", help="bijection round-trip checks")
    add_backend(c)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(handler=cmd_classify_suite, suite=lambda a, backend:
                   suites.roundtrip_suite(backend, a.seed))

    c = csub.add_parser("adjunction", help="adjunction probe checks")
    add_backend(c)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(handler=cmd_classify_suite, suite=lambda a, backend:
                   suites.adjunction_suite(backend, a.seed))

    p = sub.add_parser("oracle", help="finite-universe brute force")
    osub = p.add_subparsers(dest="subcommand", required=True)

    o = osub.add_parser("close", help="closure of generators inside a universe")
    o.add_argument("--gens", default="", help="comma list of module literals")
    o.add_argument("--kinds", required=True,
                   help="comma list of " + ", ".join(sorted(_KIND_ALIASES)))
    o.add_argument("--primes", default="2,3")
    o.add_argument("--max-exp", type=int, default=2)
    o.add_argument("--max-rank", type=int, default=1)
    o.add_argument("--max-factors", type=int, default=2)
    o.set_defaults(handler=cmd_oracle_close)

    o = osub.add_parser("derive", help="derivation witness for a submodule")
    o.add_argument("--ambient", required=True)
    o.add_argument("--sub", required=True,
                   help="elements like '2*g0; g0+3*g1' in ambient generators")
    o.set_defaults(handler=cmd_oracle_derive)

    p = sub.add_parser("suite", help="run verification suites")
    p.add_argument("--only", choices=suites.SUITE_NAMES)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vars", help="monomial context for correspondence suites")
    p.set_defaults(handler=cmd_suite)

    return parser


# Declines help, inexact, repeated or non-store options, "-"-led values, usage errors.
def _read_plain(parser: argparse.ArgumentParser, args: list) -> dict | None:
    """`vars(parser.parse_args(args))` read off the parser's own actions, or
    None where the argv needs argparse itself: -h or --help, an option name
    that is not exact, repeated, or not one stored value, a separate value
    or a positional led by "-", a missing, extra or conflicting argument, or
    a value its type or choices refuse."""
    values = {}
    for action in parser._actions:  # defaults in argparse's order
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            values.setdefault(action.dest, action.default)
    for dest, default in parser._defaults.items():
        values.setdefault(dest, default)
    positionals = [a for a in parser._actions if not a.option_strings]
    seen = set()
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg.startswith("-"):
            name, eq, value = arg.partition("=")
            action = parser._option_string_actions.get(name)
            if action is None or action in seen:
                return None
            if not eq:
                if i == len(args) or args[i].startswith("-"):
                    return None
                value = args[i]
                i += 1
        elif not positionals:
            return None
        else:
            action, value = positionals.pop(0), arg
            if type(action) is argparse._SubParsersAction:
                sub = action.choices.get(arg)
                rest = None if sub is None else _read_plain(sub, args[i:])
                if rest is None:
                    return None
                values[action.dest] = arg  # then the subparser's namespace
                values.update(rest)
                seen.add(action)
                break
        if type(action) is not argparse._StoreAction or action.nargs is not None:
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None  # the errors argparse reports as usage errors
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        seen.add(action)
    for action in parser._actions:
        if action not in seen and (action.required or (
                action.type is not None and isinstance(action.default, str))):
            return None  # missing, or a default argparse would convert
    for group in parser._mutually_exclusive_groups:
        given = [a for a in group._group_actions if a in seen]
        if len(given) > 1 or (group.required and (
                not given or values[given[0].dest] is given[0].default)):
            return None
    return values


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    values = _read_plain(parser, argv)
    if values is not None:
        args = argparse.Namespace(**values)
    else:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        code, payload = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
