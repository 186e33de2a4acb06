"""Span tracer installed around modlat's public functions from outside.

Modules import one another's functions by name (oracle calls the `snf` it
imported from intlinalg), so each wrapper replaces the original in every
modlat namespace that holds it, and methods are replaced on their class.
Callers outside the package must look a function up through its module
(`intlinalg.snf(...)`), since a name imported from it is not replaced.
`uninstall` puts every original back; `install` may then be called again,
and counts and self times go on adding up.

Spans (id, name, start, end, parent id) are kept in memory up to a cap and
written out by `write_spans`; self time and call counts are accumulated for
every span, capped or not.  A span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 200_000

ORACLE_TABLES = ("subobject_types", "quotient_types", "extension_types",
                 "kernel_types", "cokernel_types", "image_types")


def _snf_bits(tracer, dec):
    bits = max((abs(x).bit_length() for mat in (dec.u, dec.v)
                for row in mat.data for x in row), default=0)
    tracer.counts["snf_bits"] = max(tracer.counts["snf_bits"], bits)


def _close_iterations(tracer, result):
    tracer.counts["close_iterations"] += result.iterations


def _derive_steps(tracer, trace):
    tracer.counts["derive_steps"] += len(trace.steps)


def _components(tracer, components):
    tracer.counts["components"] += len(components)


# (span name, module, function names) for module-level functions.
LAYER_FUNCTIONS = (
    ("intlinalg.snf", "intlinalg", ("snf",)),
    ("intlinalg.solve", "intlinalg", ("solve",)),
    ("intlinalg.kernel_basis", "intlinalg", ("kernel_basis",)),
    ("intlinalg.column_basis", "intlinalg", ("column_basis",)),
    ("intlinalg.invert_unimodular", "intlinalg", ("invert_unimodular",)),
    ("complexes.homology", "complexes", ("homology",)),
    ("zmodules.canonicalize", "zmodules", ("direct_sum",)),
    ("zmodules.factorize", "zmodules", ("factorize",)),
    ("zmodules.from_presentation", "zmodules", ("from_presentation",)),
    *((f"oracle.{t}", "oracle", (t,)) for t in ORACLE_TABLES),
    ("oracle.close", "oracle", ("close",)),
    ("oracle.derive", "oracle", ("derive_submodule",)),
    ("monomials.irreducible_decomposition", "monomials",
     ("irreducible_decomposition",)),
    ("cli.main", "cli", ("main",)),
    ("cli.build_parser", "cli", ("build_parser",)),
    ("cli.emit", "cli", ("_emit",)),
    ("literals.parse", "literals", (
        "parse_context", "parse_int_matrix", "parse_zmodule", "parse_monomial",
        "parse_monomial_ideal", "parse_monomial_module", "parse_module",
        "parse_ideal_z", "parse_ideal", "parse_prime", "parse_spec_subset",
        "parse_subgroup_elements")),
    ("classify.member", "classify", ("generated_member",)),
    ("spectrum.leq", "spectrum", ("leq",)),
)

# (span name, module, class, method names) for methods.
LAYER_METHODS = (
    ("zmodules.canonicalize", "zmodules", "ZModule", ("from_cyclic_orders",)),
    ("oracle.universe_contains", "oracle", "Universe", ("__contains__",)),
    ("classify.member", "classify", "Subcategory", ("member",)),
    ("spectrum.leq", "spectrum", "SpecSubset", ("leq",)),
)

AFTER = {
    "intlinalg.snf": _snf_bits,
    "oracle.close": _close_iterations,
    "oracle.derive": _derive_steps,
    "monomials.irreducible_decomposition": _components,
}

# Boundaries reported by self time, and those reported by call count.
LAYER_TIMES = tuple(dict.fromkeys(
    name for name, *_ in LAYER_FUNCTIONS + LAYER_METHODS
    if name not in ("oracle.universe_contains", "zmodules.factorize")))
LAYER_CALLS = ("intlinalg.snf", "intlinalg.invert_unimodular",
               "complexes.homology", "zmodules.canonicalize",
               "zmodules.factorize", "oracle.universe_contains",
               "monomials.irreducible_decomposition", "cli.main")


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = [(f"{n}.self_s", "s", "lower") for n in LAYER_TIMES]
    out += [(f"{n}.calls", "count", "higher" if n == "cli.main" else "lower")
            for n in LAYER_CALLS]
    out += [
        ("intlinalg.snf.max_entry_bits", "bits", "lower"),
        ("oracle.tables.calls", "count", "lower"),
        ("oracle.tables.hit_ratio", "ratio", "higher"),
        ("oracle.close.iterations", "count", "lower"),
        ("oracle.derive.steps", "count", "lower"),
        ("monomials.components", "count", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._tables = {}       # name -> (lru-cached table, hits, misses) at last fold
        self.table_hits = 0
        self.table_misses = 0

    def wrap(self, name, fn, after=None):
        stack, self_s, calls, spans = self._stack, self.self_s, self.calls, self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name, start, end,
                                  parent[0] if parent else None))
                else:
                    self.dropped += 1
            if after is not None:
                after(self, result)
            return result

        return traced

    def patch_function(self, module, attr, name):
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, AFTER.get(name))
        for mod in [m for n, m in list(sys.modules.items())
                    if m is not None and n.split(".")[0] == "modlat"]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, AFTER.get(name)))
        else:
            replacement = self.wrap(name, raw, AFTER.get(name))
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def fold_tables(self, cleared: bool = False):
        """Add the oracle table cache counts since the last fold.  Pass
        cleared=True just before the caches are cleared, which zeroes them."""
        for name, (table, hits, misses) in self._tables.items():
            info = table.cache_info()
            self.table_hits += info.hits - hits
            self.table_misses += info.misses - misses
            self._tables[name] = (table, 0, 0) if cleared else (
                table, info.hits, info.misses)

    def install(self):
        """Wrap every traced boundary.  Oracle table cache counters are read
        relative to their values now, so the hit ratio covers only the time
        the tracer is installed."""
        oracle = importlib.import_module("modlat.oracle")
        for table in ORACLE_TABLES:
            cached = getattr(oracle, table)
            info = cached.cache_info()
            self._tables[table] = (cached, info.hits, info.misses)
        for name, module, attrs in LAYER_FUNCTIONS:
            mod = importlib.import_module(f"modlat.{module}")
            for attr in attrs:
                self.patch_function(mod, attr, name)
        for name, module, cls, attrs in LAYER_METHODS:
            owner = getattr(importlib.import_module(f"modlat.{module}"), cls)
            for attr in attrs:
                self.patch_method(owner, attr, name)

    def uninstall(self):
        """Restore every original; table cache counters stop here too."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.fold_tables()
        self._tables.clear()

    def metrics(self, overhead_s: float, overhead_pct: float) -> dict:
        """Per-layer metrics; call after `uninstall`."""
        hits = self.table_hits
        lookups = hits + self.table_misses
        values = {f"{n}.self_s": self.self_s[n] for n in LAYER_TIMES}
        values.update({f"{n}.calls": self.calls[n] for n in LAYER_CALLS})
        values.update({
            "intlinalg.snf.max_entry_bits": self.counts["snf_bits"],
            "oracle.tables.calls": lookups,
            "oracle.tables.hit_ratio": hits / lookups if lookups else 0.0,
            "oracle.close.iterations": self.counts["close_iterations"],
            "oracle.derive.steps": self.counts["derive_steps"],
            "monomials.components": self.counts["components"],
            "trace.spans": self._next_id,
            "trace.overhead_s": overhead_s,
            "trace.overhead_pct": overhead_pct,
        })
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in metric_names()}

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans),
                                 "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

