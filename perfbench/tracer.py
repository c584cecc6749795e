"""Spans around the calls between ncats modules, recorded from outside.

In traced mode the benchmark rebinds the public functions each module calls
through (for example ``ncats.enumeration.canonical_form`` or
``ncats.structures.iterated_boundary``) to wrappers that record a span
``[name, start, end, parent]``.  Spans stay in memory until the run ends.
Nothing under ``src/`` changes; untraced runs never install the wrappers.

The per-layer metrics come from two views of the same spans:

* the module view partitions the root span: every span's self time (its
  duration minus its children's) goes to exactly one ``*_s`` metric, and
  those metrics sum to ``trace.root_s``;
* the role view splits the time under each ``enumerate_structures`` call
  into prep (automorphisms, pair and triple lists), verify (structure
  builds and checkers, with everything below them) and canonical forms.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter

ENUMERATE = "enumeration.enumerate_structures"
CANONICAL = "enumeration.canonical_form"
AUTOMORPHISMS = "graphs.automorphisms"
BOUNDARY = "graphs.iterated_boundary"
BUILD = "structures.build"
PAIRS = "structures.pairs"
CHECKERS = ("typing", "global", "units", "associativity", "groupoid",
            "interchange", "category")
CHECK = {c: f"structures.check_{c}" for c in CHECKERS}
CAT_OF_CATS = "morphisms.build_cat_of_cats"
FUNCTORS = "morphisms.enumerate_functors"
COB = "cobordism.build_cob_truncation"
SERIALIZE = "io.serialize"
PARSE = "io.parse"
DOCUMENT = "io.document"
CLI = "cli.run"
BENCH = "bench"

# span name -> module-view metric that receives its self time
SELF_METRIC = {
    ENUMERATE: "enumeration.search_self_s",
    CANONICAL: "enumeration.canonical_s",
    AUTOMORPHISMS: "graphs.automorphisms_s",
    BOUNDARY: "graphs.iterated_boundary_s",
    BUILD: "structures.build_s",
    PAIRS: "structures.pairs_s",
    **{name: name + "_s" for name in CHECK.values()},
    CAT_OF_CATS: "morphisms.build_cat_of_cats_s",
    FUNCTORS: "morphisms.enumerate_functors_s",
    COB: "cobordism.build_cob_truncation_s",
    SERIALIZE: "io.serialize_s",
    PARSE: "io.parse_s",
    DOCUMENT: "io.document_s",
    CLI: "cli.wait_s",
    BENCH: "trace.bench_self_s",
}

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("enumeration.search_self_s", "s"),
    ("enumeration.nodes", "count"),
    ("enumeration.nodes_per_s", "1/s"),
    ("enumeration.records_per_node", "ratio"),
    ("enumeration.verify_s", "s"),
    ("enumeration.canonical_s", "s"),
    ("enumeration.canonical_calls", "count"),
    ("enumeration.rejected_at_record", "count"),
    ("enumeration.records", "count"),
    ("enumeration.iso_classes", "count"),
    ("enumeration.prep_s", "s"),
    ("graphs.automorphisms_s", "s"),
    ("graphs.automorphisms_calls", "count"),
    ("graphs.aut_order", "count"),
    ("graphs.iterated_boundary_s", "s"),
    ("graphs.iterated_boundary_calls", "count"),
    ("structures.build_s", "s"),
    ("structures.build_calls", "count"),
    ("structures.pairs_s", "s"),
    ("structures.pairs_calls", "count"),
    *((f"structures.check_{c}_s", "s") for c in CHECKERS),
    ("structures.check_calls", "count"),
    ("structures.check_ms_p50", "ms"),
    ("structures.check_ms_p90", "ms"),
    ("structures.counterexamples", "count"),
    ("morphisms.build_cat_of_cats_s", "s"),
    ("morphisms.enumerate_functors_s", "s"),
    ("cobordism.build_cob_truncation_s", "s"),
    ("cobordism.glue_calls", "count"),
    ("io.serialize_s", "s"),
    ("io.parse_s", "s"),
    ("io.document_s", "s"),
    ("io.bytes", "B"),
    ("io.roundtrip_mb_per_s", "MB/s"),
    ("cli.wait_s", "s"),
    ("cli.ms_p50", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.exit_mismatches", "count"),
    ("trace.root_s", "s"),
    ("trace.bench_self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _rebind_table(ncats):
    """(module, attribute, span name) for every call boundary traced."""
    enum, struct = ncats.enumeration, ncats.structures
    table = [
        (enum, "enumerate_structures", ENUMERATE),
        (enum, "canonical_form", CANONICAL),
        (enum, "automorphisms", AUTOMORPHISMS),
        (enum, "CategoryStructure", BUILD),
        (struct, "iterated_boundary", BOUNDARY),
        (ncats.morphisms, "build_cat_of_cats", CAT_OF_CATS),
        (ncats.morphisms, "enumerate_functors", FUNCTORS),
        (ncats.morphisms, "CategoryStructure", BUILD),
        (ncats.morphisms, "check_category", CHECK["category"]),
        (ncats.cobordism, "build_cob_truncation", COB),
        (ncats.cobordism, "CategoryStructure", BUILD),
        (ncats.io, "serialize", SERIALIZE),
        (ncats.io, "parse", PARSE),
        (ncats.io, "document_from_structure", DOCUMENT),
        (ncats.io, "document_from_graph", DOCUMENT),
    ]
    for mod in (enum, struct):
        for fn in ("composable_pairs", "composable_triples", "h_composable_pairs"):
            table.append((mod, fn, PAIRS))
    for c in CHECKERS:
        if c != "category":
            table.append((enum, f"check_{c}", CHECK[c]))
        table.append((struct, f"check_{c}", CHECK[c]))
    return table


class Tracer:
    """Records spans while installed; ``install`` returns an undo function."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.results = {}        # span index -> summary of the return value
        self.counts = Counter()
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def _open(self, name):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        return i

    def _close(self, i):
        self._stack.pop()
        self.spans[i][2] = time.perf_counter()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            self._note(i, name, args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def _note(self, i, name, args, out):
        if name == ENUMERATE:
            self.results[i] = (out.nodes, out.iso_count)
        elif name == AUTOMORPHISMS:
            self.results[i] = len(out)
        elif name.startswith("structures.check_"):
            self.results[i] = sum(len(c.counterexamples) + len(c.asymmetric)
                                  for c in out.checks)
        elif name == SERIALIZE:
            self.results[i] = len(out)
        elif name == PARSE:
            self.results[i] = len(args[0])

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def install(self, ncats):
        saved = []
        for mod, attr, name in _rebind_table(ncats):
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
        saved.append((ncats.cobordism, "glue", ncats.cobordism.glue))
        ncats.cobordism.glue = self._counter("cobordism.glue_calls", ncats.cobordism.glue)

        def undo():
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
        return undo

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer, root):
    """Per-layer metrics from the tracer's spans, which all descend from the
    root span at index ``root``."""
    spans = tracer.spans
    own = self_times(spans)
    out = {name: 0 if unit in ("count", "B") else 0.0 for name, unit in PER_LAYER}

    def enum_role(i):
        # the child of the enclosing enumerate span on the way down to span i
        child, p = i, spans[i][3]
        while p >= 0:
            if spans[p][0] == ENUMERATE:
                return spans[child][0]
            child, p = p, spans[p][3]
        return None

    records = canonical_calls = 0
    for i, (name, _start, _end, parent) in enumerate(spans):
        out[SELF_METRIC.get(name, "trace.bench_self_s")] += own[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == BOUNDARY:
            out["graphs.iterated_boundary_calls"] += 1
        elif name == AUTOMORPHISMS:
            out["graphs.automorphisms_calls"] += 1
            out["graphs.aut_order"] = max(out["graphs.aut_order"], tracer.results[i])
        elif name == BUILD:
            out["structures.build_calls"] += 1
        elif name == PAIRS:
            out["structures.pairs_calls"] += 1
        elif name == ENUMERATE:
            nodes, iso = tracer.results[i]
            out["enumeration.nodes"] += nodes
            out["enumeration.iso_classes"] += iso
        elif name in (SERIALIZE, PARSE):
            out["io.bytes"] += tracer.results.get(i, 0)
        if name.startswith("structures.check_"):
            out["structures.check_calls"] += 1
            nested = parent_name is not None and parent_name.startswith("structures.check_")
            if i in tracer.results and not nested:
                out["structures.counterexamples"] += tracer.results[i]
        if parent_name == ENUMERATE:
            records += name == CHECK["typing"]
            canonical_calls += name == CANONICAL
        role = enum_role(i)
        if role in (AUTOMORPHISMS, PAIRS):
            out["enumeration.prep_s"] += own[i]
        elif role is not None and role not in (ENUMERATE, CANONICAL):
            out["enumeration.verify_s"] += own[i]
    out["enumeration.records"] = records
    out["enumeration.canonical_calls"] = canonical_calls
    out["enumeration.rejected_at_record"] = records - canonical_calls
    if out["enumeration.nodes"]:
        out["enumeration.records_per_node"] = records / out["enumeration.nodes"]
    if out["enumeration.search_self_s"] > 0:
        out["enumeration.nodes_per_s"] = out["enumeration.nodes"] / out["enumeration.search_self_s"]
    out["cobordism.glue_calls"] = tracer.counts["cobordism.glue_calls"]
    out["trace.root_s"] = spans[root][2] - spans[root][1]
    return out
