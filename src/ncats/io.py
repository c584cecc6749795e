"""The on-disk format: one JSON document per carrier, optionally bundling
composition tables, axiom flags, and named morphisms, transformations and
modifications over that carrier.

Cells are referenced by string id inside a file and mapped to dense indices
in file order when loaded.  Serialization is canonical: keys sorted, cells
kept in index order, table entries and section names sorted, two-space
indent, trailing newline.  Loading the bytes back yields an equal document,
and serializing a loaded canonical file reproduces it byte for byte.

Reports mirror the checker output: one record per axiom check with verdict
and counterexamples, plus counts and budget information where the
subcommand produces them.  Exit codes are computed from the report dict
alone.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .graphs import CellId, NGraph, ValidationReport, validate_graph
from .structures import (
    _KINDS,
    FLAG_NAMES,
    AxiomFlags,
    AxiomReport,
    CategoryStructure,
    CocompTable,
    Counterexample,
    table_place,
)

if TYPE_CHECKING:
    from .morphisms import GraphMorphism, Modification, Transformation

FORMAT_VERSION = "1"

MINUS_ONE = "minus-one"
CO = "co"
# each table kind in file order, with the offset of its cells above its
# level: the table (0, -1), then the kinds of ``structures`` by offset d - j
_OFFSET = {MINUS_ONE: 1, **{kind: offset for offset, (kind, *_text) in _KINDS.items()}, CO: 1}

_TOP_KEYS = {"format_version", "n", "tail", "dims", "identities", "tables",
             "flags", "morphisms", "transformations", "modifications"}
_CELL_KEYS = {"id", "src", "tgt", "label"}


class ParseError(Exception):
    """The document is not well formed."""


class UnknownVersion(ParseError):
    pass


class DanglingReference(ParseError):
    def __init__(self, ref, where=""):
        self.ref = ref
        suffix = f" in {where}" if where else ""
        super().__init__(f"reference to missing id {ref!r}{suffix}")


def _expect(cond, message):
    if not cond:
        raise ParseError(message)


def _expect_keys(obj, allowed, what):
    _expect(isinstance(obj, dict), f"{what} must be an object")
    extra = set(obj) - allowed
    _expect(not extra, f"{what} has unknown keys: {sorted(extra)}")


class GraphDocument:
    """A normalized, reference-checked document.

    Wraps the canonical dict; accessors build the in-memory objects on
    demand, the carrier only once.  Equality is equality of content.
    """

    def __init__(self, data: dict):
        self.data = data
        self._ids = tuple(tuple(c["id"] for c in row) for row in data["dims"])
        self._index = [{cid: i for i, cid in enumerate(row)} for row in self._ids]
        self._graph = None

    def __eq__(self, other):
        return isinstance(other, GraphDocument) and self.data == other.data

    def __hash__(self):
        return hash(serialize(self))

    @property
    def n(self) -> int:
        return self.data["n"]

    def ids(self, dim: int) -> tuple[str, ...]:
        return self._ids[dim]

    def cell_name(self, z: CellId) -> str:
        if z.dim < 0:
            return f"tail_{z.index}"
        return self._ids[z.dim][z.index]

    def index_of(self, dim: int, cid: str, where: str = "") -> int:
        try:
            return self._index[dim][cid]
        except KeyError:
            raise DanglingReference(cid, where) from None

    def to_raw(self) -> dict:
        src, tgt = [], []
        for d, row in enumerate(self.data["dims"]):
            if d == 0:
                src.append([c["src"] for c in row])
                tgt.append([c["tgt"] for c in row])
            else:
                src.append([self._index[d - 1][c["src"]] for c in row])
                tgt.append([self._index[d - 1][c["tgt"]] for c in row])
        idn = [list(self._decode(sec, d, 1)) for d, sec in enumerate(self.data["identities"])]
        raw = dict(n=self.n, minus_one=self.data["tail"]["minus_one"],
                   src=src, tgt=tgt, idn=idn)
        if any("label" in c for row in self.data["dims"] for c in row):
            raw["labels"] = [[c.get("label") for c in row] for row in self.data["dims"]]
        return raw

    def graph(self) -> NGraph | ValidationReport:
        if self._graph is None:
            self._graph = validate_graph(self.to_raw())
        return self._graph

    def _carrier(self) -> NGraph:
        G = self.graph()
        if not isinstance(G, NGraph):
            raise ParseError(f"carrier is invalid: {G}")
        return G

    def flags(self) -> AxiomFlags:
        return AxiomFlags.from_names(self.data.get("flags", ()))

    def _tables(self, kinds):
        for t in self.data.get("tables", ()):
            if t["kind"] in kinds:
                yield t

    def structure(self, flags: AxiomFlags | None = None) -> CategoryStructure:
        G, at = self._carrier(), self.index_of
        tables = {}
        for t in self._tables(_OFFSET.keys() - {CO}):
            d, j = t["level"] + _OFFSET[t["kind"]], t["level"]
            tables[d, j] = {(at(d, a, "table"), at(d, b, "table")): at(d, v, "table")
                            for a, b, v in t["entries"]}
        return CategoryStructure(G, tables=tables, flags=self.flags() if flags is None else flags)

    def cotables(self) -> list[CocompTable]:
        at, out = self.index_of, []
        for t in self._tables({CO}):
            j = t["level"]
            d = j + 1
            out.append(CocompTable(j, {at(d, z, "co table"): (at(j, w, "co table"), at(d, p, "co table"),
                                                              at(d, q, "co table"))
                                       for z, w, p, q in t["entries"]}))
        return out

    def section(self, kind: str, name: str) -> dict:
        """The raw item called ``name`` in the section ``kind`` (such as
        ``"transformations"``); raises DanglingReference when absent."""
        for item in self.data.get(kind, ()):
            if item["name"] == name:
                return item
        raise DanglingReference(name, kind)

    def _decode(self, sec: dict, d: int, k: int) -> tuple[int, ...]:
        """A component map from d-cell ids to (d+k)-cell ids, as indices."""
        return tuple(self._index[d + k][sec[cid]] for cid in self._ids[d])

    def morphism(self, name: str) -> GraphMorphism:
        from .morphisms import GraphMorphism

        item = self.section("morphisms", name)
        G = self._carrier()
        return GraphMorphism(G, G, tuple(
            self._decode(sec, d, 0) for d, sec in enumerate(item["comps"])))

    def _per_level(self, item: dict, levels, k: int) -> dict[int, tuple[int, ...]]:
        return {i: self._decode(item["comps"][str(i)], i, k) for i in levels}

    def transformation(self, name: str) -> Transformation:
        from .morphisms import Transformation

        item = self.section("transformations", name)
        levels = tuple(item["levels"])
        return Transformation(self.morphism(item["f"]), self.morphism(item["g"]),
                              self._per_level(item, levels, 1), levels)

    def modification(self, name: str) -> Modification:
        from .morphisms import Modification

        item = self.section("modifications", name)
        s = self.transformation(item["s"])
        return Modification(s, self.transformation(item["t"]), self._per_level(item, s.levels, 2))


def _check_cell(cell, d, minus_one, prev_ids, seen):
    _expect_keys(cell, _CELL_KEYS, f"cell record in dimension {d}")
    cid = cell.get("id")
    _expect(isinstance(cid, str) and cid, f"dimension {d} cell needs a string id")
    _expect(cid not in seen, f"duplicate cell id {cid!r}")
    seen.add(cid)
    out = {"id": cid}
    for side in ("src", "tgt"):
        v = cell.get(side)
        if d == 0:
            _expect(isinstance(v, int) and not isinstance(v, bool)
                    and 0 <= v < minus_one,
                    f"cell {cid!r}: {side} must be a tail index below {minus_one}")
        else:
            _expect(isinstance(v, str), f"cell {cid!r}: {side} must be a cell id")
            if v not in prev_ids:
                raise DanglingReference(v, f"cell {cid!r} {side}")
        out[side] = v
    if "label" in cell:
        _expect(isinstance(cell["label"], str), f"cell {cid!r}: label must be a string")
        out["label"] = cell["label"]
    return out


def _check_component_map(sec, keys, value_ids, what):
    _expect(isinstance(sec, dict), f"{what} must be an object")
    for k in sec:
        if k not in keys:
            raise DanglingReference(k, what)
    for k in keys:
        _expect(k in sec, f"{what} is missing cell {k!r}")
        v = sec[k]
        _expect(isinstance(v, str), f"{what}: value for {k!r} must be a cell id")
        if v not in value_ids:
            raise DanglingReference(v, what)
    return {k: sec[k] for k in keys}


def _records(obj, key):
    """The list under ``key``, empty when the key is absent."""
    items = obj.get(key, [])
    _expect(isinstance(items, list), f"{key} must be a list")
    return items


def _named_section(obj, what, ends, known, read, *extra):
    """The records of the section ``what + "s"`` by name, each normalized by
    ``read(name, record)``.

    Every record may hold only a name, component maps, the endpoint fields
    ``ends`` and the ``extra`` fields; names are unique strings, and each
    endpoint names a record of ``known``.
    """
    out = {}
    for item in _records(obj, what + "s"):
        _expect_keys(item, {"name", "comps", *ends, *extra}, f"{what} record")
        name = item.get("name")
        _expect(isinstance(name, str) and name and name not in out,
                f"{what}s need unique string names")
        for end in ends:
            if not isinstance(item.get(end), str) or item[end] not in known:
                raise DanglingReference(item.get(end), f"{what} {name!r} {end}")
        out[name] = dict(read(name, item), name=name, **{end: item[end] for end in ends})
    return out


def _check_entries(t, ids_by_dim, n):
    _expect_keys(t, {"kind", "level", "entries"}, "table record")
    kind = t.get("kind")
    _expect(isinstance(kind, str) and kind in _OFFSET, f"unknown table kind {kind!r}")
    level = t.get("level")
    _expect(isinstance(level, int) and not isinstance(level, bool),
            "table level must be an integer")
    if kind == MINUS_ONE:
        _expect(level == -1, "a minus-one table lives at level -1")
    # a table holds (level + offset)-cells, and the top dimension is n
    lo, hi = -1 if kind == MINUS_ONE else 0, n - _OFFSET[kind]
    _expect(lo <= level <= hi, f"{kind} table level {level} outside {lo}..{hi}")
    width = 4 if kind == CO else 3
    value_dim = level + _OFFSET[kind]
    raw = t.get("entries", [])
    _expect(isinstance(raw, list), f"{kind} table entries must be a list")
    entries, keys = [], set()
    for e in raw:
        _expect(isinstance(e, list) and len(e) == width,
                f"{kind} table entries must be lists of {width} ids")
        dims = (value_dim, level, value_dim, value_dim) if kind == CO \
            else (value_dim,) * 3
        for ref, dim in zip(e, dims):
            _expect(isinstance(ref, str), "table entries hold cell ids")
            if ref not in ids_by_dim[dim]:
                raise DanglingReference(ref, f"{kind} table at level {level}")
        # a composition table keys an entry by its pair, a co table by its cell
        key = e[0] if kind == CO else tuple(e[:2])
        _expect(key not in keys, f"duplicate co entry for {key}" if kind == CO
                else f"duplicate entry ({key[0]}, {key[1]}) at level {level}")
        keys.add(key)
        entries.append(list(e))
    return {"kind": kind, "level": level, "entries": sorted(entries)}


def parse(text: str | bytes) -> GraphDocument:
    """Decode, structurally validate and normalize one document.

    Raises ParseError (with line/column for malformed JSON, the offset of a
    byte that is not UTF-8; also for JSON nested too deeply or an integer
    literal too long to read), UnknownVersion, or DanglingReference naming
    the missing id.  Semantic validation of the carrier axioms stays with
    validate_graph.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        obj = json.loads(text)
    except UnicodeDecodeError as e:
        raise ParseError(f"byte {e.start}: not UTF-8 ({e.reason})") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply") from None
    except ValueError:
        # the interpreter's limit on the digits of an integer literal
        raise ParseError("integer literal too long") from None
    _expect_keys(obj, _TOP_KEYS, "document")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise UnknownVersion(f"format_version {version!r} is not supported")
    n = obj.get("n")
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 1, "n must be an integer >= 1")
    _expect_keys(obj.get("tail"), {"minus_one"}, "tail")
    minus_one = obj["tail"].get("minus_one")
    _expect(isinstance(minus_one, int) and not isinstance(minus_one, bool) and minus_one in (1, 2),
            "tail.minus_one must be 1 or 2")

    dims = obj.get("dims")
    _expect(isinstance(dims, list) and len(dims) == n + 1,
            f"dims must list dimensions 0..{n}")
    seen = set()
    ids_by_dim = []
    norm_dims = []
    for d, row in enumerate(dims):
        _expect(isinstance(row, list), f"dims[{d}] must be a list")
        prev = ids_by_dim[d - 1] if d else set()
        norm_row = [_check_cell(c, d, minus_one, prev, seen) for c in row]
        norm_dims.append(norm_row)
        ids_by_dim.append({c["id"] for c in norm_row})

    identities = obj.get("identities")
    _expect(isinstance(identities, list) and len(identities) == n,
            f"identities must list dimensions 0..{n - 1}")
    keys = [[c["id"] for c in row] for row in norm_dims]
    norm_idn = [_check_component_map(sec, keys[d], ids_by_dim[d + 1],
                                     f"identity map at dimension {d}")
                for d, sec in enumerate(identities)]

    data = {"format_version": FORMAT_VERSION, "n": n,
            "tail": {"minus_one": minus_one},
            "dims": norm_dims, "identities": norm_idn}

    if _records(obj, "tables"):
        tables = [_check_entries(t, ids_by_dim, n) for t in obj["tables"]]
        tagged = {(t["kind"], t["level"]) for t in tables}
        _expect(len(tagged) == len(tables), "duplicate table for one kind and level")
        data["tables"] = sorted(tables, key=lambda t: (list(_OFFSET).index(t["kind"]), t["level"]))

    flags = _records(obj, "flags")
    if flags:
        _expect(all(f in FLAG_NAMES for f in flags),
                f"flags must be drawn from {FLAG_NAMES}")
        data["flags"] = [f for f in FLAG_NAMES if f in flags]

    def level_maps(what, name, comps, levels, k):
        """The per-level component maps of a transformation (k = 1) or a
        modification (k = 2), from i-cells to (i+k)-cells."""
        _expect(isinstance(comps, dict) and set(comps) == {str(i) for i in levels},
                f"{what} {name!r} needs one component map per level")
        return {str(i): _check_component_map(comps[str(i)], keys[i], ids_by_dim[i + k],
                                             f"{what} {name!r} level {i}") for i in levels}

    def read_morphism(name, item):
        comps = item.get("comps")
        _expect(isinstance(comps, list) and len(comps) == n + 1,
                f"morphism {name!r} needs component maps for dimensions 0..{n}")
        return {"comps": [_check_component_map(sec, keys[d], ids_by_dim[d],
                                               f"morphism {name!r} dimension {d}")
                          for d, sec in enumerate(comps)]}

    def read_transformation(name, item):
        levels = item.get("levels", [0])
        _expect(isinstance(levels, list)
                and all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i <= n - 1
                        for i in levels)
                and levels == sorted(set(levels)),
                f"transformation {name!r} levels must be sorted dimensions below {n}")
        return {"levels": list(levels),
                "comps": level_maps("transformation", name, item.get("comps"), levels, 1)}

    def read_modification(name, item):
        levels, t_levels = transformations[item["s"]]["levels"], transformations[item["t"]]["levels"]
        _expect(levels == t_levels,
                f"modification {name!r} endpoints have levels {levels} and {t_levels}")
        _expect(all(i + 2 <= n for i in levels),
                f"modification {name!r} needs cells two dimensions up")
        return {"comps": level_maps("modification", name, item.get("comps"), levels, 2)}

    morphisms = _named_section(obj, "morphism", (), {}, read_morphism)
    transformations = _named_section(obj, "transformation", ("f", "g"), morphisms,
                                     read_transformation, "levels")
    modifications = _named_section(obj, "modification", ("s", "t"), transformations,
                                   read_modification)
    for key, section in (("morphisms", morphisms), ("transformations", transformations),
                         ("modifications", modifications)):
        if section:
            data[key] = [section[name] for name in sorted(section)]

    return GraphDocument(data)


def load_document(source) -> GraphDocument:
    """parse() for a path or an open stream."""
    if hasattr(source, "read"):
        return parse(source.read())
    with open(source, "rb") as fh:
        return parse(fh.read())


def serialize(doc: GraphDocument) -> bytes:
    return (json.dumps(doc.data, sort_keys=True, indent=2, ensure_ascii=True)
            + "\n").encode("utf-8")


def _default_ids(G: NGraph):
    return tuple(tuple(f"c{d}_{i}" for i in range(G.count(d)))
                 for d in range(G.n + 1))


def build_document(G: NGraph, tables=None, cotables=(),
                   flags: AxiomFlags | None = None,
                   morphisms=None, transformations=None,
                   modifications=None) -> GraphDocument:
    """Assemble a document around a carrier, naming cells c<dim>_<index>.

    ``tables`` holds entry dicts named (d, j), as ``S.tables`` does, each
    name checked by ``table_place``, and ``cotables`` a list of ``CocompTable``.
    The morphism sections take {name: object} mappings; every object must
    live on this carrier (endomorphisms in the case of graph morphisms).
    """
    ids = _default_ids(G)
    dims = []
    for d in range(G.n + 1):
        row = []
        for i in range(G.count(d)):
            if d == 0:
                cell = {"id": ids[0][i], "src": G.src_map(0)[i], "tgt": G.tgt_map(0)[i]}
            else:
                cell = {"id": ids[d][i], "src": ids[d - 1][G.src_map(d)[i]],
                        "tgt": ids[d - 1][G.tgt_map(d)[i]]}
            lab = G.label(CellId(d, i))
            if lab is not None:
                cell["label"] = lab
            row.append(cell)
        dims.append(row)
    identities = [{ids[d][i]: ids[d + 1][up] for i, up in enumerate(G.idn_map(d))}
                  for d in range(G.n)]
    data = {"format_version": FORMAT_VERSION, "n": G.n,
            "tail": {"minus_one": G.tail.minus_one_count},
            "dims": dims, "identities": identities}

    records = []
    for name, entries in (tables or {}).items():
        offset, j = table_place(G, name)
        cells = ids[j + offset]
        records.append({"kind": MINUS_ONE if j == -1 else _KINDS[offset][0], "level": j, "entries": sorted(
            [cells[a], cells[b], cells[v]] for (a, b), v in entries.items())})
    for t in cotables:
        d = t.level + 1
        records.append({"kind": CO, "level": t.level, "entries": sorted(
            [ids[d][z], ids[t.level][w], ids[d][p], ids[d][q]]
            for z, (w, p, q) in t.entries.items())})
    if records:
        data["tables"] = sorted(records, key=lambda t: (list(_OFFSET).index(t["kind"]), t["level"]))

    if flags is not None and any(flags.names()):
        data["flags"] = list(flags.names())

    if morphisms:
        data["morphisms"] = sorted((
            {"name": name,
             "comps": [{ids[d][i]: ids[d][m.comps[d][i]] for i in range(G.count(d))}
                       for d in range(G.n + 1)]}
            for name, m in morphisms.items()), key=lambda m: m["name"])
    if transformations:
        out = []
        for name, (fname, gname, t) in transformations.items():
            comps = {str(i): {ids[i][x]: ids[i + 1][t.comps[i][x]]
                              for x in range(G.count(i))} for i in t.levels}
            out.append({"name": name, "f": fname, "g": gname,
                        "levels": list(t.levels), "comps": comps})
        data["transformations"] = sorted(out, key=lambda t: t["name"])
    if modifications:
        out = []
        for name, (sname, tname, md) in modifications.items():
            levels = md.s.levels
            comps = {str(i): {ids[i][x]: ids[i + 2][md.comps[i][x]]
                              for x in range(G.count(i))} for i in levels}
            out.append({"name": name, "s": sname, "t": tname, "comps": comps})
        data["modifications"] = sorted(out, key=lambda m: m["name"])

    return GraphDocument(data)


def document_from_graph(G: NGraph) -> GraphDocument:
    return build_document(G)


def document_from_structure(S: CategoryStructure) -> GraphDocument:
    return build_document(S.graph, S.tables, flags=S.flags)


def _json_value(v, name_of):
    if isinstance(v, CellId):
        return name_of(v)
    if isinstance(v, (tuple, list)):
        return [_json_value(x, name_of) for x in v]
    if v is None or isinstance(v, (bool, int, str)):
        return v
    return str(v)


def _counterexample_json(ce: Counterexample, name_of):
    out = {"kind": ce.kind, "cells": [_json_value(c, name_of) for c in ce.cells]}
    if ce.expected is not None:
        out["expected"] = _json_value(ce.expected, name_of)
    if ce.actual is not None:
        out["actual"] = _json_value(ce.actual, name_of)
    return out


def report_document(report: AxiomReport | None = None, name_of=None,
                    counts: dict | None = None, **extra) -> dict:
    """Render checker output as the machine-readable report dict.

    ``name_of`` maps CellId to the string used in the file; the default is
    the generated c<dim>_<index> scheme.  Extra keyword fields (exhausted,
    nodes, elapsed, limit_exceeded, error, ...) are copied in verbatim; an
    ``error`` makes the verdict fail.
    """
    if name_of is None:
        name_of = lambda z: f"tail_{z.index}" if z.dim < 0 else f"c{z.dim}_{z.index}"
    doc = {"format_version": FORMAT_VERSION, "kind": "report"}
    verdict = "pass"
    if report is not None:
        checks = []
        for c in report.checks:
            rec = {"axiom": c.axiom, "verdict": c.verdict,
                   "counterexamples": [_counterexample_json(x, name_of)
                                       for x in c.counterexamples],
                   "asymmetric": [_counterexample_json(x, name_of)
                                  for x in c.asymmetric]}
            if c.level is not None:
                rec["level"] = c.level
            if c.notes:
                rec["notes"] = list(c.notes)
            checks.append(rec)
        doc["checks"] = checks
        if not report.passed:
            verdict = "fail"
    if "error" in extra:
        verdict = "fail"
    if counts is not None:
        doc["counts"] = counts
    doc.update(extra)
    if extra.get("limit_exceeded"):
        verdict = "limit"
    doc["verdict"] = verdict
    return doc


def exit_code(report: dict) -> int:
    """0 pass, 1 a check failed, 3 a budget was exhausted."""
    v = report.get("verdict")
    if v == "limit":
        return 3
    return 0 if v == "pass" else 1
