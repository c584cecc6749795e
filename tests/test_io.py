import copy
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator, validate as schema_validate

from ncats import (
    AxiomFlags,
    CategoryStructure,
    CocompTable,
    DanglingReference,
    NGraph,
    ParseError,
    StructureTail,
    UnknownVersion,
    build_cat_of_cats,
    build_document,
    check_category,
    document_from_graph,
    document_from_structure,
    enumerate_functors,
    enumerate_transformations,
    identity_morphism,
    load_document,
    parse,
    report_document,
    serialize,
)
from ncats import io
from ncats.io import exit_code
from ncats.morphisms import Modification, Transformation
from ncats.structures import FLAG_NAMES, NoTableAtLevel, StructureError

from util import arrow_graph, loops_graph, z2_structure

import importlib.resources


def graph_schema():
    ref = importlib.resources.files("ncats") / "schemas" / "graph.schema.json"
    return json.loads(ref.read_text())


def report_schema():
    ref = importlib.resources.files("ncats") / "schemas" / "report.schema.json"
    return json.loads(ref.read_text())


MINIMAL = {
    "format_version": "1",
    "n": 1,
    "tail": {"minus_one": 1},
    "dims": [
        [{"id": "x", "src": 0, "tgt": 0}],
        [{"id": "i", "src": "x", "tgt": "x"}],
    ],
    "identities": [{"x": "i"}],
}


def test_minimal_document_parses_and_validates():
    doc = parse(json.dumps(MINIMAL))
    G = doc.graph()
    assert isinstance(G, NGraph)
    assert doc.ids(1) == ("i",)
    schema_validate(doc.data, graph_schema())


def test_round_trips():
    _, S = z2_structure()
    doc = document_from_structure(S)
    data = serialize(doc)
    again = parse(data)
    assert again == doc
    assert serialize(again) == data
    assert serialize(doc) == data  # deterministic
    schema_validate(doc.data, graph_schema())


def test_noncanonical_input_normalizes():
    raw = json.loads(serialize(document_from_structure(z2_structure()[1])))
    raw["tables"][0]["entries"].reverse()
    doc = parse(json.dumps(raw))
    entries = doc.data["tables"][0]["entries"]
    assert entries == sorted(entries)
    assert parse(serialize(doc)) == doc


def test_structure_and_flags_survive():
    _, S = z2_structure()
    doc = parse(serialize(document_from_structure(S)))
    S2 = doc.structure()
    assert S2.tables == S.tables
    assert S2.flags == S.flags
    assert check_category(S2).passed
    override = doc.structure(AxiomFlags(global_=True))
    assert override.flags == AxiomFlags(global_=True)


def test_every_table_kind_is_written_as_pinned():
    """A family named (d, j) with a level -1, three vertical and a
    horizontal table, plus two co tables, is written with the kind each
    name gives: the bytes the two-list form of ``build_document`` wrote."""
    Z = z2_structure()[1]
    G, T = build_cat_of_cats([Z, Z], depth=3)
    S = CategoryStructure(G, tables={(0, -1): {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, **T.tables},
                          flags=T.flags)
    idn = G.idn_map(0)
    co = [CocompTable(0, {idn[x]: (x, idn[x], idn[x]) for x in range(G.count(0))}),
          CocompTable(1, {0: (G.src_map(2)[0], 0, G.idn_map(1)[G.tgt_map(2)[0]])})]
    doc = build_document(G, S.tables, cotables=co, flags=S.flags)
    assert [(t["kind"], t["level"]) for t in doc.data["tables"]] == [
        ("minus-one", -1), ("vertical", 0), ("vertical", 1), ("vertical", 2), ("horizontal", 0),
        ("co", 0), ("co", 1)]
    data = serialize(doc)
    assert hashlib.sha256(data).hexdigest() == "6dbc17dec23111978aba8e2acb531815ea4a4e6dd35959ad6d9b51fea1ca3558"
    assert parse(data).structure() == S


def test_build_document_refuses_table_names_as_the_constructor_does():
    """``build_document`` asks the constructor's rule about each table
    name: on a 3-graph a name that is not (j+1, j) or (j+2, j), or a level
    the carrier cannot host, raises the constructor's exception with its
    message, and only the name (0, -1) is written as a minus-one table."""
    G = build_cat_of_cats([z2_structure()[1]], depth=3)[0]
    two_tail = NGraph(1, StructureTail(2, (0, 1)), [[0], [0]], [[1], [0]], [[0]])
    assert G.n == 3
    cases = [
        (G, (3, 0), StructureError, "table name (3, 0) is not (j+1, j) or (j+2, j) for an integer level j"),
        (G, "x", StructureError, "table name 'x' is not (j+1, j) or (j+2, j) for an integer level j"),
        (G, (1, -1), NoTableAtLevel, "horizontal level -1 outside 0..1"),
        (two_tail, (0, -1), NoTableAtLevel, "level -1 table needs a single (-1)-cell"),
    ]
    for carrier, name, error, message in cases:
        for build in (build_document, lambda carrier, tables: CategoryStructure(carrier, tables=tables)):
            with pytest.raises(StructureError) as err:
                build(carrier, {name: {}})
            assert type(err.value) is error
            assert str(err.value) == message
    doc = build_document(G, {(2, 0): {}, (1, 0): {}, (0, -1): {}})
    assert [(t["kind"], t["level"]) for t in doc.data["tables"]] == [
        ("minus-one", -1), ("vertical", 0), ("horizontal", 0)]


@pytest.mark.parametrize("entries, message", [
    ({(0, 9): 0}, "level 0 entry (0, 9) -> 0 out of range"),
    ({(0, 1): 2}, "level 0 entry (0, 1) -> 2 out of range"),
    ({(0, 1): "x"}, "level 0 entry (0, 1) -> 'x' is not made of cell indices"),
])
def test_build_document_refuses_entries_as_the_constructor_does(entries, message):
    """An entry whose key or value is not a cell of the table is refused by
    ``build_document`` with the constructor's exception and message, not an
    IndexError or TypeError from naming its cells."""
    for build in (build_document, lambda carrier, tables: CategoryStructure(carrier, tables=tables)):
        with pytest.raises(StructureError) as err:
            build(loops_graph(2), {(1, 0): entries})
        assert type(err.value) is StructureError
        assert str(err.value) == message


def test_schema_lists_the_flags_and_table_kinds_of_the_code():
    """``graph.schema.json`` names the flags ``FLAG_NAMES`` names, in its
    order, and the table kinds ``io`` reads and writes: a new flag or table
    kind extends the schema with the code."""
    schema = graph_schema()
    assert schema["properties"]["flags"]["items"]["enum"] == list(FLAG_NAMES)
    assert sorted(schema["$defs"]["table"]["properties"]["kind"]["enum"]) == sorted(io._OFFSET)


def test_horizontal_and_co_tables_survive():
    G, S = build_cat_of_cats([z2_structure()[1]], depth=2)
    co = CocompTable(0, {G.idn_map(0)[0]: (0, G.idn_map(0)[0], G.idn_map(0)[0])})
    doc = parse(serialize(build_document(
        G, S.tables, cotables=[co], flags=S.flags)))
    S2 = doc.structure()
    assert S2.tables[2, 0] == S.tables[2, 0]
    assert doc.cotables()[0].entries == co.entries
    schema_validate(doc.data, graph_schema())


def test_labels_survive():
    G = NGraph(1, StructureTail(1, (0, 0)), [[0], [0, 0]], [[0], [0, 0]], [[0]],
               labels=[["pt"], ["one", "s"]])
    doc = parse(serialize(document_from_graph(G)))
    H = doc.graph()
    from ncats import CellId
    assert H.label(CellId(1, 1)) == "s"


def test_morphism_sections_round_trip():
    G, S = z2_structure()
    fs = enumerate_functors(S, S)
    ident = next(m for m in fs if m.comps[1] == (0, 1))
    ts = enumerate_transformations(ident, ident, S, S)
    doc = build_document(G, S.tables, flags=S.flags,
                         morphisms={"F": ident},
                         transformations={"T": ("F", "F", ts[0])})
    doc = parse(serialize(doc))
    assert doc.morphism("F").comps == ident.comps
    assert doc.transformation("T").comps == ts[0].comps
    item = doc.section("transformations", "T")
    assert (item["f"], item["g"]) == ("F", "F")
    with pytest.raises(DanglingReference):
        doc.morphism("nope")
    with pytest.raises(DanglingReference):
        doc.section("transformations", "F")
    schema_validate(doc.data, graph_schema())


def modification_document():
    """The cat-of-one-Z2 2-graph with its tables, the identity morphism I, the
    identity transformation S on it and the identity modification M on S;
    returns the document and M as built."""
    G, S = build_cat_of_cats([z2_structure()[1]], depth=2)
    I = identity_morphism(G)
    idf = G.idn_map(0)[0]
    tr = Transformation(I, I, {0: (idf,)}, (0,))
    md = Modification(tr, tr, {0: (G.idn_map(1)[idf],)})
    doc = build_document(G, S.tables, flags=S.flags,
                         morphisms={"I": I},
                         transformations={"S": ("I", "I", tr)},
                         modifications={"M": ("S", "S", md)})
    return doc, md


def test_modification_section_round_trip():
    doc, md = modification_document()
    doc = parse(serialize(doc))
    assert doc.modification("M").comps == md.comps
    schema_validate(doc.data, graph_schema())


def test_document_builds_its_carrier_once(monkeypatch):
    """Parsing builds no carrier; the first accessor that needs one builds
    and validates it, and every later accessor reuses it."""
    from ncats import graphs

    calls = []
    real = graphs._collect_issues

    def counted(*args):
        calls.append(args)
        return real(*args)

    data = serialize(modification_document()[0])
    monkeypatch.setattr(graphs, "_collect_issues", counted)
    doc = parse(data)
    assert calls == []
    md = doc.modification("M")
    S = doc.structure()
    assert len(calls) == 1
    assert md.s.f.domain is S.graph is doc.graph()


def test_schema_accepts_what_parse_defaults():
    """A transformation without levels, a table without entries and
    repeated flags all load; the schema accepts the raw documents too."""
    morphism = {"name": "I", "comps": [{"x": "x"}, {"i": "i"}]}
    cases = [
        (bad_copy(morphisms=[morphism],
                  transformations=[{"name": "T", "f": "I", "g": "I", "comps": {"0": {"x": "i"}}}]),
         lambda doc: doc.data["transformations"][0]["levels"] == [0]),
        (bad_copy(tables=[{"kind": "vertical", "level": 0}]),
         lambda doc: doc.data["tables"][0]["entries"] == []),
        (bad_copy(flags=["unital", "global", "unital"]),
         lambda doc: doc.data["flags"] == ["global", "unital"]),
    ]
    for raw, normalized in cases:
        schema_validate(raw, graph_schema())
        doc = parse(json.dumps(raw))
        assert normalized(doc)
        schema_validate(doc.data, graph_schema())


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse('{"format_version": ')
    assert "line 1" in str(err.value)


def test_bytes_that_are_not_utf8_are_a_parse_error():
    blob = json.dumps(MINIMAL).encode()
    with pytest.raises(ParseError) as err:
        parse(blob[:10] + b"\xd0\x00" + blob[10:])
    assert str(err.value).startswith("byte 10: not UTF-8")


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    b'{"n": ' * 100_000,
    # past CPython's 4300-digit limit; a build without that limit reads the
    # number and refuses it as a format version instead
    '{"format_version": ' + "7" * 5000 + "}",
], ids=["deep-array", "deep-object", "long-integer"])
def test_json_too_deep_or_too_long_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse(text)


def test_unknown_version_rejected():
    bad = dict(MINIMAL, format_version="2")
    with pytest.raises(UnknownVersion):
        parse(json.dumps(bad))


def bad_copy(**changes):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(changes)
    return doc


def test_dangling_references_are_named():
    doc = bad_copy()
    doc["dims"][1][0]["tgt"] = "q7"
    with pytest.raises(DanglingReference) as err:
        parse(json.dumps(doc))
    assert err.value.ref == "q7"
    doc = bad_copy(identities=[{"x": "q8"}])
    with pytest.raises(DanglingReference) as err:
        parse(json.dumps(doc))
    assert err.value.ref == "q8"
    doc = bad_copy(tables=[{"kind": "vertical", "level": 0, "entries": [["i", "i", "q9"]]}])
    with pytest.raises(DanglingReference) as err:
        parse(json.dumps(doc))
    assert err.value.ref == "q9"
    doc = bad_copy(morphisms=[{"name": "F", "comps": [{"x": "x"}, {"i": "i"}]}],
                   transformations=[{"name": "T", "f": "F", "g": "ghost",
                                     "levels": [0], "comps": {"0": {"x": "i"}}}])
    with pytest.raises(DanglingReference) as err:
        parse(json.dumps(doc))
    assert err.value.ref == "ghost"


def test_structural_rejections():
    with pytest.raises(ParseError):
        parse(json.dumps(bad_copy(extra_key=1)))
    with pytest.raises(ParseError):
        parse(json.dumps(bad_copy(identities=[{}])))          # identity map not total
    with pytest.raises(ParseError):
        parse(json.dumps(bad_copy(tail={"minus_one": 3})))
    with pytest.raises(ParseError):
        parse(json.dumps(bad_copy(flags=["global", "shiny"])))
    doc = bad_copy()
    doc["dims"][1].append({"id": "i", "src": "x", "tgt": "x"})  # duplicate id
    with pytest.raises(ParseError):
        parse(json.dumps(doc))
    doc = bad_copy(tables=[
        {"kind": "vertical", "level": 0, "entries": []},
        {"kind": "vertical", "level": 0, "entries": []},
    ])
    with pytest.raises(ParseError):
        parse(json.dumps(doc))
    # wrongly typed sections and records: a ParseError, not a TypeError
    # or AttributeError from walking them
    morphism = {"name": "I", "comps": [{"x": "x"}, {"i": "i"}]}
    transformation = {"name": "T", "f": "I", "g": "I", "levels": [0], "comps": {"0": {"x": "i"}}}
    for doc in (
        bad_copy(tables=1),
        bad_copy(tables=[1]),
        bad_copy(tables=[{"kind": "vertical", "level": 0, "entries": 5}]),
        bad_copy(tables=[{"kind": [], "level": 0, "entries": []}]),
        bad_copy(morphisms=1),
        bad_copy(transformations=1),
        bad_copy(modifications=1),
        bad_copy(tables={}),
        bad_copy(flags=""),
        bad_copy(morphisms=None),
        bad_copy(morphisms=[morphism], transformations=[dict(transformation, f=[])]),
        bad_copy(morphisms=[morphism], transformations=[dict(transformation, levels=[[0]])]),
        bad_copy(morphisms=[morphism], transformations=[dict(transformation, levels=[0, "a"])]),
        # JSON booleans where the schema wants integers, and a key it
        # does not know
        bad_copy(n=True),
        bad_copy(tail={"minus_one": True}),
        # a float equal to 1 would serialize as 1.0: two byte forms of one carrier
        bad_copy(tail={"minus_one": 1.0}),
        bad_copy(tables=[{"kind": "vertical", "level": False, "entries": []}]),
        bad_copy(tables=[{"kind": "vertical", "level": 0, "extra": 1}]),
        bad_copy(morphisms=[morphism], transformations=[dict(transformation, levels=[False])]),
        bad_copy(morphisms=[morphism], transformations=[transformation],
                 modifications=[{"name": "M", "s": "T", "t": {}, "comps": {}}]),
    ):
        with pytest.raises(ParseError):
            parse(json.dumps(doc))


def test_a_repeated_table_key_is_a_parse_error():
    """Two entries for one key of a composition table, or two witnesses for
    one cell of a co table, are refused while parsing, before any table is
    built: serializing would write both back."""
    z2 = json.loads(serialize(document_from_structure(z2_structure()[1])))
    z2["tables"][0]["entries"].append(["c1_0", "c1_0", "c1_1"])
    twice = bad_copy(tables=[{"kind": "vertical", "level": 0, "entries": [["i", "i", "i"]] * 2}])
    witnessed = bad_copy(tables=[{"kind": "co", "level": 0, "entries": [["i", "x", "i", "i"]] * 2}])
    for raw, message in ((z2, "duplicate entry (c1_0, c1_0) at level 0"),
                         (twice, "duplicate entry (i, i) at level 0"),
                         (witnessed, "duplicate co entry for i")):
        with pytest.raises(ParseError) as err:
            parse(json.dumps(raw))
        assert str(err.value) == message

def test_parse_is_stricter_than_the_schema_where_the_schema_cannot_say():
    """The schema takes ``n`` and ``minus_one`` written as 1.0 (JSON Schema
    counts it as the integer 1) and a repeated table key; ``parse``
    refuses all three, as the schema's ``$comment`` says."""
    schema = graph_schema()
    assert "stricter" in schema["$comment"]
    repeated = [{"kind": "vertical", "level": 0, "entries": [["i", "i", "i"]] * 2}]
    for raw in (bad_copy(n=1.0), bad_copy(tail={"minus_one": 1.0}), bad_copy(tables=repeated)):
        schema_validate(raw, schema)
        with pytest.raises(ParseError):
            parse(json.dumps(raw))

def _paths(node, path=()):
    """The path of every value below ``node``, as keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


_MUTANTS = [True, False, None, 0, 1, 2, -1, 1.5, "", "x", "i", [], {}, [0],
            ["i", "i", "i"], {"x": "i"}]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_rejects_what_the_schema_rejects(data):
    """Up to three edits to a valid document, each replacing or deleting a
    value or adding one: whenever the schema turns the result down, parse
    raises ParseError."""
    morphism = {"name": "I", "comps": [{"x": "x"}, {"i": "i"}]}
    seeds = [bad_copy(tables=[{"kind": "vertical", "level": 0, "entries": [["i", "i", "i"]]}],
                      flags=["global"], morphisms=[morphism],
                      transformations=[{"name": "T", "f": "I", "g": "I", "levels": [0],
                                        "comps": {"0": {"x": "i"}}}]),
             json.loads(serialize(modification_document()[0]))]
    doc = copy.deepcopy(data.draw(st.sampled_from(seeds)))
    for _ in range(data.draw(st.integers(1, 3))):
        *head, last = data.draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in head:
            parent = parent[key]
        edit = data.draw(st.sampled_from(["replace", "delete", "add"]))
        value = copy.deepcopy(data.draw(st.sampled_from(_MUTANTS)))
        if edit == "replace":
            parent[last] = value
        elif edit == "delete":
            del parent[last]
        elif isinstance(parent, dict):
            parent["extra"] = value
        else:
            parent.insert(last, value)
    if not Draft202012Validator(graph_schema()).is_valid(doc):
        with pytest.raises(ParseError):
            parse(json.dumps(doc))


def test_table_levels_are_range_checked_per_kind():
    """On a 2-graph a table of each kind parses at exactly these levels, and
    every other level has a pinned message."""
    base = json.loads(serialize(document_from_structure(build_cat_of_cats([z2_structure()[1]])[1])))
    accepted, messages = {}, set()
    for kind in ("minus-one", "vertical", "horizontal", "co"):
        for level in range(-2, 4):
            try:
                parse(json.dumps(dict(base, tables=[{"kind": kind, "level": level, "entries": []}])))
                accepted.setdefault(kind, []).append(level)
            except ParseError as e:
                messages.add(str(e).replace(f"level {level} ", "level L "))
    assert accepted == {"minus-one": [-1], "vertical": [0, 1], "horizontal": [0], "co": [0, 1]}
    assert messages == {"a minus-one table lives at level -1", "vertical table level L outside 0..1",
                        "horizontal table level L outside 0..0", "co table level L outside 0..1"}


def test_named_section_errors_are_pinned():
    """The messages the CLI prints (exit 2) for broken named sections."""
    morphism = {"name": "I", "comps": [{"x": "x"}, {"i": "i"}]}
    level0 = {"name": "T", "f": "I", "g": "I", "levels": [0], "comps": {"0": {"x": "i"}}}
    flat = {"name": "U", "f": "I", "g": "I", "levels": [], "comps": {}}
    cases = [
        (bad_copy(morphisms=[morphism, morphism]),
         ParseError, "morphisms need unique string names"),
        (bad_copy(morphisms=[dict(morphism, comps=[{"x": "x"}])]),
         ParseError, "morphism 'I' needs component maps for dimensions 0..1"),
        (bad_copy(morphisms=[morphism], transformations=[level0, level0]),
         ParseError, "transformations need unique string names"),
        (bad_copy(morphisms=[morphism], transformations=[dict(level0, g="J")]),
         DanglingReference, "reference to missing id 'J' in transformation 'T' g"),
        (bad_copy(morphisms=[morphism], transformations=[dict(level0, comps={})]),
         ParseError, "transformation 'T' needs one component map per level"),
        (bad_copy(morphisms=[morphism], transformations=[flat],
                  modifications=[{"name": "M", "s": "U", "t": "V", "comps": {}}]),
         DanglingReference, "reference to missing id 'V' in modification 'M' t"),
        (bad_copy(morphisms=[morphism], transformations=[level0, flat],
                  modifications=[{"name": "M", "s": "T", "t": "U", "comps": {}}]),
         ParseError, "modification 'M' endpoints have levels [0] and []"),
        (bad_copy(morphisms=[morphism], transformations=[level0],
                  modifications=[{"name": "M", "s": "T", "t": "T", "comps": {"0": {"x": "i"}}}]),
         ParseError, "modification 'M' needs cells two dimensions up"),
        (bad_copy(morphisms=[morphism], transformations=[flat],
                  modifications=[{"name": "M", "s": "U", "t": "U", "comps": {"0": {}}}]),
         ParseError, "modification 'M' needs one component map per level"),
    ]
    for doc, error, message in cases:
        with pytest.raises(error) as err:
            parse(json.dumps(doc))
        assert type(err.value) is error
        assert str(err.value) == message


def test_invalid_carrier_message_lists_the_issues():
    """A structure on an invalid carrier names each issue, as
    ``GraphValidationError`` does, not the report object."""
    raw = {
        "format_version": "1",
        "n": 1,
        "tail": {"minus_one": 1},
        "dims": [
            [{"id": "x", "src": 0, "tgt": 0}, {"id": "y", "src": 0, "tgt": 0}],
            [{"id": "f", "src": "x", "tgt": "y"}, {"id": "g", "src": "y", "tgt": "y"}],
        ],
        "identities": [{"x": "f", "y": "g"}],
    }
    doc = parse(json.dumps(raw))
    with pytest.raises(ParseError) as err:
        doc.structure()
    message = str(err.value)
    assert message.startswith("carrier is invalid: SectionViolation at 0#0: ")
    assert "ValidationReport(" not in message
    assert message == "carrier is invalid: " + "; ".join(str(i) for i in doc.graph().issues[:5])


def test_load_document_from_path_and_stream(tmp_path):
    target = tmp_path / "g.json"
    data = serialize(parse(json.dumps(MINIMAL)))
    target.write_bytes(data)
    assert load_document(target) == parse(data)
    with open(target, "rb") as fh:
        assert load_document(fh) == parse(data)


def test_different_indexing_gives_different_bytes():
    a = loops_graph(2)
    # same carrier shape with the identity loop listed second
    b = NGraph(1, StructureTail(1, (0, 0)), [[0], [0, 0]], [[0], [0, 0]], [[1]])
    assert serialize(document_from_graph(a)) != serialize(document_from_graph(b))


def test_report_document_and_exit_codes():
    _, S = z2_structure()
    rep = report_document(check_category(S), counts={"raw": 1, "iso": 1},
                          exhausted=True, nodes=12, elapsed=0.01)
    schema_validate(rep, report_schema())
    assert rep["verdict"] == "pass" and exit_code(rep) == 0
    broken = CategoryStructure(
        S.graph, tables={(1, 0): {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}},
        flags=AxiomFlags(global_=True, unital=True))
    rep = report_document(check_category(broken))
    schema_validate(rep, report_schema())
    assert rep["verdict"] == "fail" and exit_code(rep) == 1
    assert any(c["counterexamples"] for c in rep["checks"])
    limited = report_document(None, counts={"raw": 0, "iso": 0}, limit_exceeded=True)
    schema_validate(limited, report_schema())
    assert exit_code(limited) == 3
    errored = report_document(None, error="level 0 key (c1_0, c1_1) is not composable")
    schema_validate(errored, report_schema())
    assert errored["verdict"] == "fail" and exit_code(errored) == 1


def test_counterexample_names_use_document_ids():
    G = arrow_graph()
    doc = document_from_graph(G)
    partial = CategoryStructure(G, tables={(1, 0): {}}, flags=AxiomFlags(global_=True))
    rep = report_document(check_category(partial), name_of=doc.cell_name)
    cells = [c for chk in rep["checks"] for ce in chk["counterexamples"]
             for c in ce["cells"]]
    assert cells and all(isinstance(c, str) and c.startswith("c1_") for c in cells)
