import json

import pytest
from jsonschema import validate as schema_validate

from ncats import (
    AxiomFlags,
    CategoryStructure,
    CocompTable,
    CompTable,
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
from ncats.io import exit_code
from ncats.morphisms import Modification, Transformation

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
    assert S2.vtables[0].entries == S.vtables[0].entries
    assert S2.flags == S.flags
    assert check_category(S2).passed
    override = doc.structure(AxiomFlags(global_=True))
    assert override.flags == AxiomFlags(global_=True)


def test_horizontal_and_co_tables_survive():
    G, S = build_cat_of_cats([z2_structure()[1]], depth=2)
    co = CocompTable(0, {G.idn_map(0)[0]: (0, G.idn_map(0)[0], G.idn_map(0)[0])})
    doc = parse(serialize(build_document(
        G, S.vtables.values(), S.htables.values(), cotables=[co], flags=S.flags)))
    S2 = doc.structure()
    assert S2.htables[0].entries == S.htables[0].entries
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
    doc = build_document(G, S.vtables.values(), flags=S.flags,
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
    doc = build_document(G, S.vtables.values(), S.htables.values(), flags=S.flags,
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
        bad_copy(morphisms=[morphism], transformations=[transformation],
                 modifications=[{"name": "M", "s": "T", "t": {}, "comps": {}}]),
    ):
        with pytest.raises(ParseError):
            parse(json.dumps(doc))


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
        S.graph, [CompTable(0, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0})],
        [], AxiomFlags(global_=True, unital=True))
    rep = report_document(check_category(broken))
    schema_validate(rep, report_schema())
    assert rep["verdict"] == "fail" and exit_code(rep) == 1
    assert any(c["counterexamples"] for c in rep["checks"])
    limited = report_document(None, counts={"raw": 0, "iso": 0}, limit_exceeded=True)
    schema_validate(limited, report_schema())
    assert exit_code(limited) == 3


def test_counterexample_names_use_document_ids():
    G = arrow_graph()
    doc = document_from_graph(G)
    partial = CategoryStructure(G, [CompTable(0, {})], [], AxiomFlags(global_=True))
    rep = report_document(check_category(partial), name_of=doc.cell_name)
    cells = [c for chk in rep["checks"] for ce in chk["counterexamples"]
             for c in ce["cells"]]
    assert cells and all(isinstance(c, str) and c.startswith("c1_") for c in cells)
