import copy
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from jsonschema import validate as schema_validate

from ncats import (
    AxiomFlags,
    CategoryStructure,
    CompTable,
    GraphMorphism,
    build_cat_of_cats,
    build_document,
    document_from_graph,
    document_from_structure,
    enumerate_functors,
    enumerate_transformations,
    graph_maps,
    identity_morphism,
    parse,
    serialize,
)
from ncats.cli import main
from ncats.morphisms import Transformation

from util import long_order_graph, loops_graph, z2_structure

from test_io import modification_document, report_schema


@pytest.fixture
def z2_file(tmp_path):
    _, S = z2_structure()
    path = tmp_path / "z2.json"
    path.write_bytes(serialize(document_from_structure(S)))
    return str(path)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_bytes(serialize(doc))
    return str(path)


def test_check_passes(z2_file, capsys):
    assert main(["check", z2_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_check_json_is_schema_valid(z2_file, capsys):
    assert main(["check", z2_file, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    schema_validate(rep, report_schema())
    assert rep["verdict"] == "pass"


def test_check_failure_exits_one(tmp_path, capsys):
    G = loops_graph(2)
    broken = CategoryStructure(
        G, [CompTable(0, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0})],
        [], AxiomFlags(global_=True, unital=True))
    path = write(tmp_path, "broken.json", document_from_structure(broken))
    assert main(["check", path]) == 1
    assert "verdict: fail" in capsys.readouterr().out


def test_check_flag_override(z2_file):
    assert main(["check", z2_file, "--flags", "global,unital,associative,groupoid"]) == 0


def test_counterexample_cap_and_all(tmp_path, capsys):
    # an empty table on four loops misses 16 composites
    G = loops_graph(4)
    S = CategoryStructure(G, [CompTable(0, {})], [], AxiomFlags(global_=True))
    path = write(tmp_path, "gaps.json", document_from_structure(S))
    assert main(["check", path]) == 1
    capped = capsys.readouterr().out
    assert "more (rerun with --all)" in capped
    assert main(["check", path, "--all"]) == 1
    full = capsys.readouterr().out
    assert "more (rerun with --all)" not in full
    assert full.count("missing; cells") == 16


def test_invalid_carrier_reports_and_fails(tmp_path, capsys):
    from util import arrow_graph

    doc = json.loads(serialize(document_from_graph(arrow_graph())))
    # identity of the first object redirected to the crossing arrow
    doc["identities"][0]["c0_0"] = "c1_2"
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    assert "carrier: fail" in capsys.readouterr().out


def test_parse_and_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    assert main(["check"]) == 2
    assert main(["bogus-command"]) == 2
    _ = capsys.readouterr()


def test_flag_parse_error(z2_file):
    assert main(["check", z2_file, "--flags", "shiny"]) == 2


def test_enumerate_and_budget(z2_file, capsys, monkeypatch):
    assert main(["enumerate", z2_file, "--flags", "global"]) == 0
    out = capsys.readouterr().out
    assert "raw=16" in out and "iso=10" not in out
    # two nodes stop the run in the 4-step listing of Aut(z2), five inside
    # the search, after its sixth node
    assert main(["enumerate", z2_file, "--flags", "global", "--max-nodes", "2"]) == 3
    assert "nodes: 0\n" in capsys.readouterr().out
    assert main(["enumerate", z2_file, "--flags", "global", "--max-nodes", "5"]) == 3
    assert "nodes: 6\n" in capsys.readouterr().out
    monkeypatch.setenv("NCATS_MAX_NODES", "5")
    assert main(["enumerate", z2_file, "--flags", "global"]) == 3
    assert "nodes: 6\n" in capsys.readouterr().out
    monkeypatch.setenv("NCATS_MAX_NODES", "oodles")
    assert main(["enumerate", z2_file, "--flags", "global"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, env", [
    (["--max-nodes", "-1"], {}),
    ([], {"NCATS_MAX_NODES": "-5"}),
    (["--time-budget", "-1"], {}),
    (["--time-budget", "nan"], {}),
    ([], {"NCATS_TIME_BUDGET": "-0.5"}),
    ([], {"NCATS_TIME_BUDGET": "nan"}),
])
def test_nonsense_budgets_are_usage_errors(z2_file, capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(["enumerate", z2_file, "--flags", "global", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_zero_budgets_stay_budgets(z2_file, capsys):
    assert main(["enumerate", z2_file, "--flags", "global", "--max-nodes", "0"]) == 3
    out = capsys.readouterr().out
    assert "verdict: limit" in out and "nodes: 0\n" in out


def test_enumerate_json(z2_file, capsys):
    assert main(["enumerate", z2_file, "--flags",
                 "global,unital,associative", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    schema_validate(rep, report_schema())
    assert rep["counts"] == {"raw": 2, "iso": 2}
    assert rep["exhausted"] is True


def test_skeletal_subcommand(tmp_path, capsys, z2_file):
    assert main(["gen", "skeletal", "--objects", "2", "--n", "2", "--seed", "5",
                 "-o", str(tmp_path / "sk.json")]) == 0
    assert main(["skeletal", str(tmp_path / "sk.json"), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    schema_validate(rep, report_schema())
    assert rep["unique"] is True
    # a non-skeletal carrier is a failed certificate, not a usage error
    assert main(["skeletal", z2_file]) == 1


def test_opposite_round_trip(z2_file, tmp_path, capsys):
    out1 = str(tmp_path / "op1.json")
    out2 = str(tmp_path / "op2.json")
    assert main(["opposite", z2_file, "--level", "1", "-o", out1]) == 0
    assert main(["opposite", out1, "--level", "1", "-o", out2]) == 0
    original = parse(open(z2_file, "rb").read())
    twice = parse(open(out2, "rb").read())
    assert serialize(twice) == serialize(document_from_graph(original.graph()))
    assert main(["opposite", z2_file, "--level", "7"]) == 2
    _ = capsys.readouterr()


def test_opposite_to_stdout(z2_file, capsys):
    assert main(["opposite", z2_file, "--level", "1"]) == 0
    doc = parse(capsys.readouterr().out)
    assert doc.n == 1


def test_gen_cob_and_sets_check_out(tmp_path, capsys):
    cob = str(tmp_path / "cob.json")
    assert main(["gen", "cob", "--max-points", "2", "-o", cob]) == 0
    assert main(["check", cob]) == 0
    sets = str(tmp_path / "sets.json")
    assert main(["gen", "sets", "--max-size", "2", "-o", sets]) == 0
    capsys.readouterr()
    assert main(["check", sets, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "pass"
    assert main(["gen", "cob", "--max-points", "9", "-o", cob]) == 3


def morphism_file(tmp_path):
    G, S = z2_structure()
    fs = enumerate_functors(S, S)
    ident = next(m for m in fs if m.comps[1] == (0, 1))
    collapse = next(m for m in fs if m.comps[1] == (0, 0))
    good = enumerate_transformations(ident, ident, S, S)[0]
    bad = Transformation(ident, collapse, {0: (1,)})
    doc = build_document(G, S.vtables.values(), flags=S.flags,
                         morphisms={"F": ident, "K": collapse},
                         transformations={"good": ("F", "F", good),
                                          "bad": ("F", "K", bad)})
    path = tmp_path / "morph.json"
    path.write_bytes(serialize(doc))
    return str(path)


def test_morphism_and_functor_subcommands(tmp_path, capsys):
    path = morphism_file(tmp_path)
    assert main(["morphism", path, "--name", "F"]) == 0
    assert main(["functor", path, "--name", "K"]) == 0
    assert main(["morphism", path, "--name", "ghost"]) == 2
    _ = capsys.readouterr()


def test_functor_subcommand_checks_the_horizontal_table(tmp_path, capsys):
    """A map of the cat-of-one-Z2 2-category that keeps both vertical tables
    but breaks the horizontal one is not a functor: exit 1."""
    G, S = build_cat_of_cats([z2_structure()[1]])
    maps = [GraphMorphism(G, G, comps) for comps in graph_maps(G, G)]
    kept = enumerate_functors(S, S)
    broken = next(m for m in maps if m not in kept)
    doc = build_document(G, S.vtables.values(), S.htables.values(), flags=S.flags,
                         morphisms={"I": identity_morphism(G), "B": broken})
    path = write(tmp_path, "functors.json", doc)
    assert main(["functor", path, "--name", "I"]) == 0
    capsys.readouterr()
    assert main(["functor", path, "--name", "B", "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    schema_validate(rep, report_schema())
    failing = [(c["axiom"], c.get("level")) for c in rep["checks"] if c["verdict"] == "fail"]
    assert failing == [("functor-horizontal", 0)]


def test_nat_subcommand(tmp_path, capsys):
    path = morphism_file(tmp_path)
    assert main(["nat", path, "--f", "F", "--g", "F", "--t", "good"]) == 0
    assert main(["nat", path, "--t", "bad"]) == 1
    out = capsys.readouterr().out
    assert "NaturalityFailed" in out
    assert main(["nat", path, "--t", "good", "--g", "K"]) == 2
    assert capsys.readouterr().err == "error: transformation 'good' ends at 'F', not 'K'\n"


def test_modification_subcommand(tmp_path, capsys):
    path = write(tmp_path, "mod.json", modification_document()[0])
    assert main(["modification", path, "--m", "M", "--s", "S", "--t", "S"]) == 0
    capsys.readouterr()
    assert main(["modification", path, "--m", "M", "--t", "ghost"]) == 2
    assert capsys.readouterr().err == "error: modification 'M' ends at 'S', not 'ghost'\n"


def test_every_subcommand_reports_an_invalid_carrier(tmp_path, capsys):
    """Each subcommand that reads a file turns an invalid carrier into the
    failing ``carrier`` check, exit 1, whatever it would go on to read."""
    doc = json.loads(serialize(modification_document()[0]))
    # the identity of the 1-cell c1_0 becomes c2_2, a 2-cell from c1_1 to c1_1
    doc["identities"][1]["c1_0"] = "c2_2"
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    for argv in (["check"], ["enumerate"], ["skeletal"], ["opposite", "--level", "1"],
                 ["morphism", "--name", "I"], ["functor", "--name", "I"],
                 ["nat", "--t", "S"], ["modification", "--m", "M"]):
        assert main([argv[0], str(path), *argv[1:]]) == 1, argv
        out, err = capsys.readouterr()
        assert "carrier: fail" in out and "verdict: fail" in out, argv
        assert err == "", argv
        if argv[0] != "opposite":
            assert main([argv[0], str(path), "--json", *argv[1:]]) == 1, argv
            rep = json.loads(capsys.readouterr().out)
            schema_validate(rep, report_schema())
            assert [c["axiom"] for c in rep["checks"]] == ["carrier"], argv


def test_modification_with_unequal_levels_exits_two(tmp_path, capsys):
    from ncats.morphisms import Modification

    G, S = build_cat_of_cats([z2_structure()[1]], depth=3)
    I = identity_morphism(G)
    idf = G.idn_map(0)[0]
    low = Transformation(I, I, {0: (idf,)}, (0,))
    high = Transformation(I, I, {0: (idf,), 1: tuple(G.idn_map(1))}, (0, 1))
    md = Modification(high, high, {0: (G.idn_map(1)[idf],), 1: (0,) * G.count(1)})
    doc = build_document(G, S.vtables.values(), S.htables.values(), flags=S.flags,
                         morphisms={"I": I},
                         transformations={"low": ("I", "I", low), "high": ("I", "I", high)},
                         modifications={"M": ("high", "high", md)})
    obj = json.loads(serialize(doc))
    obj["modifications"][0]["t"] = "low"
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(obj))
    assert main(["modification", str(path), "--m", "M"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "levels" in err
    assert "Traceback" not in err


def test_enumerate_deep_carrier(tmp_path, capsys):
    """1540 table keys: more than a recursive search has stack frames for."""
    path = write(tmp_path, "order.json", document_from_graph(long_order_graph()))
    assert main(["enumerate", path, "--flags", "global"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def _fuzz_bases():
    """Valid documents, each with an endomorphism named I: Z2 and the
    2-graph of categories and functors on Z2."""
    out = []
    for G, S in (z2_structure(), build_cat_of_cats([z2_structure()[1]])):
        doc = build_document(G, S.vtables.values(), S.htables.values(), flags=S.flags,
                             morphisms={"I": identity_morphism(G)})
        out.append(json.loads(serialize(doc)))
    return out


_FUZZ_BASES = _fuzz_bases()

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4)
    | st.sampled_from(["", "x", "I", "c0_0", "c1_1", "c2_3", "global", "vertical"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "src", "kind", "level", "entries", "name"]),
                      inner, max_size=3),
    max_leaves=4)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for k in sorted(node):
            yield from _paths(node[k], path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_end_in_documented_exit_codes(tmp_path, capsys, data):
    """Replacing or deleting one JSON node of a valid document never lets
    an exception escape the CLI."""
    doc = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_BASES)))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        doc = data.draw(_JSON)
    else:
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON)
    target = tmp_path / "mutant.json"
    target.write_text(json.dumps(doc))
    for argv in (["check"], ["enumerate", "--max-nodes", "2000"], ["functor", "--name", "I"]):
        assert main(argv + [str(target)]) in (0, 1, 2, 3)
    capsys.readouterr()


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "ncats.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "enumerate" in proc.stdout
