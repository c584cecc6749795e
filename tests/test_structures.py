import hashlib
import itertools
import json
import random
from itertools import filterfalse

import pytest

from ncats import (
    AxiomFlags,
    CategoryStructure,
    CellId,
    CocompTable,
    NGraph,
    StructureTail,
    build_cat_of_cats,
    check_associativity,
    check_category,
    check_cocategory,
    check_global,
    check_groupoid,
    check_interchange,
    check_typing,
    check_units,
    composable,
    composable_pairs,
    compose,
    h_composable_pairs,
    report_document,
)
from ncats import structures
from ncats.cobordism import build_cob_truncation
from ncats.enumeration import _verdict
from ncats.graphs import SOURCE, TARGET, BadLevel, GraphError, hom_buckets
from ncats.structures import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    MissingTables,
    NoTableAtLevel,
    NotComposable,
    NotDefined,
    CompTable,
    HCompTable,
    StructureError,
    UnitsRequired,
    _inverses,
    assoc_scan,
    global_scan,
    groupoid_scan,
    interchange_partners,
    interchange_scan,
    inverses,
    laws,
    neighbours,
    row_family,
    table_keys,
    typing_scan,
    units_scan,
)

from util import (
    arrow_graph,
    chain_graph,
    loops_graph,
    parallel_pair_graph,
    random_graph,
    total_order_structure,
    z2_structure,
)


def test_flags_round_trip_names():
    f = AxiomFlags.from_names(["global", "associative"])
    assert f.global_ and f.associative and not f.unital
    assert f.names() == ("global", "associative")
    with pytest.raises(ValueError):
        AxiomFlags.from_names(["strictly"])


def test_construction_rejects_bad_tables():
    G = loops_graph(2)
    with pytest.raises(NoTableAtLevel):
        CategoryStructure(G, [CompTable(1, {})])
    with pytest.raises(StructureError):
        CategoryStructure(G, [CompTable(0, {}), CompTable(0, {})])
    with pytest.raises(StructureError):
        CategoryStructure(G, [CompTable(0, {(0, 9): 0})])
    H = chain_graph()
    with pytest.raises(NotComposable):
        # g then f runs the wrong way around
        CategoryStructure(H, [CompTable(0, {(4, 3): 3})])
    two_tail = NGraph(1, StructureTail(2, (0, 1)), [[0], [0]], [[1], [0]], [[0]])
    with pytest.raises(NoTableAtLevel):
        CategoryStructure(two_tail, [CompTable(-1, {})])


def _construction_faults():
    """(graph, vertical, horizontal, error, message) for one construction
    fault each, in vertical and in horizontal tables."""
    G = loops_graph(2)
    two_tail = NGraph(1, StructureTail(2, (0, 1)), [[0], [0]], [[1], [0]], [[0]])
    Z = z2_structure()[1]
    C, T = build_cat_of_cats([Z, Z], depth=2)
    vt = list(T.vtables.values())
    outer_t = structures.boundary_map(C, 2, 0, TARGET)
    outer_s = structures.boundary_map(C, 2, 0, SOURCE)
    a, b = next((a, b) for a in range(C.count(2)) for b in range(C.count(2))
                if outer_t[a] != outer_s[b])
    top = C.count(2)
    cases = [
        ((G, [CompTable(1, {})]), NoTableAtLevel, "vertical level 1 outside -1..0"),
        ((G, [CompTable(-2, {})]), NoTableAtLevel, "vertical level -2 outside -1..0"),
        ((two_tail, [CompTable(-1, {})]), NoTableAtLevel,
         "level -1 table needs a single (-1)-cell"),
        ((G, [CompTable(0, {}), CompTable(0, {})]), StructureError,
         "duplicate vertical table at level 0"),
        ((G, [CompTable(0, {(0, 9): 0})]), StructureError,
         "level 0 entry (0, 9) -> 0 out of range"),
        ((G, [CompTable(0, {(0, 1): 2})]), StructureError,
         "level 0 entry (0, 1) -> 2 out of range"),
        ((chain_graph(), [CompTable(0, {(4, 3): 3})]), NotComposable,
         "level 0 key (4, 3) is not composable"),
        ((C, vt, [HCompTable(1, {})]), NoTableAtLevel, "horizontal level 1 outside 0..0"),
        ((C, vt, [HCompTable(-1, {})]), NoTableAtLevel, "horizontal level -1 outside 0..0"),
        ((two_tail, [], [HCompTable(-1, {})]), NoTableAtLevel,
         "horizontal level -1 outside 0..-1"),
        ((C, vt, [HCompTable(0, {}), HCompTable(0, {})]), StructureError,
         "duplicate horizontal table at level 0"),
        ((C, vt, [HCompTable(0, {(0, top): 0})]), StructureError,
         f"horizontal level 0 entry (0, {top}) -> 0 out of range"),
        ((C, vt, [HCompTable(0, {(a, b): a})]), NotComposable,
         f"horizontal level 0 key ({a}, {b}) shares no boundary"),
    ]
    return [((*args, [])[:3], error, message) for args, error, message in cases]


def test_construction_errors_are_pinned():
    """The exception type and exact message of every construction error,
    for vertical and horizontal tables: ``ncats check`` prints them."""
    for args, error, message in _construction_faults():
        with pytest.raises(StructureError) as err:
            CategoryStructure(*args)
        assert type(err.value) is error
        assert str(err.value) == message


def _family(vertical, horizontal):
    """The tables of the two lists as one family named (d, j)."""
    return {**{(t.level + 1, t.level): t.entries for t in vertical},
            **{(t.level + 2, t.level): t.entries for t in horizontal}}


def test_tables_keyword_refuses_the_same_faults():
    """``tables=`` runs the checks of the two-list form: each fault a family
    can hold (two tables at one level cannot share a name) raises the same
    exception with the same message; a name that is not (j+1, j) or
    (j+2, j) for an integer level j is refused, and so are both forms at
    once."""
    faults = _construction_faults()
    for vertical in (CompTable(0, {(0.0, 0): 0}), CompTable(0, {(0, 0): False}), CompTable(0, {(0,): 0})):
        faults.append(((loops_graph(2), [vertical], []), StructureError,
                       f"level 0 entry {next(iter(vertical.entries))!r} -> "
                       f"{next(iter(vertical.entries.values()))!r} is not made of cell indices"))
    checked = 0
    for (G, vertical, horizontal), error, message in faults:
        if message.startswith("duplicate"):
            continue
        with pytest.raises(StructureError) as err:
            CategoryStructure(G, tables=_family(vertical, horizontal))
        assert type(err.value) is error
        assert str(err.value) == message
        checked += 1
    assert checked == 14
    G = loops_graph(2)
    for name in ((1.0, 0.0), (True, False), (1, True), ("1", "0"), (1, None), (1,), (1, 0, 0), "10", (0, 0), (3, 0)):
        with pytest.raises(StructureError) as err:
            CategoryStructure(G, tables={name: {}})
        assert type(err.value) is StructureError
        assert str(err.value) == f"table name {name!r} is not (j+1, j) or (j+2, j) for an integer level j"
    with pytest.raises(TypeError):
        CategoryStructure(G, [CompTable(0, {})], tables={(1, 0): {}})


def test_two_list_adapter_builds_and_views_the_tables():
    """The calls the benchmark harness makes: lists of ``CompTable`` and
    ``HCompTable`` build the structure ``tables=`` builds from the same
    dicts, and the ``vtables``/``htables`` views hand back those dicts,
    uncopied, by level."""
    assert HCompTable is CompTable
    Z = z2_structure()[1]
    cases = [Z, build_cat_of_cats([Z], depth=2)[1], build_cat_of_cats([Z], depth=3)[1],
             CategoryStructure(loops_graph(2), tables={(0, -1): {(0, 0): 0}, (1, 0): {}})]
    for S in cases:
        vertical = [CompTable(j, S.tables[d, j]) for d, j in S.tables if d == j + 1]
        horizontal = [HCompTable(j, S.tables[d, j]) for d, j in S.tables if d == j + 2]
        assert CategoryStructure(S.graph, vertical, horizontal, S.flags) == CategoryStructure(
            S.graph, tables=S.tables, flags=S.flags) == S
        assert list(S.vtables) == [t.level for t in vertical]
        assert list(S.htables) == [t.level for t in horizontal]
        assert all(S.vtables[j].entries is S.tables[j + 1, j] for j in S.vtables)
        assert all(S.htables[j].entries is S.tables[j + 2, j] for j in S.htables)
        assert CategoryStructure(S.graph, list(S.vtables.values()), list(S.htables.values()), S.flags) == S


def test_tables_are_the_only_table_state_in_named_order():
    """A structure keeps its tables once, uncopied, as ``tables``: the
    vertical tables (j+1, j) by ascending level, then the horizontal ones
    (j+2, j), in whatever order or form they were given, also as a family
    ``tables=``.  ``vtables`` and ``htables`` wrap those same dicts."""
    C, T = build_cat_of_cats([z2_structure()[1]], depth=2)
    T0, T1, H0 = CompTable(0, T.tables[1, 0]), CompTable(1, T.tables[2, 1]), CompTable(0, T.tables[2, 0])
    family = {(2, 0): H0.entries, (2, 1): T1.entries, (1, 0): T0.entries}
    for S in [*(CategoryStructure(C, vertical, [H0], T.flags)
                for vertical in ([T1, T0], {1: T1, 0: T0}, (t for t in (T1, T0)))),
              CategoryStructure(C, tables=family, flags=T.flags)]:
        assert list(S.tables) == [(1, 0), (2, 1), (2, 0)]
        assert [S.tables[name] for name in S.tables] == [T0.entries, T1.entries, H0.entries]
        assert all(S.tables[name] is t.entries for name, t in (((1, 0), T0), ((2, 1), T1), ((2, 0), H0)))
        assert set(vars(S)) == {"graph", "flags", "tables"}
        assert S == T
    for S in (T, z2_structure()[1], build_cat_of_cats([z2_structure()[1]], depth=3)[1]):
        assert sorted(S.vtables) == [j for d, j in S.tables if d == j + 1]
        assert sorted(S.htables) == [j for d, j in S.tables if d == j + 2]
        assert all(t.level == j and t.entries is S.tables[j + 1, j] for j, t in S.vtables.items())
        assert all(t.level == j and t.entries is S.tables[j + 2, j] for j, t in S.htables.items())
        assert CategoryStructure(S.graph, S.vtables, S.htables, S.flags) == S
        assert set(vars(S)) == {"graph", "flags", "tables"}


@pytest.mark.parametrize("vertical, horizontal, message", [
    ([CompTable(0, {(0.0, 0): 0})], [], "level 0 entry (0.0, 0) -> 0 is not made of cell indices"),
    ([CompTable(0, {(0, 0): 0.0})], [], "level 0 entry (0, 0) -> 0.0 is not made of cell indices"),
    ([CompTable(0, {("0", 0): 0})], [], "level 0 entry ('0', 0) -> 0 is not made of cell indices"),
    ([CompTable(0, {(0,): 0})], [], "level 0 entry (0,) -> 0 is not made of cell indices"),
    ([CompTable(0, {(True, 0): 0})], [], "level 0 entry (True, 0) -> 0 is not made of cell indices"),
    ([CompTable(0, {(0, 0): False})], [], "level 0 entry (0, 0) -> False is not made of cell indices"),
    ([CompTable(0.0, {})], [], "vertical level 0.0 is not an integer"),
    ([CompTable("0", {})], [], "vertical level '0' is not an integer"),
    ([CompTable(None, {})], [], "vertical level None is not an integer"),
    ([CompTable(0, {}), CompTable(True, {})], [], "vertical level True is not an integer"),
    ([], [HCompTable(0.0, {})], "horizontal level 0.0 is not an integer"),
    ([], [HCompTable(0, {(0, 0.0): 0})], "horizontal level 0 entry (0, 0.0) -> 0 is not made of cell indices"),
])
def test_construction_refuses_what_is_not_a_cell_index(vertical, horizontal, message):
    """Levels, keys and values must be ints and not bools, as in a file;
    anything else is a StructureError, not a TypeError or ValueError."""
    G = loops_graph(2)
    if horizontal:
        G, T = build_cat_of_cats([z2_structure()[1]], depth=2)
        vertical = T.vtables
    with pytest.raises(StructureError) as err:
        CategoryStructure(G, vertical, horizontal)
    assert type(err.value) is StructureError
    assert str(err.value) == message


def test_composable_pairs_and_compose():
    G = chain_graph()
    assert composable(G, 0, 3, 4)
    assert not composable(G, 0, 4, 3)
    pairs = composable_pairs(G, 0)
    assert (3, 4) in pairs and (4, 3) not in pairs
    _, S = z2_structure()
    assert compose(S, CellId(1, 1), CellId(1, 1), 0) == CellId(1, 0)
    with pytest.raises(NoTableAtLevel):
        compose(S, CellId(1, 0), CellId(1, 0), 5)
    H = parallel_pair_graph()
    T = CategoryStructure(H, tables={(1, 0): {}})
    with pytest.raises(NotComposable):
        compose(T, CellId(1, 2), CellId(1, 3), 0)
    with pytest.raises(NotDefined):
        compose(T, CellId(1, 0), CellId(1, 2), 0)


def test_cell_queries_refuse_cells_that_do_not_exist():
    """``compose``, ``inverses`` and the boundary and identity queries
    answer only for cells of the carrier: a cell of the wrong dimension is
    not composable, an index out of range, negative ones included, names no
    cell, and a level without a vertical table has no table to read."""
    _, Z = z2_structure()
    G3 = loops_graph(3)
    Z3 = CategoryStructure(G3, tables={(1, 0): {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}})
    with pytest.raises(NotComposable, match="level 0 composes dimension-1 cells, got 0#0"):
        inverses(Z3, 0, CellId(0, 0))
    for bad in (CellId(1, 7), CellId(1, -1)):
        with pytest.raises(GraphError, match=f"no cell {bad}: dimension 1 has 3 cells"):
            inverses(Z3, 0, bad)
        with pytest.raises(GraphError, match=f"no cell {bad}"):
            compose(Z3, bad, CellId(1, 1), 0)
        with pytest.raises(GraphError, match=f"no cell {bad}"):
            compose(Z3, CellId(1, 1), bad, 0)
        for query in (G3.src, G3.tgt):
            with pytest.raises(GraphError, match=f"no cell {bad}"):
                query(bad)
    with pytest.raises(GraphError, match="no cell 0#-1"):
        G3.idn(CellId(0, -1))
    with pytest.raises(BadLevel):
        G3.index(CellId(5, 0))
    for j in (1, 2, -1):
        with pytest.raises(NoTableAtLevel, match=f"no vertical table at level {j}"):
            inverses(Z3, j, CellId(j + 1, 0))
    assert inverses(Z3, 0, CellId(1, 1)) == [CellId(1, 2)]
    assert compose(Z3, CellId(1, 2), CellId(1, 2), 0) == CellId(1, 1)
    assert G3.src(CellId(1, 2)) == G3.tgt(CellId(1, 2)) == CellId(0, 0)
    assert inverses(Z, 0, CellId(1, 1)) == [CellId(1, 1)]


def test_typing_flags_bad_values():
    H = parallel_pair_graph()
    # id_x then a landing on id_x: right key, wrongly typed value
    S = CategoryStructure(H, tables={(1, 0): {(0, 2): 0}})
    rep = check_typing(S)
    assert not rep.passed
    assert rep.find("typing", 0).counterexamples[0].kind == "typing"
    ok = CategoryStructure(H, tables={(1, 0): {(0, 2): 2}})
    assert check_typing(ok).passed


def test_global_reports_missing_pairs():
    _, S = z2_structure()
    assert check_global(S, 0).passed
    G = loops_graph(2)
    partial = CategoryStructure(G, tables={(1, 0): {(0, 0): 0}})
    rep = check_global(partial, 0)
    assert not rep.passed
    missing = {c.cells for c in rep.find("global", 0).counterexamples}
    assert (CellId(1, 0), CellId(1, 1)) in missing


def test_global_checks_a_horizontal_table_without_its_vertical_level():
    """Totality covers a horizontal table whether or not the vertical table
    at its level is there."""
    C, T = build_cat_of_cats([z2_structure()[1]], depth=2)
    for vertical in ([(2, 1)], [(1, 0), (2, 1)]):
        S = CategoryStructure(C, tables={**{name: T.tables[name] for name in vertical}, (2, 0): {}},
                              flags=AxiomFlags(global_=True))
        check = check_category(S).find("global-horizontal", 0)
        assert check.verdict == FAIL
        assert [c.cells for c in check.counterexamples] == [
            (CellId(2, a), CellId(2, b)) for a, b in h_composable_pairs(C, 0)]
        assert len(check.counterexamples) == 16
        assert check_global(S, 0).checks[-1] == check
    full = CategoryStructure(C, tables={name: T.tables[name] for name in ((2, 1), (2, 0))},
                             flags=AxiomFlags(global_=True))
    assert check_category(full).find("global-horizontal", 0).verdict == PASS
    assert [c.axiom for c in check_global(full, 0).checks] == ["global-horizontal"]
    with pytest.raises(NoTableAtLevel):
        check_global(CategoryStructure(C, tables={(2, 1): T.tables[2, 1]}), 0)


def test_units_pass_and_fail():
    _, S = z2_structure()
    assert check_units(S, 0).passed
    G = loops_graph(2)
    bad = CategoryStructure(G, tables={(1, 0): {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}})
    rep = check_units(bad, 0)
    kinds = {c.kind for c in rep.find("units", 0).counterexamples}
    assert "unit-left" in kinds


def test_units_not_applicable_below_dimension_zero():
    G = loops_graph(1)
    S = CategoryStructure(G, tables={(0, -1): {(0, 0): 0}})
    rep = check_units(S, -1)
    assert rep.find("units", -1).verdict == NOT_APPLICABLE


def test_associativity_counterexamples_and_asymmetry():
    _, S = z2_structure()
    assert check_associativity(S, 0).passed
    G = loops_graph(2)
    # c(a, b) = "not b" is nowhere associative in the third argument
    twisted = CategoryStructure(G, tables={(1, 0): {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}})
    rep = check_associativity(twisted, 0)
    assert rep.find("associativity", 0).verdict == FAIL
    assert rep.find("associativity", 0).counterexamples
    G3 = loops_graph(3)
    lop = CategoryStructure(G3, tables={(1, 0): {(1, 1): 2, (2, 1): 1}})
    rep = check_associativity(lop, 0)
    chk = rep.find("associativity", 0)
    assert chk.verdict == PASS and chk.asymmetric
    assert chk.asymmetric[0].kind == "partiality-asymmetry"


def test_interchange_needs_both_tables():
    from util import trivial_structure

    _, S = trivial_structure()
    with pytest.raises(MissingTables):
        check_interchange(S, 0)


def test_interchange_pass_and_perturbed_failure():
    from util import z2_structure

    _, Z = z2_structure()
    G, S = build_cat_of_cats([Z], depth=2)
    assert check_interchange(S, 0).passed
    entries = dict(S.tables[2, 0])
    key = sorted(entries)[0]
    val = entries[key]
    d2 = G.count(2)
    # the one other 2-cell with the same boundaries
    alt = next(v for v in range(d2) if v != val
               and G.src_map(2)[v] == G.src_map(2)[val]
               and G.tgt_map(2)[v] == G.tgt_map(2)[val])
    entries[key] = alt
    bent = CategoryStructure(G, tables={**S.tables, (2, 0): entries}, flags=S.flags)
    rep = check_interchange(bent, 0)
    chk = rep.find("interchange", 0)
    assert chk.verdict == FAIL and chk.counterexamples


def test_h_composable_pairs_match_boundaries():
    G, S = build_cat_of_cats([z2_structure()[1]], depth=2)
    pairs = h_composable_pairs(G, 0)
    for a, b in pairs:
        # target object of a's strip equals source object of b's strip
        assert G.src(G.src(CellId(2, b))) == G.tgt(G.src(CellId(2, a)))


def test_groupoid_checks():
    _, S = z2_structure()
    rep = check_groupoid(S, 0)
    assert rep.passed
    assert inverses(S, 0, CellId(1, 1)) == [CellId(1, 1)]
    G = loops_graph(2)
    # absorbing element: s has no inverse
    mon = CategoryStructure(G, tables={(1, 0): {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}})
    rep = check_groupoid(mon, 0)
    chk = rep.find("groupoid", 0)
    assert chk.verdict == FAIL and chk.counterexamples
    broken = CategoryStructure(G, tables={(1, 0): {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}})
    with pytest.raises(UnitsRequired):
        check_groupoid(broken, 0)


def test_check_category_aggregates_per_flag():
    _, S = z2_structure()
    rep = check_category(S)
    assert rep.passed
    axioms = {(c.axiom, c.level) for c in rep.checks}
    assert ("typing", 0) in axioms and ("associativity", 0) in axioms
    # groupoid with broken units reports a failure instead of raising
    G = loops_graph(2)
    broken = CategoryStructure(
        G, tables={(1, 0): {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}}, flags=AxiomFlags(groupoid=True))
    rep = check_category(broken)
    chk = rep.find("groupoid", 0)
    assert chk.verdict == FAIL and chk.counterexamples and chk.notes


def test_check_category_scans_the_unit_law_once_per_level(monkeypatch):
    """One unit scan per level serves both ``unital`` and the groupoid
    precondition; the groupoid check it reports is the public checker's."""
    levels = []
    real = structures.units_scan

    def counted(G, j, *rest):
        levels.append(j)
        return real(G, j, *rest)

    _, cat = build_cat_of_cats([z2_structure()[1]], depth=2)
    G = loops_graph(2)
    broken = CategoryStructure(G, tables={(1, 0): {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}})
    product = CategoryStructure(G, tables={(0, -1): {(0, 0): 0}, (1, 0): z2_structure()[1].tables[1, 0]})
    for S in (cat, broken, product):
        for flags in (AxiomFlags(unital=True, groupoid=True), AxiomFlags(groupoid=True),
                      AxiomFlags(global_=True, unital=True, associative=True, groupoid=True)):
            S.flags = flags
            monkeypatch.setattr(structures, "units_scan", counted)
            levels.clear()
            rep = check_category(S)
            assert levels == [j for j in _levels(S, 1) if j >= 0]
            monkeypatch.undo()
            for j in _levels(S, 1):
                units = check_units(S, j)
                groupoid = rep.find("groupoid", j)
                if flags.unital:
                    assert rep.find("units", j) == units.checks[0]
                if units.checks[0].verdict == PASS:
                    assert groupoid == check_groupoid(S, j).checks[0]
                else:
                    assert groupoid.counterexamples == units.checks[0].counterexamples
                    assert groupoid.verdict == units.checks[0].verdict


def test_check_category_reports_over_the_horizontal_rewrites_are_pinned():
    """Every one-entry rewrite of the horizontal table of the cat of two
    Z2s, flags kept, gets the report frozen here, byte for byte."""
    _, Z = z2_structure()
    G, S = build_cat_of_cats([Z, Z])
    entries = S.tables[2, 0]
    digest, rewrites = hashlib.sha256(), 0
    for key, val in sorted(entries.items()):
        for alt in range(G.count(2)):
            if alt == val:
                continue
            bent = CategoryStructure(G, tables={**S.tables, (2, 0): {**entries, key: alt}}, flags=S.flags)
            digest.update(json.dumps(report_document(check_category(bent)), sort_keys=True).encode())
            rewrites += 1
    assert rewrites == 1920
    assert digest.hexdigest() == "271e28319747372ab41d266a77afb2f77f3eff77f396cced9ce4de610123f145"


def reference_typing_scan(G, d, j, tables):
    """The typing rule read one key at a time, as a lookup through table
    (d-1, j) as it stands: (src a, tgt b) at d = j+1, above that the
    (d-1, j) composites of the two sources and of the two targets, None
    while either is absent; the reference for ``structures.typing_scan``."""
    smap, tmap = G.src_map(d), G.tgt_map(d)
    below = tables.get((d - 1, j), {})
    for (a, b), v in tables[d, j].items():
        if d == j + 1:
            want = (smap[a], tmap[b])
        else:
            s, t = below.get((smap[a], smap[b])), below.get((tmap[a], tmap[b]))
            want = None if s is None or t is None else (s, t)
        if want is None or want[0] != smap[v] or want[1] != tmap[v]:
            yield a, b, v, want


def _random_family(rng, G):
    """Every table (d, j) the carrier can host, level -1 included, filled
    in a random key order with mostly typed, some wrong values, each table
    full or partly filled."""
    names = [(j + k, j) for k in (1, 2) for j in range(-1 if k == 1 else 0, G.n - k + 1)]
    tables = {}
    for d, j in names:
        smap, tmap = G.src_map(d), G.tgt_map(d)
        below, fill = tables.get((d - 1, j), {}), rng.choice((0.3, 0.8, 1.0))
        keys = list(table_keys(G, d, j))
        rng.shuffle(keys)
        tables[d, j] = entries = {}
        for a, b in keys:
            if rng.random() > fill:
                continue
            # mostly typed values, so that the tables above can type their keys
            want = ((smap[a], tmap[b]) if d == j + 1
                    else (below.get((smap[a], smap[b])), below.get((tmap[a], tmap[b]))))
            typed = [v for v in range(G.count(d)) if (smap[v], tmap[v]) == want]
            entries[a, b] = rng.choice(typed) if typed and rng.random() < 0.8 else rng.randrange(G.count(d))
    return tables


def test_typing_scan_matches_the_per_key_reference():
    """On random 2-graphs, every table (d, j) the carrier can host, filled
    in a random key order with mostly typed, some wrong values, next to a
    table (d-1, j) that is full, partly filled or missing: ``typing_scan``
    on the family's rows yields the reference's tuples in key order."""
    rng = random.Random(25)
    seen = set()
    for _ in range(60):
        G = random_graph(rng, n=2, max_cells=rng.randint(2, 5))
        tables = _random_family(rng, G)
        for d, j in tables:
            family = dict(tables)
            if d > j + 1 and rng.random() < 0.2:
                del family[d - 1, j]
                seen.add((2, "missing below"))
            got = list(typing_scan(G, d, j, row_family(G, family)))
            assert got == sorted(reference_typing_scan(G, d, j, family)), (d, j)
            seen.update((d - j, "untypeable" if want is None else "mistyped") for _a, _b, _v, want in got)
            seen.add((d - j, "typed") if len(got) < len(family[d, j]) else (d - j, "none typed"))
    assert {(1, "mistyped"), (1, "typed"), (2, "missing below"), (2, "untypeable"), (2, "mistyped"),
            (2, "typed")} <= seen, seen


# The scans as they read entry dicts, before the core kept rows: each key
# looked up by its tuple, a key that is not composable simply absent.

def reference_global_scan(keys, name, tables):
    return filterfalse(tables[name].__contains__, keys)


def reference_units_scan(G, j, total, tables):
    get = tables[j + 1, j].get
    idn = G.idn_map(j)
    smap, tmap = G.src_map(j + 1), G.tgt_map(j + 1)
    for a in range(G.count(j + 1)):
        for side, key in ((0, (idn[smap[a]], a)), (1, (a, idn[tmap[a]]))):
            got = get(key)
            if got is None:
                if total:
                    yield a, side, key, None
            elif got != a:
                yield a, side, key, got


def reference_assoc_scan(G, j, tables, lopsided=None):
    after = neighbours(G, j, SOURCE)
    get = tables[j + 1, j].get
    for a, nxt in enumerate(after):
        for b in nxt:
            ab = get((a, b))
            if ab is None and lopsided is None:
                continue
            for c in after[b]:
                left = get((ab, c)) if ab is not None else None
                if left is None and lopsided is None:
                    continue
                bc = get((b, c))
                right = get((a, bc)) if bc is not None else None
                if left is not None and right is not None:
                    if left != right:
                        yield a, b, c, left, right
                elif lopsided is not None and (left is not None or right is not None):
                    lopsided.append((a, b, c))


def reference_interchange_scan(G, j, tables, lopsided=None):
    vget, hget = tables[j + 2, j + 1].get, tables[j + 2, j].get
    for (a, a2), partners in interchange_partners(G, j):
        va = vget((a, a2))
        if va is None:
            continue
        for b, b2 in partners:
            vb = vget((b, b2))
            hab = hget((a, b))
            hab2 = hget((a2, b2))
            if vb is None or hab is None or hab2 is None:
                continue
            lhs = hget((va, vb))
            rhs = vget((hab, hab2))
            if lhs is not None and rhs is not None:
                if lhs != rhs:
                    yield a, a2, b, b2, lhs, rhs
            elif lopsided is not None and (lhs is not None or rhs is not None):
                lopsided.append((a, a2, b, b2))


def reference_inverses(G, j, tables, a):
    get = tables[j + 1, j].get
    idn = G.idn_map(j)
    x, y = G.src_map(j + 1)[a], G.tgt_map(j + 1)[a]
    for b in hom_buckets(G, j + 1).get((y, x), ()):
        if get((a, b)) == idn[x] and get((b, a)) == idn[y]:
            yield b


def reference_groupoid_scan(G, j, tables):
    for a in range(G.count(j + 1)):
        if next(reference_inverses(G, j, tables, a), None) is None:
            yield a


def test_row_scans_match_the_dict_references():
    """On random 1- and 2-graphs, level -1, vertical and horizontal tables,
    partial and total, with mistyped and untypeable entries: every scan on
    the family's rows yields the dict reference's violations, in key order,
    and the same lopsided instances in the same order."""
    rng = random.Random(29)
    seen = set()
    for _ in range(400):
        G = random_graph(rng, n=rng.choice((1, 2)), max_cells=rng.randint(2, 5))
        tables = _random_family(rng, G)
        rows = row_family(G, tables)
        for (d, j), entries in tables.items():
            got = list(typing_scan(G, d, j, rows))
            assert got == sorted(reference_typing_scan(G, d, j, tables)), (d, j)
            seen.update(("untypeable" if want is None else "mistyped") for *_key, want in got)
            keys = table_keys(G, d, j)
            missing = list(global_scan(keys, (d, j), rows))
            assert missing == list(reference_global_scan(keys, (d, j), tables))
            seen.add("partial" if missing else "total")
            seen.add(("level -1" if j == -1 else "vertical") if d == j + 1 else "horizontal")
            if d == j + 1:
                lopsided, want = [], []
                assert list(assoc_scan(G, j, rows)) == list(reference_assoc_scan(G, j, tables))
                assert list(assoc_scan(G, j, rows, lopsided)) == list(reference_assoc_scan(G, j, tables, want))
                assert lopsided == want
                seen.add("lopsided triple" if want else "no lopsided triple")
            if d == j + 1 and j >= 0:
                for total in (False, True):
                    assert list(units_scan(G, j, total, rows)) == list(reference_units_scan(G, j, total, tables))
                assert list(groupoid_scan(G, j, rows)) == list(reference_groupoid_scan(G, j, tables))
                for a in range(G.count(d)):
                    assert list(_inverses(G, j, rows, a)) == list(reference_inverses(G, j, tables, a))
                    seen.add("inverse" if next(reference_inverses(G, j, tables, a), None) is not None else "none")
            if d == j + 2:
                lopsided, want = [], []
                found = list(interchange_scan(G, j, rows))
                assert found == list(reference_interchange_scan(G, j, tables))
                assert list(interchange_scan(G, j, rows, lopsided)) == list(
                    reference_interchange_scan(G, j, tables, want))
                assert lopsided == want
                seen.add("lopsided quadruple" if want else "no lopsided quadruple")
                seen.add("exchange fails" if found else "exchange holds")
    assert seen >= {"untypeable", "mistyped", "partial", "total", "level -1", "vertical", "horizontal",
                    "lopsided triple", "lopsided quadruple", "inverse", "none", "exchange fails",
                    "exchange holds"}, seen


def _report_edge_structures():
    """Structures that reach every branch of the public checkers, as
    (carriers, extra).  The carriers have level -1, vertical and horizontal
    tables; the extra structures add a broken unit law, a horizontal-only
    level, each half of the interchange pair alone, mistyped entries and
    partial tables with lopsided triples and quadruples."""
    Z = z2_structure()[1]
    _, cat = build_cat_of_cats([Z], depth=2)
    G = loops_graph(2)
    carriers = [Z, total_order_structure(3)[1], build_cob_truncation(3)[1], cat,
                build_cat_of_cats([Z], depth=3)[1],
                CategoryStructure(cat.graph, tables={name: cat.tables[name] for name in ((1, 0), (2, 0))}),
                CategoryStructure(G, tables={(0, -1): {(0, 0): 0}, (1, 0): Z.tables[1, 0]}),
                CategoryStructure(G)]
    _, order = total_order_structure(3)
    order_entries = order.tables[1, 0]
    _, two = build_cat_of_cats([Z, Z])
    h_entries = two.tables[2, 0]
    key = min(h_entries)
    bent = {**h_entries, key: (h_entries[key] + 1) % two.graph.count(2)}
    extra = [
        CategoryStructure(G, tables={(1, 0): {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}}),
        CategoryStructure(cat.graph, tables={name: cat.tables[name] for name in ((2, 1), (2, 0))}),
        CategoryStructure(cat.graph, tables={name: cat.tables[name] for name in ((1, 0), (2, 1))}),
        CategoryStructure(parallel_pair_graph(), tables={(1, 0): {(0, 2): 0, (2, 1): 3}}),
        CategoryStructure(order.graph, tables={(1, 0): dict(list(order_entries.items())[::2])}),
        CategoryStructure(two.graph, tables={**two.tables, (2, 0): dict(list(h_entries.items())[::3])}),
        CategoryStructure(two.graph, tables={**two.tables, (2, 0): bent}),
    ]
    return carriers, extra


def test_public_checker_reports_are_pinned():
    """Every public checker at every level -1..n, under the global flag off
    and on, and ``check_category`` under every flag set, on fixed
    structures: the report JSON, or the exception's type and message,
    hashed byte for byte."""
    carriers, extra = _report_edge_structures()
    # the fixture reaches the cases it is there for
    assert check_associativity(extra[4], 0).checks[0].asymmetric
    assert check_interchange(extra[5], 0).checks[0].asymmetric
    assert [c.axiom for c in check_global(extra[1], 0).checks] == ["global-horizontal"]
    with pytest.raises(UnitsRequired):
        check_groupoid(extra[0], 0)
    for S in (carriers[5], extra[2]):
        with pytest.raises(MissingTables):
            check_interchange(S, 0)
    checkers = (check_global, check_units, check_associativity, check_interchange, check_groupoid)
    digest, cases = hashlib.sha256(), 0

    def record(run, *args):
        nonlocal cases
        try:
            out = json.dumps(report_document(run(*args)), sort_keys=True)
        except StructureError as e:
            out = f"{type(e).__name__}: {e}"
        digest.update(out.encode() + b"\n")
        cases += 1

    for S in carriers + extra:
        flags = S.flags
        for global_ in (False, True):
            S.flags = AxiomFlags(global_=global_)
            record(check_typing, S)
            for run in checkers:
                for j in range(-1, S.graph.n + 1):
                    record(run, S, j)
        for bits in itertools.product((False, True), repeat=5):
            S.flags = AxiomFlags(*bits)
            record(check_category, S)
        S.flags = flags
    assert cases == 1040
    assert digest.hexdigest() == "dafb4e6770fb58913f6d25e08706a152fda964e3317b97eabe55ebf854a47c90"


def test_check_category_reports_the_rows_of_laws():
    """Under every flag set, ``check_category`` reports one check per row
    of ``laws``, in its order, the unit row only under ``unital``."""
    carriers, _extra = _report_edge_structures()
    for S in carriers:
        for bits in itertools.product((False, True), repeat=5):
            S.flags = AxiomFlags(*bits)
            rows = [(axiom, j) for axiom, j, _reads, _scan, _args in laws(S.graph, S.flags, S.tables)
                    if axiom != "units" or S.flags.unital]
            assert [(c.axiom, c.level) for c in check_category(S).checks] == rows, (S, bits)


def test_every_law_has_a_counterexample_shape_and_a_verdict_rank():
    """A law joins ``laws`` as a row; its axiom must also have a
    counterexample shape at the report edge, whose place in ``_SHAPES`` is
    its rank in the record verdict's order.  Every axiom a row carries,
    under every flag set, on carriers with level -1, vertical and horizontal
    tables, has a shape, ``_SHAPES`` keeps no axiom no row carries, and the
    record verdict runs every row that has a scan, in ``_SHAPES`` order."""
    carriers, _extra = _report_edge_structures()
    names = [S.tables for S in carriers]
    assert {d - j for tables in names for d, j in tables} == {1, 2}
    assert any((0, -1) in tables for tables in names)
    rank = list(structures._SHAPES).index
    axioms, reordered = set(), 0
    for S, tables in zip(carriers, names):
        for bits in itertools.product((False, True), repeat=5):
            rows = laws(S.graph, AxiomFlags(*bits), tables)
            axioms |= {row[0] for row in rows}
            runs = [row[2:] for row in rows]
            verdict = [(reads, run.func, run.args) for reads, run in _verdict(S.graph, AxiomFlags(*bits), tables)]
            assert sorted(verdict, key=runs.index) == [run for run in runs if run[1] is not None], (S, bits)
            ranks = [rank(rows[runs.index(run)][0]) for run in verdict]
            assert ranks == sorted(ranks), (S, bits)
            reordered += sorted(verdict, key=runs.index) != verdict
    assert axioms == set(structures._SHAPES)
    assert reordered > 0


def test_every_failing_check_carries_a_counterexample():
    G = loops_graph(2)
    candidates = [
        CategoryStructure(G, tables={(1, 0): {(0, 0): 0}},
                          flags=AxiomFlags(global_=True, unital=True, associative=True)),
        CategoryStructure(G, tables={(1, 0): {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}},
                          flags=AxiomFlags(global_=True, unital=True, associative=True, groupoid=True)),
    ]
    for S in candidates:
        for chk in check_category(S).checks:
            if chk.verdict == FAIL:
                assert chk.counterexamples


def test_cocategory_typing():
    G = arrow_graph()
    good = CocompTable(0, {2: (0, 0, 2)})
    assert check_cocategory(G, good).passed
    bad = CocompTable(0, {2: (1, 2, 2)})
    rep = check_cocategory(G, bad)
    kinds = {c.kind for c in rep.find("cocategory", 0).counterexamples}
    assert "co-right" in kinds
    with pytest.raises(NoTableAtLevel):
        check_cocategory(G, CocompTable(3, {}))


@pytest.mark.parametrize("entries", [
    {0: (0.0, 0, 0)}, {0: (0, True, 0)}, {0: (0, 0, "0")}, {0: (0, 0, None)}, {0.0: (0, 0, 0)}, {True: (0, 0, 0)},
])
def test_cocategory_reports_what_is_not_a_cell_index(entries):
    """A witness or cell that is not an int, or is a bool, is reported out
    of range, as the checkers never raise on a bad table."""
    rep = check_cocategory(loops_graph(2), CocompTable(0, entries))
    assert not rep.passed
    assert [c.kind for c in rep.checks[0].counterexamples] == ["co-range"]


@pytest.mark.parametrize("level, entries, out_of_range", [
    (0, {"x": (0, 0, 0), 1: (0, 0, 5), 0: (0, 0, 0)}, [1, "x"]),   # cells that do not compare
    (0, {1: (0, 0), 0: (0, 0, 0)}, [1]),
    (0, {0: (0, 0, 0, 0)}, [0]),
    (0, {0: None, 1: (0, 1, 1)}, [0]),
    (0.0, {0: (0, 0, 0)}, None),
    ("0", {0: (0, 0, 0)}, None),
])
def test_cocategory_never_raises_on_a_bad_table(level, entries, out_of_range):
    """A witness that is not three cell indices is reported out of range,
    cell indices first, ascending, then the other cells in table order; a
    level that is not an int has no table, as one out of range has none."""
    D = CocompTable(level, entries)
    if out_of_range is None:
        with pytest.raises(NoTableAtLevel):
            check_cocategory(loops_graph(2), D)
        return
    rep = check_cocategory(loops_graph(2), D)
    assert [(c.kind, c.cells, c.actual) for c in rep.find("cocategory", 0).counterexamples] == [
        ("co-range", (CellId(1, z),), entries[z]) for z in out_of_range]


# -- the checkers' reports against naive references -------------------------
#
# Each reference walks keys, triples and cells from the definitions through
# the CellId API, in the order the reports list them, and gives every check
# as (axiom, level, verdict, counterexamples, asymmetric), each
# counterexample as (kind, cells, expected, actual).

def _as_tuples(report):
    def cx(items):
        return [(c.kind, c.cells, c.expected, c.actual) for c in items]
    return [(c.axiom, c.level, c.verdict, cx(c.counterexamples), cx(c.asymmetric))
            for c in report.checks]


def _check(axiom, level, bad, asymmetric=()):
    return (axiom, level, FAIL if bad else PASS, list(bad), list(asymmetric))


def _hom(G, z):
    return (G.src(z), G.tgt(z))


def _levels(S, offset):
    """The levels j of the tables (j + offset, j) of ``S``, ascending."""
    return sorted(j for d, j in S.tables if d == j + offset)


def _ref_typing(S):
    G = S.graph
    out = []
    for j in _levels(S, 1):
        d = j + 1
        bad = []
        for (a, b), v in sorted(S.tables[d, j].items()):
            A, B, V = CellId(d, a), CellId(d, b), CellId(d, v)
            if _hom(G, V) != (G.src(A), G.tgt(B)):
                bad.append(("typing", (A, B), (G.src(A), G.tgt(B)), V))
        out.append(_check("typing", j, bad))
    for j in _levels(S, 2):
        d = j + 2
        vt = S.tables.get((d - 1, j), {})
        bad = []
        for (a, b), v in sorted(S.tables[d, j].items()):
            A, B, V = CellId(d, a), CellId(d, b), CellId(d, v)
            s = vt.get((G.src(A).index, G.src(B).index))
            e = vt.get((G.tgt(A).index, G.tgt(B).index))
            if s is None or e is None:
                bad.append(("untypeable", (A, B), "vertical composite of the boundaries", V))
            elif _hom(G, V) != (CellId(d - 1, s), CellId(d - 1, e)):
                bad.append(("typing", (A, B), (CellId(d - 1, s), CellId(d - 1, e)), V))
        out.append(_check("typing-horizontal", j, bad))
    return out


def _pairs(G, j):
    n = G.count(j + 1)
    return [(a, b) for a, b in itertools.product(range(n), repeat=2) if composable(G, j, a, b)]


def _ref_global(S, j):
    d = j + 1
    entries = S.tables[d, j]
    out = [_check("global", j, [("missing", (CellId(d, a), CellId(d, b)), None, None)
                                for a, b in _pairs(S.graph, j) if (a, b) not in entries])]
    if (d + 1, j) in S.tables:
        hentries = S.tables[d + 1, j]
        out.append(_check("global-horizontal", j, [
            ("missing", (CellId(d + 1, a), CellId(d + 1, b)), None, None)
            for a, b in h_composable_pairs(S.graph, j) if (a, b) not in hentries]))
    return out


def _ref_units(S, j):
    G = S.graph
    d = j + 1
    entries = S.tables[d, j]
    bad = []
    for a in range(G.count(d)):
        A = CellId(d, a)
        for kind, (p, q) in (("unit-left", (G.idn(G.src(A)), A)),
                             ("unit-right", (A, G.idn(G.tgt(A))))):
            got = entries.get((p.index, q.index))
            if got is None and S.flags.global_:
                bad.append((kind + "-missing", (p, q), A, None))
            elif got is not None and got != a:
                bad.append((kind, (p, q), A, CellId(d, got)))
    return [_check("units", j, bad)]


def _ref_associativity(S, j):
    d = j + 1
    entries = S.tables[d, j]
    bad, lopsided = [], []
    for a, b, c in itertools.product(range(S.graph.count(d)), repeat=3):
        if not (composable(S.graph, j, a, b) and composable(S.graph, j, b, c)):
            continue
        ab, bc = entries.get((a, b)), entries.get((b, c))
        left = None if ab is None else entries.get((ab, c))
        right = None if bc is None else entries.get((a, bc))
        cells = (CellId(d, a), CellId(d, b), CellId(d, c))
        if left is not None and right is not None and left != right:
            bad.append(("associativity", cells, CellId(d, left), CellId(d, right)))
        elif (left is None) != (right is None):
            lopsided.append(("partiality-asymmetry", cells,
                             "both bracketings defined or neither", None))
    return [_check("associativity", j, bad, lopsided)]


def _ref_groupoid(S, j):
    G = S.graph
    d = j + 1
    entries = S.tables[d, j]
    bad = []
    for a in range(G.count(d)):
        A = CellId(d, a)
        ids = (G.idn(G.src(A)), G.idn(G.tgt(A)))
        if not any(_hom(G, CellId(d, b)) == (G.tgt(A), G.src(A))
                   and entries.get((a, b)) == ids[0].index and entries.get((b, a)) == ids[1].index
                   for b in range(G.count(d))):
            bad.append(("no-inverse", (A,), ids, None))
    return [_check("groupoid", j, bad)]


def _random_one_graph_structures(rng, count):
    """Partial, often untyped or non-unital tables on small 1-graphs; about
    half of them get every unit entry right, so inverses get checked."""
    for G in (loops_graph(3), parallel_pair_graph(), arrow_graph()):
        idn = G.idn_map(0)
        for _ in range(count):
            unital = rng.random() < 0.5
            entries = {}
            for a, b in composable_pairs(G, 0):
                typed = [v for v in range(G.count(1)) if
                         _hom(G, CellId(1, v)) == (G.src(CellId(1, a)), G.tgt(CellId(1, b)))]
                r = rng.random()
                if unital and a in idn:
                    entries[(a, b)] = b
                elif unital and b in idn:
                    entries[(a, b)] = a
                elif r < 0.1 or (r < 0.2 and not typed):
                    entries[(a, b)] = rng.randrange(G.count(1))
                elif r < 0.7 and typed:
                    entries[(a, b)] = rng.choice(typed)
            yield CategoryStructure(G, tables={(1, 0): entries}, flags=AxiomFlags(global_=rng.random() < 0.5))


def _bent_two_categories(rng, count):
    """The two-category on the cat-of-cats carrier with vertical entries
    removed and horizontal entries rewritten or removed: untypeable and
    mistyped horizontal entries, missing keys, lopsided triples."""
    G, S = build_cat_of_cats([z2_structure()[1]], depth=2)
    for _ in range(count):
        vt = {name: dict(entries) for name, entries in S.tables.items() if name != (2, 0)}
        for entries in vt.values():
            for key in rng.sample(sorted(entries), rng.randrange(3)):
                del entries[key]
        ht = dict(S.tables[2, 0])
        for key in rng.sample(sorted(ht), rng.randrange(4)):
            ht[key] = rng.randrange(G.count(2))
        for key in rng.sample(sorted(ht), rng.randrange(2)):
            del ht[key]
        yield CategoryStructure(G, tables={**vt, (2, 0): ht}, flags=AxiomFlags(global_=rng.random() < 0.5))


def test_reports_match_naive_references():
    """Same kinds, cells, expected and actual values, in the same order, on
    partial and failing tables."""
    rng = random.Random(11)
    seen = set()
    for S in [*_random_one_graph_structures(rng, 150), *_bent_two_categories(rng, 40)]:
        got = _as_tuples(check_typing(S))
        assert got == _ref_typing(S)
        for j in _levels(S, 1):
            units = _ref_units(S, j)
            for checker, reference in ((check_global, _ref_global(S, j)),
                                       (check_units, units),
                                       (check_associativity, _ref_associativity(S, j))):
                got += _as_tuples(checker(S, j))
                assert got[-len(reference):] == reference
            if units[0][2] == FAIL:
                with pytest.raises(UnitsRequired):
                    check_groupoid(S, j)
            else:
                got += _as_tuples(check_groupoid(S, j))
                assert got[-1:] == _ref_groupoid(S, j)
        seen.update((axiom, verdict) for axiom, _j, verdict, _bad, _asym in got)
        seen.update((axiom, "asymmetric") for axiom, _j, _v, _bad, asym in got if asym)
    for axiom in ("typing", "typing-horizontal", "global", "global-horizontal", "units",
                  "associativity", "groupoid"):
        assert {(axiom, PASS), (axiom, FAIL)} <= seen, axiom
    assert ("associativity", "asymmetric") in seen
