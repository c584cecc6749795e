import itertools
import random

import pytest

from ncats import (
    AxiomFlags,
    CategoryStructure,
    CellId,
    CocompTable,
    CompTable,
    HCompTable,
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
)
from ncats import structures
from ncats.graphs import SOURCE, TARGET
from ncats.structures import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    MissingTables,
    NoTableAtLevel,
    NotComposable,
    NotDefined,
    StructureError,
    UnitsRequired,
    inverses,
)

from util import (
    arrow_graph,
    chain_graph,
    loops_graph,
    parallel_pair_graph,
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


def test_construction_errors_are_pinned():
    """The exception type and exact message of every construction error,
    for vertical and horizontal tables: ``ncats check`` prints them."""
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
    for args, error, message in cases:
        with pytest.raises(StructureError) as err:
            CategoryStructure(*args)
        assert type(err.value) is error
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
    T = CategoryStructure(H, [CompTable(0, {})])
    with pytest.raises(NotComposable):
        compose(T, CellId(1, 2), CellId(1, 3), 0)
    with pytest.raises(NotDefined):
        compose(T, CellId(1, 0), CellId(1, 2), 0)


def test_typing_flags_bad_values():
    H = parallel_pair_graph()
    # id_x then a landing on id_x: right key, wrongly typed value
    S = CategoryStructure(H, [CompTable(0, {(0, 2): 0})])
    rep = check_typing(S)
    assert not rep.passed
    assert rep.find("typing", 0).counterexamples[0].kind == "typing"
    ok = CategoryStructure(H, [CompTable(0, {(0, 2): 2})])
    assert check_typing(ok).passed


def test_global_reports_missing_pairs():
    _, S = z2_structure()
    assert check_global(S, 0).passed
    G = loops_graph(2)
    partial = CategoryStructure(G, [CompTable(0, {(0, 0): 0})])
    rep = check_global(partial, 0)
    assert not rep.passed
    missing = {c.cells for c in rep.find("global", 0).counterexamples}
    assert (CellId(1, 0), CellId(1, 1)) in missing


def test_units_pass_and_fail():
    _, S = z2_structure()
    assert check_units(S, 0).passed
    G = loops_graph(2)
    bad = CategoryStructure(G, [CompTable(0, {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0})])
    rep = check_units(bad, 0)
    kinds = {c.kind for c in rep.find("units", 0).counterexamples}
    assert "unit-left" in kinds


def test_units_not_applicable_below_dimension_zero():
    G = loops_graph(1)
    S = CategoryStructure(G, [CompTable(-1, {(0, 0): 0})])
    rep = check_units(S, -1)
    assert rep.find("units", -1).verdict == NOT_APPLICABLE


def test_associativity_counterexamples_and_asymmetry():
    _, S = z2_structure()
    assert check_associativity(S, 0).passed
    G = loops_graph(2)
    # c(a, b) = "not b" is nowhere associative in the third argument
    twisted = CategoryStructure(G, [CompTable(0, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0})])
    rep = check_associativity(twisted, 0)
    assert rep.find("associativity", 0).verdict == FAIL
    assert rep.find("associativity", 0).counterexamples
    G3 = loops_graph(3)
    lop = CategoryStructure(G3, [CompTable(0, {(1, 1): 2, (2, 1): 1})])
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
    entries = dict(S.htables[0].entries)
    key = sorted(entries)[0]
    val = entries[key]
    d2 = G.count(2)
    # the one other 2-cell with the same boundaries
    alt = next(v for v in range(d2) if v != val
               and G.src_map(2)[v] == G.src_map(2)[val]
               and G.tgt_map(2)[v] == G.tgt_map(2)[val])
    entries[key] = alt
    bent = CategoryStructure(G, list(S.vtables.values()), [HCompTable(0, entries)], S.flags)
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
    mon = CategoryStructure(G, [CompTable(0, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})])
    rep = check_groupoid(mon, 0)
    chk = rep.find("groupoid", 0)
    assert chk.verdict == FAIL and chk.counterexamples
    broken = CategoryStructure(G, [CompTable(0, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0})])
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
        G, [CompTable(0, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0})],
        [], AxiomFlags(groupoid=True))
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
    broken = CategoryStructure(G, [CompTable(0, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0})])
    product = CategoryStructure(G, [CompTable(-1, {(0, 0): 0}), z2_structure()[1].vtables[0]])
    for S in (cat, broken, product):
        for flags in (AxiomFlags(unital=True, groupoid=True), AxiomFlags(groupoid=True),
                      AxiomFlags(global_=True, unital=True, associative=True, groupoid=True)):
            S.flags = flags
            monkeypatch.setattr(structures, "units_scan", counted)
            levels.clear()
            rep = check_category(S)
            assert levels == [j for j in sorted(S.vtables) if j >= 0]
            monkeypatch.undo()
            for j in sorted(S.vtables):
                units = check_units(S, j)
                groupoid = rep.find("groupoid", j)
                if flags.unital:
                    assert rep.find("units", j) == units.checks[0]
                if units.checks[0].verdict == PASS:
                    assert groupoid == check_groupoid(S, j).checks[0]
                else:
                    assert groupoid.counterexamples == units.checks[0].counterexamples
                    assert groupoid.verdict == units.checks[0].verdict


def test_every_failing_check_carries_a_counterexample():
    G = loops_graph(2)
    candidates = [
        CategoryStructure(G, [CompTable(0, {(0, 0): 0})],
                          [], AxiomFlags(global_=True, unital=True, associative=True)),
        CategoryStructure(G, [CompTable(0, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0})],
                          [], AxiomFlags(global_=True, unital=True, associative=True, groupoid=True)),
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


def _ref_typing(S):
    G = S.graph
    out = []
    for j, t in sorted(S.vtables.items()):
        d = j + 1
        bad = []
        for (a, b), v in sorted(t.entries.items()):
            A, B, V = CellId(d, a), CellId(d, b), CellId(d, v)
            if _hom(G, V) != (G.src(A), G.tgt(B)):
                bad.append(("typing", (A, B), (G.src(A), G.tgt(B)), V))
        out.append(_check("typing", j, bad))
    for j, t in sorted(S.htables.items()):
        d = j + 2
        vt = S.vtables[j].entries if j in S.vtables else {}
        bad = []
        for (a, b), v in sorted(t.entries.items()):
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
    entries = S.vtables[j].entries
    out = [_check("global", j, [("missing", (CellId(d, a), CellId(d, b)), None, None)
                                for a, b in _pairs(S.graph, j) if (a, b) not in entries])]
    if j in S.htables:
        hentries = S.htables[j].entries
        out.append(_check("global-horizontal", j, [
            ("missing", (CellId(d + 1, a), CellId(d + 1, b)), None, None)
            for a, b in h_composable_pairs(S.graph, j) if (a, b) not in hentries]))
    return out


def _ref_units(S, j):
    G = S.graph
    d = j + 1
    entries = S.vtables[j].entries
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
    entries = S.vtables[j].entries
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
    entries = S.vtables[j].entries
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
            yield CategoryStructure(G, [CompTable(0, entries)], [],
                                    AxiomFlags(global_=rng.random() < 0.5))


def _bent_two_categories(rng, count):
    """The two-category on the cat-of-cats carrier with vertical entries
    removed and horizontal entries rewritten or removed: untypeable and
    mistyped horizontal entries, missing keys, lopsided triples."""
    G, S = build_cat_of_cats([z2_structure()[1]], depth=2)
    for _ in range(count):
        vt = {j: dict(t.entries) for j, t in S.vtables.items()}
        for j, entries in vt.items():
            for key in rng.sample(sorted(entries), rng.randrange(3)):
                del entries[key]
        ht = dict(S.htables[0].entries)
        for key in rng.sample(sorted(ht), rng.randrange(4)):
            ht[key] = rng.randrange(G.count(2))
        for key in rng.sample(sorted(ht), rng.randrange(2)):
            del ht[key]
        yield CategoryStructure(G, [CompTable(j, e) for j, e in vt.items()],
                                [HCompTable(0, ht)], AxiomFlags(global_=rng.random() < 0.5))


def test_reports_match_naive_references():
    """Same kinds, cells, expected and actual values, in the same order, on
    partial and failing tables."""
    rng = random.Random(11)
    seen = set()
    for S in [*_random_one_graph_structures(rng, 150), *_bent_two_categories(rng, 40)]:
        got = _as_tuples(check_typing(S))
        assert got == _ref_typing(S)
        for j in sorted(S.vtables):
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
