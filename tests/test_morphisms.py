import itertools
import math
import random

import pytest

from ncats import (
    AxiomCheck,
    AxiomFlags,
    AxiomReport,
    CategoryStructure,
    CellId,
    Counterexample,
    GraphAutomorphism,
    GraphError,
    GraphMorphism,
    Modification,
    NGraph,
    SpaceTooLarge,
    StructureTail,
    Transformation,
    VarianceSpec,
    automorphisms,
    build_cat_of_cats,
    check_category,
    check_contravariant,
    check_functor,
    check_graph_morphism,
    check_interchange,
    check_modification,
    check_transformation,
    compose_morphisms,
    enumerate_functors,
    enumerate_transformations,
    graph_maps,
    identity_morphism,
)
from ncats.structures import FAIL, NOT_APPLICABLE, PASS

from util import (
    arrow_graph,
    loops_graph,
    random_graph,
    total_order_structure,
    z2_structure,
)


def absorbing_structure():
    """Two loops where the non-identity swallows everything."""
    G = loops_graph(2)
    return G, CategoryStructure(
        G, tables={(1, 0): {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}},
        flags=AxiomFlags(global_=True, unital=True, associative=True))


def test_morphism_construction_errors():
    G = loops_graph(2)
    with pytest.raises(GraphError):
        GraphMorphism(G, G, ((0,),))            # missing a dimension
    with pytest.raises(GraphError):
        GraphMorphism(G, G, ((0,), (0,)))        # dimension 1 not total
    with pytest.raises(GraphError):
        GraphMorphism(G, G, ((0,), (0, 7)))      # out of range
    H = arrow_graph()
    with pytest.raises(GraphError):
        compose_morphisms(identity_morphism(G), identity_morphism(H))


def test_identity_and_composition():
    G, S = z2_structure()
    i = identity_morphism(G)
    fs = enumerate_functors(S, S)
    for m in fs:
        assert compose_morphisms(i, m).comps == m.comps
        assert compose_morphisms(m, i).comps == m.comps
    assert i.apply(CellId(1, 1)) == CellId(1, 1)
    assert i.apply(CellId(-1, 0)) == CellId(-1, 0)


def test_graph_morphism_squares():
    G = loops_graph(2)
    assert check_graph_morphism(identity_morphism(G)).passed
    # pointing the identity loop at the twist breaks the identity square
    bad = GraphMorphism(G, G, ((0,), (1, 0)))
    rep = check_graph_morphism(bad)
    kinds = {c.kind for c in rep.find("graph-morphism", None).counterexamples}
    assert "identity-square" in kinds


def test_graph_morphism_tail_mismatch():
    G = loops_graph(1)
    H = NGraph(1, StructureTail(2, (0, 1)), [[0], [0]], [[1], [0]], [[0]])
    rep = check_graph_morphism(GraphMorphism(G, H, ((0,), (0,))))
    kinds = {c.kind for c in rep.find("graph-morphism", None).counterexamples}
    assert "tail-size" in kinds


def test_apply_refuses_a_tail_cell_the_codomain_lacks():
    """A (-1)-cell maps to itself, so a morphism from a 2-tail carrier into
    a 1-tail one has no image for the second (-1)-cell."""
    H = NGraph(1, StructureTail(2, (0, 1)), [[0], [0]], [[1], [0]], [[0]])
    m = GraphMorphism(H, loops_graph(1), ((0,), (0,)))
    assert m.apply(CellId(-1, 0)) == CellId(-1, 0)
    assert m.apply(CellId(0, 0)) == CellId(0, 0)
    with pytest.raises(GraphError):
        m.apply(CellId(-1, 1))
    with pytest.raises(GraphError):
        m.apply(CellId(-1, 2))


def test_contravariance_via_reversed_codomain():
    G = arrow_graph()
    flip = GraphMorphism(G, G, ((1, 0), (1, 0, 2)))
    assert not check_graph_morphism(flip).passed
    assert check_contravariant(flip, VarianceSpec(frozenset({1}))).passed
    # the identity is covariant, not contravariant, on an asymmetric carrier
    assert not check_contravariant(identity_morphism(G), VarianceSpec(frozenset({1}))).passed


def test_functor_preserves_composites():
    G, Z = z2_structure()
    _, N = absorbing_structure()
    send_twist = GraphMorphism(G, G, ((0,), (0, 1)))
    rep = check_functor(send_twist, Z, N)
    chk = rep.find("functor", 0)
    assert chk.verdict == FAIL
    assert {c.kind for c in chk.counterexamples} == {"composite-square"}


def test_functor_flags_codomain_gaps():
    G, Z = z2_structure()
    partial = CategoryStructure(G, tables={(1, 0): {(0, 0): 0, (0, 1): 1, (1, 0): 1}})
    rep = check_functor(identity_morphism(G), Z, partial)
    kinds = {c.kind for c in rep.find("functor", 0).counterexamples}
    assert "codomain-gap" in kinds
    bare = CategoryStructure(G)
    rep = check_functor(identity_morphism(G), Z, bare)
    kinds = {c.kind for c in rep.find("functor", 0).counterexamples}
    assert kinds == {"codomain-table-missing"}


def test_enumerate_functors_counts():
    _, Z = z2_structure()
    assert len(enumerate_functors(Z, Z)) == 2
    _, N = absorbing_structure()
    assert len(enumerate_functors(Z, N)) == 1      # the twist cannot survive
    assert len(enumerate_functors(N, Z)) == 1
    for k in range(2, 7):
        # the monotone self-maps of a k-chain, C(2k-1, k) (OEIS A001700)
        _, T = total_order_structure(k)
        assert len(enumerate_functors(T, T)) == math.comb(2 * k - 1, k)
    _, T3 = total_order_structure(3)
    with pytest.raises(SpaceTooLarge):
        enumerate_functors(T3, T3, bound=1)


def test_enumerated_functors_check_out():
    _, T2 = total_order_structure(2)
    for m in enumerate_functors(T2, T2):
        assert check_functor(m, T2, T2).passed


def test_functors_preserve_the_horizontal_table():
    """On the cat-of-one-Z2 2-category, 8 graph maps preserve both vertical
    tables; 5 of them break the horizontal table, each only there."""
    G, S = cat_of_z2s(1)
    kept = enumerate_functors(S, S)
    assert len(kept) == 3
    broken = 0
    for comps in graph_maps(G, G):
        m = GraphMorphism(G, G, comps)
        rep = check_functor(m, S, S)
        assert [(c.axiom, c.level) for c in rep.checks] == [
            ("graph-morphism", None), ("functor", 0), ("functor", 1), ("functor-horizontal", 0)]
        failing = [(c.axiom, c.level) for c in rep.checks if c.verdict == FAIL]
        assert failing in ([], [("functor-horizontal", 0)])
        if failing:
            broken += 1
            kinds = {x.kind for x in rep.find("functor-horizontal", 0).counterexamples}
            assert kinds == {"composite-square"}
        else:
            assert m in kept
    assert broken == 5
    # a codomain without the horizontal table cannot receive its composites
    bare = without(S, (2, 0))
    rep = check_functor(identity_morphism(G), S, bare).find("functor-horizontal", 0)
    assert rep.verdict == FAIL
    assert {x.kind for x in rep.counterexamples} == {"codomain-table-missing"}


def reference_check_functor(m, cE, cF):
    """``check_functor`` as one loop over each domain table's sorted
    entries, building every counterexample as it meets it: the reference
    the report of the functor law's scan must match."""
    report = check_graph_morphism(m)
    for (d, j), entries in cE.tables.items():
        fmap = m.comps[d]
        target = cF.tables.get((d, j))
        bad = []
        for (a, b), v in sorted(entries.items()):
            cells, want = (CellId(d, a), CellId(d, b)), CellId(d, fmap[v])
            if target is None:
                bad.append(Counterexample("codomain-table-missing", cells, expected=want))
                continue
            got = target.get((fmap[a], fmap[b]))
            if got is None:
                bad.append(Counterexample("codomain-gap", cells, expected=want))
            elif got != fmap[v]:
                bad.append(Counterexample("composite-square", cells, expected=want, actual=CellId(d, got)))
        axiom = "functor" if d == j + 1 else "functor-horizontal"
        report = report.merged(AxiomReport([AxiomCheck(axiom, j, FAIL if bad else PASS, bad)]))
    return report


def functor_fixtures():
    """Pairs of structures whose graph maps cover every verdict and every
    counterexample kind of the functor law: 86 maps in all."""
    G, Z = z2_structure()
    _, N = absorbing_structure()
    pairs = [(Z, Z), (Z, N), (N, Z), (N, N)]
    pairs += [(T, T) for T in (total_order_structure(k)[1] for k in (2, 3, 4))]
    _, C = cat_of_z2s(1)
    flat = without(C, (2, 0))
    pairs += [(C, C), (C, flat), (flat, C)]
    partial = CategoryStructure(G, tables={(1, 0): {(0, 0): 0, (0, 1): 1, (1, 0): 1}})
    # two wrong entries out of key order, which the report must sort
    partial_domain = CategoryStructure(G, tables={(1, 0): {(1, 1): 1, (0, 1): 0}})
    pairs += [(Z, partial), (Z, CategoryStructure(G)), (partial_domain, Z)]
    return pairs


def test_functor_reports_match_the_reference():
    seen = 0
    for cE, cF in functor_fixtures():
        for comps in graph_maps(cE.graph, cF.graph):
            m = GraphMorphism(cE.graph, cF.graph, comps)
            got, want = check_functor(m, cE, cF), reference_check_functor(m, cE, cF)
            assert got == want and repr(got) == repr(want)
            seen += 1
    assert seen == 86


def test_enumerate_functors_is_the_filtered_listing():
    for cE, cF in functor_fixtures():
        E, F = cE.graph, cF.graph
        assert enumerate_functors(cE, cF) == [
            m for m in (GraphMorphism(E, F, comps) for comps in graph_maps(E, F))
            if check_functor(m, cE, cF).passed]


def cyclic_group(n):
    """Z_n on one object, loop a standing for a mod n."""
    G = loops_graph(n)
    table = {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    return CategoryStructure(G, tables={(1, 0): table},
                             flags=AxiomFlags(global_=True, unital=True, associative=True))


def test_homs_between_cyclic_groups():
    """|Hom(Z_m, Z_n)| = gcd(m, n): a functor picks the image of the
    generator among the elements whose order divides m."""
    groups = [cyclic_group(n) for n in range(1, 8)]
    for m, cE in enumerate(groups, 1):
        for n, cF in enumerate(groups, 1):
            assert len(enumerate_functors(cE, cF)) == math.gcd(m, n)


def product_graph_maps(E, F):
    """Every raw component assignment E -> F, in ``itertools.product``
    order, that the graph-morphism check accepts."""
    per_dim = [list(itertools.product(range(F.count(d)), repeat=E.count(d)))
               for d in range(E.n + 1)]
    return [comps for comps in itertools.product(*per_dim)
            if check_graph_morphism(GraphMorphism(E, F, comps)).passed]


def is_bijective(F, comps):
    return all(sorted(m) == list(range(F.count(d))) for d, m in enumerate(comps))


@pytest.mark.parametrize("n", [1, 2])
def test_graph_maps_match_filtered_product(n):
    rng = random.Random(40 + n)
    for _ in range(6):
        E = random_graph(rng, n=n, max_cells=3)
        for F in (E, random_graph(rng, n=n, max_cells=3)):
            reference = product_graph_maps(E, F)
            assert list(graph_maps(E, F)) == reference
            bijections = [comps for comps in reference if is_bijective(F, comps)]
            assert list(graph_maps(E, F, bijective=True)) == bijections
            if F is E:
                assert automorphisms(E) == [GraphAutomorphism(comps) for comps in bijections]


def test_transformation_construction_errors():
    G, Z = z2_structure()
    fs = enumerate_functors(Z, Z)
    H = arrow_graph()
    with pytest.raises(GraphError):
        Transformation(fs[0], identity_morphism(H), {0: (0,)})
    with pytest.raises(GraphError):
        Transformation(fs[0], fs[1], {0: ()})
    with pytest.raises(GraphError):
        Transformation(fs[0], fs[1], {0: (9,)})


def test_naturality_check_and_counts():
    G, Z = z2_structure()
    fs = enumerate_functors(Z, Z)
    table = {(a.comps, b.comps): len(enumerate_transformations(a, b, Z, Z))
             for a in fs for b in fs}
    assert sorted(table.values()) == [0, 0, 2, 2]
    ident = next(m for m in fs if m.comps[1] == (0, 1))
    collapse = next(m for m in fs if m.comps[1] == (0, 0))
    # both loops are typed as components but neither square closes
    for v in (0, 1):
        t = Transformation(ident, collapse, {0: (v,)})
        rep = check_transformation(t, Z, Z)
        chk = rep.find("naturality", 0)
        assert chk.verdict == FAIL
        assert any(c.kind == "NaturalityFailed" for c in chk.counterexamples)


def test_transformation_space_is_the_product_of_its_hom_sets():
    """``bound`` caps the product of the component hom-set sizes; an empty
    hom-set leaves no transformation, whatever the other sizes."""
    G, Z = z2_structure()
    ident = identity_morphism(G)
    assert len(enumerate_transformations(ident, ident, Z, Z, bound=2)) == 2
    with pytest.raises(SpaceTooLarge):
        enumerate_transformations(ident, ident, Z, Z, bound=1)
    # Z2 on the object p, only its identity on q; the map onto p sends q's
    # component to Hom(q, p), which is empty, after p's two loops
    G = NGraph(1, StructureTail(1, (0, 0)), [[0, 0], [0, 1, 0]], [[0, 0], [0, 1, 0]], [[0, 1]])
    S = CategoryStructure(G, tables={(1, 0): {(0, 0): 0, (0, 2): 2, (1, 1): 1, (2, 0): 2, (2, 2): 0}},
                          flags=AxiomFlags(global_=True, unital=True, associative=True))
    onto_p = GraphMorphism(G, G, ((0, 0), (0, 0, 2)))
    assert check_functor(onto_p, S, S).passed
    assert enumerate_transformations(identity_morphism(G), onto_p, S, S, bound=1) == []


def test_naturality_on_thin_category():
    _, T3 = total_order_structure(3)
    fs = enumerate_functors(T3, T3)
    for a in fs:
        for b in fs:
            ts = enumerate_transformations(a, b, T3, T3)
            pointwise_leq = all(x <= y for x, y in zip(a.comps[0], b.comps[0]))
            assert len(ts) == (1 if pointwise_leq else 0)


def test_undefined_square_counts_against():
    G, Z = z2_structure()
    partial = CategoryStructure(G, tables={(1, 0): {(0, 0): 0}})
    fs = enumerate_functors(Z, Z)
    ident = next(m for m in fs if m.comps[1] == (0, 1))
    t = Transformation(ident, ident, {0: (0,)})
    rep = check_transformation(t, Z, partial)
    chk = rep.find("naturality", 0)
    assert chk.verdict == FAIL
    assert any(c.kind == "NaturalitySquareUndefined" for c in chk.counterexamples)


def cat_of_z2s(count, depth=2):
    Z = z2_structure()[1]
    return build_cat_of_cats([Z] * count, depth)


def without(S, name):
    """``S`` with its table ``name`` left out."""
    return CategoryStructure(S.graph, tables={n: e for n, e in S.tables.items() if n != name}, flags=S.flags)


def test_cat_of_cats_counts_and_axioms():
    G, S = cat_of_z2s(1)
    assert [G.count(d) for d in range(3)] == [1, 2, 4]
    assert check_category(S).passed
    G2, S2 = cat_of_z2s(2)
    assert [G2.count(d) for d in range(3)] == [2, 8, 16]
    assert check_category(S2).passed
    assert check_interchange(S2, 0).passed


def test_cat_of_a_four_chain():
    """On a thin category the functors are the monotone maps and there is
    one transformation f => g exactly when f <= g pointwise."""
    G, _S = build_cat_of_cats([total_order_structure(4)[1]])
    monotone = list(itertools.combinations_with_replacement(range(4), 4))
    below = sum(all(x <= y for x, y in zip(f, g)) for f in monotone for g in monotone)
    assert [G.count(d) for d in range(3)] == [1, len(monotone), below] == [1, 35, 490]


def test_cat_of_cats_depth_three():
    G, S = cat_of_z2s(1, depth=3)
    assert G.n == 3
    assert G.count(3) == G.count(2) == 4
    assert check_category(S).passed


def test_cat_of_cats_rejects_bad_inputs():
    Z = z2_structure()[1]
    with pytest.raises(GraphError):
        build_cat_of_cats([Z], depth=4)
    G2, S2 = cat_of_z2s(1)
    with pytest.raises(GraphError):
        build_cat_of_cats([S2])        # two-dimensional input
    G = loops_graph(2)
    broken = CategoryStructure(
        G, tables={(1, 0): {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}},
        flags=AxiomFlags(global_=True, unital=True, associative=True))
    with pytest.raises(GraphError):
        build_cat_of_cats([broken])


def test_modification_checks():
    G, S = cat_of_z2s(1)
    I = identity_morphism(G)
    idf = G.idn_map(0)[0]
    tr = Transformation(I, I, {0: (idf,)}, (0,))
    assert check_transformation(tr, S, S).passed
    md = Modification(tr, tr, {0: (G.idn_map(1)[idf],)})
    rep = check_modification(md, S, S)
    assert rep.passed
    # typed alternative: parallel 2-cell that is not the identity
    alt = next(v for v in range(G.count(2))
               if v != G.idn_map(1)[idf]
               and G.src_map(2)[v] == idf and G.tgt_map(2)[v] == idf)
    lie = Modification(tr, tr, {0: (alt,)})
    rep = check_modification(lie, S, S)
    chk = rep.find("modification-cells", 0)
    assert chk.verdict == FAIL
    assert any(c.kind == "cell-square" for c in chk.counterexamples)


def test_modification_endpoints_need_equal_levels():
    G, _S = cat_of_z2s(1, depth=3)
    I = identity_morphism(G)
    idf = G.idn_map(0)[0]
    idn1 = tuple(G.idn_map(1)[a] for a in range(G.count(1)))
    low = Transformation(I, I, {0: (idf,)}, (0,))
    high = Transformation(I, I, {0: (idf,), 1: idn1}, (0, 1))
    comps = {0: (G.idn_map(1)[idf],), 1: (0,) * G.count(1)}
    Modification(high, high, comps)
    with pytest.raises(GraphError):
        Modification(high, low, comps)
    with pytest.raises(GraphError):
        Modification(low, high, {0: comps[0]})


def _raised(make):
    """The exact type and message of the error ``make()`` raises."""
    with pytest.raises(GraphError) as info:
        make()
    return info.type, str(info.value)


def test_component_errors_are_pinned():
    """Each class names its construction errors in its own words, and checks
    its levels one at a time: room, then totality, then range."""
    from ncats.graphs import BadLevel

    Z = z2_structure()[1]
    fs = enumerate_functors(Z, Z)
    G = cat_of_z2s(1)[0]
    I = identity_morphism(G)
    idf = G.idn_map(0)[0]
    tr = Transformation(I, I, {0: (idf,)}, (0,))
    up = {0: (idf,), 1: tuple(G.idn_map(1))}
    tr01 = Transformation(I, I, up, (0, 1))
    other = Transformation(I, I, up, (0, 1))
    cell = G.idn_map(1)[idf]
    low = Transformation(fs[0], fs[0], {0: (fs[0].comps[1][0],)})
    cases = [
        (lambda: Transformation(fs[0], identity_morphism(arrow_graph()), {0: (0,)}),
         GraphError, "transformation endpoints are not parallel"),
        (lambda: Transformation(I, I, up, (0, 2)), BadLevel, "no room for components at level 2"),
        (lambda: Transformation(I, I, {0: ()}, (0, 2)), GraphError, "level 0 components are not total"),
        (lambda: Transformation(I, I, {0: (idf,)}, (0, 1)), GraphError,
         "level 1 components are not total"),
        (lambda: Transformation(I, I, {0: (99,)}, (0, 2)), GraphError,
         "level 0 component value 99 out of range"),
        (lambda: Modification(tr, tr01, {0: (cell,)}), GraphError,
         "modification endpoints have levels (0,) and (0, 1)"),
        (lambda: Modification(tr01, other, {0: (cell,), 1: (0,) * G.count(1)}), BadLevel,
         "codomain has no dimension 3 cells"),
        (lambda: Modification(tr01, other, {0: ()}), GraphError, "level 0 components are not total"),
        (lambda: Modification(low, low, {0: (0,)}), BadLevel, "codomain has no dimension 2 cells"),
        (lambda: Modification(tr, tr, {}), GraphError, "level 0 components are not total"),
        (lambda: Modification(tr, tr, {0: (99,)}), GraphError,
         "level 0 component value 99 out of range"),
    ]
    J = identity_morphism(cat_of_z2s(2)[0])
    cases.append((lambda: Modification(tr, Transformation(J, J, {0: (0, 0)}), {0: (cell,)}),
                  GraphError, "modification endpoints are not parallel transformations"))
    for make, kind, message in cases:
        assert _raised(make) == (kind, message)


@pytest.mark.parametrize("bad", [0.0, True, "0", None])
def test_maps_refuse_what_is_not_a_cell_index(bad):
    """Component values and levels must be ints and not bools, as in a
    file; anything else is a GraphError when the map is built, not a
    TypeError later."""
    from ncats.graphs import BadLevel

    G = loops_graph(2)
    I = identity_morphism(G)
    C = cat_of_z2s(1)[0]
    J = identity_morphism(C)
    tr = Transformation(J, J, {0: (C.idn_map(0)[0],)})
    for make, kind, message in (
            (lambda: GraphMorphism(G, G, ((0,), (bad, 1))), GraphError,
             f"dimension 1 component value {bad!r} out of range"),
            (lambda: GraphMorphism(G, G, ((bad,), (0, 1))), GraphError,
             f"dimension 0 component value {bad!r} out of range"),
            (lambda: Transformation(I, I, {0: (bad,)}), GraphError, f"level 0 component value {bad!r} out of range"),
            (lambda: Transformation(I, I, {0: (0,)}, (bad,)), BadLevel, f"level {bad!r} is not an integer"),
            (lambda: Modification(tr, tr, {0: (bad,)}), GraphError, f"level 0 component value {bad!r} out of range")):
        assert _raised(make) == (kind, message)


def test_modification_without_horizontal_table():
    G, S = cat_of_z2s(1)
    bare = without(S, (2, 0))
    I = identity_morphism(G)
    idf = G.idn_map(0)[0]
    tr = Transformation(I, I, {0: (idf,)}, (0,))
    md = Modification(tr, tr, {0: (G.idn_map(1)[idf],)})
    rep = check_modification(md, S, bare)
    assert rep.find("modification-cells", 0).verdict == NOT_APPLICABLE
    assert rep.find("modification-paths", 0).verdict == "pass"


def c(dim, index):
    return CellId(dim, index)


def pinned(report):
    """Every check of ``report`` with its verdict, notes and counterexamples
    (kind, cells, expected, actual), in report order."""
    return [(ch.axiom, ch.level, ch.verdict, ch.notes,
             [(ce.kind, ce.cells, ce.expected, ce.actual) for ce in ch.counterexamples])
            for ch in report.checks]


def z2_cat_with_collapse():
    G, S = cat_of_z2s(1)
    collapse = next(m for m in enumerate_functors(S, S) if m.comps[2] == (2, 2, 2, 2))
    return G, S, identity_morphism(G), collapse


def test_transformation_reports_are_pinned():
    G, S, ident, collapse = z2_cat_with_collapse()
    t = Transformation(ident, collapse, {0: (1,), 1: (0, 3)}, (0, 1))
    level1 = ("naturality", 1, FAIL, [], [
        ("ComponentUntyped", (c(1, 0),), (c(1, 0), c(1, 1)), c(2, 0)),
        ("NaturalitySquareUndefined", (c(2, 0), c(1, 0), c(1, 0)), None, None),
        ("NaturalitySquareUndefined", (c(2, 1), c(1, 0), c(1, 0)), None, None),
        ("NaturalityFailed", (c(2, 3), c(1, 1), c(1, 1)), c(2, 3), c(2, 2)),
    ])
    assert pinned(check_transformation(t, S, S)) == [
        ("naturality", 0, FAIL, [], [
            ("NaturalityFailed", (c(1, 0), c(0, 0), c(0, 0)), c(1, 1), c(1, 0)),
        ]),
        level1,
    ]
    # no level-0 vertical table downstairs: one-cell undefined squares
    no_level0 = without(S, (1, 0))
    assert pinned(check_transformation(t, S, no_level0)) == [
        ("naturality", 0, FAIL, [], [
            ("NaturalitySquareUndefined", (c(1, 0),), "codomain table at level 0", None),
            ("NaturalitySquareUndefined", (c(1, 1),), "codomain table at level 0", None),
        ]),
        level1,
    ]
    low = Transformation(ident, collapse, {0: (0,)})
    assert pinned(check_transformation(low, S, S)) == [
        ("naturality", 0, "pass",
         ["components configured at level 0 only; higher cells are not constrained"], []),
    ]


def test_modification_reports_are_pinned():
    G, S, ident, collapse = z2_cat_with_collapse()
    unnatural = Transformation(ident, collapse, {0: (1,)})
    natural = Transformation(ident, collapse, {0: (0,)})
    # both endpoints fail their square at arrow c1_0: one path counterexample
    # per 2-cell over c1_0, per boundary arrow, per endpoint transformation
    md = Modification(unnatural, unnatural, {0: (3,)})
    path = ("path", (c(1, 0), c(0, 0), c(0, 0)), c(1, 1), c(1, 0))
    assert pinned(check_modification(md, S, S)) == [
        ("modification-paths", 0, FAIL, [], [path] * 8),
        ("modification-cells", 0, FAIL, [], [
            ("cell-square", (c(2, 0), c(0, 0), c(0, 0)), c(2, 3), c(2, 1)),
            ("cell-square", (c(2, 1), c(0, 0), c(0, 0)), c(2, 3), c(2, 0)),
            ("cell-square", (c(2, 3), c(0, 0), c(0, 0)), c(2, 3), c(2, 2)),
        ]),
    ]
    # no vertical table downstairs: three-cell undefined paths, and no
    # horizontal table either
    untyped = Modification(unnatural, natural, {0: (2,)})
    undefined = [("PathUndefined", (c(1, a), c(0, 0), c(0, 0)), "codomain table at level 0", None)
                 for a in (0, 1) for _ in range(8)]
    assert pinned(check_modification(untyped, S, CategoryStructure(G))) == [
        ("modification-paths", 0, FAIL, [], [
            ("ComponentUntyped", (c(0, 0),), (c(1, 1), c(1, 0)), c(2, 2)),
        ] + undefined),
        ("modification-cells", 0, NOT_APPLICABLE,
         ["no horizontal table at level 0 in the codomain"], []),
    ]
