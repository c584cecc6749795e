import itertools
import random

import pytest

from ncats import (
    AxiomFlags,
    CategoryStructure,
    CellId,
    CompTable,
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
from ncats.structures import FAIL, NOT_APPLICABLE

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
        G, [CompTable(0, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})], [],
        AxiomFlags(global_=True, unital=True, associative=True))


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
    partial = CategoryStructure(G, [CompTable(0, {(0, 0): 0, (0, 1): 1, (1, 0): 1})])
    rep = check_functor(identity_morphism(G), Z, partial)
    kinds = {c.kind for c in rep.find("functor", 0).counterexamples}
    assert "codomain-gap" in kinds
    bare = CategoryStructure(G, [])
    rep = check_functor(identity_morphism(G), Z, bare)
    kinds = {c.kind for c in rep.find("functor", 0).counterexamples}
    assert kinds == {"codomain-table-missing"}


def test_enumerate_functors_counts():
    _, Z = z2_structure()
    assert len(enumerate_functors(Z, Z)) == 2
    _, N = absorbing_structure()
    assert len(enumerate_functors(Z, N)) == 1      # the twist cannot survive
    assert len(enumerate_functors(N, Z)) == 1
    _, T3 = total_order_structure(3)
    assert len(enumerate_functors(T3, T3)) == 10   # monotone self-maps of a 3-chain
    with pytest.raises(SpaceTooLarge):
        enumerate_functors(T3, T3, bound=1)


def test_enumerated_functors_check_out():
    _, T2 = total_order_structure(2)
    for m in enumerate_functors(T2, T2):
        assert check_functor(m, T2, T2).passed


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
    partial = CategoryStructure(G, [CompTable(0, {(0, 0): 0})])
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


def test_cat_of_cats_counts_and_axioms():
    G, S = cat_of_z2s(1)
    assert [G.count(d) for d in range(3)] == [1, 2, 4]
    assert check_category(S).passed
    G2, S2 = cat_of_z2s(2)
    assert [G2.count(d) for d in range(3)] == [2, 8, 16]
    assert check_category(S2).passed
    assert check_interchange(S2, 0).passed


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
        G, [CompTable(0, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0})], [],
        AxiomFlags(global_=True, unital=True, associative=True))
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


def test_modification_without_horizontal_table():
    G, S = cat_of_z2s(1)
    bare = CategoryStructure(G, list(S.vtables.values()), [], S.flags)
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
    no_level0 = CategoryStructure(G, [S.vtables[1]], list(S.htables.values()), S.flags)
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
    assert pinned(check_modification(untyped, S, CategoryStructure(G, []))) == [
        ("modification-paths", 0, FAIL, [], [
            ("ComponentUntyped", (c(0, 0),), (c(1, 1), c(1, 0)), c(2, 2)),
        ] + undefined),
        ("modification-cells", 0, NOT_APPLICABLE,
         ["no horizontal table at level 0 in the codomain"], []),
    ]
