import hashlib
import itertools
import math
import random

import pytest

from ncats import (
    BoundaryMismatch,
    GraphError,
    MatchDiagram,
    SpaceTooLarge,
    all_diagrams,
    build_cob_truncation,
    check_category,
    disjoint_union,
    gen_sets_graph,
    glue,
    is_skeletal,
    make_cylinder,
    parse_signs,
    reverse_orientation,
)
from ncats.cobordism import all_boundaries, format_signs
from ncats.io import document_from_structure, serialize


def test_sign_parsing():
    assert parse_signs("+-+") == (1, -1, 1)
    assert parse_signs(" + -\n+ ") == (1, -1, 1)
    assert format_signs((1, -1, 1)) == "+-+"
    assert parse_signs("") == ()
    with pytest.raises(ValueError):
        parse_signs("+x")
    assert reverse_orientation(reverse_orientation((1, -1))) == (1, -1)


def test_diagram_validation():
    with pytest.raises(GraphError):
        MatchDiagram((1,), (1,), ())                       # unmatched points
    with pytest.raises(GraphError):
        MatchDiagram((1, 1), (), (((0, 0), (0, 1)),))      # same-direction strand
    with pytest.raises(GraphError):
        MatchDiagram((1,), (1,), (((0, 0), (0, 0)),))      # degenerate strand
    ok = MatchDiagram((1,), (1,), (((1, 0), (0, 0)),))
    assert ok == make_cylinder((1,))                       # pairs get normalized


def test_diagram_signs_must_be_plus_or_minus_one():
    for bad in (2, 0, -3, True, 1.0):
        with pytest.raises(GraphError, match=f"orientation sign {bad!r} "):
            MatchDiagram((bad,), (bad,), (((0, 0), (1, 0)),))
        with pytest.raises(GraphError, match=f"orientation sign {bad!r} "):
            all_diagrams((bad,), (bad,))
        with pytest.raises(GraphError, match=f"orientation sign {bad!r} "):
            all_diagrams((1,), (bad, -1))
    assert [str(d) for d in all_diagrams((1,), (1,))] == ["+=>+ [0.0-1.0]"]


def test_diagram_points_are_integer_sides_and_indices():
    for strand in (((False, 0), (True, 0)),        # boolean sides
                   ((0, 0), (1, True)),            # boolean index
                   ((0, 0.0), (1, 0)),             # float index
                   ((0, 0), (2, 0)),               # no side 2
                   ((0, 0), (1, 1)),               # index out of range
                   ([0, 0], [1, 0])):              # not a tuple
        with pytest.raises(GraphError, match="bad strand"):
            MatchDiagram((1,), (1,), (strand,))
    with pytest.raises(GraphError, match="perfect matching"):
        MatchDiagram((1, 1), (1, 1), (((0, 0), (1, 0)), ((0, 0), (1, 1))))


@pytest.mark.parametrize("pairs, message", [
    ([((0, 0), "x")], "bad strand ((0, 0), 'x')"),                     # a point that is not one
    ([((0, 0),)], "bad strand ((0, 0),)"),                             # one end
    ([1], "bad strand 1"),                                             # not a strand
    (None, "pairs None are not a list of strands"),
    ([((0, 0), (1, 0), (1, 1))], "bad strand ((0, 0), (1, 0), (1, 1))"),  # three ends
])
def test_malformed_strands_are_graph_errors(pairs, message):
    """Strands that are not two points are refused with GraphError, not a
    TypeError or ValueError from sorting or unpacking them."""
    with pytest.raises(GraphError) as err:
        MatchDiagram((1,), (1,), pairs)
    assert type(err.value) is GraphError
    assert str(err.value) == message


@pytest.mark.parametrize("source, target, message", [
    (None, (1,), "signs None are not a list of +1 and -1"),
    ((1,), 5, "signs 5 are not a list of +1 and -1"),
    ((1,), "+", "signs '+' are not a list of +1 and -1"),
])
def test_malformed_boundaries_are_graph_errors(source, target, message):
    """A source or target that is not a list or tuple of signs is refused
    with GraphError, not a TypeError from reading it, by the diagram and
    by ``all_diagrams`` alike."""
    for build in (lambda: MatchDiagram(source, target, [((0, 0), (1, 0))]), lambda: all_diagrams(source, target)):
        with pytest.raises(GraphError) as err:
            build()
        assert type(err.value) is GraphError
        assert str(err.value) == message


def test_a_generator_of_signs_is_refused():
    with pytest.raises(GraphError, match="are not a list of"):
        MatchDiagram((x for x in (1,)), (1,), [((0, 0), (1, 0))])
    assert MatchDiagram([1], [1], [((0, 0), (1, 0))]) == MatchDiagram((1,), (1,), [((0, 0), (1, 0))])


def _reference_glue(M, N):
    """Gluing by the original route: strands followed through dicts keyed
    by (side, index) points, independent of the involution core."""
    m_match, n_match = {}, {}
    for match, D in ((m_match, M), (n_match, N)):
        for p, q in D.pairs:
            match[p], match[q] = q, p

    def follow(cur, first):
        while True:
            side, i = cur = (m_match if first else n_match)[cur]
            if side == (0 if first else 1):
                return cur
            cur, first = ((0, i) if first else (1, i)), not first

    pairs, done = [], set()
    for start, first in ([((0, i), True) for i in range(len(M.source))]
                         + [((1, j), False) for j in range(len(N.target))]):
        if start not in done:
            end = follow(start, first)
            done.update((start, end))
            pairs.append((start, end))
    return MatchDiagram(M.source, N.target, tuple(pairs))


def _listed_arrows(max_points):
    """The truncation's arrows in its cell order, listed independently."""
    bounds = all_boundaries(max_points)
    return [d for A in bounds for B in bounds for d in all_diagrams(A, B)]


def test_glue_agrees_with_the_reference_route():
    b2 = all_boundaries(2)
    for A, B, C in itertools.product(b2, repeat=3):
        for M in all_diagrams(A, B):
            for N in all_diagrams(B, C):
                assert glue(M, N) == _reference_glue(M, N)


def test_glue_discards_loops():
    cup = MatchDiagram((), (1, -1), (((1, 0), (1, 1)),))
    cap = MatchDiagram((1, -1), (), (((0, 0), (0, 1)),))
    assert glue(cup, cap) == MatchDiagram((), (), ())
    with pytest.raises(BoundaryMismatch):
        glue(cap, cap)


def test_snake_identity():
    cup = MatchDiagram((), (-1, 1), (((1, 0), (1, 1)),))
    cap = MatchDiagram((1, -1), (), (((0, 0), (0, 1)),))
    left = disjoint_union(make_cylinder((1,)), cup)
    right = disjoint_union(cap, make_cylinder((1,)))
    assert glue(left, right) == make_cylinder((1,))


def test_cylinder_unit_laws_exhaustive():
    bounds = all_boundaries(2)
    for A in bounds:
        for B in bounds:
            for M in all_diagrams(A, B):
                assert glue(make_cylinder(A), M) == M
                assert glue(M, make_cylinder(B)) == M


def test_matching_counts_against_factorial_oracle():
    for A in all_boundaries(2):
        for B in all_boundaries(2):
            pts = [-s for s in A] + list(B)
            m = sum(1 for s in pts if s > 0)
            expected = math.factorial(m) if 2 * m == len(pts) else 0
            assert len(all_diagrams(A, B)) == expected


def test_all_diagrams_deterministic_and_valid():
    ds = all_diagrams((1, -1), (1, -1))
    assert ds == sorted(ds, key=lambda d: d.pairs)
    assert len(set(ds)) == len(ds) == 2
    assert make_cylinder((1, -1)) in ds


def test_union_glue_compatibility():
    b1 = all_boundaries(1)
    for A, B, D in itertools.product(b1, repeat=3):
        for M in all_diagrams(A, B):
            for Mp in all_diagrams(B, D):
                for C, E, F in itertools.product(b1, repeat=3):
                    for N in all_diagrams(C, E):
                        for Np in all_diagrams(E, F):
                            assert (glue(disjoint_union(M, N), disjoint_union(Mp, Np))
                                    == disjoint_union(glue(M, Mp), glue(N, Np)))


def test_union_unit_and_cylinders():
    empty = MatchDiagram((), (), ())
    M = all_diagrams((1,), (1,))[0]
    assert disjoint_union(M, empty) == M
    assert disjoint_union(empty, M) == M
    assert disjoint_union(make_cylinder((1,)), make_cylinder((-1, 1))) == make_cylinder((1, -1, 1))


def test_truncation_counts_and_axioms():
    sizes = {}
    for mp in range(3):
        G, S = build_cob_truncation(mp)
        sizes[mp] = (G.count(0), G.count(1))
        assert check_category(S).passed
        # every identity is the cylinder on its boundary
        for i in range(G.count(0)):
            d = G.idn_map(0)[i]
            assert G.src_map(1)[d] == i and G.tgt_map(1)[d] == i
    assert sizes == {0: (1, 1), 1: (3, 3), 2: (7, 19)}


def test_truncation_three_points():
    G, S = build_cob_truncation(3)
    assert (G.count(0), G.count(1)) == (15, 163)
    assert check_category(S).passed
    with pytest.raises(SpaceTooLarge):
        build_cob_truncation(5)


def test_truncation_tables_match_the_reference_route():
    for mp in range(4):
        G, S = build_cob_truncation(mp)
        arrows = _listed_arrows(mp)
        assert G.labels[1] == tuple(str(d) for d in arrows)
        entries = S.tables[1, 0]
        composable = [(i, j) for i, d in enumerate(arrows)
                      for j, e in enumerate(arrows) if d.target == e.source]
        assert list(entries) == composable                 # entry order too
        for (i, j), k in entries.items():
            assert arrows[k] == _reference_glue(arrows[i], arrows[j])


def test_truncation_documents_are_pinned():
    want = ["4d3dd2300a41b05c0da7ea390e81b792a53ce5b8aedb2843f2fffebf61c50b8e",
            "57d5651d096d1144c4125f0784d709f6fe13cbcba4ea05a55d68589096e33f3a",
            "eb51add463d4647ee7e3765abeaaf6e88bccf342190de8b3e295113226ba6e21",
            "1c69728b41b813ff8c2705d17391a8688c5bd399c49fed22a977221d4097d7e8"]
    got = [hashlib.sha256(serialize(document_from_structure(build_cob_truncation(mp)[1])))
           .hexdigest() for mp in range(4)]
    assert got == want


def test_four_point_truncation_sampled_against_the_reference():
    G, S = build_cob_truncation(4)
    entries = S.tables[1, 0]
    assert (G.count(0), G.count(1), len(entries)) == (31, 2107, 241677)
    arrows = _listed_arrows(4)
    assert G.labels[1] == tuple(str(d) for d in arrows)
    for (i, j), k in random.Random(20).sample(sorted(entries.items()), 2000):
        assert arrows[k] == _reference_glue(arrows[i], arrows[j])


def test_sets_graph_counts():
    assert [gen_sets_graph(1).count(d) for d in range(3)] == [1, 1, 1]
    assert is_skeletal(gen_sets_graph(1))
    G = gen_sets_graph(2)
    assert [G.count(d) for d in range(3)] == [2, 8, 22]
    G = gen_sets_graph(3)
    assert [G.count(d) for d in range(3)] == [3, 56, 906]
    with pytest.raises(SpaceTooLarge):
        gen_sets_graph(4)
    with pytest.raises(GraphError):
        gen_sets_graph(0)


def test_sets_graph_hom_sizes_match_counting():
    G = gen_sets_graph(3)
    # arrows between objects of sizes a and b number b^a
    from ncats import CellId, hom_set
    for a in range(3):
        for b in range(3):
            hs = hom_set(G, CellId(0, a), CellId(0, b))
            assert len(hs.members) == (b + 1) ** (a + 1)
