"""The integer indices derived once per carrier agree with step-by-step
walks over ``CellId`` objects, and leave the carrier's identity alone."""

import random

import pytest

from ncats import (
    AxiomFlags,
    CategoryStructure,
    CellId,
    EnumSpec,
    NGraph,
    build_cat_of_cats,
    check_interchange,
    check_typing,
    composable_pairs,
    h_composable_pairs,
    hom_set,
    iterated_boundary,
    skeletal_graph,
)
from ncats.cobordism import build_cob_truncation, gen_sets_graph
from ncats.graphs import SOURCE, TARGET, BadLevel, boundary_map, hom_buckets
from ncats import enumeration
from ncats.structures import (
    NotComposable,
    composable,
    composable_triples,
    empty_rows,
    fiber_pos,
    neighbours,
    row_family,
    table_keys,
)

from util import loops_graph, parallel_pair_graph, random_graph, z2_structure


def carriers():
    Z = z2_structure()[1]
    return {
        "cob-2": build_cob_truncation(2)[0],
        "sets-2": gen_sets_graph(2),
        "cat-of-cats-3": build_cat_of_cats([Z], depth=3)[0],
        "skeletal-2-2": skeletal_graph(2, 2),
    }


def walk(G, z, j, side):
    step = G.src if side == SOURCE else G.tgt
    while z.dim > j:
        z = step(z)
    return z


def equal_copy(G):
    return NGraph(G.n, G.tail,
                  [G.src_map(d) for d in range(G.n + 1)],
                  [G.tgt_map(d) for d in range(G.n + 1)],
                  [G.idn_map(d) for d in range(G.n)])


def warm(G):
    for d in range(G.n + 1):
        hom_buckets(G, d)
        for j in range(-1, d):
            for side in (SOURCE, TARGET):
                boundary_map(G, d, j, side)
    for j in range(-1, G.n):
        composable_pairs(G, j)
    for j in range(G.n - 1):
        h_composable_pairs(G, j)


@pytest.mark.parametrize("name", ["cob-2", "sets-2", "cat-of-cats-3", "skeletal-2-2"])
def test_boundary_maps_match_step_by_step_walks(name):
    G = carriers()[name]
    for d in range(G.n + 1):
        for j in range(-1, d):
            for side in (SOURCE, TARGET):
                bmap = boundary_map(G, d, j, side)
                assert isinstance(bmap, tuple) and len(bmap) == G.count(d)
                for i in range(G.count(d)):
                    want = walk(G, CellId(d, i), j, side)
                    assert CellId(j, bmap[i]) == want
                    assert iterated_boundary(G, CellId(d, i), j, side) == want


def test_rows_run_in_table_keys_order():
    """Every table (d, j) a carrier can host, vertical at levels -1..n-1
    and horizontal, keeps key (a, b) in row a at b's ``fiber_pos``, and its
    rows, read one after another, run in ``table_keys`` order: the order
    in which the canonical gather and the global scan read them."""
    graphs = [*carriers().values(), loops_graph(3), parallel_pair_graph()]
    graphs += [random_graph(random.Random(seed), n=2, max_cells=4) for seed in range(10)]
    tables = 0
    for G in graphs:
        for d, j in [(j + 1, j) for j in range(-1, G.n)] + [(j + 2, j) for j in range(G.n - 1)]:
            keys = table_keys(G, d, j)
            rows = row_family(G, {(d, j): {key: i for i, key in enumerate(keys)}})[d, j]
            assert [i for row in rows for i in row] == list(range(len(keys))), (G, d, j)
            assert all(rows[a][fiber_pos(G, d, j)[b]] == i for i, (a, b) in enumerate(keys))
            assert [len(row) for row in rows] == [len(row) for row in empty_rows(G, d, j)]
            tables += 1
    assert tables > 40


def test_boundary_map_keeps_argument_checks():
    G = carriers()["cob-2"]
    with pytest.raises(ValueError):
        iterated_boundary(G, CellId(1, 0), 0, "sideways")
    with pytest.raises(ValueError):
        boundary_map(G, 1, 0, "sideways")
    with pytest.raises(BadLevel):
        iterated_boundary(G, CellId(1, 0), 1, SOURCE)
    with pytest.raises(BadLevel):
        iterated_boundary(G, CellId(G.n + 1, 0), 0, SOURCE)
    with pytest.raises(BadLevel):
        boundary_map(G, 0, -2, TARGET)


@pytest.mark.parametrize("name", ["cob-2", "sets-2", "cat-of-cats-3", "skeletal-2-2"])
def test_pair_lists_and_buckets_match_naive_scans(name):
    G = carriers()[name]
    for j in range(-1, G.n):
        d = j + 1
        cells = range(G.count(d))
        if j == -1:
            naive = [(a, b) for a in cells for b in cells]
        else:
            tmap, smap = G.tgt_map(d), G.src_map(d)
            naive = [(a, b) for a in cells for b in cells if tmap[a] == smap[b]]
        pairs = composable_pairs(G, j)
        assert isinstance(pairs, tuple) and list(pairs) == naive
        assert composable_pairs(G, j) is pairs
        if len(cells) <= 40:
            if j == -1:
                triples = [(a, b, c) for a in cells for b in cells for c in cells]
            else:
                triples = [(a, b, c) for a, b in naive for c in cells if tmap[b] == smap[c]]
            assert composable_triples(G, j) == triples
    for j in range(G.n - 1):
        cells = [CellId(j + 2, i) for i in range(G.count(j + 2))]
        naive = [(a.index, b.index) for a in cells for b in cells
                 if walk(G, a, j, TARGET) == walk(G, b, j, SOURCE)]
        pairs = h_composable_pairs(G, j)
        assert isinstance(pairs, tuple) and list(pairs) == naive
    for d in range(G.n):
        for x in G.cells(d):
            for y in G.cells(d):
                want = tuple(CellId(d + 1, i) for i in range(G.count(d + 1))
                             if G.src_map(d + 1)[i] == x.index and G.tgt_map(d + 1)[i] == y.index)
                assert hom_set(G, x, y).members == want
                assert hom_buckets(G, d + 1).get((x.index, y.index), ()) == tuple(z.index for z in want)


def test_neighbours_list_the_composable_pairs_from_either_end():
    """Each cell's SOURCE neighbours are the cells after it and its TARGET
    neighbours the cells before it, ascending: read either way they give
    exactly the composable pairs, level -1 included."""
    rng = random.Random(8)
    graphs = [random_graph(rng, n=n) for n in (1, 2) for _ in range(8)] + [loops_graph(3)]
    for G in graphs:
        for j in range(-1, G.n):
            cells = range(G.count(j + 1))
            pairs = composable_pairs(G, j)
            assert pairs == tuple((a, b) for a in cells for b in cells if composable(G, j, a, b))
            after, before = neighbours(G, j, SOURCE), neighbours(G, j, TARGET)
            assert len(after) == len(before) == len(cells)
            for lists in (after, before):
                assert all(list(cs) == sorted(cs) for cs in lists)
            assert tuple((a, b) for a, nxt in enumerate(after) for b in nxt) == pairs
            assert sorted((p, a) for a, prev in enumerate(before) for p in prev) == list(pairs)


def test_warmed_graph_keeps_its_identity():
    for G in carriers().values():
        fresh = equal_copy(G)
        before = hash(G)
        warm(G)
        assert G == fresh and fresh == G
        assert hash(G) == hash(fresh) == before
        assert len({G, fresh}) == 1
        with pytest.raises(AttributeError):
            G.n = 5
        with pytest.raises(TypeError):
            hom_buckets(G, 1)[(0, 0)] = ()


def test_construction_checks_keys_through_the_index():
    # level -1 keys always meet on a monoidal carrier
    G = skeletal_graph(2, 1)
    S = CategoryStructure(G, tables={(0, -1): {(0, 1): 0, (1, 0): 1}})
    assert S.tables[0, -1] == {(0, 1): 0, (1, 0): 1}
    Z = z2_structure()[1]
    C, T = build_cat_of_cats([Z, Z], depth=2)
    outer_t = [walk(C, CellId(2, i), 0, TARGET).index for i in range(C.count(2))]
    outer_s = [walk(C, CellId(2, i), 0, SOURCE).index for i in range(C.count(2))]
    a, b = next((a, b) for a in range(C.count(2)) for b in range(C.count(2))
                if outer_t[a] != outer_s[b])
    with pytest.raises(NotComposable):
        CategoryStructure(C, tables={**T.tables, (2, 0): {(a, b): a}})


def naive_interchange(S, j):
    """Every pair of vertical keys against every other, with boundaries
    found by walking cell by cell."""
    G = S.graph
    d = j + 2
    V = S.tables[d, j + 1]
    H = S.tables[d, j]
    cells = range(G.count(d))
    vpairs = [(a, a2) for a in cells for a2 in cells if G.tgt_map(d)[a] == G.src_map(d)[a2]]
    outer_t = [walk(G, CellId(d, i), j, TARGET) for i in cells]
    outer_s = [walk(G, CellId(d, i), j, SOURCE) for i in cells]
    bad, lopsided = [], []
    for a, a2 in vpairs:
        for b, b2 in vpairs:
            if outer_t[a] != outer_s[b] or outer_t[a2] != outer_s[b2]:
                continue
            parts = (V.get((a, a2)), V.get((b, b2)), H.get((a, b)), H.get((a2, b2)))
            if None in parts:
                continue
            va, vb, hab, hab2 = parts
            lhs, rhs = H.get((va, vb)), V.get((hab, hab2))
            quad = (CellId(d, a), CellId(d, a2), CellId(d, b), CellId(d, b2))
            if lhs is not None and rhs is not None:
                if lhs != rhs:
                    bad.append(("interchange", quad, CellId(d, lhs), CellId(d, rhs)))
            elif lhs is not None or rhs is not None:
                lopsided.append(("partiality-asymmetry", quad))
    return bad, lopsided


def test_interchange_rewrites_match_naive_reference():
    Z = z2_structure()[1]
    G, S = build_cat_of_cats([Z, Z], depth=2)
    entries = S.tables[2, 0]
    rewrites = [S]
    for key, val in sorted(entries.items()):
        for alt in range(G.count(2)):
            if alt != val:
                bent = CategoryStructure(G, tables={**S.tables, (2, 0): {**entries, key: alt}}, flags=S.flags)
                if check_typing(bent).passed:
                    rewrites.append(bent)
    assert len(rewrites) == 1 + 128
    found = 0
    for R in rewrites:
        check = check_interchange(R, 0).checks[0]
        bad, lopsided = naive_interchange(R, 0)
        assert [(c.kind, c.cells, c.expected, c.actual) for c in check.counterexamples] == bad
        assert [(c.kind, c.cells) for c in check.asymmetric] == lopsided
        found += len(bad) + len(lopsided)
    assert found > 0


def one_rule_carriers():
    rng = random.Random(11)
    return [loops_graph(3), parallel_pair_graph(),
            build_cat_of_cats([z2_structure()[1]], depth=3)[0]] + [
        random_graph(rng, n=2, max_cells=3) for _ in range(40)]


def naive_keys(G, d, j):
    """The pairs of d-cells whose j-boundaries meet, walking cell by cell."""
    cells = [CellId(d, i) for i in range(G.count(d))]
    return [(a.index, b.index) for a in cells for b in cells
            if walk(G, a, j, TARGET) == walk(G, b, j, SOURCE)]


def naive_hom(G, want):
    """The indices of the cells typed (x, y), for ``want`` = (x, y)."""
    d = want[0].dim + 1
    cells = [CellId(d, i) for i in range(G.count(d))]
    return tuple(z.index for z in cells if (G.src(z), G.tgt(z)) == want)


def test_every_table_has_the_keys_whose_boundaries_meet():
    """One rule gives the keys of every table (j+1, j) and (j+2, j), and the
    vertical and horizontal key lists are those tables' keys."""
    for G in one_rule_carriers():
        for j in range(-1, G.n):
            for d in range(j + 1, min(j + 2, G.n) + 1):
                assert list(table_keys(G, d, j)) == naive_keys(G, d, j), (d, j)
            assert list(composable_pairs(G, j)) == naive_keys(G, j + 1, j)
        for j in range(G.n - 1):
            assert list(h_composable_pairs(G, j)) == naive_keys(G, j + 2, j)


def test_search_values_are_the_hom_set_of_the_composite_type():
    """At every slot the search tries the cells of its composite's type in
    rank order, then "absent": (src a, tgt b) in a table (j+1, j), and in
    a table (j+2, j) the vertical composites of the two sources and of the
    two targets, read from randomly filled vertical tables."""
    rng = random.Random(12)
    decided = 0
    for G in one_rule_carriers():
        sp = EnumSpec(include_horizontal=True)
        names, slots = enumeration._keys(G, *enumeration._resolve_levels(G, sp))
        tables = {name: {} for name in names}
        for d, j, (a, b) in slots:
            typed = naive_hom(G, (G.src(CellId(d, a)), G.tgt(CellId(d, b)))) if d == j + 1 else ()
            if typed and rng.random() < 0.7:
                tables[d, j][(a, b)] = rng.choice(typed)
        rows = enumeration._slot_table(G, AxiomFlags(), row_family(G, tables), slots)
        for (d, j, key), row in zip(slots, rows):
            A, B = CellId(d, key[0]), CellId(d, key[1])
            if d == j + 1:
                want = (G.src(A), G.tgt(B))
            else:
                below = tables[d - 1, j]
                s = below.get((G.src(A).index, G.src(B).index))
                t = below.get((G.tgt(A).index, G.tgt(B).index))
                want = None if s is None or t is None else (CellId(d - 1, s), CellId(d - 1, t))
                decided += want is not None
            values = row[0]
            if values is None:
                buckets, srow, scol, trow, tcol = row[1]
                values = buckets.get((srow[scol], trow[tcol]), ()) + (None,)
            ranked = sorted(naive_hom(G, want) if want else (), key=enumeration._rank(G, d).__getitem__)
            assert values == (*ranked, None), (d, j, key)
    assert decided > 0
