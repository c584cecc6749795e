import hashlib
import random
import time

import pytest

from ncats import (
    BadLevel,
    CellId,
    DimensionMismatch,
    DimensionTooHigh,
    GraphAutomorphism,
    NGraph,
    SpaceTooLarge,
    StructureTail,
    ValidationReport,
    automorphisms,
    cell_type,
    document_from_graph,
    graph_maps,
    hom_graph,
    hom_set,
    is_monoidal_carrier,
    is_skeletal,
    iterated_boundary,
    opposite,
    serialize,
    skeletal_graph,
    validate_graph,
)
from ncats.graphs import (
    BAD_TAIL_SIZE,
    GLOBULARITY_VIOLATION,
    GraphValidationError,
    INDEX_OUT_OF_RANGE,
    SECTION_VIOLATION,
    SOURCE,
    TARGET,
    ZERO_TYPE_VIOLATION,
)

from util import arrow_graph, chain_graph, loops_graph, parallel_pair_graph, random_graph


def raw_loops(k):
    return dict(n=1, minus_one=1, src=[[0], [0] * k], tgt=[[0], [0] * k], idn=[[0]])


def test_validate_accepts_loops():
    G = validate_graph(raw_loops(3))
    assert isinstance(G, NGraph)
    assert [G.count(d) for d in range(-1, 2)] == [1, 1, 3]


def test_validate_reports_section_violation():
    raw = dict(n=1, minus_one=1, src=[[0, 0], [0, 1]], tgt=[[0, 0], [0, 1]],
               idn=[[0, 0]])  # second object points at the wrong loop
    rep = validate_graph(raw)
    assert isinstance(rep, ValidationReport)
    assert any(i.condition == SECTION_VIOLATION for i in rep.issues)
    assert not rep


def test_validate_reports_globularity_violation():
    # 2-cell between arrows of different type
    raw = dict(n=2, minus_one=1,
               src=[[0, 0], [0, 1, 0], [2, 0, 1]],
               tgt=[[0, 0], [0, 1, 1], [2, 0, 2]],
               idn=[[0, 1], [0, 1, 2]])
    rep = validate_graph(raw)
    assert isinstance(rep, ValidationReport)
    kinds = {i.condition for i in rep.issues}
    assert GLOBULARITY_VIOLATION in kinds


def test_validate_reports_zero_type_and_tail():
    rep = validate_graph(dict(n=1, minus_one=3, src=[[0], [0]], tgt=[[0], [0]], idn=[[0]]))
    assert any(i.condition == BAD_TAIL_SIZE for i in rep.issues)
    rep = validate_graph(dict(n=1, minus_one=2, zero_type=(0, 1),
                              src=[[0, 1], [0, 1]], tgt=[[1, 1], [0, 1]], idn=[[0, 1]]))
    assert any(i.condition == ZERO_TYPE_VIOLATION for i in rep.issues)


def test_validate_reports_range_errors():
    rep = validate_graph(dict(n=1, minus_one=1, src=[[0], [5]], tgt=[[0], [0]], idn=[[0]]))
    assert any(i.condition == INDEX_OUT_OF_RANGE for i in rep.issues)


@pytest.mark.parametrize("change, condition, detail", [
    (dict(n=0), INDEX_OUT_OF_RANGE, "n must be a positive integer, got 0"),
    (dict(minus_one=3), BAD_TAIL_SIZE, "grade -1 must hold 1 or 2 cells, got 3"),
    (dict(minus_one=2, zero_type=(0, 2)), BAD_TAIL_SIZE, "zero type (0, 2) does not index the tail"),
    # one (-1)-cell leaves only the diagonal zero type
    (dict(zero_type=(0, 1)), BAD_TAIL_SIZE, "zero type (0, 1) does not index the tail"),
    (dict(src=[[0]]), INDEX_OUT_OF_RANGE, "source/target families must cover dimensions 0..n"),
    (dict(idn=[]), INDEX_OUT_OF_RANGE, "identity sections must cover dimensions 0..n-1"),
    (dict(tgt=[[0], []]), INDEX_OUT_OF_RANGE, "dimension 1: target list length differs from source list"),
    (dict(idn=[[]]), INDEX_OUT_OF_RANGE, "dimension 0: identity section is not total"),
    (dict(src=[[1], [0]]), INDEX_OUT_OF_RANGE, "boundary (1, 0) does not index the tail"),
    (dict(idn=[[1]]), INDEX_OUT_OF_RANGE, "identity image 1 out of range for dimension 1"),
    # a bool is not an integer, as io.parse reads it
    (dict(n=True), INDEX_OUT_OF_RANGE, "n must be a positive integer, got True"),
    (dict(minus_one=True), BAD_TAIL_SIZE, "grade -1 must hold 1 or 2 cells, got True"),
    (dict(zero_type=(False, False)), BAD_TAIL_SIZE, "zero type (False, False) does not index the tail"),
    (dict(minus_one=2, zero_type=(0, 1), src=[[False], [0]], tgt=[[True], [0]]),
     INDEX_OUT_OF_RANGE, "boundary (False, True) does not index the tail"),
    (dict(src=[[0], [False]]), INDEX_OUT_OF_RANGE, "boundary (False, 0) out of range for dimension 0"),
    (dict(idn=[[False]]), INDEX_OUT_OF_RANGE, "identity image False out of range for dimension 1"),
    # a number where a list belongs
    (dict(zero_type=0), BAD_TAIL_SIZE, "zero type 0 does not index the tail"),
    (dict(src=5), INDEX_OUT_OF_RANGE, "source/target families must cover dimensions 0..n"),
    (dict(idn=5), INDEX_OUT_OF_RANGE, "identity sections must cover dimensions 0..n-1"),
    (dict(src=[[0], 5]), INDEX_OUT_OF_RANGE, "dimension 1: source and target maps must be lists"),
    (dict(tgt=[5, [0]]), INDEX_OUT_OF_RANGE, "dimension 0: source and target maps must be lists"),
    (dict(idn=[5]), INDEX_OUT_OF_RANGE, "dimension 0: identity section must be a list"),
])
def test_validate_names_each_refusal(change, condition, detail):
    """Each refusal of a malformed one-loop carrier, by its condition."""
    rep = validate_graph({**dict(n=1, minus_one=1, zero_type=(0, 0), src=[[0], [0]], tgt=[[0], [0]],
                                 idn=[[0]]), **change})
    assert isinstance(rep, ValidationReport)
    assert [(i.condition, i.detail) for i in rep.issues] == [(condition, detail)]


@pytest.mark.parametrize("tail, src, condition", [
    (StructureTail(1, 0), [[0], [0]], BAD_TAIL_SIZE),
    (StructureTail(1, (0, 0)), [[0], 5], INDEX_OUT_OF_RANGE),
])
def test_constructor_refuses_a_number_where_a_list_belongs(tail, src, condition):
    """The constructor raises its own error, not a TypeError from ``len``."""
    with pytest.raises(GraphValidationError) as caught:
        NGraph(1, tail, src, [[0], [0]], [[0]])
    assert [i.condition for i in caught.value.issues] == [condition]


def test_graph_is_immutable_and_label_blind():
    G = loops_graph(2)
    with pytest.raises(AttributeError):
        G.n = 3
    H = NGraph(1, StructureTail(1, (0, 0)), [[0], [0, 0]], [[0], [0, 0]], [[0]],
               labels=[["pt"], ["id", "loop"]])
    assert G == H and hash(G) == hash(H)
    assert H.label(CellId(1, 1)) == "loop" and G.label(CellId(1, 1)) is None


def test_cellid_ordering_and_str():
    assert CellId(0, 1) < CellId(1, 0)
    assert str(CellId(2, 5)) == "2#5"


def test_hom_set_members():
    G = parallel_pair_graph()
    hs = hom_set(G, CellId(0, 0), CellId(0, 1))
    assert {z.index for z in hs.members} == {2, 3}
    assert hom_set(G, CellId(0, 1), CellId(0, 0)).members == ()
    with pytest.raises(BadLevel):
        hom_set(G, CellId(1, 0), CellId(1, 0))


def test_cell_type_and_iterated_boundary():
    G = random_graph(random.Random(5), n=2)
    z = CellId(2, G.count(2) - 1)
    assert cell_type(G, z) == (G.src(z), G.tgt(z))
    assert iterated_boundary(G, z, 0, SOURCE) == G.src(G.src(z))
    assert iterated_boundary(G, z, 1, TARGET) == G.tgt(z)
    with pytest.raises(BadLevel):
        iterated_boundary(G, z, 2, SOURCE)


def test_skeletal_and_monoidal_predicates():
    assert is_skeletal(loops_graph(1))
    assert not is_skeletal(loops_graph(2))
    assert not is_skeletal(parallel_pair_graph())
    assert is_skeletal(arrow_graph()) is False  # hom(y, x) is empty
    assert is_monoidal_carrier(loops_graph(1))
    two_tail = NGraph(1, StructureTail(2, (0, 1)), [[0], [0]], [[1], [0]], [[0]])
    assert not is_monoidal_carrier(two_tail)


def test_opposite_swaps_one_level_only():
    G = random_graph(random.Random(11), n=2)
    H = opposite(G, 1)
    assert H.src_map(1) == G.tgt_map(1) and H.tgt_map(1) == G.src_map(1)
    assert H.src_map(2) == G.src_map(2)
    assert opposite(H, 1) == G
    with pytest.raises(BadLevel):
        opposite(G, 0)


def test_hom_graph_reindexes_the_tower():
    # two parallel arrows with two 2-cells between them
    G = NGraph(2, StructureTail(1, (0, 0)),
               [[0, 0], [0, 1, 0, 0], [0, 1, 2, 3, 2, 2]],
               [[0, 0], [0, 1, 1, 1], [0, 1, 2, 3, 3, 3]],
               [[0, 1], [0, 1, 2, 3]])
    H = hom_graph(G, CellId(0, 0), CellId(0, 1))
    assert H.n == 1
    assert H.count(0) == 2 and H.count(1) == 4
    assert H.tail.minus_one_count == 2
    loop = hom_graph(G, CellId(0, 0), CellId(0, 0))
    assert loop.tail.minus_one_count == 1
    with pytest.raises(DimensionMismatch):
        hom_graph(G, CellId(0, 0), CellId(1, 0))
    with pytest.raises(DimensionTooHigh):
        hom_graph(G, CellId(1, 2), CellId(1, 3))


def test_automorphism_group_of_loops():
    auts = automorphisms(loops_graph(3))
    # the identity loop is pinned, the other two may swap
    assert len(auts) == 2
    ident = GraphAutomorphism.identity(loops_graph(3))
    assert ident in auts
    other = next(a for a in auts if a != ident)
    assert other.then(other) == ident
    assert other.inverse() == other


def test_automorphism_laws_on_random_graphs():
    for seed in range(6):
        G = random_graph(random.Random(seed), n=2)
        auts = automorphisms(G)
        assert GraphAutomorphism.identity(G) in auts
        for a in auts:
            assert a.then(a.inverse()) == GraphAutomorphism.identity(G)
        # closure under composition
        table = set(auts)
        for a in auts:
            for b in auts:
                assert a.then(b) in table


def test_parallel_pair_automorphisms():
    auts = automorphisms(parallel_pair_graph())
    assert len(auts) == 2  # swap the parallel arrows


def test_skeletal_graph_generator():
    for n in (1, 2):
        for k in (1, 2, 3):
            G = skeletal_graph(k, n, seed=k * 10 + n)
            assert is_skeletal(G)
            assert G.count(0) == k and G.count(1) == k * k
    a = skeletal_graph(3, 1, seed=4)
    b = skeletal_graph(3, 1, seed=4)
    assert a == b
    assert any(skeletal_graph(3, 1, seed=s) != a for s in range(5, 10))


def test_skeletal_graph_carriers_are_pinned():
    """The serialized carriers for no seed and seeds 0-19, 0-3 objects and
    n = 1-3 hash as pinned before the seeded and unseeded paths were made
    one: the same shuffles, in the same order."""
    digest = hashlib.sha256()
    for seed in [None, *range(20)]:
        for objects in range(4):
            for n in (1, 2, 3):
                digest.update(serialize(document_from_graph(skeletal_graph(objects, n, seed=seed))))
    assert digest.hexdigest() == "112173cc76fbe7eb3ec5d4647d8df3734fa318b506bdbffaa55422bf3aa9dca5"


@pytest.mark.parametrize("objects, n", [(1000, 1), (1, 500_000), (0, 1_000_001)])
def test_skeletal_graph_refuses_a_carrier_just_over_the_cap(objects, n):
    """Objects plus n times objects squared cells, and n dimensions, may
    not exceed a million; a size just over that is refused before
    anything is built (999 objects or height 499,999 over one object
    would still be built)."""
    with pytest.raises(SpaceTooLarge) as err:
        skeletal_graph(objects, n)
    assert str(err.value) == "a skeletal carrier past a million cells is too large to build"


def test_graph_maps_stop_at_the_deadline():
    """Aut(loops_graph(10)) has 9! elements; a passed deadline ends the
    listing at the first check, 1024 steps in."""
    G = loops_graph(10)
    with pytest.raises(SpaceTooLarge):
        list(graph_maps(G, G, bijective=True, deadline=time.monotonic()))
    with pytest.raises(SpaceTooLarge):
        automorphisms(G, time.monotonic())
    assert len(automorphisms(loops_graph(5), time.monotonic() + 60)) == 24


def test_graph_maps_stop_past_the_step_cap():
    """Listing Aut(loops_graph(5)) takes 67 steps, one per placed cell or
    yielded map: a cap of 67 lets it finish, 66 ends it."""
    G = loops_graph(5)
    assert len(automorphisms(G, max_steps=67)) == 24
    with pytest.raises(SpaceTooLarge):
        list(graph_maps(G, G, bijective=True, max_steps=66))


def hom_set_is_skeletal(G):
    """The definition read literally: at every level, every pair of cells
    of one type spans a hom-set with exactly one member."""
    for d in range(G.n):
        groups = {}
        for x in G.cells(d):
            groups.setdefault(cell_type(G, x) if d else None, []).append(x)
        for group in groups.values():
            if any(len(hom_set(G, x, y).members) != 1 for x in group for y in group):
                return False
    return True


def test_is_skeletal_matches_hom_set_reference():
    rng = random.Random(11)
    graphs = [random_graph(rng, n=n, max_cells=m)
              for n in (1, 2, 3) for m in (1, 2, 3, 4) for _ in range(10)]
    graphs += [skeletal_graph(k, n, seed=k + n) for k in (0, 1, 2, 3) for n in (1, 2)]
    verdicts = [is_skeletal(G) for G in graphs]
    assert verdicts == [hom_set_is_skeletal(G) for G in graphs]
    assert True in verdicts and False in verdicts


def test_chain_graph_has_empty_composite_hom():
    G = chain_graph()
    assert hom_set(G, CellId(0, 0), CellId(0, 2)).members == ()
