import functools
import gc
import itertools
import math
import random
import time
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ncats import (
    AxiomFlags,
    CategoryStructure,
    EnumLimits,
    EnumSpec,
    NotSkeletal,
    brute_force_oracle,
    build_cat_of_cats,
    canonical_form,
    check_category,
    enumerate_structures,
    skeletal_graph,
    verify_skeletal_uniqueness,
)
from ncats import enumeration, structures
from ncats.enumeration import LevelUnavailable
from ncats.graphs import (
    SOURCE,
    TARGET,
    NGraph,
    SpaceTooLarge,
    StructureTail,
    automorphisms,
    boundary_fibers,
    boundary_map,
    hom_buckets,
    hom_graph,
    opposite,
)
from ncats.structures import (
    NoTableAtLevel,
    StructureError,
    empty_rows,
    fiber_pos,
    row_family,
    table_keys,
)

from util import (
    chain_graph,
    long_order_graph,
    loops_graph,
    middle_four,
    oriental_2_graph,
    parallel_pair_graph,
    random_graph,
    relabeled,
    total_order_structure,
    z2_structure,
)
from test_acceptance import oracle_family

GLOBAL = AxiomFlags(global_=True)
MONOID = AxiomFlags(global_=True, unital=True, associative=True)
GROUP = AxiomFlags(global_=True, unital=True, associative=True, groupoid=True)
TWO_CATEGORY = AxiomFlags(global_=True, unital=True, associative=True, interchange=True)


def spec(flags=AxiomFlags(), **kw):
    return EnumSpec(flags=flags, **kw)


def test_skeletal_forces_one_structure():
    for n in (1, 2):
        G = skeletal_graph(2, n, seed=3)
        res = enumerate_structures(G, spec(GLOBAL))
        assert res.exhausted
        assert (res.raw_count, res.iso_count) == (1, 1)
        assert check_category(res.representatives[0]).passed is True


def test_two_loops_frozen_counts():
    G = loops_graph(2)
    assert enumerate_structures(G, spec()).raw_count == 81
    assert enumerate_structures(G, spec(GLOBAL)).raw_count == 16
    res = enumerate_structures(G, spec(MONOID))
    assert res.raw_count == 2 and res.iso_count == 2


def test_three_loops_frozen_counts():
    G = loops_graph(3)
    res = enumerate_structures(G, spec(MONOID))
    assert res.raw_count == 11 and res.iso_count == 7
    big = enumerate_structures(G, spec(GLOBAL))
    assert big.raw_count == 3 ** 9 and big.iso_count == 9882


def test_chain_admits_no_global_table():
    res = enumerate_structures(chain_graph(), spec(GLOBAL))
    assert res.exhausted and res.raw_count == 0


def test_oracle_agreement_on_parallel_pair():
    G = parallel_pair_graph()
    for flags in (GLOBAL, MONOID):
        fast = enumerate_structures(G, spec(flags))
        slow = brute_force_oracle(G, spec(flags))
        assert fast.raw_count == slow.raw_count
        assert fast.canonical_counts == slow.canonical_counts
    assert enumerate_structures(G, spec(GLOBAL)).raw_count == 16
    assert enumerate_structures(G, spec(GLOBAL)).iso_count == 10


def test_oracle_agreement_on_the_second_oriental():
    """O_2 admits 2 structures.  The oracle's bound is the product of the
    domains it iterates, the typed values of each key: 32 assignments,
    where every cell of each key's dimension would count about 1.9e18.
    A horizontal key's type reads a vertical table, so its domain is every
    2-cell, and that product stays out of reach; there duality is the
    second route: O_2 and both its opposites admit 2 strict 2-categories,
    2 up to isomorphism."""
    G = oriental_2_graph()
    for flags, raw in ((GLOBAL, 32), (MONOID, 2)):
        fast = enumerate_structures(G, spec(flags))
        slow = brute_force_oracle(G, spec(flags), space_bound=32)
        assert fast.raw_count == slow.raw_count == fast.iso_count == raw
        assert fast.canonical_counts == slow.canonical_counts
    with pytest.raises(SpaceTooLarge):
        brute_force_oracle(G, spec(GLOBAL), space_bound=31)
    with pytest.raises(SpaceTooLarge):
        brute_force_oracle(G, spec(MONOID, include_horizontal=True))
    for H in (G, opposite(G, 1), opposite(G, 2)):
        res = enumerate_structures(H, spec(TWO_CATEGORY, include_horizontal=True))
        assert (res.exhausted, res.raw_count, res.iso_count) == (True, 2, 2)


def test_oracle_agreement_partial_mode():
    G = loops_graph(2)
    fast = enumerate_structures(G, spec())
    slow = brute_force_oracle(G, spec())
    assert fast.raw_count == slow.raw_count == 81
    assert fast.canonical_counts == slow.canonical_counts
    # the search tries unit-narrowed values, its maximal filter every typed
    # value; on three loops each oracle run takes seconds, so two identity
    # positions serve
    unital, monoid = AxiomFlags(unital=True), AxiomFlags(unital=True, associative=True)
    cases = [(G, flags) for G in (loops_graph(2), parallel_pair_graph())
             for flags in (AxiomFlags(), AxiomFlags(associative=True), unital, monoid)]
    cases += [(_loops_with_identity_at(2, 1), unital), (_loops_with_identity_at(2, 1), monoid),
              (_loops_with_identity_at(3, 1), unital), (_loops_with_identity_at(3, 2), monoid)]
    for G, flags in cases:
        fast = enumerate_structures(G, spec(flags, maximal_only=True))
        slow = brute_force_oracle(G, spec(flags, maximal_only=True))
        assert fast.raw_count == slow.raw_count
        assert fast.canonical_counts == slow.canonical_counts


def test_maximal_only_keeps_inextensible_tables():
    G = loops_graph(2)
    res = enumerate_structures(G, spec(maximal_only=True))
    # with no axioms requested only the total tables are inextensible
    assert res.raw_count == 16


def test_representative_structures_satisfy_the_request():
    G = loops_graph(2)
    res = enumerate_structures(G, spec(MONOID))
    # one representative per isomorphism class
    assert len(res.representatives) == res.iso_count
    for S in res.representatives:
        rep = check_category(S)
        assert rep.passed


def test_canonical_form_is_orbit_invariant():
    """The public ``canonical_form`` gives each representative the key the
    record step tallied it under, and every automorphic relabeling of it the
    same one, whatever order the tables are given in."""
    cat_of_z2 = build_cat_of_cats([z2_structure()[1]], depth=2)[0]
    for G, sp in ((loops_graph(3), spec(MONOID)),
                  (cat_of_z2, spec(TWO_CATEGORY, include_horizontal=True,
                                   limits=EnumLimits(max_nodes=2000, max_representatives=1000)))):
        auts = automorphisms(G)
        res = enumerate_structures(G, sp)
        forms = [canonical_form(G, S.tables, auts) for S in res.representatives]
        assert set(forms) == set(res.canonical_counts)
        assert len(forms) == res.iso_count
        assert sum(res.canonical_counts.values()) == res.raw_count
        for S, form in zip(res.representatives, forms):
            assert canonical_form(G, dict(reversed(S.tables.items()))) == form
            for phi in auts:
                image = {(d, j): {(phi.maps[d][a], phi.maps[d][b]): phi.maps[d][v]
                                  for (a, b), v in entries.items()}
                         for (d, j), entries in S.tables.items()}
                assert canonical_form(G, image, auts) == form


def test_canonical_form_bytes_are_pinned():
    """``canonical_form`` bytes, frozen from the gather over entry dicts,
    of Z2, the seven order-3 monoids the search keeps, one 2-category on
    the carrier of Cat(Z2), that family without its vertical table and
    with half its horizontal entries, and two partial families with absent
    entries and a mistyped one."""
    G, Z = z2_structure()
    C, cat = build_cat_of_cats([Z])
    _, order = total_order_structure(3)
    families = [(G, Z.tables, b"([(1, 0)], '0110')"),
                (C, cat.tables, b"([(1, 0), (2, 0), (2, 1)], '0001010101100123013201102332')"),
                (C, {(2, 1): cat.tables[2, 1], (2, 0): {k: v for k, v in cat.tables[2, 0].items() if k[0] != 1}},
                 b"([(2, 0), (2, 1)], '010144440123013201102332')"),
                (parallel_pair_graph(), {(1, 0): {(0, 2): 0, (2, 1): 3}}, b"([(1, 0)], '404434')"),
                (order.graph, {(1, 0): dict(list(order.tables[1, 0].items())[::2])}, b"([(1, 0)], '0626263646')")]
    for H, tables, want in families:
        assert canonical_form(H, tables) == want
    monoids = enumerate_structures(loops_graph(3), spec(MONOID)).representatives
    assert [canonical_form(loops_graph(3), S.tables) for S in monoids] == [
        b"([(1, 0)], '%s')" % form for form in (b"012102222", b"012111211", b"012111212", b"012111222",
                                                 b"012112212", b"012112221", b"012120201")]


def test_canonical_form_refuses_a_family_the_carrier_cannot_hold():
    """A table name the carrier cannot host and an entry out of range are
    refused as the constructor refuses them, not with a bare IndexError."""
    G = loops_graph(3)
    for tables, kind, message in (({(2, 0): {}}, NoTableAtLevel, "horizontal level 0 outside 0..-1"),
                                  ({(1, 0): {(0, 1): 9}}, StructureError, "level 0 entry (0, 1) -> 9 out of range")):
        for refuse in (canonical_form, lambda G, tables: CategoryStructure(G, tables=tables)):
            with pytest.raises(kind) as err:
                refuse(G, tables)
            assert type(err.value) is kind and str(err.value) == message


# random carriers with a non-trivial automorphism group, one- and two-dimensional
SYMMETRIC = [G for G in (random_graph(random.Random(seed), n, cells)
                         for seed in range(40) for n in (1, 2) for cells in (3, 4))
             if len(automorphisms(G)) > 1]


def _moved(phi, tables):
    """The image of a table family under the automorphism ``phi``."""
    return {(d, j): {(phi.maps[d][a], phi.maps[d][b]): phi.maps[d][v] for (a, b), v in entries.items()}
            for (d, j), entries in tables.items()}


@st.composite
def _partial_family(draw, G, names):
    """Partial tables named ``names``: each key absent or any cell."""
    return {(d, j): {key: v for key in table_keys(G, d, j)
                     if (v := draw(st.sampled_from((None, *range(G.count(d)))))) is not None}
            for d, j in names}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_canonical_forms_separate_exactly_the_orbits(data):
    """On random partial families of vertical and horizontal tables:
    ``canonical_form`` is constant on each automorphism orbit, and two
    families share it exactly when an independent orbit key, the least
    sorted image of their entry items, says they are isomorphic."""
    G = data.draw(st.sampled_from(SYMMETRIC))
    names = [(j + 1, j) for j in range(G.n)] + [(j + 2, j) for j in range(G.n - 1)]
    names = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    tables = data.draw(_partial_family(G, names))
    auts = automorphisms(G)

    def orbit_key(family):
        return min([sorted(image[name].items()) for name in sorted(image)]
                   for image in (_moved(phi, family) for phi in auts))

    form = canonical_form(G, tables, auts)
    for phi in auts:
        assert canonical_form(G, _moved(phi, tables), auts) == form
    # an automorphic image of the family or of a random one, sometimes with
    # one entry redrawn
    base = tables if data.draw(st.booleans()) else data.draw(_partial_family(G, names))
    other = _moved(data.draw(st.sampled_from(auts)), base)
    if data.draw(st.booleans()):
        d, j = name = data.draw(st.sampled_from(names))
        key = data.draw(st.sampled_from(table_keys(G, d, j)))
        value = data.draw(st.sampled_from((None, *range(G.count(d)))))
        other[name].pop(key, None)
        if value is not None:
            other[name][key] = value
    assert (canonical_form(G, other) == form) == (orbit_key(other) == orbit_key(tables))


def test_record_step_builds_one_orbit_per_search(monkeypatch):
    """The record step lists each automorphism's key order once per search,
    at its first passing record, and calls ``canonical_form`` once per
    passing record with that orbit; a search that records nothing builds
    none."""
    built, calls = [], []
    real_form = enumeration.canonical_form

    class Counted(enumeration._Orbit):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def counted(G, tables, auts=None):
        calls.append(auts)
        return real_form(G, tables, auts)

    monkeypatch.setattr(enumeration, "_Orbit", Counted)
    monkeypatch.setattr(enumeration, "canonical_form", counted)
    for run in (enumerate_structures, brute_force_oracle):
        for G, flags, raw in ((loops_graph(3), MONOID, 11), (loops_graph(2), AxiomFlags(associative=True), 65),
                              (chain_graph(), GLOBAL, 0)):
            built.clear()
            calls.clear()
            res = run(G, spec(flags))
            assert res.raw_count == len(calls) == raw
            assert len(built) == int(raw > 0)
            assert all(auts is built[0] for auts in calls)


def test_record_builds_structures_only_for_kept_representatives(monkeypatch):
    """The record step tallies every record from its rows; a structure is
    built, by ``structure_of_rows``, only for a representative it keeps."""
    built = []
    real = enumeration.structure_of_rows

    def counted(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(enumeration, "structure_of_rows", counted)
    sp = spec(MONOID, limits=EnumLimits(max_representatives=4))
    for run in (enumerate_structures, brute_force_oracle):
        built.clear()
        res = run(loops_graph(3), sp)
        assert (res.raw_count, res.iso_count, len(res.representatives)) == (11, 7, 4)
        assert len(built) == 4
        assert all(S is R for S, R in zip(built, res.representatives))


def _entry_dicts(G, tables):
    """The entry dicts that the row family ``tables`` holds, read key by
    key through the source fibers."""
    return {(d, j): {(a, b): R[a][fiber_pos(G, d, j)[b]] for a, b in table_keys(G, d, j)
                     if R[a][fiber_pos(G, d, j)[b]] is not None}
            for (d, j), R in tables.items()}


def test_record_keeps_copies_equal_to_a_fresh_construction(monkeypatch):
    """The representatives the search and the oracle keep, which
    ``structure_of_rows`` builds without the constructor's checks, equal the
    structures the constructor builds from copies of their tables, on the
    criterion-2 carriers, on the cat-of-one-Z2 carrier and, partial with
    absent horizontal entries, on a random 2-graph; each holds the entry
    dicts that the rows of its record hold, tables in search order."""
    last = {}
    real_form, real_structure = enumeration.canonical_form, enumeration.structure_of_rows

    def form(G, tables, auts=None):
        last.clear()
        last.update(_entry_dicts(G, tables))
        return real_form(G, tables, auts)

    def build(*args, **kwargs):
        S = real_structure(*args, **kwargs)
        assert list(S.tables) == list(last)
        assert S.tables == last
        return S

    monkeypatch.setattr(enumeration, "canonical_form", form)
    monkeypatch.setattr(enumeration, "structure_of_rows", build)
    oracle = functools.partial(brute_force_oracle, space_bound=10 ** 5)
    C = build_cat_of_cats([z2_structure()[1]], depth=2)[0]
    # as criterion 2, but within a smaller space
    runs = [(run, G, spec(flags)) for G in oracle_family() for flags in (AxiomFlags(), GLOBAL, MONOID)
            if (G.count(1) + 1 - flags.global_) ** len(table_keys(G, 1, 0)) <= 10 ** 5
            for run in (enumerate_structures, oracle)]
    runs += [(enumerate_structures, C, spec(TWO_CATEGORY, include_horizontal=True)),
             (oracle, C, spec(TWO_CATEGORY, levels=(0, 1)))]
    H = random_graph(random.Random(5), n=2, max_cells=3)
    runs += [(run, H, spec(AxiomFlags(interchange=True), include_horizontal=True))
             for run in (enumerate_structures, oracle)]
    kept = set()
    for run, G, sp in runs:
        for R in run(G, sp).representatives:
            copies = {name: dict(entries) for name, entries in R.tables.items()}
            assert R == CategoryStructure(G, tables=copies, flags=sp.flags)
            # whether a horizontal table of the copy has absent entries
            gaps = any(len(R.tables[d, j]) < len(table_keys(G, d, j)) for d, j in R.tables if d == j + 2)
            kept.add((run, len(R.tables), gaps))
    assert kept == {(enumerate_structures, 1, False), (oracle, 1, False), (enumerate_structures, 3, False),
                    (oracle, 2, False), (oracle, 3, False), (enumerate_structures, 3, True), (oracle, 3, True)}


def test_node_budget_interrupts():
    G = loops_graph(3)
    res = enumerate_structures(G, spec(GLOBAL, limits=EnumLimits(max_nodes=10)))
    assert not res.exhausted
    assert res.nodes == 11


def test_time_budget_bounds_the_automorphism_listing():
    """Aut(loops_graph(10)) has 9! = 362,880 elements: the record step's
    listing of them outlasts a 0.1 s budget, which ends the search before
    its first node."""
    t0 = time.monotonic()
    res = enumerate_structures(loops_graph(10), spec(GLOBAL, limits=EnumLimits(time_budget=0.1)))
    assert time.monotonic() - t0 < 1.5
    assert (res.exhausted, res.nodes, res.raw_count, res.records) == (False, 0, 0, 0)


def test_node_budget_bounds_the_automorphism_listing():
    """The node budget also caps the steps of the record step's listing of
    Aut(loops_graph(10)), so ten nodes end the search before its first."""
    t0 = time.monotonic()
    res = enumerate_structures(loops_graph(10), spec(GLOBAL, limits=EnumLimits(time_budget=None, max_nodes=10)))
    assert time.monotonic() - t0 < 1.5
    assert (res.exhausted, res.nodes, res.raw_count, res.records) == (False, 0, 0, 0)


def test_search_depth_is_not_bounded_by_the_call_stack():
    res = enumerate_structures(long_order_graph(), spec(GLOBAL))
    assert (res.raw_count, res.iso_count, res.exhausted, res.nodes) == (1, 1, True, 1540)


def test_search_state_is_freed_on_return():
    """A finished search leaves no reference cycle behind: the result goes
    away with its last reference, without waiting for the cyclic collector.
    Four nodes pass the 4-step listing of Aut(loops_graph(2)) and break the
    search at its fifth node, with its iterator stack live."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for limits, stop in ((EnumLimits(), (True, 5)), (EnumLimits(max_nodes=4), (False, 5))):
            res = enumerate_structures(loops_graph(2), spec(MONOID, limits=limits))
            assert (res.exhausted, res.nodes) == stop
            gone = weakref.ref(res)
            del res
            assert gone() is None
    finally:
        if was_enabled:
            gc.enable()


def test_level_minus_one_needs_monoidal_carrier():
    two_tail = NGraph(1, StructureTail(2, (0, 1)), [[0], [0]], [[1], [0]], [[0]])
    with pytest.raises(LevelUnavailable):
        enumerate_structures(two_tail, spec(GLOBAL, levels=(-1,)))


def test_level_minus_one_composes_objects():
    G = loops_graph(1)
    res = enumerate_structures(G, spec(GLOBAL, levels=(-1,)))
    assert res.raw_count == 1  # single object forces the product


def test_horizontal_search_on_skeletal_two_graph():
    G = skeletal_graph(1, 2, seed=0)
    res = enumerate_structures(G, spec(GLOBAL, include_horizontal=True))
    assert res.exhausted and res.raw_count == 1
    assert any(d == j + 2 for d, j in res.representatives[0].tables)


# search nodes per random 2-graph seed and flag set, frozen from the search
# that rescanned every quadruple at every node (seed 7 in rank order, which
# puts its third 2-cell, of the first 2-cell's type, second); partial and
# maximal-only mode visit the same nodes.  Seed 67 is a carrier where
# interchange prunes: 5278 partial tables with {interchange}, 6642 without.
# So are the carriers of seeds 7 and 47, with two 0-cells, two 1-cells and
# three 2-cells ({global} alone: 784 and 529 nodes, 256 tables; {global,
# unital, associative}: 101 and 70 nodes, 32 tables), pinned in total mode
# only: partial mode has 663,552 raw assignments there.
INTERCHANGE_NODES = {
    2: {"i": 12, "gi": 3, "ai": 12, "guai": 3},
    23: {"i": 90, "gi": 6, "ai": 90, "guai": 6},
    67: {"i": 9518, "gi": 369, "ai": 7840, "guai": 44},
    7: {"gi": 476, "guai": 56},
    47: {"gi": 387, "guai": 48},
}
INTERCHANGE_FLAGS = {
    "i": AxiomFlags(interchange=True),
    "gi": AxiomFlags(global_=True, interchange=True),
    "ai": AxiomFlags(associative=True, interchange=True),
    "guai": TWO_CATEGORY,
}


def test_interchange_search_matches_oracle():
    """The incremental interchange prune agrees with the unpruned oracle
    and visits exactly the nodes a full rescan did: the record step
    re-checks every structure, so a weaker prune would only show as more
    nodes."""
    for seed, nodes in INTERCHANGE_NODES.items():
        G = random_graph(random.Random(seed), n=2, max_cells=3)
        for name, pinned in nodes.items():
            for maximal in (False, True):
                sp = spec(INTERCHANGE_FLAGS[name], include_horizontal=True, maximal_only=maximal)
                fast = enumerate_structures(G, sp)
                slow = brute_force_oracle(G, sp)
                assert fast.exhausted
                assert fast.raw_count == slow.raw_count
                assert fast.canonical_counts == slow.canonical_counts
                assert fast.nodes == pinned, (seed, name, maximal)


def _quad_keys(G, d, j, quad):
    """The keys (a, b), (a2, b2), (a, a2), (b, b2) of a quadruple stored as
    the cells and row columns of its four fixed reads, each column decoded
    through the source fiber of its table."""
    a, hb, a2, hb2, va2, b, vb2 = quad

    def follower(i, x, col):
        return boundary_fibers(G, d, i, SOURCE)[boundary_map(G, d, i, TARGET)[x]][col]

    return (a, follower(j, a, hb)), (a2, follower(j, a2, hb2)), (a, follower(j + 1, a, va2)), \
        (b, follower(j + 1, b, vb2))


def test_interchange_watches_follow_the_slot_order():
    """Each quadruple is held at the slot of its last positional read,
    found here by position in the slot list, and composes only at a later
    slot; every vertical table is filled before every horizontal one, so no
    vertical slot watches anything."""
    carriers = [random_graph(random.Random(seed), n=2, max_cells=3) for seed in INTERCHANGE_NODES]
    carriers.append(build_cat_of_cats([z2_structure()[1]], depth=2)[0])
    for G in carriers:
        sp = spec(AxiomFlags(interchange=True), include_horizontal=True)
        names, slots = enumeration._keys(G, *enumeration._resolve_levels(G, sp))
        rows = enumeration._slot_table(G, sp.flags, {name: empty_rows(G, *name) for name in names}, slots)
        at = {(d, j, key): pos for pos, (d, j, key) in enumerate(slots)}

        def last(j, a, a2, b, b2):
            return max(at[j + 2, j + 1, (a, a2)], at[j + 2, j + 1, (b, b2)],
                       at[j + 2, j, (a, b)], at[j + 2, j, (a2, b2)])

        held, want = Counter(), Counter()
        for j in range(G.n - 1):
            for quad in middle_four(G, j):
                want[j, quad, last(j, *quad)] += 1
        for pos, ((d, j, key), row) in enumerate(zip(slots, rows)):
            exchange = row[5]
            if exchange is None:
                continue
            assert d == j + 2
            _H, _V, _ph, _pv, holding, composing, at_key = exchange
            assert at_key == key
            for quad in holding:
                (p, q), (r, s), vk, vk2 = _quad_keys(G, d, j, quad)
                assert (vk, vk2) == ((p, r), (q, s))
                held[j, (p, r, q, s), pos] += 1
            for quad in composing:
                (p, q), (r, s), vk, vk2 = _quad_keys(G, d, j, quad)
                assert (vk, vk2) == ((p, r), (q, s))
                assert last(j, p, r, q, s) < pos
        assert held == want and want


def test_watched_rows_hold_the_entries_at_every_record(monkeypatch):
    """The rows the search writes and its watches read are the family the
    record step reads at every record: the slot table places every slot of
    every table once, and every watch reads rows of that family, on
    carriers whose cells sit in their source fibers at places other than
    their indices; and the search counts as the oracle does, raw, up to
    isomorphism and class by class, under associativity and under
    interchange, partial and global.  The partial families of the 2-graph
    with a non-identity 2-cell, and every family on the carrier of Cat(Z2),
    are too many for the oracle; Cat(Z2)'s 2-categories are checked for
    the rows alone."""
    built, checked = [], Counter()  # records checked, by whether the search has watches
    real_slots, real_recorder = enumeration._slot_table, enumeration._recorder

    def slot_table(*args):
        built.append(real_slots(*args))
        return built[-1]

    def recorder(*args, **kw):
        record = real_recorder(*args, **kw)
        if not built:
            return record  # the oracle's
        slots = built.pop()
        places = Counter((id(row), col) for _values, _typing, row, col, _assoc, _exchange in slots)
        watched = [R for *_rest, assoc, exchange in slots
                   for R in ((assoc[5],) if assoc else ()) + (exchange[:2] if exchange else ())]
        family = []

        def checking(tables):
            if not family:
                family.append(tables)
                rows = {id(row): row for R in tables.values() for row in R}
                assert sorted(places) == sorted((i, col) for i, row in rows.items() for col in range(len(row)))
                assert set(places.values()) == {1}
                assert all(any(R is T for T in tables.values()) for R in watched)
            assert tables is family[0]
            checked[bool(watched)] += 1
            record(tables)
        return checking

    monkeypatch.setattr(enumeration, "_slot_table", slot_table)
    monkeypatch.setattr(enumeration, "_recorder", recorder)
    either, only_global = (AxiomFlags(), GLOBAL), (GLOBAL,)
    cases = [(parallel_pair_graph(), either), (random_graph(random.Random(12), n=2, max_cells=3), either),
             (random_graph(random.Random(7), n=2, max_cells=3), only_global)]
    for G, modes in cases:
        assert G.count(0) >= 2
        assert any(fiber_pos(G, d, d - 1) != tuple(range(G.count(d))) for d in range(1, G.n + 1))
        for mode in modes:
            for law in (AxiomFlags(associative=True), AxiomFlags(interchange=True)):
                flags = AxiomFlags(global_=mode.global_, associative=law.associative, interchange=law.interchange)
                sp = spec(flags, include_horizontal=True)
                fast, slow = enumerate_structures(G, sp), brute_force_oracle(G, sp)
                assert fast.exhausted and fast.records
                assert (fast.raw_count, fast.iso_count) == (slow.raw_count, slow.iso_count), (G, flags)
                assert fast.canonical_counts == slow.canonical_counts
    G = build_cat_of_cats([z2_structure()[1]])[0]
    assert fiber_pos(G, 2, 1) != tuple(range(G.count(2)))
    res = enumerate_structures(G, spec(TWO_CATEGORY, include_horizontal=True))
    assert (res.raw_count, res.iso_count, res.exhausted) == (2098, 2098, True)
    assert checked[True] > 2098 and not built


def _loops_with_identity_at(k, r):
    """``loops_graph(k)`` with loop r as the identity."""
    return NGraph(1, StructureTail(1, (0, 0)), [[0], [0] * k], [[0], [0] * k], [[r]])


ASSOCIATIVE = AxiomFlags(associative=True)
GLOBAL_ASSOCIATIVE = AxiomFlags(global_=True, associative=True)

# (carrier, spec, oracle fits, nodes, records), frozen from the search that
# rescanned every triple ending in b or starting with a whenever it set
# (a, b), run on the carrier relabeled by its rank; the record step
# re-checks every structure, so a weaker prune would show only as more
# nodes.  The rank puts the identity loop first wherever it sits.
ASSOCIATIVE_NODES = [
    *((_loops_with_identity_at(4, r), spec(MONOID), False, 2513, 156) for r in range(4)),
    (loops_graph(3), spec(ASSOCIATIVE), False, 82604, 31789),
    (loops_graph(3), spec(GLOBAL), False, 29523, 19683),
    (loops_graph(3), spec(GLOBAL_ASSOCIATIVE), True, 1230, 113),
    (loops_graph(2), spec(ASSOCIATIVE, levels=(-1, 0)), True, 230, 130),
    (loops_graph(2), spec(GLOBAL_ASSOCIATIVE, levels=(-1, 0)), True, 27, 8),
    (parallel_pair_graph(), spec(ASSOCIATIVE), True, 494, 257),
    (parallel_pair_graph(), spec(ASSOCIATIVE, maximal_only=True), True, 494, 257),
]


def test_associativity_prune_node_counts():
    """The watched associativity prune visits exactly the nodes of a full
    rescan of the triples through each new entry, and agrees with the
    unpruned oracle where its space fits."""
    for G, sp, oracle, nodes, records in ASSOCIATIVE_NODES:
        res = enumerate_structures(G, sp)
        assert res.exhausted
        assert (res.nodes, res.records) == (nodes, records), (sp, res.nodes, res.records)
        if oracle:
            slow = brute_force_oracle(G, sp)
            assert res.raw_count == slow.raw_count
            assert res.canonical_counts == slow.canonical_counts


def test_two_categories_on_the_cat_of_cats_carrier():
    G = build_cat_of_cats([z2_structure()[1]], depth=2)[0]
    res = enumerate_structures(G, spec(TWO_CATEGORY, include_horizontal=True))
    assert (res.exhausted, res.raw_count, res.iso_count, res.nodes) == (True, 2098, 2098, 13579)
    assert (res.records, res.rejected_at_record) == (2098, 0)


# relabelings of the cat-of-one-Z2 carrier (one 0-cell, two 1-cells, four
# 2-cells), one permutation per dimension, with their (nodes, records, raw,
# iso) under TWO_CATEGORY: the search orders slots and values by rank, and
# each type there holds at most one cell besides its identity, so every
# relabeling has the same rank order and visits the same nodes
RELABELED_NODES = [
    ([[0], [1, 0], [2, 3, 1, 0]], (13579, 2098, 2098, 2098)),
    ([[0], [1, 0], [2, 1, 3, 0]], (13579, 2098, 2098, 2098)),
    ([[0], [0, 1], [1, 0, 3, 2]], (13579, 2098, 2098, 2098)),
]


def test_two_categories_on_relabeled_carriers():
    G = build_cat_of_cats([z2_structure()[1]], depth=2)[0]
    for perms, pinned in RELABELED_NODES:
        res = enumerate_structures(relabeled(G, perms), spec(TWO_CATEGORY, include_horizontal=True))
        assert res.exhausted
        assert (res.nodes, res.records, res.raw_count, res.iso_count) == pinned, perms


# the node cap under which the identities below compare two runs: a run
# that does not finish under it is left out
IDENTITY_LIMITS = EnumLimits(max_nodes=5000, time_budget=None)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10 ** 6), n=st.sampled_from((1, 2)),
       flags=st.builds(AxiomFlags, *[st.booleans()] * 5), horizontal=st.booleans())
def test_counts_agree_across_opposites_and_hom_graphs(seed, n, flags, horizontal):
    """Two identities give the search a second route past the oracle's
    reach.  Duality: reversing every table (d, i-1) maps the structures on
    a carrier one-to-one onto those on ``opposite(G, i)``, flags kept, so
    raw and iso counts agree for every i.  Factorization: on a 2-graph
    with only its top table no key or law crosses a hom-graph, so its raw
    count is the product of those of the hom-graphs between its 0-cells.
    Random 1- and 2-graphs under random flag sets, with and without
    horizontal tables; only runs that finish under the node cap count."""
    G = random_graph(random.Random(seed), n=n, max_cells=3)
    sp = spec(flags, include_horizontal=horizontal, limits=IDENTITY_LIMITS)
    runs = [enumerate_structures(H, sp) for H in (G, *(opposite(G, i) for i in range(1, n + 1)))]
    assert len({(r.raw_count, r.iso_count) for r in runs if r.exhausted}) <= 1
    if n == 2:
        top = enumerate_structures(G, spec(flags, levels=(1,), limits=IDENTITY_LIMITS))
        homs = [enumerate_structures(hom_graph(G, x, y), spec(flags, limits=IDENTITY_LIMITS))
                for x in G.cells(0) for y in G.cells(0)]
        if top.exhausted and all(h.exhausted for h in homs):
            assert top.raw_count == math.prod(h.raw_count for h in homs)


def test_search_does_not_depend_on_where_the_identity_loop_sits():
    """The loops of ``loops_graph(k)`` are interchangeable, so a labeling
    is fixed by the index of the identity loop.  The rank puts it first
    wherever it sits, so every labeling searches as the identity-first one,
    and order-5 monoids with the identity last fit perfbench's node pin of
    the identity-first search (the index order needed 2,275,327 nodes)."""
    for k in (2, 3, 4):
        for flags in (MONOID, GROUP):
            first = enumerate_structures(loops_graph(k), spec(flags))
            for r in range(1, k):
                res = enumerate_structures(_loops_with_identity_at(k, r), spec(flags))
                assert ((res.nodes, res.records, res.rejected_at_record, res.raw_count, res.iso_count)
                        == (first.nodes, first.records, first.rejected_at_record, first.raw_count,
                            first.iso_count)), (k, flags, r)
        if k == 4:
            assert (first.nodes, first.raw_count, first.iso_count) == (2513, 4, 2)
    last = enumerate_structures(_loops_with_identity_at(5, 4),
                                spec(MONOID, limits=EnumLimits(max_nodes=271_507)))
    assert (last.exhausted, last.nodes, last.raw_count, last.iso_count) == (True, 271_507, 4122, 228)


def _rank_relabeled(G):
    """The copy of ``G`` in which each cell's index is its rank."""
    return relabeled(G, [enumeration._rank(G, d) for d in range(G.n + 1)])


def test_search_is_the_index_order_search_on_the_rank_relabeled_copy():
    """On a carrier and on its copy relabeled by rank, whose own rank is the
    index order, the search takes the same steps: the same nodes and
    records, the same classes in discovery order with the same sizes, and
    representatives that the rank relabels into each other.  So a moved node
    pin comes from the order, not from a weaker prune."""
    cases = [(random_graph(random.Random(seed), n=2, max_cells=3),
              spec(INTERCHANGE_FLAGS[name], include_horizontal=True))
             for seed, pins in INTERCHANGE_NODES.items() for name in pins]
    cases += [(parallel_pair_graph(), spec(flags)) for flags in (ASSOCIATIVE, MONOID)]
    cases.append((build_cat_of_cats([z2_structure()[1]], depth=2)[0],
                  spec(TWO_CATEGORY, include_horizontal=True)))
    moved = 0
    for G, sp in cases:
        R = _rank_relabeled(G)
        assert all(enumeration._rank(R, d) == tuple(range(R.count(d))) for d in range(R.n + 1))
        rank = [enumeration._rank(G, d) for d in range(G.n + 1)]
        moved += R != G
        res, ref = enumerate_structures(G, sp), enumerate_structures(R, sp)
        assert res.exhausted and ref.exhausted
        assert ((res.nodes, res.records, res.rejected_at_record, res.raw_count, res.iso_count)
                == (ref.nodes, ref.records, ref.rejected_at_record, ref.raw_count, ref.iso_count)), sp
        assert list(res.canonical_counts.values()) == list(ref.canonical_counts.values())
        assert [{(d, j): {(rank[d][a], rank[d][b]): rank[d][v] for (a, b), v in entries.items()}
                 for (d, j), entries in S.tables.items()} for S in res.representatives] == [
            S.tables for S in ref.representatives]
    assert moved >= 3


def test_record_counters():
    """Every completed assignment is a record; the ones the verdict turns
    down are counted apart.  ``groupoid`` prunes nothing in the search, so
    all but the groups among the order-4 monoids are rejected at record."""
    G = loops_graph(4)
    monoids = enumerate_structures(G, spec(MONOID))
    groups = enumerate_structures(G, spec(GROUP))
    assert (monoids.raw_count, monoids.records, monoids.rejected_at_record) == (156, 156, 0)
    assert (groups.raw_count, groups.records, groups.rejected_at_record) == (4, 156, 152)


def test_record_scans_the_unit_law_once_per_level(monkeypatch):
    """Under ``groupoid`` the one unit scan of a level is also the
    precondition of the inverse scan."""
    levels = []
    real = structures.units_scan

    def counted(G, j, *rest):
        levels.append(j)
        return real(G, j, *rest)

    monkeypatch.setattr(structures, "units_scan", counted)
    res = enumerate_structures(loops_graph(4), spec(GROUP))
    assert (res.raw_count, res.iso_count, res.records) == (4, 2, 156)
    assert levels == [0] * 156


def _assignments(G, sp, rng, count):
    """Table families on the spec's slots, as the search keys them: every
    raw assignment when ``count`` is None (each key takes any cell of its
    dimension or nothing), else ``count`` random ones, mostly typed so that
    the later axioms get a say."""
    names, slots = enumeration._keys(G, *enumeration._resolve_levels(G, sp))
    if count is None:
        cells = [tuple(range(G.count(d))) + (None,) for d, _j, _key in slots]
        combos = itertools.product(*cells)
    else:
        combos = (None for _ in range(count))
    for combo in combos:
        tables = {name: {} for name in names}
        for pos, (d, j, (a, b)) in enumerate(slots):
            if combo is not None:
                value = combo[pos]
            else:
                smap, tmap = G.src_map(d), G.tgt_map(d)
                if d == j + 1:
                    typ = (smap[a], tmap[b])
                else:
                    vt = tables[j + 1, j]
                    typ = (vt.get((smap[a], smap[b])), vt.get((tmap[a], tmap[b])))
                typed = hom_buckets(G, d).get(typ, ())
                r = rng.random()
                if r < 0.2:
                    value = None
                elif r < 0.3 or not typed:
                    value = rng.randrange(G.count(d))
                else:
                    value = rng.choice(typed)
            if value is not None:
                tables[d, j][(a, b)] = value
        yield tables


def _passes(G, flags, tables, settled=()):
    """The record verdict on the rows of one family of entry dicts, with
    ``settled`` naming the tables whose rows it may leave out."""
    return enumeration._passes(enumeration._verdict(G, flags, tables), row_family(G, tables), frozenset(settled))


def test_verdict_agrees_with_the_checkers():
    """The record step's verdict, run on the rows of bare entry dicts,
    decides exactly as ``check_category`` does on the structure they make."""
    rng = random.Random(6)
    every = [AxiomFlags(*bits) for bits in itertools.product((False, True), repeat=5)]
    some = [AxiomFlags(), GLOBAL, AxiomFlags(unital=True), AxiomFlags(associative=True),
            MONOID, GROUP, AxiomFlags(unital=True, groupoid=True),
            AxiomFlags(global_=True, groupoid=True)]
    two = [AxiomFlags(), AxiomFlags(interchange=True), AxiomFlags(global_=True, interchange=True),
           AxiomFlags(associative=True, interchange=True), TWO_CATEGORY,
           AxiomFlags(unital=True, groupoid=True), AxiomFlags(groupoid=True, interchange=True),
           AxiomFlags(True, True, True, True, True)]
    cases = [
        (loops_graph(2), spec(levels=(-1, 0)), None, every),
        (parallel_pair_graph(), spec(), 1000, some),
        (random_graph(random.Random(67), n=2, max_cells=3), spec(include_horizontal=True), 1200,
         two),
    ]
    for G, sp, count, flag_sets in cases:
        seen = set()
        for tables in _assignments(G, sp, rng, count):
            for flags in flag_sets:
                S = CategoryStructure(G, tables=tables, flags=flags)
                verdict = _passes(G, flags, tables)
                assert verdict == check_category(S).passed, (S, tables)
                seen.add(verdict)
        assert seen == {False, True}


def test_settled_tables_keep_the_verdict():
    """A passing family with one table changed gets the same verdict with
    every other table settled as from the full verdict and from
    ``check_category``: the scans left out read only tables they passed on."""
    G = random_graph(random.Random(67), n=2, max_cells=3)
    sp = spec(include_horizontal=True)
    names = enumeration._keys(G, *enumeration._resolve_levels(G, sp))[0]
    rng = random.Random(15)
    families = list(_assignments(G, sp, rng, 300))
    seen = set()
    for flags in (AxiomFlags(), AxiomFlags(interchange=True), AxiomFlags(associative=True, interchange=True),
                  AxiomFlags(global_=True, interchange=True), TWO_CATEGORY,
                  AxiomFlags(unital=True, groupoid=True)):
        for tables in families:
            if not _passes(G, flags, tables):
                continue
            for name in names:
                changed = {**tables, name: rng.choice(families)[name]}
                settled = [other for other in names if other != name]
                verdict = _passes(G, flags, changed, settled)
                S = CategoryStructure(G, tables=changed, flags=flags)
                assert verdict == _passes(G, flags, changed) == check_category(S).passed
                seen.add((name, verdict))
    assert seen == {(name, verdict) for name in names for verdict in (False, True)}


def test_record_step_settles_a_table_only_as_it_last_passed():
    """Driven directly, the record step tallies as the full verdict does: a
    table is settled while it equals its entries at the last record that
    passed, not at one that failed, and the last table never is."""
    G = random_graph(random.Random(67), n=2, max_cells=3)
    sp = spec(AxiomFlags(global_=True, interchange=True), include_horizontal=True)
    names = enumeration._keys(G, *enumeration._resolve_levels(G, sp))[0]
    middle, last = names[1], names[-1]
    P = {name: dict(entries) for name, entries in enumerate_structures(G, sp).representatives[0].tables.items()}

    def one_dropped(name):
        entries = dict(P[name])
        entries.pop(next(iter(entries)))
        return {**P, name: entries}

    sequence = [P,                    # passes
                one_dropped(middle),  # an earlier table changes and fails
                one_dropped(middle),  # ... and stays as it failed
                one_dropped(last),    # back on P's earlier tables, the last one fails
                P]
    result = enumeration.EnumResult(0, 0, [], True)
    record = enumeration._recorder(G, sp, result, names)
    for tables in sequence:
        record(row_family(G, tables))
    passed = [t for t in sequence if check_category(CategoryStructure(G, tables=t, flags=sp.flags)).passed]
    assert len(passed) == 2
    assert (result.records, result.raw_count, result.rejected_at_record) == (5, 2, 3)
    assert result.canonical_counts == Counter(canonical_form(G, t) for t in passed)


def test_maximal_only_keeps_the_families_no_entry_extends():
    """The maximal-only tally, whose extension verdicts settle every table
    but the one extended, equals the passing families of the raw
    assignment space that no single added entry keeps passing."""
    def frozen(tables):
        return tuple(tuple(sorted(entries.items())) for entries in tables.values())

    for seed, flags in ((67, AxiomFlags(interchange=True)), (67, AxiomFlags(associative=True, interchange=True)),
                        (23, AxiomFlags(unital=True, groupoid=True, interchange=True))):
        G = random_graph(random.Random(seed), n=2, max_cells=3)
        sp = spec(flags, include_horizontal=True, maximal_only=True)
        passing = {frozen(tables): tables for tables in _assignments(G, sp, None, None)
                   if _passes(G, flags, tables)}
        maximal = Counter()
        for tables in passing.values():
            extended = (frozen({**tables, (d, j): {**tables[d, j], key: v}})
                        for d, j in tables for key in table_keys(G, d, j) if key not in tables[d, j]
                        for v in range(G.count(d)))
            if not any(family in passing for family in extended):
                maximal[canonical_form(G, tables)] += 1
        res = enumerate_structures(G, sp)
        assert (res.raw_count, res.canonical_counts) == (sum(maximal.values()), maximal), (seed, flags)


def test_the_record_step_is_still_the_net(monkeypatch):
    """With the associativity and interchange watches dropped from the slot
    table, the search reaches records the prunes would have cut, and the
    record step, settling the tables unchanged since its last passing
    record, turns down every one of them."""
    cases = [(random_graph(random.Random(67), n=2, max_cells=3), AxiomFlags(associative=True, interchange=True)),
             (random_graph(random.Random(7), n=2, max_cells=3), TWO_CATEGORY)]
    pruned = [enumerate_structures(G, spec(flags, include_horizontal=True)) for G, flags in cases]
    real = enumeration._slot_table
    # each slot keeps its values, row and column, so the search still writes every entry
    monkeypatch.setattr(enumeration, "_slot_table", lambda *args: [row[:4] + (None, None) for row in real(*args)])
    for (G, flags), want in zip(cases, pruned):
        got = enumerate_structures(G, spec(flags, include_horizontal=True))
        assert got.exhausted and want.exhausted
        assert (got.raw_count, got.canonical_counts) == (want.raw_count, want.canonical_counts)
        assert got.rejected_at_record > want.rejected_at_record


def test_verify_skeletal_uniqueness():
    cert = verify_skeletal_uniqueness(skeletal_graph(3, 1, seed=9))
    assert cert.unique and cert.structure is not None
    assert check_category(cert.structure).passed
    with pytest.raises(NotSkeletal):
        verify_skeletal_uniqueness(loops_graph(2))


def test_flag_monotonicity_small():
    chains = [AxiomFlags(global_=True),
              AxiomFlags(global_=True, unital=True),
              MONOID]
    for G in (loops_graph(2), loops_graph(3), parallel_pair_graph()):
        counts = [enumerate_structures(G, spec(f)).raw_count for f in chains]
        assert counts[0] >= counts[1] >= counts[2]
