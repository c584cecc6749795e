import gc
import itertools
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
from ncats import enumeration
from ncats.enumeration import LevelUnavailable
from ncats.graphs import NGraph, StructureTail, automorphisms, hom_buckets
from ncats.structures import interchange_partners, split_tables, table_keys

from util import (
    chain_graph,
    long_order_graph,
    loops_graph,
    parallel_pair_graph,
    random_graph,
    relabeled,
    z2_structure,
)

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


def _tables_of(S):
    """A structure's tables in the record step's form, named (d, j)."""
    return {**{(j + 1, j): t.entries for j, t in S.vtables.items()},
            **{(j + 2, j): t.entries for j, t in S.htables.items()}}


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
        forms = [canonical_form(G, _tables_of(S), auts) for S in res.representatives]
        assert set(forms) == set(res.canonical_counts)
        assert len(forms) == res.iso_count
        assert sum(res.canonical_counts.values()) == res.raw_count
        for S, form in zip(res.representatives, forms):
            assert canonical_form(G, dict(reversed(_tables_of(S).items()))) == form
            for phi in auts:
                image = {(d, j): {(phi.maps[d][a], phi.maps[d][b]): phi.maps[d][v]
                                  for (a, b), v in entries.items()}
                         for (d, j), entries in _tables_of(S).items()}
                assert canonical_form(G, image, auts) == form


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
    """The record step tallies every record from its entry dicts; a
    ``CategoryStructure`` is built only for a representative it keeps."""
    built = []
    real = enumeration.CategoryStructure

    def counted(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(enumeration, "CategoryStructure", counted)
    sp = spec(MONOID, limits=EnumLimits(max_representatives=4))
    for run in (enumerate_structures, brute_force_oracle):
        built.clear()
        res = run(loops_graph(3), sp)
        assert (res.raw_count, res.iso_count, len(res.representatives)) == (11, 7, 4)
        assert len(built) == 4
        assert all(S is R for S, R in zip(built, res.representatives))


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
    assert res.representatives[0].htables


# search nodes per random 2-graph seed and flag set, frozen from the search
# that rescanned every quadruple at every node; partial and maximal-only
# mode visit the same nodes.  Seed 67 is a carrier where interchange
# prunes: 5278 partial tables with {interchange}, 6642 without.  So are the
# carriers of seeds 7 and 47, with two 0-cells, two 1-cells and three
# 2-cells ({global} alone: 580 and 529 nodes, 256 tables; {global, unital,
# associative}: 76 and 70 nodes, 32 tables), pinned in total mode only:
# partial mode has 663,552 raw assignments there.
INTERCHANGE_NODES = {
    2: {"i": 12, "gi": 3, "ai": 12, "guai": 3},
    23: {"i": 90, "gi": 6, "ai": 90, "guai": 6},
    67: {"i": 9518, "gi": 369, "ai": 7840, "guai": 44},
    7: {"gi": 428, "guai": 51},
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
                # the bound counts every cell of each key's dimension; the
                # oracle runs only the typed ones (3888 at seeds 7 and 47)
                slow = brute_force_oracle(G, sp, space_bound=3 * 10 ** 5)
                assert fast.exhausted
                assert fast.raw_count == slow.raw_count
                assert fast.canonical_counts == slow.canonical_counts
                assert fast.nodes == pinned, (seed, name, maximal)


def test_interchange_watches_follow_the_slot_order():
    """Each quadruple is held at the slot of its last positional read,
    found here by position in the slot list, and composes only at a later
    slot; every vertical table is filled before every horizontal one, so no
    vertical row watches anything."""
    carriers = [random_graph(random.Random(seed), n=2, max_cells=3) for seed in INTERCHANGE_NODES]
    carriers.append(build_cat_of_cats([z2_structure()[1]], depth=2)[0])
    for G in carriers:
        sp = spec(AxiomFlags(interchange=True), include_horizontal=True)
        names, slots = enumeration._keys(G, *enumeration._resolve_levels(G, sp))
        rows = enumeration._slot_table(G, sp.flags, {name: {} for name in names}, slots)
        at = {(d, j, key): pos for pos, (d, j, key) in enumerate(slots)}

        def last(j, a, a2, b, b2):
            return max(at[j + 2, j + 1, (a, a2)], at[j + 2, j + 1, (b, b2)],
                       at[j + 2, j, (a, b)], at[j + 2, j, (a2, b2)])

        held, want = Counter(), Counter()
        for j in range(G.n - 1):
            for (a, a2), partners in interchange_partners(G, j):
                for b, b2 in partners:
                    want[j, (a, a2, b, b2), last(j, a, a2, b, b2)] += 1
        for pos, ((d, j, _key), row) in enumerate(zip(slots, rows)):
            exchange = row[5]
            if exchange is None:
                continue
            assert d == j + 2
            _Y, holding, composing = exchange
            for (p, q), (r, s), _yk, _yk2 in holding:
                held[j, (p, r, q, s), pos] += 1
            for (p, q), (r, s), _yk, _yk2 in composing:
                assert last(j, p, r, q, s) < pos
        assert held == want and want


def _loops_with_identity_at(k, r):
    """``loops_graph(k)`` with loop r as the identity."""
    return NGraph(1, StructureTail(1, (0, 0)), [[0], [0] * k], [[0], [0] * k], [[r]])


ASSOCIATIVE = AxiomFlags(associative=True)
GLOBAL_ASSOCIATIVE = AxiomFlags(global_=True, associative=True)

# (carrier, spec, oracle fits, nodes, records), frozen from the search that
# rescanned every triple ending in b or starting with a whenever it set
# (a, b); the record step re-checks every structure, so a weaker prune
# would show only as more nodes
ASSOCIATIVE_NODES = [
    *((_loops_with_identity_at(4, r), spec(MONOID), False, nodes, 156)
      for r, nodes in enumerate((2513, 2733, 4379, 7211))),
    (loops_graph(3), spec(ASSOCIATIVE), False, 82604, 31789),
    (loops_graph(3), spec(GLOBAL), False, 29523, 19683),
    (loops_graph(3), spec(GLOBAL_ASSOCIATIVE), True, 1230, 113),
    (loops_graph(2), spec(ASSOCIATIVE, levels=(-1, 0)), True, 230, 130),
    (loops_graph(2), spec(GLOBAL_ASSOCIATIVE, levels=(-1, 0)), True, 27, 8),
    (parallel_pair_graph(), spec(ASSOCIATIVE), True, 456, 257),
    (parallel_pair_graph(), spec(ASSOCIATIVE, maximal_only=True), True, 456, 257),
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
    assert (res.exhausted, res.raw_count, res.iso_count, res.nodes) == (True, 2098, 2098, 13282)
    assert (res.records, res.rejected_at_record) == (2098, 0)


# relabelings of the cat-of-one-Z2 carrier (one 0-cell, two 1-cells, four
# 2-cells), one permutation per dimension, with their (nodes, records, raw,
# iso) under TWO_CATEGORY: relabeling reorders the slots, so each visits its
# own nodes, but the answer is the same
RELABELED_NODES = [
    ([[0], [1, 0], [2, 3, 1, 0]], (13557, 2098, 2098, 2098)),
    ([[0], [1, 0], [2, 1, 3, 0]], (23945, 2098, 2098, 2098)),
    ([[0], [0, 1], [1, 0, 3, 2]], (16126, 2098, 2098, 2098)),
]


def test_two_categories_on_relabeled_carriers():
    G = build_cat_of_cats([z2_structure()[1]], depth=2)[0]
    for perms, pinned in RELABELED_NODES:
        res = enumerate_structures(relabeled(G, perms), spec(TWO_CATEGORY, include_horizontal=True))
        assert res.exhausted
        assert (res.nodes, res.records, res.raw_count, res.iso_count) == pinned, perms


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
    real = enumeration.units_scan

    def counted(G, j, *rest):
        levels.append(j)
        return real(G, j, *rest)

    monkeypatch.setattr(enumeration, "units_scan", counted)
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


def test_verdict_agrees_with_the_checkers():
    """The record step's verdict, run on bare entry dicts, decides exactly
    as ``check_category`` does on the structure they make."""
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
                S = CategoryStructure(G, *split_tables(tables), flags)
                verdict = enumeration._passes_flags(G, flags, tables)
                assert verdict == check_category(S).passed, (S, tables)
                seen.add(verdict)
        assert seen == {False, True}


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
