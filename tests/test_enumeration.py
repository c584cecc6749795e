import gc
import random
import weakref

import pytest

from ncats import (
    AxiomFlags,
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
from ncats.enumeration import LevelUnavailable
from ncats.graphs import NGraph, StructureTail, automorphisms

from util import (
    chain_graph,
    long_order_graph,
    loops_graph,
    parallel_pair_graph,
    random_graph,
    z2_structure,
)

GLOBAL = AxiomFlags(global_=True)
MONOID = AxiomFlags(global_=True, unital=True, associative=True)
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
    for G in (loops_graph(2), parallel_pair_graph()):
        for flags in (AxiomFlags(), AxiomFlags(associative=True)):
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
    G = loops_graph(3)
    auts = automorphisms(G)
    res = enumerate_structures(G, spec(MONOID))
    forms = {canonical_form(S, auts) for S in res.representatives}
    assert len(forms) == res.iso_count
    assert sum(res.canonical_counts.values()) == res.raw_count
    assert len(res.canonical_counts) == res.iso_count


def test_node_budget_interrupts():
    G = loops_graph(3)
    res = enumerate_structures(G, spec(GLOBAL, limits=EnumLimits(max_nodes=10)))
    assert not res.exhausted
    assert res.nodes <= 11


def test_search_depth_is_not_bounded_by_the_call_stack():
    res = enumerate_structures(long_order_graph(), spec(GLOBAL))
    assert (res.raw_count, res.iso_count, res.exhausted, res.nodes) == (1, 1, True, 1540)


def test_search_state_is_freed_on_return():
    """A finished search leaves no reference cycle behind: the result goes
    away with its last reference, without waiting for the cyclic collector."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for limits in (EnumLimits(), EnumLimits(max_nodes=3)):
            res = enumerate_structures(loops_graph(2), spec(MONOID, limits=limits))
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
# mode visit the same nodes.  Seed 67 is the carrier where interchange
# prunes: 5278 partial tables with {interchange}, 6642 without.
INTERCHANGE_NODES = {
    2: {"i": 12, "gi": 3, "ai": 12, "guai": 3},
    23: {"i": 90, "gi": 6, "ai": 90, "guai": 6},
    67: {"i": 9518, "gi": 369, "ai": 7840, "guai": 44},
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
        for name, flags in INTERCHANGE_FLAGS.items():
            for maximal in (False, True):
                sp = spec(flags, include_horizontal=True, maximal_only=maximal)
                fast = enumerate_structures(G, sp)
                slow = brute_force_oracle(G, sp, space_bound=2 * 10 ** 4)
                assert fast.exhausted
                assert fast.raw_count == slow.raw_count
                assert fast.canonical_counts == slow.canonical_counts
                assert fast.nodes == nodes[name], (seed, name, maximal)


def test_two_categories_on_the_cat_of_cats_carrier():
    G = build_cat_of_cats([z2_structure()[1]], depth=2)[0]
    res = enumerate_structures(G, spec(TWO_CATEGORY, include_horizontal=True))
    assert (res.exhausted, res.raw_count, res.iso_count, res.nodes) == (True, 2098, 2098, 13282)


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
