"""Acceptance suite: one test per criterion, budgets pinned in the asserts.

Expected constants were computed with the brute-force oracle (and, for the
monoid classification, cross-checked against the published count of monoids
on two and three elements) before being frozen here; the oracle still runs
inside the tests that cite it.
"""

import itertools
import random
import time

from ncats import (
    AxiomFlags,
    CategoryStructure,
    EnumSpec,
    build_cat_of_cats,
    brute_force_oracle,
    check_category,
    check_interchange,
    check_transformation,
    check_typing,
    composable_pairs,
    document_from_graph,
    document_from_structure,
    enumerate_functors,
    enumerate_structures,
    enumerate_transformations,
    opposite,
    parse,
    serialize,
    skeletal_graph,
)
from ncats.cli import main
from ncats.cobordism import (
    all_boundaries,
    all_diagrams,
    build_cob_truncation,
    gen_sets_graph,
    glue,
    make_cylinder,
)
from ncats.morphisms import Transformation

from util import (
    arrow_graph,
    chain_graph,
    loops_graph,
    parallel_pair_graph,
    random_graph,
    total_order_structure,
    z2_structure,
)

GLOBAL = AxiomFlags(global_=True)
MONOID = AxiomFlags(global_=True, unital=True, associative=True)


def test_criterion_1_skeletal_uniqueness():
    """20 procedural skeletal carriers each force exactly one structure."""
    t0 = time.perf_counter()
    seen = 0
    for n in (1, 2):
        for objects in (1, 2):
            for seed in range(5):
                G = skeletal_graph(objects, n, seed=seed)
                assert all(G.count(d) <= 4 for d in range(n + 1))
                res = enumerate_structures(G, EnumSpec(flags=GLOBAL))
                assert res.exhausted
                assert (res.raw_count, res.iso_count) == (1, 1)
                seen += 1
    assert seen == 20
    assert time.perf_counter() - t0 < 5.0


def oracle_family():
    graphs = [loops_graph(1), loops_graph(2), loops_graph(3),
              arrow_graph(), parallel_pair_graph(), chain_graph()]
    rng_kept = 0
    for seed in range(20):
        G = random_graph(random.Random(seed), n=1, max_cells=4)
        pairs = len(composable_pairs(G, 0))
        if (G.count(1) + 1) ** pairs <= 10 ** 6:
            graphs.append(G)
            rng_kept += 1
        if rng_kept == 3:
            break
    assert rng_kept == 3
    return graphs


def test_criterion_2_oracle_equivalence():
    """Pruned search and unpruned oracle agree on every in-budget 1-graph."""
    for G in oracle_family():
        pairs = len(composable_pairs(G, 0))
        for flags in (AxiomFlags(), GLOBAL, MONOID):
            base = G.count(1) + (0 if flags.global_ else 1)
            if base ** pairs > 10 ** 6:
                continue
            t0 = time.perf_counter()
            fast = enumerate_structures(G, EnumSpec(flags=flags))
            slow = brute_force_oracle(G, EnumSpec(flags=flags))
            assert fast.raw_count == slow.raw_count
            assert fast.canonical_counts == slow.canonical_counts
            assert time.perf_counter() - t0 < 60.0


def test_criterion_3_monoid_crosscheck():
    """Loops with a unit classify as the known monoid counts: 2 and 7."""
    expected = {2: 2, 3: 7}
    for k, classes in expected.items():
        G = loops_graph(k)
        oracle = brute_force_oracle(G, EnumSpec(flags=MONOID))
        assert oracle.iso_count == classes
        res = enumerate_structures(G, EnumSpec(flags=MONOID))
        assert res.iso_count == classes
        assert res.canonical_counts == oracle.canonical_counts


def test_criterion_4_cobordism_category():
    """The three-point truncation is a category; gluing laws re-proved raw."""
    t0 = time.perf_counter()
    G, S = build_cob_truncation(3)
    report = check_category(S)
    assert report.passed
    assert all(not c.counterexamples and not c.asymmetric for c in report.checks)

    boundaries = all_boundaries(3)
    diagrams = {(A, B): all_diagrams(A, B)
                for A in boundaries for B in boundaries}
    for A in boundaries:
        for B in boundaries:
            for M in diagrams[(A, B)]:
                assert glue(make_cylinder(A), M) == M
                assert glue(M, make_cylinder(B)) == M
    checked = 0
    for (A, B), ms in diagrams.items():
        if not ms:
            continue
        for C in boundaries:
            for N in diagrams[(B, C)]:
                for D in boundaries:
                    for P in diagrams[(C, D)]:
                        for M in ms:
                            assert glue(glue(M, N), P) == glue(M, glue(N, P))
                            checked += 1
    assert checked > 0
    assert time.perf_counter() - t0 < 30.0


def test_criterion_5_interchange_witness():
    """Middle-four exchange holds on the two-category carrier and any typed
    rewrite of one horizontal entry breaks it."""
    Z = z2_structure()[1]
    G, S = build_cat_of_cats([Z, Z], depth=2)
    assert (G.count(0), G.count(1), G.count(2)) == (2, 8, 16)
    base = check_interchange(S, 0)
    assert base.passed
    assert all(not c.counterexamples and not c.asymmetric for c in base.checks)

    entries = S.tables[2, 0]
    perturbed = 0
    for key, val in sorted(entries.items()):
        for alt in range(G.count(2)):
            if alt == val:
                continue
            bent_entries = dict(entries)
            bent_entries[key] = alt
            bent = CategoryStructure(G, tables={**S.tables, (2, 0): bent_entries}, flags=S.flags)
            if not check_typing(bent).passed:
                continue
            perturbed += 1
            rep = check_interchange(bent, 0)
            hits = sum(len(c.counterexamples) + len(c.asymmetric) for c in rep.checks)
            assert hits >= 1, f"perturbation {key} -> {alt} went unnoticed"
    assert perturbed == 128


def test_criterion_6_naturality_oracle():
    """Component search equals the raw filter of every assignment."""
    for _, S in (total_order_structure(3), z2_structure()):
        G = S.graph
        functors = enumerate_functors(S, S)
        for f in functors:
            for g in functors:
                found = {t.comps[0] for t in enumerate_transformations(f, g, S, S)}
                raw = set()
                for combo in itertools.product(range(G.count(1)), repeat=G.count(0)):
                    t = Transformation(f, g, {0: combo})
                    if check_transformation(t, S, S).passed:
                        raw.add(combo)
                assert found == raw


def test_criterion_7_opposite_involution():
    """Double reversal reproduces the serialized carrier byte for byte."""
    done = 0
    for seed in range(50):
        n = 1 + seed % 2
        G = random_graph(random.Random(1000 + seed), n=n, max_cells=4)
        blob = serialize(document_from_graph(G))
        for i in range(1, n + 1):
            twice = opposite(opposite(G, i), i)
            assert serialize(document_from_graph(twice)) == blob
        done += 1
    assert done == 50


def corpus(tmp_path):
    docs = []
    for mp in range(4):
        docs.append(document_from_structure(build_cob_truncation(mp)[1]))
    for ms in (1, 2, 3):
        docs.append(document_from_graph(gen_sets_graph(ms)))
    for seed in range(3):
        docs.append(document_from_graph(skeletal_graph(2, 2, seed=seed)))
    Z = z2_structure()[1]
    docs.append(document_from_structure(Z))
    G2, S2 = build_cat_of_cats([Z], depth=3)
    docs.append(document_from_structure(S2))
    return docs


def test_criterion_8_format_round_trip(tmp_path):
    """Byte-identical round-trips plus scripted exit codes."""
    for doc in corpus(tmp_path):
        blob = serialize(doc)
        again = parse(blob)
        assert again == doc
        assert serialize(again) == blob

    z2 = tmp_path / "z2.json"
    z2.write_bytes(serialize(document_from_structure(z2_structure()[1])))
    sk = tmp_path / "sk.json"
    assert main(["gen", "skeletal", "--objects", "2", "--n", "1", "--seed", "1",
                 "-o", str(sk)]) == 0
    broken = tmp_path / "broken.json"
    G = loops_graph(2)
    broken.write_bytes(serialize(document_from_structure(CategoryStructure(
        G, tables={(1, 0): {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}},
        flags=AxiomFlags(global_=True, unital=True)))))
    syntax = tmp_path / "syntax.json"
    syntax.write_text('{"format_version":')

    scenarios = [
        (["check", str(z2)], 0),
        (["check", str(broken)], 1),
        (["check", str(syntax)], 2),
        (["check", str(tmp_path / "absent.json")], 2),
        (["enumerate", str(sk), "--flags", "global"], 0),
        (["enumerate", str(z2), "--flags", "global", "--max-nodes", "5"], 3),
        (["enumerate", str(z2), "--flags", "imaginary"], 2),
        (["skeletal", str(sk)], 0),
        (["skeletal", str(z2)], 1),
        (["gen", "cob", "--max-points", "9", "-o", str(tmp_path / "big.json")], 3),
    ]
    assert len(scenarios) == 10
    for argv, expected in scenarios:
        assert main(argv) == expected, argv


def test_criterion_9_flag_monotonicity():
    """Adding axioms never increases the raw structure count."""
    graphs = [loops_graph(1), loops_graph(2), loops_graph(3), arrow_graph(),
              parallel_pair_graph(), chain_graph()]
    for seed in (3, 7, 8, 12):
        graphs.append(random_graph(random.Random(seed), n=1, max_cells=3))
    assert len(graphs) == 10
    chain = [GLOBAL, AxiomFlags(global_=True, unital=True), MONOID]
    for G in graphs:
        counts = [enumerate_structures(G, EnumSpec(flags=f)).raw_count
                  for f in chain]
        assert counts[0] >= counts[1] >= counts[2]
