"""Small carriers and structures shared across the test modules."""

import random

from ncats import (
    AxiomFlags,
    CategoryStructure,
    NGraph,
    StructureTail,
)

TAIL1 = StructureTail(1, (0, 0))


def loops_graph(k):
    """One object with k loops; loop 0 is the identity."""
    return NGraph(1, TAIL1, [[0], [0] * k], [[0], [0] * k], [[0]])


def z2_structure():
    """The two-element group as a one-object structure."""
    G = loops_graph(2)
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    return G, CategoryStructure(
        G, tables={(1, 0): table}, flags=AxiomFlags(global_=True, unital=True, associative=True))


def trivial_structure():
    G = loops_graph(1)
    return G, CategoryStructure(
        G, tables={(1, 0): {(0, 0): 0}},
        flags=AxiomFlags(global_=True, unital=True, associative=True))


def arrow_graph():
    """Two objects joined by one arrow, identities included."""
    return NGraph(1, TAIL1, [[0, 0], [0, 1, 0]], [[0, 0], [0, 1, 1]], [[0, 1]])


def parallel_pair_graph():
    """Two objects with two parallel arrows between them."""
    return NGraph(1, TAIL1, [[0, 0], [0, 1, 0, 0]], [[0, 0], [0, 1, 1, 1]],
                  [[0, 1]])


def chain_graph():
    """x -> y -> z with no composite arrow: the one composable pair has an
    empty hom to land in, so no global table exists."""
    return NGraph(1, TAIL1,
                  [[0, 0, 0], [0, 1, 2, 0, 1]],
                  [[0, 0, 0], [0, 1, 2, 1, 2]],
                  [[0, 1, 2]])


def oriental_2_graph():
    """The carrier of Street's second oriental O_2: objects 0, 1, 2, arrows
    a: 0 -> 1, b: 1 -> 2 and f, c: 0 -> 2 after the identities, and one
    2-cell f => c after the identity 2-cells."""
    return NGraph(2, TAIL1,
                  [[0, 0, 0], [0, 1, 2, 0, 1, 0, 0], [0, 1, 2, 3, 4, 5, 6, 5]],
                  [[0, 0, 0], [0, 1, 2, 1, 2, 2, 2], [0, 1, 2, 3, 4, 5, 6, 6]],
                  [[0, 1, 2], [0, 1, 2, 3, 4, 5, 6]])


def middle_four(G, j):
    """The quadruples (a, a2, b, b2) of (j+2)-cells that middle-four
    exchange at level j reads, lexicographically, found cell by cell from
    the boundary maps: a then a2 and b then b2 meet at dimension j+1, and
    a then b and a2 then b2 meet at dimension j."""
    d = j + 2
    cells = range(G.count(d))

    def end(x, side):
        # the dimension-j boundary of the d-cell x, one map down at a time
        for k in (d, d - 1):
            x = side(k)[x]
        return x

    vkeys = [(a, a2) for a in cells for a2 in cells if G.tgt_map(d)[a] == G.src_map(d)[a2]]
    return [(a, a2, b, b2) for a, a2 in vkeys for b, b2 in vkeys
            if end(a, G.tgt_map) == end(b, G.src_map) and end(a2, G.tgt_map) == end(b2, G.src_map)]


def total_order_structure(k):
    """The linear order on k objects as a thin category."""
    objects = list(range(k))
    arrows = [(x, y) for x in objects for y in objects if x <= y]
    index = {a: i for i, a in enumerate(arrows)}
    G = NGraph(1, TAIL1,
               [[0] * k, [a[0] for a in arrows]],
               [[0] * k, [a[1] for a in arrows]],
               [[index[(x, x)] for x in objects]])
    entries = {}
    for (x, y), i in index.items():
        for (y2, z), j in index.items():
            if y2 == y:
                entries[(i, j)] = index[(x, z)]
    return G, CategoryStructure(
        G, tables={(1, 0): entries},
        flags=AxiomFlags(global_=True, unital=True, associative=True))


def long_order_graph():
    """The total order on 20 objects: 1540 composable pairs, each a table
    key, and a unique global structure."""
    return total_order_structure(20)[0]


def random_graph(rng: random.Random, n=1, max_cells=4):
    """A valid carrier with randomized counts and boundaries.

    Identities come first in every dimension, extra cells get uniformly
    chosen types; valid by construction.
    """
    counts = [rng.randint(1, max_cells)]
    src = [[0] * counts[0]]
    tgt = [[0] * counts[0]]
    idn = []
    for d in range(1, n + 1):
        lower = counts[d - 1]
        s = list(range(lower))
        t = list(range(lower))
        idn.append(list(range(lower)))
        # group the lower dimension by type so extras stay globular
        if d == 1:
            groups = [list(range(lower))]
        else:
            by_type = {}
            for i in range(lower):
                by_type.setdefault((src[d - 1][i], tgt[d - 1][i]), []).append(i)
            groups = list(by_type.values())
        for _ in range(rng.randint(0, max(0, max_cells - lower))):
            g = rng.choice(groups)
            s.append(rng.choice(g))
            t.append(rng.choice(g))
        counts.append(len(s))
        src.append(s)
        tgt.append(t)
    return NGraph(n, TAIL1, src, tgt, idn)


def relabeled(G, perms):
    """The isomorphic copy of ``G`` in which cell i of dimension d becomes
    cell ``perms[d][i]``; boundaries and identities move along."""
    src, tgt = [], []
    for d in range(G.n + 1):
        below = perms[d - 1] if d else range(G.tail.minus_one_count)
        s, t = [0] * G.count(d), [0] * G.count(d)
        for i, new in enumerate(perms[d]):
            s[new] = below[G.src_map(d)[i]]
            t[new] = below[G.tgt_map(d)[i]]
        src.append(s)
        tgt.append(t)
    idn = []
    for d in range(G.n):
        row = [0] * G.count(d)
        for x, up in enumerate(G.idn_map(d)):
            row[perms[d][x]] = perms[d + 1][up]
        idn.append(row)
    return NGraph(G.n, G.tail, src, tgt, idn)
