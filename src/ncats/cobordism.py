"""One-dimensional cobordisms as sign-compatible matchings, plus the
sets-and-maps carrier.

An object is a finite sequence of oriented points, written as +1/-1.  A
cobordism between two such boundaries is a compact 1-manifold, which up to
boundary-fixing diffeomorphism is nothing but a perfect matching on the
reversed source together with the target: each strand joins one inflow and
one outflow point.  Gluing two diagrams along a shared boundary follows
strands through it; any closed loops that appear are discarded, which keeps
hom-sets finite and costs neither units nor associativity.

``build_cob_truncation`` packages everything below a point budget as an
ordinary carrier-plus-table so the generic checkers can judge it; nothing
here certifies itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import GraphError, NGraph, SpaceTooLarge, StructureTail
from .structures import AxiomFlags, CategoryStructure, CompTable

SOURCE_SIDE = 0
TARGET_SIDE = 1


class BoundaryMismatch(GraphError):
    """Gluing was asked across unequal boundaries."""


def parse_signs(text: str) -> tuple[int, ...]:
    """'+-+' -> (1, -1, 1).  Whitespace is ignored."""
    out = []
    for ch in text:
        if ch.isspace():
            continue
        if ch == "+":
            out.append(1)
        elif ch == "-":
            out.append(-1)
        else:
            raise ValueError(f"unexpected orientation character {ch!r}")
    return tuple(out)


def format_signs(signs: tuple[int, ...]) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def reverse_orientation(signs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-s for s in signs)


def _point_sign(source, target, point):
    # source points count reversed: a strand leaves a +1 source point
    side, i = point
    return -source[i] if side == SOURCE_SIDE else target[i]


@dataclass(frozen=True)
class MatchDiagram:
    """A cobordism: perfect matching on reversed-source plus target.

    Points are (side, index) with side 0 the source and side 1 the target.
    The pairing is stored sorted pairwise and overall, so equality of
    diagrams is equality of the field values.
    """

    source: tuple[int, ...]
    target: tuple[int, ...]
    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(self.source))
        object.__setattr__(self, "target", tuple(self.target))
        pairs = tuple(sorted(tuple(sorted(p)) for p in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        points = ([(SOURCE_SIDE, i) for i in range(len(self.source))]
                  + [(TARGET_SIDE, j) for j in range(len(self.target))])
        seen = []
        for p, q in pairs:
            if p == q or p not in points or q not in points:
                raise GraphError(f"bad strand {p} -- {q}")
            if _point_sign(self.source, self.target, p) + _point_sign(self.source, self.target, q) != 0:
                raise GraphError(f"strand {p} -- {q} is not orientation compatible")
            seen.extend((p, q))
        if sorted(seen) != sorted(points) or len(set(seen)) != len(seen):
            raise GraphError("pairing is not a perfect matching")

    def __str__(self):
        strands = " ".join(f"{p[0]}.{p[1]}-{q[0]}.{q[1]}" for p, q in self.pairs)
        return f"{format_signs(self.source)}=>{format_signs(self.target)} [{strands}]"


def make_cylinder(signs: tuple[int, ...]) -> MatchDiagram:
    signs = tuple(signs)
    return MatchDiagram(signs, signs, tuple(
        ((SOURCE_SIDE, i), (TARGET_SIDE, i)) for i in range(len(signs))))


def glue(M: MatchDiagram, N: MatchDiagram) -> MatchDiagram:
    """Compose by strand-following through the shared boundary.

    Interior loops (strands that never reach an outer boundary) are
    dropped.
    """
    if M.target != N.source:
        raise BoundaryMismatch(
            f"cannot glue {format_signs(M.target)} onto {format_signs(N.source)}")
    m_match = {}
    for p, q in M.pairs:
        m_match[p] = q
        m_match[q] = p
    n_match = {}
    for p, q in N.pairs:
        n_match[p] = q
        n_match[q] = p

    def follow(start, in_first):
        cur, first = start, in_first
        while True:
            cur = (m_match if first else n_match)[cur]
            side, i = cur
            if first and side == SOURCE_SIDE:
                return (SOURCE_SIDE, i)
            if not first and side == TARGET_SIDE:
                return (TARGET_SIDE, i)
            # crossed the shared boundary; continue in the other diagram
            cur = (SOURCE_SIDE, i) if first else (TARGET_SIDE, i)
            first = not first

    pairs = []
    done = set()
    outer = ([((SOURCE_SIDE, i), True) for i in range(len(M.source))]
             + [((TARGET_SIDE, j), False) for j in range(len(N.target))])
    for start, in_first in outer:
        if start in done:
            continue
        end = follow(start, in_first)
        done.add(start)
        done.add(end)
        pairs.append((start, end))
    return MatchDiagram(M.source, N.target, tuple(pairs))


def disjoint_union(M: MatchDiagram, N: MatchDiagram) -> MatchDiagram:
    ds, dt = len(M.source), len(M.target)

    def shift(point):
        side, i = point
        return (side, i + (ds if side == SOURCE_SIDE else dt))

    return MatchDiagram(
        M.source + N.source, M.target + N.target,
        M.pairs + tuple((shift(p), shift(q)) for p, q in N.pairs))


def all_diagrams(source: tuple[int, ...], target: tuple[int, ...]) -> list[MatchDiagram]:
    """Every cobordism between the two boundaries, deterministically ordered.

    Empty unless the reversed-source-plus-target points balance, in which
    case the diagrams are the bijections from inflow to outflow points.
    """
    source, target = tuple(source), tuple(target)
    points = ([(SOURCE_SIDE, i) for i in range(len(source))]
              + [(TARGET_SIDE, j) for j in range(len(target))])
    plus = [p for p in points if _point_sign(source, target, p) > 0]
    minus = [p for p in points if _point_sign(source, target, p) < 0]
    if len(plus) != len(minus):
        return []
    out = []
    for perm in itertools.permutations(minus):
        out.append(MatchDiagram(source, target, tuple(zip(plus, perm))))
    return sorted(out, key=lambda d: d.pairs)


def all_boundaries(max_points: int) -> list[tuple[int, ...]]:
    out = []
    for k in range(max_points + 1):
        out.extend(itertools.product((1, -1), repeat=k))
    return out


def build_cob_truncation(max_points: int) -> tuple[NGraph, CategoryStructure]:
    """Carrier and structure for all cobordisms below a point budget.

    0-cells are the sign sequences of length up to ``max_points``, 1-cells
    every diagram between every ordered pair, identities the cylinders and
    the level-0 table the gluing map.  Gluing never leaves the cell set, so
    the table comes out total.
    """
    if max_points < 0:
        raise GraphError("need a nonnegative point budget")
    if max_points > 4:
        raise SpaceTooLarge("point budgets above 4 produce unreasonably large tables")
    objects = all_boundaries(max_points)
    obj_index = {A: i for i, A in enumerate(objects)}

    arrows = []
    arrow_index = {}
    for A in objects:
        for B in objects:
            for d in all_diagrams(A, B):
                arrow_index[d] = len(arrows)
                arrows.append(d)

    src = [[obj_index[d.source] for d in arrows]]
    tgt = [[obj_index[d.target] for d in arrows]]
    idn = [[arrow_index[make_cylinder(A)] for A in objects]]
    graph = NGraph(1, StructureTail(1, (0, 0)),
                   [[0] * len(objects)] + src, [[0] * len(objects)] + tgt, idn,
                   labels=[[format_signs(A) or "()" for A in objects],
                           [str(d) for d in arrows]])

    entries = {}
    for i, d in enumerate(arrows):
        for j, e in enumerate(arrows):
            if d.target == e.source:
                entries[(i, j)] = arrow_index[glue(d, e)]
    structure = CategoryStructure(
        graph, [CompTable(0, entries)], [],
        AxiomFlags(global_=True, unital=True, associative=True))
    return graph, structure


def gen_sets_graph(max_size: int) -> NGraph:
    """The two-dimensional carrier of small sets, maps, and map replacements.

    0-cells are the sets {0..k-1} for 1 <= k <= max_size, 1-cells all maps
    between them, and 2-cells one cell for every ordered pair of parallel
    maps (anything three-dimensional would be degenerate).  Identity
    2-cells are the diagonal pairs.
    """
    if max_size > 3:
        raise SpaceTooLarge("set sizes above 3 produce unreasonably many map pairs")
    if max_size < 1:
        raise GraphError("need at least one set")
    sizes = list(range(1, max_size + 1))

    maps = []
    map_index = {}
    for a_idx, a in enumerate(sizes):
        for b_idx, b in enumerate(sizes):
            for f in itertools.product(range(b), repeat=a):
                map_index[(a_idx, b_idx, f)] = len(maps)
                maps.append((a_idx, b_idx, f))

    cells2 = []
    for f_idx, (a, b, f) in enumerate(maps):
        for g_idx, (a2, b2, g) in enumerate(maps):
            if (a, b) == (a2, b2):
                cells2.append((f_idx, g_idx))
    cell2_index = {pair: i for i, pair in enumerate(cells2)}

    src = [[0] * len(sizes), [m[0] for m in maps], [p[0] for p in cells2]]
    tgt = [[0] * len(sizes), [m[1] for m in maps], [p[1] for p in cells2]]
    idn0 = [map_index[(i, i, tuple(range(k)))] for i, k in enumerate(sizes)]
    idn1 = [cell2_index[(f_idx, f_idx)] for f_idx in range(len(maps))]
    return NGraph(2, StructureTail(1, (0, 0)), src, tgt, idn=[idn0, idn1],
                  labels=[[str(k) for k in sizes],
                          [str(m[2]) for m in maps],
                          [f"{p[0]}=>{p[1]}" for p in cells2]])
