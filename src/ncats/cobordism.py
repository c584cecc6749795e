"""One-dimensional cobordisms as sign-compatible matchings, plus the
sets-and-maps carrier.

An object is a finite sequence of oriented points, written as +1/-1.  A
cobordism between two such boundaries is a compact 1-manifold, which up to
boundary-fixing diffeomorphism is nothing but a perfect matching on the
reversed source together with the target: each strand joins one inflow and
one outflow point.  Gluing two diagrams along a shared boundary follows
strands through it; any closed loops that appear are discarded, which keeps
hom-sets finite and costs neither units nor associativity.

``MatchDiagram`` keeps the public form, (side, index) points; it also holds
its matching as an involution on point ids 0..s+t-1, source points first,
and gluing follows strands on those integers.

``build_cob_truncation`` packages everything below a point budget as an
ordinary carrier-plus-table so the generic checkers can judge it; nothing
here certifies itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import GraphError, NGraph, SpaceTooLarge, StructureTail, _sequence
from .structures import AxiomFlags, CategoryStructure

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


def _check_signs(signs: tuple[int, ...]) -> tuple[int, ...]:
    if not _sequence(signs):
        raise GraphError(f"signs {signs!r} are not a list of +1 and -1")
    for x in signs:
        if type(x) is not int or x not in (1, -1):
            raise GraphError(f"orientation sign {x!r} is not +1 or -1")
    return signs


def _point_id(point, s: int, t: int) -> int | None:
    """Id of a (side, index) point, source points 0..s-1 first, then the
    target's s..s+t-1; None for anything that is not one of them."""
    if type(point) is tuple and len(point) == 2:
        side, i = point
        if type(side) is int and type(i) is int:
            if side == SOURCE_SIDE and 0 <= i < s:
                return i
            if side == TARGET_SIDE and 0 <= i < t:
                return s + i
    return None


def _point(p: int, s: int) -> tuple[int, int]:
    return (SOURCE_SIDE, p) if p < s else (TARGET_SIDE, p - s)


@dataclass(frozen=True)
class MatchDiagram:
    """A cobordism: perfect matching on reversed-source plus target.

    Points are (side, index) with side 0 the source and side 1 the target.
    The pairing is stored sorted pairwise and overall, so equality of
    diagrams is equality of the field values.  Construction also keeps the
    matching as an involution on point ids, source points first, which is
    what gluing reads.
    """

    source: tuple[int, ...]
    target: tuple[int, ...]
    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __post_init__(self):
        source, target = tuple(_check_signs(self.source)), tuple(_check_signs(self.target))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        s, t = len(source), len(target)
        if not _sequence(self.pairs):
            raise GraphError(f"pairs {self.pairs!r} are not a list of strands")
        # every point is checked before any is sorted
        for strand in self.pairs:
            ends = {_point_id(p, s, t) for p in strand} if _sequence(strand) and len(strand) == 2 else {None}
            if None in ends or len(ends) < 2:
                raise GraphError(f"bad strand {strand!r}")
        pairs = tuple(sorted(tuple(sorted(p)) for p in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        signs = reverse_orientation(source) + target
        inv = [-1] * (s + t)
        perfect = True
        for p, q in pairs:
            a, b = _point_id(p, s, t), _point_id(q, s, t)
            if signs[a] + signs[b] != 0:
                raise GraphError(f"strand {p} -- {q} is not orientation compatible")
            perfect = perfect and inv[a] < 0 and inv[b] < 0
            inv[a], inv[b] = b, a
        if not perfect or -1 in inv:
            raise GraphError("pairing is not a perfect matching")
        object.__setattr__(self, "_inv", tuple(inv))

    def __str__(self):
        strands = " ".join(f"{p[0]}.{p[1]}-{q[0]}.{q[1]}" for p, q in self.pairs)
        return f"{format_signs(self.source)}=>{format_signs(self.target)} [{strands}]"


def make_cylinder(signs: tuple[int, ...]) -> MatchDiagram:
    signs = tuple(signs)
    return MatchDiagram(signs, signs, tuple(
        ((SOURCE_SIDE, i), (TARGET_SIDE, i)) for i in range(len(signs))))


def _compose(m: tuple[int, ...], n: tuple[int, ...], s: int, t: int) -> tuple[int, ...]:
    """The involution of M-then-N from those of M, with s source and t target
    points, and of N, whose t source points are M's target.

    Each strand is followed from an outer point through the shared points
    until it leaves; closed loops never touch an outer point and drop out.
    """
    u = len(n) - t
    out = [-1] * (s + u)
    for start in range(s + u):
        if out[start] >= 0:
            continue
        if start < s:
            q, in_m = m[start], True
        else:
            q, in_m = n[start - s + t], False
        while True:
            if in_m:
                if q < s:
                    break
                q, in_m = n[q - s], False
            else:
                if q >= t:
                    q += s - t
                    break
                q, in_m = m[q + s], True
        out[start], out[q] = q, start
    return tuple(out)


def glue(M: MatchDiagram, N: MatchDiagram) -> MatchDiagram:
    """Compose by strand-following through the shared boundary.

    Interior loops (strands that never reach an outer boundary) are
    dropped.
    """
    if M.target != N.source:
        raise BoundaryMismatch(
            f"cannot glue {format_signs(M.target)} onto {format_signs(N.source)}")
    s = len(M.source)
    inv = _compose(M._inv, N._inv, s, len(M.target))
    return MatchDiagram(M.source, N.target, tuple(
        (_point(p, s), _point(q, s)) for p, q in enumerate(inv) if p < q))


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
    source, target = tuple(_check_signs(source)), tuple(_check_signs(target))
    s = len(source)
    signs = reverse_orientation(source) + target
    plus = [_point(p, s) for p, x in enumerate(signs) if x > 0]
    minus = [_point(p, s) for p, x in enumerate(signs) if x < 0]
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

    The table is computed on involutions, not diagrams: for each arrow and
    each arrow starting at its target, in cell order, the strands of the two
    involutions are followed through the shared points and the composite is
    looked up by (source, target, involution) among the listed arrows.  No
    diagram is built per entry.  Budget 4 (2107 arrows, 241,677 entries)
    builds in about 0.7 s, and ``ncats gen cob --max-points 4`` takes
    1.2-1.4 s, on a shared 2-vCPU x86-64 host under Python 3.11.
    """
    if max_points < 0:
        raise GraphError("need a nonnegative point budget")
    if max_points > 4:
        raise SpaceTooLarge("point budgets above 4 produce unreasonably large tables")
    objects = all_boundaries(max_points)
    arrows = []
    ends = []                        # (source, target) object ids per arrow
    homs = [[] for _ in objects]     # per source: (target, arrow ids) by target
    index = {}                       # (source, target) -> involution -> arrow id
    for a, A in enumerate(objects):
        for c, C in enumerate(objects):
            ds = all_diagrams(A, C)
            if ds:
                ids = range(len(arrows), len(arrows) + len(ds))
                homs[a].append((c, ids))
                index[a, c] = {d._inv: i for i, d in zip(ids, ds)}
                arrows.extend(ds)
                ends.extend([(a, c)] * len(ds))

    idn = [[index[a, a][make_cylinder(A)._inv] for a, A in enumerate(objects)]]
    graph = NGraph(1, StructureTail(1, (0, 0)),
                   [[0] * len(objects), [a for a, _ in ends]],
                   [[0] * len(objects), [c for _, c in ends]], idn,
                   labels=[[format_signs(A) or "()" for A in objects],
                           [str(d) for d in arrows]])

    invs = [d._inv for d in arrows]
    entries = {}
    for i, d in enumerate(arrows):
        a, b = ends[i]
        m, s, t = invs[i], len(d.source), len(d.target)
        for c, ids in homs[b]:
            hom = index[a, c]
            for j in ids:
                entries[i, j] = hom[_compose(m, invs[j], s, t)]
    structure = CategoryStructure(
        graph, tables={(1, 0): entries}, flags=AxiomFlags(global_=True, unital=True, associative=True))
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
