"""Composition tables over an n-graph and the axiom checkers that decide
whether a candidate assignment is a category structure.

A table (d, j) composes d-cells along their dimension-j boundaries, and
one rule covers every table.  Its keys are the pairs (a, b) whose
j-boundaries meet (``table_keys``).  A composite runs from src a to tgt b
when d = j+1; otherwise its source and target are the (d-1, j) composites
of the two sources and of the two targets (``composite_type``).  The
vertical table at level j is (j+1, j), the horizontal one (j+2, j);
``table_place`` alone decides which names a carrier can host.  A structure
keeps its tables once, as the entry dicts ``S.tables`` named (d, j), taken
as ``tables=``; ``CompTable`` lists and the ``vtables``/``htables`` views
serve only the benchmark harness.  Keys are diagrammatic: (a, b) is a, then b.

Inside the core a table is kept as rows, one list per d-cell a with one
slot per cell that can follow it, None where the entry is absent; read
one after another they run in ``table_keys`` order.  Every scan reads a
family of rows.  ``row_family`` converts entry dicts to rows, for the
checkers, ``inverses`` and ``enumeration.canonical_form``, once per
call; the enumeration keeps nothing but rows, and ``structure_of_rows``
turns them back into the representatives it keeps.

Checkers never raise on a bad table; they return a report whose checks
carry one verdict each (pass, fail, or not-applicable) plus explicit
counterexamples, so a caller can tell exactly which axiom broke and where.
``laws`` alone decides which axiom applies to which table under which
flags.  The enumeration's record verdict runs its rows; every checker
reports them, each row as one check built by ``_check``.  A law is its
row, its scan and its ``_SHAPES`` entry, whose order the record verdict
runs.  Interchange's instances, the middle-four quadruples, are listed once
per carrier (``_exchange_places``); its scan and the enumeration's watches
both read that listing.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
from itertools import chain, compress, filterfalse, repeat
from operator import is_, is_not
from types import MappingProxyType

from .graphs import (
    SOURCE,
    TARGET,
    BadLevel,
    CellId,
    NGraph,
    _integer,
    _sequence,
    boundary_fibers,
    boundary_map,
    hom_buckets,
    is_monoidal_carrier,
    iterated_boundary,  # noqa: F401 - part of this module's namespace; perfbench's tracer rebinds it
    per_carrier,
)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


class StructureError(Exception):
    """Base class for errors raised while assembling or querying tables."""


class NoTableAtLevel(StructureError):
    pass


class MissingTables(StructureError):
    pass


class NotComposable(StructureError):
    pass


class NotDefined(StructureError):
    pass


class UnitsRequired(StructureError):
    pass


@dataclass(frozen=True)
class AxiomFlags:
    """One switch per axiom flag, named in ``FLAG_NAMES``: ``global_`` as ``global``."""

    global_: bool = False
    unital: bool = False
    associative: bool = False
    interchange: bool = False
    groupoid: bool = False

    @classmethod
    def from_names(cls, names) -> "AxiomFlags":
        names = set(names)
        unknown = names - set(FLAG_NAMES)
        if unknown:
            raise ValueError(f"unknown flags: {sorted(unknown)}")
        return cls(*(name in names for name in FLAG_NAMES))

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, on in zip(FLAG_NAMES, astuple(self)) if on)


FLAG_NAMES = tuple(f.name.rstrip("_") for f in fields(AxiomFlags))


@dataclass
class CompTable:
    """One table of the two-list adapter: (a, b) -> a-then-b at one level."""

    level: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)


HCompTable = CompTable


@dataclass
class CocompTable:
    """Cocomposition witnesses: cell -> (middle, left piece, right piece)."""

    level: int
    entries: dict[int, tuple[int, int, int]] = field(default_factory=dict)


@dataclass
class Counterexample:
    kind: str
    cells: tuple[CellId, ...]
    expected: object = None
    actual: object = None


@dataclass
class AxiomCheck:
    axiom: str
    level: int | None
    verdict: str
    counterexamples: list[Counterexample] = field(default_factory=list)
    asymmetric: list[Counterexample] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass
class AxiomReport:
    checks: list[AxiomCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.verdict != FAIL for c in self.checks)

    def merged(self, other: "AxiomReport") -> "AxiomReport":
        return AxiomReport(self.checks + other.checks)

    def find(self, axiom: str, level=None) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom and (level is None or c.level == level):
                return c
        raise KeyError(f"no check for {axiom!r} at level {level!r}")


def _single(axiom, level, bad) -> AxiomReport:
    """One check, failing exactly when ``bad`` lists a counterexample."""
    return AxiomReport([AxiomCheck(axiom, level, FAIL if bad else PASS, bad)])


@per_carrier
def table_keys(G: NGraph, d: int, j: int):
    """The keys of table (d, j), lexicographically, as a tuple computed once
    per carrier: the pairs (a, b) of d-cells with tgt_j a == src_j b."""
    after = boundary_fibers(G, d, j, SOURCE)
    return tuple((a, b) for a, t in enumerate(boundary_map(G, d, j, TARGET))
                 for b in after.get(t, ()))


@per_carrier
def composite_type(G: NGraph, d: int, j: int):
    """The typing rule of table (d, j), per key, computed once per carrier.
    At d = j+1 the composite of (a, b) runs from src a to tgt b, and the key
    maps to that pair of (d-1)-cells.  Above that its source and target are
    the (d-1, j) composites of the two sources and of the two targets: the
    key maps to the keys ((src a, src b), (tgt a, tgt b)) of table (d-1, j),
    whose entries as they stand are its type, undecided while one is absent.
    """
    smap, tmap = G.src_map(d), G.tgt_map(d)
    if d == j + 1:
        return MappingProxyType({(a, b): (smap[a], tmap[b]) for a, b in table_keys(G, d, j)})
    return MappingProxyType({(a, b): ((smap[a], smap[b]), (tmap[a], tmap[b])) for a, b in table_keys(G, d, j)})


def composable(G: NGraph, j: int, a: int, b: int) -> bool:
    """Whether (a, b) is a key of the vertical table at level j; BadLevel
    for a level outside -1..n-1, GraphError for an index with no cell."""
    if not (_integer(j) and -1 <= j < G.n):
        raise BadLevel(f"vertical level {j} outside -1..{G.n - 1}")
    d = j + 1
    return G.tgt_map(d)[G.index(CellId(d, a))] == G.src_map(d)[G.index(CellId(d, b))]


@per_carrier
def neighbours(G: NGraph, j: int, side: str):
    """For each (j+1)-cell a, ascending, the cells whose ``side`` end meets
    a at level j: with SOURCE the cells that can follow a, with TARGET those
    that can precede it."""
    d = j + 1
    fibers = boundary_fibers(G, d, j, side)
    ends = G.tgt_map(d) if side == SOURCE else G.src_map(d)
    return tuple(fibers.get(e, ()) for e in ends)


def composable_pairs(G: NGraph, j: int):
    """The keys of the vertical table at level j, the table (j+1, j)."""
    return table_keys(G, j + 1, j)


def composable_triples(G: NGraph, j: int):
    """All composable level-j triples, lexicographically.  Rebuilt on every
    call: the list grows with the cube of the cell count."""
    after = neighbours(G, j, SOURCE)
    return [(a, b, c) for a, nxt in enumerate(after) for b in nxt for c in after[b]]


def h_composable_pairs(G: NGraph, j: int):
    """The keys of the horizontal table at level j, the table (j+2, j)."""
    return table_keys(G, j + 2, j)


@per_carrier
def _exchange_places(G: NGraph, j: int):
    """The middle-four quadruples of interchange at level j, listed once
    per carrier: each key (a, a2) of V = (j+2, j+1), in key order, as
    (a, a2, column of a2 in V, partners), its partners the keys (b, b2) of
    V, in order, with (a, b) and (a2, b2) keys of H = (j+2, j), as (b, b2,
    columns of b and b2 in H, column of b2 in V).  Keys whose a share a
    j-target share one partner tuple, so the listing grows with the number
    of keys, not of quadruples."""
    d = j + 2
    pv, ph = fiber_pos(G, d, j + 1), fiber_pos(G, d, j)
    outer_s, outer_t = boundary_map(G, d, j, SOURCE), boundary_map(G, d, j, TARGET)
    vkeys = table_keys(G, d, j + 1)
    by_outer_src = {}
    for b, b2 in vkeys:
        by_outer_src.setdefault(outer_s[b], []).append((b, b2, ph[b], ph[b2], pv[b2]))
    by_outer_src = {x: tuple(partners) for x, partners in by_outer_src.items()}
    # by globularity the two cells of a level-(j+1) key share their
    # dimension-j boundaries, so (a2, b2) meets exactly when (a, b) does
    return tuple((a, a2, pv[a2], by_outer_src.get(outer_t[a], ())) for a, a2 in vkeys)


class CategoryStructure:
    """A carrier plus its composition tables, kept once as ``tables``: entry
    dicts named (d, j), the (j+1, j) by ascending level, then the (j+2, j).

    They come as ``tables=`` and may be partial (the ``vtables``/``htables``
    lists and views are the benchmark harness's adapter); the flags say
    which axioms the candidate claims.  Construction files each entry dict
    uncopied and rejects keys that are not composable and tables at levels
    the carrier cannot host, but judges no axiom; that is the checkers' job.
    """

    def __init__(self, graph: NGraph, vtables=(), htables=(), flags: AxiomFlags = AxiomFlags(), *, tables=None):
        if tables is None:
            tables = _named(vtables, htables)
        elif vtables or htables:
            raise TypeError("tables come as two lists or as tables=, not both")
        self.graph, self.flags = graph, flags
        self.tables: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
        # file each table under the name it came with: the structures a search keeps share those tuples
        for name in sorted(tables, key=lambda name: table_place(graph, name)):
            _check_table(graph, name, tables[name])
            self.tables[name] = tables[name]

    # the adapter's views: the tables (j+1, j) and (j+2, j) by level j, wrapping the same entry dicts
    vtables = property(lambda self: {j: CompTable(j, e) for (d, j), e in self.tables.items() if d == j + 1})
    htables = property(lambda self: {j: CompTable(j, e) for (d, j), e in self.tables.items() if d == j + 2})

    def __eq__(self, other):
        return isinstance(other, CategoryStructure) and (
            self.graph == other.graph and self.flags == other.flags and self.tables == other.tables)

    def __repr__(self):
        vs, hs = ({j: len(entries) for (d, j), entries in self.tables.items() if d - j == offset}
                  for offset in (1, 2))
        return f"CategoryStructure(vertical {vs}, horizontal {hs}, flags {self.flags.names()})"


# a table (j + offset, j) by offset: its kind, its entries' prefix and what an unmet key lacks
_KINDS = {1: ("vertical", "", "is not composable"), 2: ("horizontal", "horizontal ", "shares no boundary")}


def _check_table(G, name, entries):
    """Refuse an entry of the table ``name``, which ``G`` can host, that is
    not a composable key of cell indices with a cell index as its value."""
    d, j = name
    _kind, prefix, unmet = _KINDS[d - j]
    cnt = G.count(d)
    tmap, smap = boundary_map(G, d, j, TARGET), boundary_map(G, d, j, SOURCE)
    for key, v in entries.items():
        a, b = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
        # plain ints pass at once; anything else must pass io.parse's test
        if not (type(a) is type(b) is type(v) is int or all(map(_integer, (a, b, v)))):
            raise StructureError(f"{prefix}level {j} entry {key!r} -> {v!r} is not made of cell indices")
        if not (0 <= a < cnt and 0 <= b < cnt and 0 <= v < cnt):
            raise StructureError(f"{prefix}level {j} entry ({a}, {b}) -> {v} out of range")
        if tmap[a] != smap[b]:
            raise NotComposable(f"{prefix}level {j} key ({a}, {b}) {unmet}")


def _named(vtables, htables):
    """The family of entry dicts named (d, j) that lists (or dicts by level)
    of vertical and horizontal ``CompTable`` give, uncopied."""
    tables = {}
    for offset, given in ((1, vtables), (2, htables)):
        kind = _KINDS[offset][0]
        for t in given.values() if isinstance(given, dict) else given:
            if not _integer(t.level):
                raise StructureError(f"{kind} level {t.level!r} is not an integer")
            if (t.level + offset, t.level) in tables:
                raise StructureError(f"duplicate {kind} table at level {t.level}")
            tables[t.level + offset, t.level] = t.entries
    return tables


def table_place(G: NGraph, name):
    """(d - j, j), the place in ``S.tables`` of a table (d, j) that ``G``
    can host, whose kind is ``_KINDS[d - j]``; StructureError for a name of
    no kind, NoTableAtLevel for a level the kind or the carrier rules out."""
    d, j = name if isinstance(name, tuple) and len(name) == 2 else (None, None)
    if not ((type(d) is type(j) is int or _integer(d) and _integer(j)) and d - j in _KINDS):
        raise StructureError(f"table name {name!r} is not (j+1, j) or (j+2, j) for an integer level j")
    offset = d - j
    if not offset - 2 <= j <= G.n - offset:
        raise NoTableAtLevel(f"{_KINDS[offset][0]} level {j} outside {offset - 2}..{G.n - offset}")
    if j == -1 and not is_monoidal_carrier(G):
        raise NoTableAtLevel("level -1 table needs a single (-1)-cell")
    return offset, j


def _vertical_cells(S: CategoryStructure, j: int, *cells: CellId):
    """Refuse a query of the vertical table at level j of ``S`` about
    ``cells`` unless ``S`` has that table and each cell is one of the
    carrier's (j+1)-cells, the cells it composes."""
    d = j + 1
    if (d, j) not in S.tables:
        raise NoTableAtLevel(f"no vertical table at level {j}")
    for z in cells:
        if z.dim != d:
            raise NotComposable(f"level {j} composes dimension-{d} cells, got {z}")
        S.graph.index(z)


def compose(S: CategoryStructure, a: CellId, b: CellId, j: int) -> CellId:
    """Table lookup for "a then b" at level j, raising when impossible."""
    _vertical_cells(S, j, a, b)
    d = j + 1
    if S.graph.tgt_map(d)[a.index] != S.graph.src_map(d)[b.index]:
        raise NotComposable(f"{a} and {b} do not meet end to end")
    try:
        return CellId(d, S.tables[d, j][a.index, b.index])
    except KeyError:
        raise NotDefined(f"level {j} table has no entry for ({a}, {b})") from None


# -- the row layout ----------------------------------------------------------
#
# The rows of table (d, j): one list per d-cell a, with one slot per cell b
# that can follow a, the cells of ``boundary_fibers(G, d, j, SOURCE)`` at
# a's j-target, b at its place there (``fiber_pos``), None where the entry
# is absent.  Read row after row, the slots run in ``table_keys`` order,
# one per key, as the canonical gather and the global scan rely on.


@per_carrier
def fiber_pos(G: NGraph, d: int, j: int):
    """Each d-cell's place in its source fiber at level j: its column in the
    rows of table (d, j)."""
    pos = [0] * G.count(d)
    for cells in boundary_fibers(G, d, j, SOURCE).values():
        for i, c in enumerate(cells):
            pos[c] = i
    return tuple(pos)


@per_carrier
def _row_slices(G: NGraph, d: int, j: int):
    """For each d-cell a, the slice of ``table_keys(G, d, j)`` that row a
    holds: the keys (a, b)."""
    fibers, start, out = boundary_fibers(G, d, j, SOURCE), 0, []
    for t in boundary_map(G, d, j, TARGET):
        stop = start + len(fibers.get(t, ()))
        out.append(slice(start, stop))
        start = stop
    return tuple(out)


@per_carrier
def _typing_rule(G: NGraph, d: int, j: int):
    """``composite_type`` as the rows read it: (a, b, x, y) per key (a, b)
    of table (d, j), in key order.  At d = j+1, (x, y) is the type of the
    composite; above it x and y are the slots, in the rows of table
    (d-1, j) read one after another, of the two keys there whose entries
    are that type."""
    types = composite_type(G, d, j)
    if d == j + 1:
        return tuple((a, b, x, y) for (a, b), (x, y) in types.items())
    starts, pos = [s.start for s in _row_slices(G, d - 1, j)], fiber_pos(G, d - 1, j)
    return tuple((a, b, starts[sa] + pos[sb], starts[ta] + pos[tb])
                 for (a, b), ((sa, sb), (ta, tb)) in types.items())


def empty_rows(G: NGraph, d: int, j: int):
    """The rows of table (d, j) with every entry absent."""
    return [[None] * (s.stop - s.start) for s in _row_slices(G, d, j)]


def row_family(G: NGraph, tables):
    """The rows of each table of ``tables``, entry dicts named (d, j) whose
    keys are keys of their tables, as the constructor checks them."""
    out = {}
    for (d, j), entries in tables.items():
        flat = list(map(entries.get, table_keys(G, d, j)))
        out[d, j] = list(map(flat.__getitem__, _row_slices(G, d, j)))
    return out


def structure_of_rows(G: NGraph, rows, flags: AxiomFlags, keys):
    """The inverse of ``row_family``: the structure whose tables, named in
    ``table_place`` order with ``keys`` their ``table_keys``, ``rows`` holds,
    unchecked, as rows that pass the record verdict pass the constructor."""
    S = CategoryStructure.__new__(CategoryStructure)
    S.graph, S.flags, S.tables = G, flags, {}
    for name, R in rows.items():
        flat = [*chain.from_iterable(R)]
        pairs = zip(keys[name], flat)
        S.tables[name] = dict(compress(pairs, map(is_not, flat, repeat(None))) if None in flat else pairs)
    return S


# -- one integer scan per axiom ---------------------------------------------
#
# Each scan reads a row family named (d, j) and yields one integer tuple per
# violation.  The checkers below turn those tuples into counterexamples at
# the report edge.  A value may be mistyped, so a scan reads an entry at a
# key made of values only where the two cells meet, as a key of the table
# must.  Typing, associativity and interchange also have a first-violation
# form (``FIRST_VIOLATION``), which the record verdict runs: built once per
# search from the scan's listing, it says whether a family breaks the law,
# stopping at the first violation, and the latter two read values as typed.

def typing_scan(G: NGraph, d: int, j: int, tables):
    """Entries of table (d, j) in the family ``tables`` whose value does not
    have the type of their composite (see ``composite_type``), as
    (a, b, v, want) in key order; ``want`` is that type, None when it is
    undecided."""
    smap, tmap = G.src_map(d), G.tgt_map(d)
    slots = zip(_typing_rule(G, d, j), chain.from_iterable(tables[d, j]))
    if d == j + 1:
        for (a, b, s, t), v in slots:
            if v is not None and (s != smap[v] or t != tmap[v]):
                yield a, b, v, (s, t)
        return
    below = tables.get((d - 1, j))
    flat = [*chain.from_iterable(below)] if below is not None else [None] * len(table_keys(G, d - 1, j))
    for (a, b, si, ti), v in slots:
        if v is None:
            continue
        s, t = flat[si], flat[ti]
        if s != smap[v] or t != tmap[v]:
            yield a, b, v, None if s is None or t is None else (s, t)


def typing_violated(G: NGraph, d: int, j: int):
    """``typing_scan(G, d, j, tables)``'s first-violation form, a function
    of ``tables``, on a family that holds every table the scan reads.  It
    reads ``_typing_rule`` as (a, column of b, x, y), only at the keys
    (a, b) whose type may not hold the value: above d = j+1 every key, at
    it those whose type is not every d-cell's.  Its x and y index the type
    in ``flat``: the (d-1)-cells at d = j+1, above it the table below."""
    smap, tmap, pos, name = G.src_map(d), G.tgt_map(d), fiber_pos(G, d, j), (d, j)
    slots = [(a, pos[b], x, y) for a, b, x, y in _typing_rule(G, d, j)
             if d > j + 1 or len(hom_buckets(G, d).get((x, y), ())) < G.count(d)]
    cells = range(G.count(d - 1))

    def violated(tables) -> bool:
        R = tables[name]
        flat = [*chain.from_iterable(tables[d - 1, j])] if d > j + 1 else cells
        for a, col, x, y in slots:
            v = R[a][col]
            if v is not None and (flat[x] != smap[v] or flat[y] != tmap[v]):
                return True
        return False
    return violated


def global_scan(keys, name, tables):
    """The keys, in order, that have no entry in the table ``name``."""
    return compress(keys, map(is_, chain.from_iterable(tables[name]), repeat(None)))


def units_scan(G: NGraph, j: int, total: bool, tables):
    """Unit-law violations in table (j+1, j), j >= 0, cell by cell, as
    (a, side, key, got): side 0 for the left unit key (idn(src a), a) and 1
    for the right one (a, idn(tgt a)), ``got`` the entry there.  A missing
    entry (``got`` None) is a violation only when ``total``."""
    R, pos = tables[j + 1, j], fiber_pos(G, j + 1, j)
    idn = G.idn_map(j)
    smap, tmap = G.src_map(j + 1), G.tgt_map(j + 1)
    for a in range(G.count(j + 1)):
        x, y = idn[smap[a]], idn[tmap[a]]
        got = R[x][pos[a]]
        if total if got is None else got != a:
            yield a, 0, (x, a), got
        got = R[a][pos[y]]
        if total if got is None else got != a:
            yield a, 1, (a, y), got


def assoc_scan(G: NGraph, j: int, tables, lopsided):
    """Composable triples of table (j+1, j) whose two bracketings are both
    defined and differ, as (a, b, c, left, right), lexicographically; the
    scan also appends to the list ``lopsided`` each triple, as (a, b, c),
    with exactly one bracketing defined."""
    after = neighbours(G, j, SOURCE)
    R, pos = tables[j + 1, j], fiber_pos(G, j + 1, j)
    smap, tmap = G.src_map(j + 1), G.tgt_map(j + 1)
    for a, (nxt, Ra) in enumerate(zip(after, R)):
        ta = tmap[a]
        for b, ab in zip(nxt, Ra):
            # row ab, where ab ends as b does, holds (ab, c) in the column of (b, c)
            lefts = R[ab] if ab is not None and tmap[ab] == tmap[b] else repeat(None)
            for c, bc, left in zip(after[b], R[b], lefts):
                right = Ra[pos[bc]] if bc is not None and smap[bc] == ta else None
                if left is not None and right is not None:
                    if left != right:
                        yield a, b, c, left, right
                elif left is not None or right is not None:
                    lopsided.append((a, b, c))


def assoc_violated(G: NGraph, j: int):
    """``assoc_scan(G, j, tables, lopsided)``'s first-violation form on
    typed rows, a function of ``tables``."""
    after, pos, name = neighbours(G, j, SOURCE), fiber_pos(G, j + 1, j), (j + 1, j)

    def violated(tables) -> bool:
        R = tables[name]
        for Ra, nxt in zip(R, after):
            for b, ab in zip(nxt, Ra):
                if ab is not None:
                    for bc, left in zip(R[b], R[ab]):
                        if left is not None and bc is not None:
                            right = Ra[pos[bc]]
                            if right is not None and right != left:
                                return True
        return False
    return violated


def interchange_scan(G: NGraph, j: int, tables, lopsided):
    """Middle-four exchange between the vertical table (j+2, j+1) and the
    horizontal table (j+2, j): the quadruples (a, a2, b, b2), in
    ``_exchange_places`` order, whose four inner composites and both
    outer ones are defined and disagree, as (a, a2, b, b2, lhs, rhs); the
    scan also appends to the list ``lopsided`` each quadruple with only one
    outer composite defined."""
    d = j + 2
    V, H = tables[d, j + 1], tables[d, j]
    pv, ph = fiber_pos(G, d, j + 1), fiber_pos(G, d, j)
    vs, vt = G.src_map(d), G.tgt_map(d)
    hs, ht = boundary_map(G, d, j, SOURCE), boundary_map(G, d, j, TARGET)
    for a, a2, ia2, partners in _exchange_places(G, j):
        va = V[a][ia2]
        if va is None:
            continue
        Ha, Ha2, Hva, tva = H[a], H[a2], H[va], ht[va]
        for b, b2, ib, ib2, vb2 in partners:
            vb, hab, hab2 = V[b][vb2], Ha[ib], Ha2[ib2]
            if vb is None or hab is None or hab2 is None:
                continue
            lhs = Hva[ph[vb]] if tva == hs[vb] else None
            rhs = V[hab][pv[hab2]] if vt[hab] == vs[hab2] else None
            if lhs is not None and rhs is not None:
                if lhs != rhs:
                    yield a, a2, b, b2, lhs, rhs
            elif lhs is not None or rhs is not None:
                lopsided.append((a, a2, b, b2))


def interchange_violated(G: NGraph, j: int):
    """``interchange_scan(G, j, tables, lopsided)``'s first-violation form
    on typed rows, a function of ``tables``."""
    d = j + 2
    places, pv, ph = _exchange_places(G, j), fiber_pos(G, d, j + 1), fiber_pos(G, d, j)

    def violated(tables) -> bool:
        V, H = tables[d, j + 1], tables[d, j]
        for a, a2, ia2, partners in places:
            va = V[a][ia2]
            if va is not None:
                Ha, Ha2, Hva = H[a], H[a2], H[va]
                for b, b2, ib, ib2, vb2 in partners:
                    vb, hab, hab2 = V[b][vb2], Ha[ib], Ha2[ib2]
                    if vb is not None and hab is not None and hab2 is not None:
                        lhs, rhs = Hva[ph[vb]], V[hab][pv[hab2]]
                        if lhs is not None and rhs is not None and lhs != rhs:
                            return True
        return False
    return violated


def _inverses(G: NGraph, j: int, tables, a: int):
    """The two-sided inverses of the (j+1)-cell ``a`` in ``tables``, ascending."""
    R, pos = tables[j + 1, j], fiber_pos(G, j + 1, j)
    idn = G.idn_map(j)
    x, y = G.src_map(j + 1)[a], G.tgt_map(j + 1)[a]
    Ra, ia = R[a], pos[a]
    for b in hom_buckets(G, j + 1).get((y, x), ()):
        if Ra[pos[b]] == idn[x] and R[b][ia] == idn[y]:
            yield b


def groupoid_scan(G: NGraph, j: int, tables):
    """The (j+1)-cells, ascending, with no two-sided inverse in table
    (j+1, j); meaningful once the unit law holds there."""
    for a in range(G.count(j + 1)):
        if next(_inverses(G, j, tables, a), None) is None:
            yield a


FIRST_VIOLATION = {typing_scan: typing_violated, assoc_scan: assoc_violated,
                   interchange_scan: interchange_violated}


def laws(G: NGraph, flags: AxiomFlags, names) -> list[tuple]:
    """The laws ``flags`` ask of tables named ``names`` (in ``S.tables``
    order), one row (axiom, level, reads, scan, args) per axiom and table,
    in ``check_category``'s report order: ``scan(*args, tables)`` yields the
    violations in the family ``tables``, reading the tables named ``reads``.
    The unit row is also the groupoid precondition.  ``scan`` is None where
    the axiom does not apply, and ``args`` then holds the note that says why:
    units and inverses at level -1, interchange without the table
    (j+2, j+1) or, level None, without any (j+2, j)."""
    unitless = (None, ("no identity section below dimension 0",))
    rows = []
    for d, j in names:
        # the type of a composite in a table (j+2, j) reads the table below
        reads = {(d, j), (d - 1, j)} if d > j + 1 else {(d, j)}
        rows.append(("typing" if d == j + 1 else "typing-horizontal", j, frozenset(reads), typing_scan, (G, d, j)))
    for j in sorted({j for _d, j in names}):
        if flags.global_:
            rows += [("global" if d == j + 1 else "global-horizontal", j, frozenset({(d, j)}),
                      global_scan, (table_keys(G, d, j), (d, j))) for d, i in names if i == j]
        if (j + 1, j) not in names:
            continue
        table = frozenset({(j + 1, j)})
        if flags.unital or flags.groupoid:
            rows.append(("units", j, table, *((units_scan, (G, j, flags.global_)) if j >= 0 else unitless)))
        if flags.associative:
            rows.append(("associativity", j, table, assoc_scan, (G, j)))
        if flags.groupoid:
            rows.append(("groupoid", j, table, *((groupoid_scan, (G, j)) if j >= 0 else unitless)))
    if flags.interchange:
        horizontal = [j for d, j in names if d == j + 2]
        for j in horizontal:
            run = ((interchange_scan, (G, j)) if (j + 2, j + 1) in names
                   else (None, (f"no vertical table at level {j + 1}",)))
            rows.append(("interchange", j, frozenset({(j + 2, j), (j + 2, j + 1)}), *run))
        if not horizontal:
            rows.append(("interchange", None, frozenset(), None, ("no horizontal tables present",)))
    return rows


# -- the report edge: each row of ``laws`` as one check ---------------------
#
# A check lists its scan's violations as CellId counterexamples, in the
# ascending order of the violation tuples: key order, in which every scan
# but the typing one yields them already.

def _cells(d, xs):
    return tuple(CellId(d, x) for x in xs)


def _mistyped(G, d, x):
    a, b, v, want = x
    if want is None:
        return Counterexample("untypeable", _cells(d, (a, b)),
                              expected="vertical composite of the boundaries", actual=CellId(d, v))
    return Counterexample("typing", _cells(d, (a, b)), expected=_cells(d - 1, want), actual=CellId(d, v))


def _missing(G, d, key):
    return Counterexample("missing", _cells(d, key))


def _not_a_unit(G, d, x):
    a, side, key, got = x
    kind = ("unit-left", "unit-right")[side]
    if got is None:
        return Counterexample(kind + "-missing", _cells(d, key), expected=CellId(d, a))
    return Counterexample(kind, _cells(d, key), expected=CellId(d, a), actual=CellId(d, got))


def _no_inverse(G, d, a):
    idn = G.idn_map(d - 1)
    return Counterexample("no-inverse", (CellId(d, a),),
                          expected=_cells(d, (idn[G.src_map(d)[a]], idn[G.tgt_map(d)[a]])))


def _unequal(kind):
    """The counterexample of an equation whose violation lists its cells,
    then the values of its two sides."""
    return lambda G, d, x: Counterexample(kind, _cells(d, x[:-2]),
                                          expected=CellId(d, x[-2]), actual=CellId(d, x[-1]))


# axiom: (the dimension of its cells above the level, the counterexample of one violation,
# and, where the scan also collects the instances with one side undefined, what such an
# instance lacks), in the record verdict's order: most rejected records fail an early row
_SHAPES = {
    "typing": (1, _mistyped, None),
    "typing-horizontal": (2, _mistyped, None),
    "global": (1, _missing, None),
    "global-horizontal": (2, _missing, None),
    "units": (1, _not_a_unit, None),
    "groupoid": (1, _no_inverse, None),
    "associativity": (1, _unequal("associativity"), "both bracketings defined or neither"),
    "interchange": (2, _unequal("interchange"), "both evaluation orders defined or neither"),
}


def _check(G: NGraph, row, tables) -> AxiomCheck:
    """The check of one row of ``laws`` on the family ``tables``:
    not-applicable, with the row's note, where the row has no scan;
    otherwise the scan's violations, plus its lopsided instances as
    ``partiality-asymmetry`` where it collects them; partiality alone is
    not a violation."""
    axiom, j, _reads, scan, args = row
    if scan is None:
        return AxiomCheck(axiom, j, NOT_APPLICABLE, notes=list(args))
    offset, shape, lopsided_expected = _SHAPES[axiom]
    d, lopsided = j + offset, []
    found = scan(*args, tables, lopsided) if lopsided_expected else scan(*args, tables)
    bad = [shape(G, d, x) for x in sorted(found)]
    asymmetric = [Counterexample("partiality-asymmetry", _cells(d, x), expected=lopsided_expected)
                  for x in lopsided]
    return AxiomCheck(axiom, j, FAIL if bad else PASS, bad, asymmetric)


def _rows(S: CategoryStructure, names, flags: AxiomFlags, axioms) -> AxiomReport:
    """The checks of ``S`` from the rows of ``laws`` under ``flags`` on the
    tables ``names`` whose axiom is one of ``axioms``, on the rows of the
    tables they read."""
    G = S.graph
    rows = [row for row in laws(G, flags, names) if row[0] in axioms]
    reads = frozenset().union(*(row[2] for row in rows))
    tables = row_family(G, {name: entries for name, entries in S.tables.items() if name in reads})
    return AxiomReport([_check(G, row, tables) for row in rows])


def check_typing(S: CategoryStructure) -> AxiomReport:
    """Every entry must land in the hom-set its composite's type spans.

    Horizontal values are typed through the vertical table at the same
    level; a missing vertical composite makes the entry untypeable.
    """
    return _rows(S, S.tables, AxiomFlags(), ("typing", "typing-horizontal"))


def check_global(S: CategoryStructure, j: int) -> AxiomReport:
    """Totality at level j: every key of the vertical and of the horizontal
    table there, whichever ``S`` has, has an entry."""
    here = [(d, i) for d, i in S.tables if i == j]
    if not here:
        raise NoTableAtLevel(f"no table at level {j}")
    return _rows(S, here, AxiomFlags(global_=True), ("global", "global-horizontal"))


def check_units(S: CategoryStructure, j: int) -> AxiomReport:
    """Identity cells act as left and right units wherever the table is
    defined; under the global flag the unit entries must also exist.

    Level -1 is not applicable: there is no identity section below
    dimension 0, so the product of 0-cells carries no designated unit.
    """
    if j != -1 and (j + 1, j) not in S.tables:
        raise NoTableAtLevel(f"no vertical table at level {j}")
    return _rows(S, [(j + 1, j)], AxiomFlags(global_=S.flags.global_, unital=True), ("units",))


def check_associativity(S: CategoryStructure, j: int) -> AxiomReport:
    """Both bracketings of every composable triple agree when both are
    defined.  Triples where exactly one side is defined are collected
    separately; partiality alone is not a violation."""
    if (j + 1, j) not in S.tables:
        raise NoTableAtLevel(f"no vertical table at level {j}")
    return _rows(S, [(j + 1, j)], AxiomFlags(associative=True), ("associativity",))


def check_interchange(S: CategoryStructure, j: int) -> AxiomReport:
    """Middle-four exchange between vertical composition at level j+1 and
    horizontal composition at level j.

    For quadruples where the four inner composites and both outer ones are
    defined, the two evaluation orders must agree.  Quadruples where only
    one outer side is defined are collected separately.
    """
    if (j + 2, j + 1) not in S.tables or (j + 2, j) not in S.tables:
        raise MissingTables(f"interchange at level {j} needs the vertical table "
                            f"at level {j + 1} and the horizontal table at level {j}")
    return _rows(S, [(j + 2, j + 1), (j + 2, j)], AxiomFlags(interchange=True), ("interchange",))


def check_groupoid(S: CategoryStructure, j: int) -> AxiomReport:
    """Every cell must have a two-sided inverse against the identities.

    The unit law is a precondition; a failing unit check makes inversion
    meaningless, which is raised rather than reported.
    """
    if check_units(S, j).checks[0].verdict == FAIL:
        raise UnitsRequired(f"unit law fails at level {j}; inversion is undecidable")
    return _rows(S, [(j + 1, j)], AxiomFlags(groupoid=True), ("groupoid",))


def inverses(S: CategoryStructure, j: int, a: CellId) -> list[CellId]:
    """All two-sided inverses of ``a`` at level j (used to confirm that a
    passing groupoid check pins the inverse down uniquely)."""
    _vertical_cells(S, j, a)
    tables = row_family(S.graph, {(j + 1, j): S.tables[j + 1, j]})
    return [CellId(j + 1, b) for b in _inverses(S.graph, j, tables, a.index)]


def check_cocategory(G: NGraph, D: CocompTable) -> AxiomReport:
    """Typing of cocomposition: each witness splits a cell z: x -> y into
    pieces x -> w and w -> y through the chosen middle cell."""
    j = D.level
    if not (_integer(j) and 0 <= j <= G.n - 1):
        raise NoTableAtLevel(f"cocomposition level {j!r} outside 0..{G.n - 1}")
    d = j + 1
    smap, tmap = G.src_map(d), G.tgt_map(d)
    bad = []
    for z in sorted(filter(_integer, D.entries)) + list(filterfalse(_integer, D.entries)):
        witness = D.entries[z]
        w, p, q = witness if _sequence(witness) and len(witness) == 3 else (None, None, None)
        if not (all(map(_integer, (z, w, p, q)))
                and 0 <= z < G.count(d) and 0 <= p < G.count(d) and 0 <= q < G.count(d) and 0 <= w < G.count(j)):
            bad.append(Counterexample("co-range", (CellId(d, z),), actual=witness))
            continue
        x, y = smap[z], tmap[z]
        if smap[p] != x or tmap[p] != w:
            bad.append(Counterexample("co-left", (CellId(d, z), CellId(d, p)),
                                      expected=(CellId(j, x), CellId(j, w)),
                                      actual=(CellId(j, smap[p]), CellId(j, tmap[p]))))
        if smap[q] != w or tmap[q] != y:
            bad.append(Counterexample("co-right", (CellId(d, z), CellId(d, q)),
                                      expected=(CellId(j, w), CellId(j, y)),
                                      actual=(CellId(j, smap[q]), CellId(j, tmap[q]))))
    return _single("cocategory", j, bad)


def check_category(S: CategoryStructure) -> AxiomReport:
    """One check per row of ``laws`` for the structure's flags, in order.
    The unit row, which the groupoid row presupposes, is reported only
    under ``unital``; a groupoid row after a failing unit row fails with the
    unit counterexamples and a note instead of raising."""
    G, checks = S.graph, []
    tables = row_family(G, S.tables)
    for row in laws(G, S.flags, tables):
        axiom, j = row[:2]
        if axiom == "groupoid" and unit.verdict == FAIL:
            check = AxiomCheck(axiom, j, FAIL, list(unit.counterexamples),
                               notes=["unit law violated; inversion is undecidable"])
        else:
            check = _check(G, row, tables)
        if axiom == "units":
            unit = check
            if not S.flags.unital:
                continue
        checks.append(check)
    return AxiomReport(checks)
