"""Exact enumeration of the category structures a finite carrier admits.

Two routes compute the same answer.  Both keep a family of tables named
(d, j), as ``structures`` names them, the vertical tables (j+1, j), levels
ascending, then the horizontal ones (j+2, j), and keep each table only as
rows (``structures.empty_rows``): one list per d-cell a with a slot for
each cell b that can follow a, b at its ``fiber_pos``, None where the
entry is absent.
``enumerate_structures`` backtracks over table entries in that order,
pruning branches as soon as typing, unit, associativity or interchange
constraints are decided and can never recover.  It orders the cells of
each dimension by rank (``_rank``): 0-cells by index, d-cells by the rank
of their source, then of their target, identities first, then by index.
Each table's keys (a, b) go by (rank a, rank b) and each key's values by
rank, so the search on a carrier is the index-order search on its copy
renumbered by rank, and its node count depends on the input's numbering
only through the 0-cells and the non-identity cells within one type.
``brute_force_oracle`` iterates the raw assignment space, pruning nothing
but values whose type the carrier alone rules out; it exists so the search
can be checked against an implementation too simple to share its bugs.
Both hand each complete assignment to one record step, whose verdict runs
the rows of ``structures.laws`` cheapest first, in ``_SHAPES`` order,
whatever the search pruned, except those that read only settled tables.  A
table but the last in search order is settled while its rows equal those
it had at the last record that passed, so each row left out reads exactly
the input it passed on.
The search fills the vertical tables first, so they rarely change from one
record to the next; with one table nothing is settled.
Typing, associativity and interchange run as the first-violation forms of
``structures.FIRST_VIOLATION``, loops built once per search over their
scans' listings that return at the first violation; the typing form reads
only the keys whose composite type does not hold every cell.  Typing rows
come first, and a settled table passed them with the same rows, so the
other two forms read every value as typed and skip the scans' guards.

The search reads one slot table, built once next to the slot list: each
slot's values, its row and column and the watches of the rows of ``laws``
that read it.  A key's values are the cells of its
composite's type (``composite_type``) in rank order, "absent" last in
partial mode.  In a table (j+1, j) they are built once, under ``unital``
one cell at a unit key (``units_scan``); in a table (j+2, j) the type is
the entries of table (j+1, j) at the key's two boundary keys, which
``composite_type`` lists once per carrier, so they are read there when the
search reaches the key.
The maximal-only filter tries the typed values of every absent key.

The search writes each entry once, in its row, where it sets or clears
it, and the oracle writes every slot of one reused row family per
assignment.  The watches, the record verdict, the settled-table test and
the canonical gather read those rows, so a read builds and hashes no key
tuple.  Entry dicts are made only at the edges: the record step builds
its representatives from their rows (``structures.structure_of_rows``),
and the public ``canonical_form``, like the checkers, converts the dicts
it is given with ``structures.row_family``.

The search checks associativity only on the triples that read the entry
(a, b) -> v it has just set, in four roles: (a, b, c) for each c that can
follow b, (p, a, b) for each p that can precede a, (p, q, b) for each key
(p, q) whose value is a, and (a, q, r) for each key (q, r) whose value is
b.  The last two come from a preimage index per table, value -> keys now
holding it, each by its rows and columns, which the search appends to
when it sets an entry and pops from when it clears one; its stack sets and
clears entries last-in, first-out, so the key it clears is always the last
one listed.

Interchange pairs a horizontal table (j+2, j) with the vertical table
(j+2, j+1).  Each middle-four quadruple, as ``structures._exchange_places``
lists them once per carrier, reads four entries at fixed keys, two in each
table, and two outer composites whose keys depend on the values.
Every vertical table is filled before every horizontal one, so only the
horizontal slots watch quadruples.  A quadruple is held at the later of its
two horizontal keys and read in full.  At a later horizontal slot whose key
its vertical composites may form, it is checked as composing: when they do,
the new value is that outer composite, so only its two horizontal keys and
the other outer composite are left to read.  Everywhere else one of its
reads is absent, as the search clears every slot after the one it sets.

Structures are counted both raw and up to isomorphism.  Two table families
on one carrier are isomorphic when some graph automorphism carries one onto
the other, so the canonical form of a family is its least image over the
automorphism orbit, serialized.  Every automorphism φ preserves each table's
key set, so the record step lists once per search, at its first passing
record (``_Orbit``), each φ's slots in the lex order of their keys' images
and the code of φ's image of each value, one character per cell and one
for "absent".  A record's rows read as one string of codes; its image
under φ is one gather of that string and one translation, with no sorting.
The record step builds only the structures it keeps, from the record's
rows with ``structures.structure_of_rows``, without the constructor's
checks: each key is its table's own, each value a cell the verdict typed.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import itemgetter
from types import MappingProxyType

from .graphs import (
    TARGET,
    GraphError,
    NGraph,
    SpaceTooLarge,
    automorphisms,
    hom_buckets,
    is_monoidal_carrier,
    is_skeletal,
    per_carrier,
)
from .structures import (
    _SHAPES,
    FIRST_VIOLATION,
    AxiomFlags,
    CategoryStructure,
    check_associativity,  # noqa: F401 - the checkers stay module globals; perfbench's tracer rebinds them
    check_global,  # noqa: F401
    check_groupoid,  # noqa: F401
    check_interchange,  # noqa: F401
    check_typing,  # noqa: F401
    check_units,  # noqa: F401
    composable_pairs,  # noqa: F401 - unused here; perfbench's tracer rebinds it
    composable_triples,  # noqa: F401
    _check_table,
    composite_type,
    empty_rows,
    _exchange_places,
    fiber_pos,
    h_composable_pairs,  # noqa: F401
    laws,
    neighbours,
    row_family,
    structure_of_rows,
    table_keys,
    table_place,
    units_scan,
)


class LevelUnavailable(GraphError):
    pass


class NotSkeletal(GraphError):
    pass


@dataclass(frozen=True)
class EnumLimits:
    max_nodes: int = 10_000_000
    time_budget: float | None = 60.0
    max_representatives: int = 64


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: which levels get vertical tables, which axioms the
    completions must satisfy, and whether horizontal tables join the search.

    ``levels=None`` means every level from 0 to n-1.  Without the global
    flag the search ranges over partial tables, counting every distinct
    domain; ``maximal_only`` then keeps only tables that no single extra
    entry could extend without breaking the requested axioms.
    """

    levels: tuple[int, ...] | None = None
    flags: AxiomFlags = AxiomFlags()
    include_horizontal: bool = False
    maximal_only: bool = False
    limits: EnumLimits = EnumLimits()


@dataclass
class EnumResult:
    """The tally of one enumeration.  ``records`` counts the complete
    assignments that reached the record step, and ``rejected_at_record``
    those it turned down: failing the flags, or extensible in maximal-only
    mode."""

    raw_count: int
    iso_count: int
    representatives: list[CategoryStructure]
    exhausted: bool
    nodes: int = 0
    elapsed: float = 0.0
    canonical_counts: Counter = field(default_factory=Counter)
    records: int = 0
    rejected_at_record: int = 0


_END = object()


def _resolve_levels(G: NGraph, spec: EnumSpec):
    if spec.levels is None:
        levels = tuple(range(0, G.n))
    else:
        levels = tuple(sorted(set(spec.levels)))
    for j in levels:
        if not -1 <= j <= G.n - 1:
            raise LevelUnavailable(f"level {j} outside -1..{G.n - 1}")
        if j == -1 and not is_monoidal_carrier(G):
            raise LevelUnavailable("level -1 needs a single (-1)-cell")
    if spec.include_horizontal:
        h_levels = tuple(j for j in levels if j >= 0 and j + 2 <= G.n and j + 1 in levels)
    else:
        h_levels = ()
    return levels, h_levels


def _violated(scan, *args) -> bool:
    """Whether ``scan(*args)`` yields a violation, stopping at the first."""
    return next(scan(*args), None) is not None


def _verdict(G: NGraph, flags: AxiomFlags, names):
    """The record verdict's rows: each row of ``laws`` that has a scan, in
    ``_SHAPES`` order, typing first, as (reads, violated), where
    ``violated(tables)`` says whether a family breaks the row's law: the
    scan's first-violation form where it has one, else the scan itself run
    to its first violation."""
    rows = sorted(laws(G, flags, names), key=lambda row: list(_SHAPES).index(row[0]))
    return [(reads, FIRST_VIOLATION[scan](*args) if scan in FIRST_VIOLATION else partial(_violated, scan, *args))
            for _axiom, _j, reads, scan, args in rows if scan is not None]


def _passes(rows, tables, settled=frozenset()) -> bool:
    """Whether the family ``tables`` passes every verdict row, as
    ``check_category`` decides, stopping at the first violation; a row is
    left out when it reads only tables in ``settled``, which passed it.
    The rows run in order, so every table a form reads as typed has passed
    its typing rows, here or, settled, with the same rows."""
    for reads, violated in rows:
        if not reads <= settled and violated(tables):
            return False
    return True


class _Orbit(list):
    """A table family's key orbit, built once per search.  A record's rows,
    tables ascending by (d, j), read as one string: ``codes`` holds for
    each slot its table's code, one character for each value and one for
    "absent", distinct across tables.  For each automorphism φ the orbit
    holds (gather, translation):
    ``gather`` picks the slots, table by table, in the lex order of their
    keys' images under φ, and ``translation`` maps each character to the
    code of φ's image of its value, chr(48 + φ(v)) ("0" for cell 0, so a
    small carrier's forms read as digits), or to chr(48 + N) for "absent",
    N the number of d-cells.  It keeps |Aut|·keys references for the whole
    search; the benchmarks measure it only up to |Aut| = 720."""

    def __init__(self, G: NGraph, names, auts):
        self.names, self.names_repr, self.codes, spans = names, repr(names), [], []
        start = 0
        for d, j in names:
            n = G.count(d)
            code = {None: chr(start + n), **{v: chr(start + v) for v in range(n)}}
            self.codes += [code] * len(table_keys(G, d, j))
            spans.append(start)
            start += n + 1
        super().__init__(self._image(G, phi, spans) for phi in auts)

    def _image(self, G, phi, spans):
        slots, translation, base = [], {}, 0
        for (d, j), start in zip(self.names, spans):
            m, keys, n = phi.maps[d], table_keys(G, d, j), G.count(d)
            order = sorted(range(len(keys)), key=lambda i: (m[keys[i][0]], m[keys[i][1]]))
            slots += [base + i for i in order]
            translation.update({start + v: 48 + m[v] for v in range(n)})
            translation[start + n] = 48 + n
            base += len(keys)
        return itemgetter(*slots) if slots else itemgetter(slice(0)), translation


def canonical_form(G: NGraph, tables, auts=None) -> bytes:
    """Least image of a table family over the automorphism orbit.

    ``tables`` maps names (d, j) to entry dicts, checked as the constructor
    checks them; ``auts`` lists the automorphisms.  The record step passes
    the per-search ``_Orbit`` as ``auts`` and its rows as ``tables``.  An
    automorphism φ preserves each table's key set, so φ's image of a family
    is one gather: the code of the relabeled value, or of "absent", at each
    key in the lex order of its image, tables ascending by (d, j).  Only the
    least image is serialized, one character per key after the names;
    families on one carrier share it exactly when some automorphism
    relabels one into the other.
    """
    if not isinstance(auts, _Orbit):
        for name, entries in tables.items():
            table_place(G, name)
            _check_table(G, name, entries)
        auts = _Orbit(G, sorted(tables), automorphisms(G) if auts is None else auts)
        tables = row_family(G, tables)
    slots = chain.from_iterable(chain.from_iterable(map(tables.__getitem__, auts.names)))
    record = "".join(map(dict.__getitem__, auts.codes, slots))
    best = min("".join(gather(record)).translate(translation) for gather, translation in auts)
    return f"({auts.names_repr}, {best!r})".encode()


@per_carrier
def _rank(G, d):
    """The rank of each d-cell, its place in the search's order of the
    d-cells: at d = 0 the index order, above it by (rank of the source,
    rank of the target, not an identity, index), so the cells of one type
    sit together with the identity first."""
    if d == 0:
        return tuple(range(G.count(0)))
    below, smap, tmap, idn = _rank(G, d - 1), G.src_map(d), G.tgt_map(d), G.idn_map(d - 1)
    order = sorted(range(G.count(d)), key=lambda c: (below[smap[c]], below[tmap[c]], c != idn[smap[c]], c))
    rank = [0] * len(order)
    for r, c in enumerate(order):
        rank[c] = r
    return tuple(rank)


@per_carrier
def _ranked_buckets(G, d):
    """``hom_buckets(G, d)`` with each bucket in rank order."""
    rank = _rank(G, d).__getitem__
    return MappingProxyType({typ: tuple(sorted(cells, key=rank)) for typ, cells in hom_buckets(G, d).items()})


def _keys(G, levels, h_levels):
    """The table names (d, j), in search order, and the slot list: every
    (d, j, key) in search order, each table's keys (a, b) by (rank a,
    rank b)."""
    names = [(j + 1, j) for j in levels] + [(j + 2, j) for j in h_levels]
    slots = []
    for d, j in names:
        rank = _rank(G, d)
        slots += [(d, j, key) for key in sorted(table_keys(G, d, j), key=lambda k: (rank[k[0]], rank[k[1]]))]
    return names, slots


def _exchange_watches(G, rows, slots, exchanges):
    """The interchange watches of each slot position, from the slot order.

    Each of the ``exchanges``, a horizontal table H = (d, j), pairs it with
    the vertical table V = (d, j+1), all of whose slots come first.  A
    quadruple (a, a2, b, b2) of ``_exchange_places`` reads H-keys (a, b),
    (a2, b2), V-keys (a, a2), (b, b2) and the outer composites
    H(V(a, a2), V(b, b2)) and V(H(a, b), H(a2, b2)).  It is held, all six
    entries read, at the later of its H-keys, and composing at each later
    slot of H whose key its V composites may form, pre-filtered by their
    boundaries (vs[a], vt[a2]) and (vs[b], vt[b2]), as the search only
    places typed values.  At any other slot one of its reads is absent.
    Each watch is (H rows, V rows, H columns ph, V columns pv, held,
    composing, key), a quadruple stored as its listing's cells and columns
    (a, ph[b], a2, ph[b2], pv[a2], b, pv[b2]) of its four fixed reads.
    """
    at = {((d, j), key): pos for pos, (d, j, key) in enumerate(slots)}
    watches = {}
    for d, j in exchanges:
        V, H = (d, j + 1), (d, j)
        vs, vt = G.src_map(d), G.tgt_map(d)
        ph, pv = fiber_pos(G, d, j), fiber_pos(G, d, j + 1)
        held, by_type = {}, {}
        for a, a2, ia2, partners in _exchange_places(G, j):
            for b, b2, ib, ib2, vb2 in partners:
                quad = (a, ib, a2, ib2, ia2, b, vb2)
                last = max(at[H, (a, b)], at[H, (a2, b2)])
                held.setdefault(last, []).append(quad)
                by_type.setdefault((vs[a], vt[a2], vs[b], vt[b2]), []).append((last, quad))
        for x, y in table_keys(G, d, j):
            pos = at[H, (x, y)]
            composing = tuple(quad for last, quad in by_type.get((vs[x], vt[x], vs[y], vt[y]), ())
                              if last < pos)
            if pos in held or composing:
                watches[pos] = (rows[H], rows[V], ph, pv, tuple(held.get(pos, ())), composing, (x, y))
    return watches


def _slot_table(G, flags, tables, slots):
    """The search's entry per slot of the row family ``tables``: (values,
    typing, row, column, assoc, exchange).  ``row`` and ``column`` place
    the slot's key (a, b) in its table's rows, a's row and b's column.
    ``values``, the d-cells of the key's composite type in rank order, are
    built once for a key whose type reads no other table; a key whose type
    reads the table below has None there and ``typing``, its table's hom
    buckets in rank order and the rows and columns of the two keys of the
    table below whose entries are the type, which the search reads when it
    reaches the key.
    ``assoc`` holds, for a key (a, b) of a table with an associativity row
    in ``laws``, its preimage index, row a, row b, column a, column b, the
    table's rows and columns, the rows of the cells that can precede a and
    the index's lists of the keys whose values are a and b; the preimage
    index lists each key by this tuple.  ``exchange`` holds
    the key's interchange watch from the interchange rows (see
    ``_exchange_watches``).  Each is None where there is no such row or,
    for ``exchange``, where the slot order leaves nothing to decide."""
    tail = () if flags.global_ else (None,)
    law_rows = laws(G, flags, tables)
    assoc = {(j + 1, j) for axiom, j, _reads, _scan, _args in law_rows if axiom == "associativity"}
    exchanges = [(j + 2, j) for axiom, j, _reads, scan, _args in law_rows
                 if axiom == "interchange" and scan is not None]
    watches = _exchange_watches(G, tables, slots, exchanges)
    preimages = {(d, j): [[] for _ in range(G.count(d))] for d, j in assoc}
    before = {(d, j): [tuple(tables[d, j][p] for p in ps) for ps in neighbours(G, j, TARGET)] for d, j in assoc}
    # on an empty table, with totality on, the unit law lists each unit key with the one cell it allows
    units = {(d, j, key): a for d, j in tables if flags.unital and d == j + 1 and j >= 0
             for a, _side, key, _got in units_scan(G, j, True, {(d, j): empty_rows(G, d, j)})}
    out = []
    for pos, (d, j, key) in enumerate(slots):
        values = typing = watch = None
        R, P = tables[d, j], fiber_pos(G, d, j)
        a, b = key
        if d > j + 1:
            below, Pb = tables[d - 1, j], fiber_pos(G, d - 1, j)
            (sa, sb), (ta, tb) = composite_type(G, d, j)[key]
            typing = (_ranked_buckets(G, d), below[sa], Pb[sb], below[ta], Pb[tb])
        else:
            values = _ranked_buckets(G, d).get(composite_type(G, d, j)[key], ())
            if (d, j, key) in units:
                values = (units[d, j, key],)
            values += tail
        if (d, j) in assoc:
            index = preimages[d, j]
            watch = (index, R[a], R[b], P[a], P[b], R, P, before[d, j][a], index[a], index[b])
        out.append((values, typing, R[a], P[b], watch, watches.get(pos)))
    return out


def _extensions_exist(G, rows, tables):
    """Whether any single absent entry of the row family ``tables`` could be
    filled with a typed value while passing the verdict ``rows``; used for
    the maximal-only filter on a family that passes them, so each
    extension's verdict settles every table but the one extended."""
    for (d, j), R in tables.items():
        buckets, P = hom_buckets(G, d), fiber_pos(G, d, j)
        if d > j + 1:
            below, Pb = tables[d - 1, j], fiber_pos(G, d - 1, j)
        others = frozenset(name for name in tables if name != (d, j))
        for (a, b), typ in composite_type(G, d, j).items():
            row, col = R[a], P[b]
            if row[col] is not None:
                continue
            if d > j + 1:
                (sa, sb), (ta, tb) = typ
                typ = (below[sa][Pb[sb]], below[ta][Pb[tb]])
            for v in buckets.get(typ, ()):
                row[col] = v
                ok = _passes(rows, tables, others)
                row[col] = None
                if ok:
                    return True
    return False


def _recorder(G, spec, result, names, deadline=None):
    """The record step both routes share, for row families named by
    ``names`` in search order.  The returned function takes one complete
    assignment; when it passes the flags (and, in maximal-only mode, admits
    no single-entry extension) it is tallied raw and by canonical form;
    only the representatives kept are built, by ``structure_of_rows``.
    The verdict settles each table but the last whose rows equal their
    copy from the last record that passed the flags.  Listing
    the automorphisms past ``deadline`` or in more steps than the node
    budget raises SpaceTooLarge; their key orbit is built at the first
    record that passes."""
    auts = automorphisms(G, deadline, spec.limits.max_nodes)
    rows = _verdict(G, spec.flags, names)
    maximal = spec.maximal_only and not spec.flags.global_
    cap = spec.limits.max_representatives
    orbit, keys = None, {name: table_keys(G, *name) for name in names}
    last_pass, nothing = dict.fromkeys(names[:-1]), frozenset()

    def record(tables):
        nonlocal orbit
        result.records += 1
        settled = (frozenset([name for name in last_pass if tables[name] == last_pass[name]])
                   if last_pass else nothing)
        if not _passes(rows, tables, settled):
            result.rejected_at_record += 1
            return
        for name in last_pass:
            if name not in settled:
                last_pass[name] = [row[:] for row in tables[name]]
        if maximal and _extensions_exist(G, rows, tables):
            result.rejected_at_record += 1
            return
        result.raw_count += 1
        if orbit is None:
            orbit = _Orbit(G, sorted(tables), auts)
        form = canonical_form(G, tables, orbit)
        if form not in result.canonical_counts and len(result.representatives) < cap:
            result.representatives.append(structure_of_rows(G, tables, spec.flags, keys))
        result.canonical_counts[form] += 1

    return record


def enumerate_structures(G: NGraph, spec: EnumSpec = EnumSpec()) -> EnumResult:
    """Count and classify every table family on ``G`` satisfying the flags.

    Deterministic: vertical levels are filled in ascending order with keys
    (a, b) by (rank a, rank b) (see ``_rank``), then horizontal levels the
    same way, and candidate values go by rank (with "absent" tried last in
    partial mode).  Discovery order, that of ``representatives`` and of
    ``canonical_counts``, follows the search order.
    Hitting the node or time limit returns the partial tally with
    ``exhausted=False``; both limits also bound the record step's listing
    of the automorphisms, before the first node.  The backtracking
    keeps its own stack, so the number of keys does not bound the search
    depth.
    """
    levels, h_levels = _resolve_levels(G, spec)
    limits, flags = spec.limits, spec.flags
    start = time.monotonic()
    deadline = None if limits.time_budget is None else start + limits.time_budget
    names, slots = _keys(G, levels, h_levels)
    tables = {name: empty_rows(G, *name) for name in names}
    rows = _slot_table(G, flags, tables, slots)
    result = EnumResult(0, 0, [], True)
    nodes, pos, stack = 0, 0, []
    try:
        record = _recorder(G, spec, result, names, deadline)
    except SpaceTooLarge:
        # a budget ran out while the record step listed Aut(G)
        result.exhausted, pos = False, -1
    tail = () if flags.global_ else (None,)

    def assoc_ok(v, watch):
        """Associativity on the triples that read the new entry (a, b) -> v,
        in the four roles the module docstring lists: v follows what a
        follows and is followed by what b is, so row v and row b share their
        columns; every other triple reads only entries its parent node
        passed."""
        _preimage, Ra, Rb, ia, ib, R, P, before, to_a, to_b = watch
        for bc, left in zip(Rb, R[v]):
            if bc is not None and left is not None:
                right = Ra[P[bc]]
                if right is not None and right != left:
                    return False
        iv = P[v]
        for Rp in before:
            pa = Rp[ia]
            if pa is not None:
                left = R[pa][ib]
                if left is not None:
                    right = Rp[iv]
                    if right is not None and right != left:
                        return False
        for pq in to_a:  # a key (p, q) -> a by its watch: rows p, q at 1, 2
            qb = pq[2][ib]
            if qb is not None:
                right = pq[1][P[qb]]
                if right is not None and right != v:
                    return False
        for qr in to_b:  # a key (q, r) -> b: columns q, r at 3, 4
            aq = Ra[qr[3]]
            if aq is not None:
                left = R[aq][qr[4]]
                if left is not None and left != v:
                    return False
        return True

    def interchange_ok(v, H, V, ph, pv, held, composing, key):
        """Middle-four exchange on the quadruples the new entry key -> v of
        the horizontal table H can decide (see ``_exchange_watches``),
        reading the rows of H and V: a held one reads all six entries; a
        composing one matches when its V-keys compose to ``key``, and then
        its outer H composite is v itself."""
        for a, hb, a2, hb2, va2, b, vb2 in held:
            hl, hr, vl, vr = H[a][hb], H[a2][hb2], V[a][va2], V[b][vb2]
            if hl is None or hr is None or vl is None or vr is None:
                continue
            one, other = V[hl][pv[hr]], H[vl][ph[vr]]
            if one is not None and other is not None and one != other:
                return False
        x, y = key
        for a, hb, a2, hb2, va2, b, vb2 in composing:
            if V[a][va2] == x and V[b][vb2] == y:
                hl, hr = H[a][hb], H[a2][hb2]
                if hl is not None and hr is not None:
                    one = V[hl][pv[hr]]
                    if one is not None and one != v:
                        return False
        return True

    # Backtracking with an explicit stack: stack[pos] iterates the values of
    # slot pos, made when the search reaches it, and the slot's row holds
    # the value last taken; pos == depth is a complete assignment
    depth = len(rows)
    while pos >= 0:
        if pos == depth:
            record(tables)
            pos -= 1
            continue
        values, typing, row, col, assoc, exchange = rows[pos]
        if pos == len(stack):
            if values is None:
                buckets, srow, scol, trow, tcol = typing
                values = buckets.get((srow[scol], trow[tcol]), ()) + tail
            stack.append(iter(values))
        old = row[col]
        if old is not None:
            row[col] = None
            if assoc is not None:
                assoc[0][old].pop()
        value = next(stack[pos], _END)
        if value is _END:
            stack.pop()
            pos -= 1
            continue
        nodes += 1
        if nodes > limits.max_nodes or (
                deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline):
            result.exhausted = False
            break
        if value is not None:
            row[col] = value
            if assoc is not None:
                assoc[0][value].append(assoc)
                if not assoc_ok(value, assoc):
                    continue
            if exchange is not None and not interchange_ok(value, *exchange):
                continue
        pos += 1
    result.nodes = nodes
    result.iso_count = len(result.canonical_counts)
    result.elapsed = time.monotonic() - start
    return result


def brute_force_oracle(G: NGraph, spec: EnumSpec = EnumSpec(), space_bound: int = 10 ** 6) -> EnumResult:
    """Unpruned reference count over the raw assignment space.

    Every key ranges over every cell of the right dimension (plus "absent"
    in partial mode); a key whose composite's type reads no other table,
    as in a table (j+1, j), only over the cells of that type in the raw
    maps.  Each full assignment goes to the record step, which runs the
    rows of ``structures.laws``.  The product of the domains it iterates
    must fit under ``space_bound``, and listing the automorphisms within
    the node budget, or SpaceTooLarge is raised.
    """
    levels, h_levels = _resolve_levels(G, spec)
    start = time.monotonic()
    names, slots = _keys(G, levels, h_levels)

    tail = () if spec.flags.global_ else (None,)
    space, domains = 1, []
    for d, j, key in slots:
        cells = tuple(range(G.count(d)))
        if d == j + 1:
            want = composite_type(G, d, j)[key]
            smap, tmap = G.src_map(d), G.tgt_map(d)
            cells = tuple(v for v in cells if (smap[v], tmap[v]) == want)
        domains.append(cells + tail)
        space *= len(domains[-1])
        if space > space_bound:
            raise SpaceTooLarge(f"assignment space exceeds {space_bound}")

    result = EnumResult(0, 0, [], True)
    record = _recorder(G, spec, result, names)
    # one row family, every slot of which each assignment writes
    tables = {name: empty_rows(G, *name) for name in names}
    places = [(tables[d, j][a], fiber_pos(G, d, j)[b]) for d, j, (a, b) in slots]
    for combo in itertools.product(*domains):
        for (row, col), value in zip(places, combo):
            row[col] = value
        record(tables)

    result.iso_count = len(result.canonical_counts)
    result.elapsed = time.monotonic() - start
    return result


@dataclass
class SkeletalCertificate:
    unique: bool
    structure: CategoryStructure | None
    result: EnumResult


def verify_skeletal_uniqueness(G: NGraph, limits: EnumLimits = EnumLimits()) -> SkeletalCertificate:
    """Confirm that a skeletal carrier admits exactly one total structure.

    Singleton hom-sets force every table value, so the search closes
    without branching; the certificate carries the forced structure.
    """
    if not is_skeletal(G):
        raise NotSkeletal("carrier has a same-type hom-set of size != 1")
    spec = EnumSpec(flags=AxiomFlags(global_=True), limits=limits)
    res = enumerate_structures(G, spec)
    unique = res.exhausted and res.raw_count == 1
    return SkeletalCertificate(unique, res.representatives[0] if res.representatives else None, res)
