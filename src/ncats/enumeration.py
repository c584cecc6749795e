"""Exact enumeration of the category structures a finite carrier admits.

Two routes compute the same answer.  Both keep a family of tables as
entry dicts named (d, j), as ``structures`` names them: the vertical
tables (j+1, j), levels ascending, then the horizontal ones (j+2, j).
``enumerate_structures`` backtracks over table entries in that order, keys
lexicographic, pruning branches as soon as typing, unit, associativity or
interchange constraints are decided and can never recover.
``brute_force_oracle`` iterates the raw assignment space, pruning nothing
but values whose type the carrier alone rules out; it exists so the search
can be checked against an implementation too simple to share its bugs.
Both hand each complete assignment to one record step, which runs the
checkers' own integer scans on it, whatever the search pruned.

The search reads one slot table, built once next to the slot list: each
slot's entry dict and key, its values and the watches of the constraints
that read it.  A key's values are the cells of its composite's type
(``_typed_values``), "absent" last in partial mode.  In a table (j+1, j)
they are built once, narrowed by the unit law under ``unital``; in a table
(j+2, j) the type reads the table (j+1, j), so they are read, through
the table's type lookup built once per search, when the search reaches the
key.  The maximal-only filter tries the typed values of every absent key.

The search checks associativity only on the triples that read the entry
(a, b) -> v it has just set, in four roles: (a, b, c) for each c that can
follow b, (p, a, b) for each p that can precede a, (p, q, b) for each key
(p, q) whose value is a, and (a, q, r) for each key (q, r) whose value is
b.  The last two come from a preimage index per table, value -> keys now
holding it, which the search appends to when it sets an entry and pops
from when it clears one; its stack sets and clears entries last-in,
first-out, so the key it clears is always the last one listed.

Interchange pairs a table (j+2, j) with the table (j+2, j+1).  A
middle-four quadruple reads four entries at fixed keys, two in each table,
and two outer composites whose keys depend on the values.  The search sets
slots in order and clears every slot after the one it sets, so a quadruple
can be decided only once its last fixed key is set: it is held there and
read in full.  At a later slot whose key its inner composites in the other
table may form, it is checked as composing: when they do, the new value is
that outer composite, so only the two fixed keys of its own table and the
other outer composite are left to read.  Everywhere else one of its reads
is absent.  The watches follow from the slot list; since every vertical
table is filled before every horizontal one, no vertical slot watches any
quadruple.

Structures are counted both raw and up to isomorphism.  Two table families
on one carrier are isomorphic when some graph automorphism carries one onto
the other, so the canonical form of a family is its least image over the
automorphism orbit, serialized.  Every automorphism φ preserves each table's
key set, so the record step lists once per search, at its first passing
record, each φ's keys in the lex order of their images, with φ's cell map
as one code character per cell and one extra slot for "absent".  The image
of a record under φ is then one gather per table, the mapped value at each
listed key, with no sorting.  The record step reads it from the search's
own dicts and builds only the structures it keeps.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field

from .graphs import (
    SOURCE,
    TARGET,
    GraphError,
    NGraph,
    SpaceTooLarge,
    automorphisms,
    boundary_map,
    hom_buckets,
    is_monoidal_carrier,
    is_skeletal,
)
from .structures import (
    AxiomFlags,
    CategoryStructure,
    assoc_scan,
    check_associativity,  # noqa: F401 - the checkers stay module globals; perfbench's tracer rebinds them
    check_global,  # noqa: F401
    check_groupoid,  # noqa: F401
    check_interchange,  # noqa: F401
    check_typing,  # noqa: F401
    check_units,  # noqa: F401
    composable_pairs,  # noqa: F401 - unused here; perfbench's tracer rebinds it
    composable_triples,  # noqa: F401
    composite_type,
    global_scan,
    groupoid_scan,
    h_composable_pairs,  # noqa: F401
    interchange_partners,
    interchange_scan,
    neighbours,
    split_tables,
    table_keys,
    typing_scan,
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


def _scans(G: NGraph, flags: AxiomFlags, tables):
    """The checkers' integer scans that the flags request, one per axiom and
    table, made lazily, on entry dicts named (d, j) as in the search."""
    for (d, j), entries in tables.items():
        yield typing_scan(G, d, j, tables)
        if flags.global_:
            yield global_scan(table_keys(G, d, j), entries)
        if d == j + 1:
            # the laws of a category at level j
            if (flags.unital or flags.groupoid) and j >= 0:
                # one unit scan serves both flags; it is the groupoid
                # precondition, so inverses are scanned only once it passes
                yield units_scan(G, j, entries, flags.global_)
                if flags.groupoid:
                    yield groupoid_scan(G, j, entries)
            if flags.associative:
                yield assoc_scan(G, j, entries)
        if flags.interchange and (d, j + 1) in tables:
            yield interchange_scan(G, j, tables[d, j + 1], entries)


def _passes_flags(G: NGraph, flags: AxiomFlags, tables) -> bool:
    """The definitional filter: whether the tables satisfy every axiom the
    flags request, as ``check_category`` would decide, stopping at the first
    violation."""
    return all(next(scan, None) is None for scan in _scans(G, flags, tables))


class _Orbit(list):
    """A table family's key orbit, built once per search: for each
    automorphism φ, one (keys, codes, N) per table (d, j) in ``names``: the
    keys in the lex order of their images under φ and the code character of
    each d-cell's image, chr(48 + φ(v)) ("0" for cell 0, so a small
    carrier's forms read as digits), with one extra slot, N = the number of
    d-cells, for "absent", both tuples.  It keeps |Aut|·(keys + cells)
    references for the whole search; the benchmarks measure it only up to
    |Aut| = 720."""

    def __init__(self, G: NGraph, names, auts):
        super().__init__([[self._table(G, d, j, phi.maps[d]) for d, j in names] for phi in auts])
        self.names = names

    @staticmethod
    def _table(G, d, j, m):
        n = G.count(d)
        keys = tuple(sorted(table_keys(G, d, j), key=lambda k: (m[k[0]], m[k[1]])))
        return keys, tuple(chr(48 + v) for v in (*m, n)), n


def canonical_form(G: NGraph, tables, auts=None) -> bytes:
    """Least image of a table family over the automorphism orbit.

    ``tables`` maps names (d, j) to entry dicts, as the search keeps them;
    ``auts`` lists the automorphisms, or is the per-search ``_Orbit``.  An
    automorphism φ preserves each table's key set, so φ's image of a family
    is one gather: the code of the relabeled value, or of "absent", at each
    key in the lex order of its image, tables ascending by (d, j).  Only the
    least image is serialized, one character per key after the names;
    families on one carrier share it exactly when some automorphism
    relabels one into the other.
    """
    if not isinstance(auts, _Orbit):
        auts = _Orbit(G, sorted(tables), automorphisms(G) if auts is None else auts)
    gets = [tables[name].get for name in auts.names]
    best = None
    for row in auts:
        image = [m[get(k, n)] for get, (keys, m, n) in zip(gets, row) for k in keys]
        if best is None or image < best:
            best = image
    return repr((auts.names, "".join(best))).encode()


def _keys(G, levels, h_levels):
    """The table names (d, j), in search order, and the slot list: every
    (d, j, key) in search order, each table's keys lexicographically."""
    names = [(j + 1, j) for j in levels] + [(j + 2, j) for j in h_levels]
    slots = [(d, j, key) for d, j in names for key in table_keys(G, d, j)]
    return names, slots


def _typed_values(G, tables, d, j, key):
    """The d-cells key (a, b) of table (d, j) may take, ascending: those of
    its composite's type as ``tables`` stand, none while it is undecided."""
    return hom_buckets(G, d).get(composite_type(G, d, j, tables)[key], ())


def _exchange_watches(G, tables, slots):
    """The interchange watches of each slot position, from the slot order.

    Each exchange pairs a table (d, j) with the table (d, j+1).  Written from
    one table X's side, with Y the other, a quadruple is (p, q, r, s): X-keys
    (p, q), (r, s) and Y-keys (p, r), (q, s), its positional reads; its outer
    reads are Y(X(p, q), X(r, s)) and X(Y(p, r), Y(q, s)).  It is held, all
    six entries read, at the slot of its last positional read, and composing
    at each later slot of X whose key its Y-keys' composites may form.  At
    any other slot one of its reads is absent, as the search clears every
    slot after the one it sets.  The composing candidates are pre-filtered
    by the boundaries those composites have, (ys[p], yt[r]) and
    (ys[q], yt[s]), which holds because the search only places typed values.
    Each watch is (Y, held, composing), a quadruple stored as its keys
    ((p, q), (r, s), (p, r), (q, s)).
    """
    at = {((d, j), key): pos for pos, (d, j, key) in enumerate(slots)}
    sides, held = {}, {}
    for d, j in [(d, j) for d, j in tables if (d, j + 1) in tables]:
        V, H = (d, j + 1), (d, j)
        for X, Y in ((V, H), (H, V)):
            sides[X] = (Y, boundary_map(G, d, Y[1], SOURCE), boundary_map(G, d, Y[1], TARGET), {})
        for (a, a2), partners in interchange_partners(G, j):
            for b, b2 in partners:
                last = max(at[V, (a, a2)], at[V, (b, b2)], at[H, (a, b)], at[H, (a2, b2)])
                for X, (p, q, r, s) in ((V, (a, a2, b, b2)), (H, (a, b, a2, b2))):
                    _Y, ys, yt, by_type = sides[X]
                    quad = ((p, q), (r, s), (p, r), (q, s))
                    if last in (at[X, (p, q)], at[X, (r, s)]):
                        held.setdefault(last, []).append(quad)
                    by_type.setdefault((ys[p], yt[r], ys[q], yt[s]), []).append((last, quad))
    watches = {}
    for pos, (d, j, (a, b)) in enumerate(slots):
        if (d, j) in sides:
            Y, ys, yt, by_type = sides[d, j]
            # a quadruple whose last positional read is this slot is held here
            composing = tuple(quad for last, quad in by_type.get((ys[a], yt[a], ys[b], yt[b]), ())
                              if last < pos)
            if pos in held or composing:
                watches[pos] = (tables[Y], tuple(held.get(pos, ())), composing)
    return watches


def _slot_table(G, flags, tables, slots):
    """The search's row per slot: (entries, key, values, typing, assoc,
    exchange).  ``values`` are built once for a key whose type reads no
    other table (see ``_typed_values``); a key whose type reads the table
    below has None there and ``typing``, its table's hom buckets and
    composite-type lookup, which the search reads when it reaches the key.
    ``assoc`` holds, for a key (a, b) of a table (j+1, j), its preimage
    index and the cells that can follow b or precede a, ``exchange`` the
    key's interchange watch (see ``_exchange_watches``), each None where its
    flag is off or, for ``exchange``, where the slot order leaves nothing to
    decide."""
    tail = () if flags.global_ else (None,)
    preimages = {(d, j): [[] for _ in range(G.count(d))] for d, j in tables if d == j + 1}
    lookups = {(d, j): (hom_buckets(G, d), composite_type(G, d, j, tables))
               for d, j in tables if (d - 1, j) in tables}
    watches = _exchange_watches(G, tables, slots) if flags.interchange else {}
    rows = []
    for pos, (d, j, key) in enumerate(slots):
        a, b = key
        values = assoc = None
        typing = lookups.get((d, j))
        if typing is None:
            values = _typed_values(G, tables, d, j, key)
            if flags.unital and d == j + 1 and j >= 0:
                smap, tmap, idn = G.src_map(d), G.tgt_map(d), G.idn_map(j)
                if a == idn[smap[a]]:
                    values = (b,) if b in values else ()
                elif b == idn[tmap[b]]:
                    values = (a,) if a in values else ()
            values += tail
        if flags.associative and (d, j) in preimages:
            assoc = (preimages[d, j], neighbours(G, j, SOURCE)[b], neighbours(G, j, TARGET)[a])
        rows.append((tables[d, j], key, values, typing, assoc, watches.get(pos)))
    return rows


def _extensions_exist(G, spec, tables):
    """Whether any single absent entry could be filled with a typed value
    while keeping the requested axioms; used for the maximal-only filter."""
    for (d, j), ent in tables.items():
        for key in table_keys(G, d, j):
            if key in ent:
                continue
            for v in _typed_values(G, tables, d, j, key):
                ent[key] = v
                ok = _passes_flags(G, spec.flags, tables)
                del ent[key]
                if ok:
                    return True
    return False


def _recorder(G, spec, result, deadline=None):
    """The record step both routes share.  The returned function takes one
    complete assignment; when it passes the flags (and, in maximal-only
    mode, admits no single-entry extension) it is tallied raw and by
    canonical form; only the representatives kept are built.  Listing the
    automorphisms past ``deadline`` or in more steps than the node budget
    raises SpaceTooLarge; their key orbit is built at the first record
    that passes."""
    auts = automorphisms(G, deadline, spec.limits.max_nodes)
    maximal = spec.maximal_only and not spec.flags.global_
    cap = spec.limits.max_representatives
    orbit = None

    def record(tables):
        nonlocal orbit
        result.records += 1
        if not _passes_flags(G, spec.flags, tables) or (
                maximal and _extensions_exist(G, spec, tables)):
            result.rejected_at_record += 1
            return
        result.raw_count += 1
        if orbit is None:
            orbit = _Orbit(G, sorted(tables), auts)
        form = canonical_form(G, tables, orbit)
        if form not in result.canonical_counts and len(result.representatives) < cap:
            copies = {name: dict(entries) for name, entries in tables.items()}
            result.representatives.append(CategoryStructure(G, *split_tables(copies), spec.flags))
        result.canonical_counts[form] += 1

    return record


def enumerate_structures(G: NGraph, spec: EnumSpec = EnumSpec()) -> EnumResult:
    """Count and classify every table family on ``G`` satisfying the flags.

    Deterministic: vertical levels are filled in ascending order with keys
    in lexicographic order, then horizontal levels the same way, and
    candidate values ascend (with "absent" tried last in partial mode).
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
    tables = {name: {} for name in names}
    rows = _slot_table(G, flags, tables, slots)
    result = EnumResult(0, 0, [], True)
    nodes, pos, stack = 0, 0, []
    try:
        record = _recorder(G, spec, result, deadline)
    except SpaceTooLarge:
        # a budget ran out while the record step listed Aut(G)
        result.exhausted, pos = False, -1
    tail = () if flags.global_ else (None,)

    def assoc_ok(ent, key, v, watch):
        """Associativity on the triples that read the new entry (a, b) -> v,
        in the four roles the module docstring lists; every other triple
        reads only entries its parent node passed."""
        a, b = key
        preimage, after, before = watch
        get = ent.get
        for c in after:
            bc = get((b, c))
            right = get((a, bc)) if bc is not None else None
            if right is not None:
                left = get((v, c))
                if left is not None and left != right:
                    return False
        for p in before:
            pa = get((p, a))
            left = get((pa, b)) if pa is not None else None
            if left is not None:
                right = get((p, v))
                if right is not None and right != left:
                    return False
        for p, q in preimage[a]:
            qb = get((q, b))
            right = get((p, qb)) if qb is not None else None
            if right is not None and right != v:
                return False
        for q, r in preimage[b]:
            aq = get((a, q))
            left = get((aq, r)) if aq is not None else None
            if left is not None and left != v:
                return False
        return True

    def interchange_ok(X, key, v, Y, held, composing):
        """Middle-four exchange on the quadruples the new entry key -> v of
        X can decide (see ``_exchange_watches``): a held one reads all six
        entries; a composing one matches when its Y-keys compose to ``key``,
        and then its outer X composite is v itself."""
        xget, yget = X.get, Y.get
        for xk, xk2, yk, yk2 in held:
            xl, xr, yl, yr = xget(xk), xget(xk2), yget(yk), yget(yk2)
            if xl is None or xr is None or yl is None or yr is None:
                continue
            one, other = yget((xl, xr)), xget((yl, yr))
            if one is not None and other is not None and one != other:
                return False
        x, y = key
        for xk, xk2, yk, yk2 in composing:
            if yget(yk) == x and yget(yk2) == y:
                xl, xr = xget(xk), xget(xk2)
                if xl is not None and xr is not None:
                    one = yget((xl, xr))
                    if one is not None and one != v:
                        return False
        return True

    # Backtracking with an explicit stack: stack[pos] iterates the values of
    # slot pos, made when the search reaches it, and the slot's entry holds
    # the value last taken; pos == depth is a complete assignment
    depth = len(rows)
    while pos >= 0:
        if pos == depth:
            record(tables)
            pos -= 1
            continue
        ent, key, values, typing, assoc, exchange = rows[pos]
        if pos == len(stack):
            if values is None:
                buckets, types = typing
                values = buckets.get(types[key], ()) + tail
            stack.append(iter(values))
        old = ent.pop(key, None)
        if old is not None and assoc is not None:
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
            ent[key] = value
            if assoc is not None:
                assoc[0][value].append(key)
                if not assoc_ok(ent, key, value, assoc):
                    continue
            if exchange is not None and not interchange_ok(ent, key, value, *exchange):
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
    maps.  Each full assignment is filtered through the axiom checkers.  The
    assignment space, every cell counted, must fit under ``space_bound``,
    and listing the automorphisms within the node budget, or SpaceTooLarge
    is raised.
    """
    levels, h_levels = _resolve_levels(G, spec)
    start = time.monotonic()
    names, slots = _keys(G, levels, h_levels)

    tail = () if spec.flags.global_ else (None,)
    space, domains = 1, []
    for d, j, key in slots:
        space *= G.count(d) + len(tail)
        if space > space_bound:
            raise SpaceTooLarge(f"assignment space exceeds {space_bound}")
        cells = tuple(range(G.count(d)))
        if (d - 1, j) not in names:
            want = composite_type(G, d, j, {})[key]
            smap, tmap = G.src_map(d), G.tgt_map(d)
            cells = tuple(v for v in cells if (smap[v], tmap[v]) == want)
        domains.append(cells + tail)

    result = EnumResult(0, 0, [], True)
    record = _recorder(G, spec, result)

    for combo in itertools.product(*domains):
        tables = {name: {} for name in names}
        for (d, j, key), value in zip(slots, combo):
            if value is not None:
                tables[d, j][key] = value
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
