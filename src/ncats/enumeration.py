"""Exact enumeration of the category structures a finite carrier admits.

Two routes compute the same answer.  ``enumerate_structures`` backtracks
over table entries in a fixed order (levels ascending, keys lexicographic),
pruning branches as soon as typing, unit, associativity or interchange
constraints are decided and can never recover.  ``brute_force_oracle``
iterates the raw assignment space, pruning nothing but untyped vertical
values; it exists so the search can be checked against an implementation
too simple to share its bugs.  Both hand each complete assignment to one
record step, which runs the checkers' own integer scans on it, whatever
the search pruned.

The search reads one slot table, built once next to the slot list: each
slot's entry dict and key, its values and the watches of the constraints
that read it.  A vertical key's values are the cells typed by its ends,
narrowed by the unit law under ``unital``, "absent" last in partial mode;
a horizontal key's depend on vertical entries, so they are read when the
search reaches it.  The maximal-only filter tries the same values.

The search checks associativity only on the triples that read the entry
(a, b) -> v it has just set, in four roles: (a, b, c) for each c that can
follow b, (p, a, b) for each p that can precede a, (p, q, b) for each key
(p, q) whose value is a, and (a, q, r) for each key (q, r) whose value is
b.  The last two come from a preimage index per table, value -> keys now
holding it, which the search appends to when it sets an entry and pops
from when it clears one; its stack sets and clears entries last-in,
first-out, so the key it clears is always the last one listed.

Structures are counted both raw and up to isomorphism.  Two table families
on one carrier are isomorphic when some graph automorphism carries one onto
the other, so the canonical form of a family is the least integer image of
its entry dicts over the automorphism orbit, serialized.  The record step
reads it from the search's own dicts and builds only the structures it keeps.
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
    CompTable,
    HCompTable,
    assoc_scan,
    check_associativity,  # noqa: F401 - the checkers stay module globals; perfbench's tracer rebinds them
    check_global,  # noqa: F401
    check_groupoid,  # noqa: F401
    check_interchange,  # noqa: F401
    check_typing,  # noqa: F401
    check_units,  # noqa: F401
    composable_pairs,
    composable_triples,  # noqa: F401 - unused here; perfbench's tracer rebinds it
    global_scan,
    groupoid_scan,
    h_composable_pairs,
    htyping_scan,
    interchange_partners,
    interchange_scan,
    neighbours,
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
    table, made lazily, on entry dicts keyed by (kind, level) as in the
    search."""
    for (kind, j), entries in tables.items():
        if kind == "v":
            yield typing_scan(G, j, entries)
            if flags.global_:
                yield global_scan(composable_pairs(G, j), entries)
            if (flags.unital or flags.groupoid) and j >= 0:
                # one unit scan serves both flags; it is the groupoid
                # precondition, so inverses are scanned only once it passes
                yield units_scan(G, j, entries, flags.global_)
                if flags.groupoid:
                    yield groupoid_scan(G, j, entries)
            if flags.associative:
                yield assoc_scan(G, j, entries)
        else:
            yield htyping_scan(G, j, entries, tables.get(("v", j), {}))
            if flags.global_ and ("v", j) in tables:
                yield global_scan(h_composable_pairs(G, j), entries)
            if flags.interchange and ("v", j + 1) in tables:
                yield interchange_scan(G, j, tables["v", j + 1], entries)


def _passes_flags(G: NGraph, flags: AxiomFlags, tables) -> bool:
    """The definitional filter: whether the tables satisfy every axiom the
    flags request, as ``check_category`` would decide, stopping at the first
    violation."""
    return all(next(scan, None) is None for scan in _scans(G, flags, tables))


def canonical_form(G: NGraph, tables, auts=None) -> bytes:
    """Least image of a table family over the automorphism orbit.

    ``tables`` maps (kind, level) to entry dicts, as the search keeps them.
    Each automorphism's image is one sorted list of integers per table,
    vertical levels ascending, then horizontal: the relabeled entries
    (a, b) -> v coded as (a*N + b)*N + v, N the number of cells the table
    composes.  Only the least image is serialized; families on one carrier
    share it exactly when some automorphism relabels one into the other.
    """
    if auts is None:
        auts = automorphisms(G)
    names = sorted(tables, key=lambda name: (name[0] == "h", name[1]))
    rows = [(tables[kind, j], j + 1 if kind == "v" else j + 2) for kind, j in names]
    best = None
    for phi in auts:
        image = []
        for entries, d in rows:
            m, n = phi.maps[d], G.count(d)
            image.append(sorted([(m[a] * n + m[b]) * n + m[v] for (a, b), v in entries.items()]))
        if best is None or image < best:
            best = image
    return repr([(j, kind, codes) for (kind, j), codes in zip(names, best)]).encode()


def _structure(G, spec, tables):
    made = {"v": [], "h": []}
    for (kind, j), entries in tables.items():
        made[kind].append((CompTable if kind == "v" else HCompTable)(j, dict(entries)))
    return CategoryStructure(G, made["v"], made["h"], spec.flags)


def _keys(G, levels, h_levels):
    """The table names and the slot list.  A table is named (kind, level):
    kind "v" composes (level+1)-cells vertically, "h" (level+2)-cells
    horizontally; vertical levels ascend first, then horizontal ones.  The
    slots are every (kind, level, key) in search order, each table's keys
    in lexicographic order."""
    names = [("v", j) for j in levels] + [("h", j) for j in h_levels]
    slots = [(kind, j, key) for kind, j in names for key in sorted(
        (composable_pairs if kind == "v" else h_composable_pairs)(G, j))]
    return names, slots


def _h_values(G, tables, slot):
    """The cells a horizontal slot may take: those typed by the vertical
    composites of its boundaries, none while either composite is absent."""
    _kind, j, (a, b) = slot
    d = j + 2
    vt = tables["v", j]
    smap, tmap = G.src_map(d), G.tgt_map(d)
    want_s = vt.get((smap[a], smap[b]))
    want_t = vt.get((tmap[a], tmap[b]))
    if want_s is None or want_t is None:
        return ()
    return hom_buckets(G, d).get((want_s, want_t), ())


def _slot_table(G, flags, tables, slots):
    """The search's row per slot: (entries, key, values, assoc, exchange).
    ``values`` is None for a horizontal key (see ``_h_values``); ``assoc``
    holds a vertical key (a, b)'s preimage index and the cells that can
    follow b or precede a, ``exchange`` the other table and the quadruples
    that read the key, each None where its flag is off."""
    tail = () if flags.global_ else (None,)
    preimages = {j: [[] for _ in range(G.count(j + 1))] for kind, j in tables if kind == "v"}
    # per table X of an exchange: a quadruple is written from X's side as
    # (p, q, r, s), with X-keys (p, q), (r, s) and keys (p, r), (q, s) of the
    # other table Y: (a, a2, b, b2) for the vertical table, (a, b, a2, b2)
    # for the horizontal one.  It reads the X-keys it holds, and the X-key
    # (Y(p, r), Y(q, s)); for the latter, the quadruples are pre-filtered by
    # the boundaries those composites have, (ys[p], yt[r]) and (ys[q], yt[s]),
    # which holds because the search only places typed values
    by_table = {}
    for j in [j for kind, j in tables if kind == "h" and flags.interchange]:
        d = j + 2
        quads = [(a, a2, b, b2) for (a, a2), partners in interchange_partners(G, j)
                 for b, b2 in partners]
        for x_name, y_name, side_quads in (
                (("v", j + 1), ("h", j), quads),
                (("h", j), ("v", j + 1), [(a, b, a2, b2) for a, a2, b, b2 in quads])):
            ys = boundary_map(G, d, y_name[1], SOURCE)
            yt = boundary_map(G, d, y_name[1], TARGET)
            by_key, by_type = {}, {}
            for t in side_quads:
                p, q, r, s = t
                by_key.setdefault((p, q), []).append(t)
                if (r, s) != (p, q):
                    by_key.setdefault((r, s), []).append(t)
                by_type.setdefault((ys[p], yt[r], ys[q], yt[s]), []).append(t)
            by_table[x_name] = (tables[y_name], by_key, by_type, ys, yt)
    rows = []
    for kind, j, key in slots:
        a, b = key
        values = assoc = exchange = None
        if kind == "v":
            d = j + 1
            smap, tmap = G.src_map(d), G.tgt_map(d)
            values = hom_buckets(G, d).get((smap[a], tmap[b]), ())
            if flags.unital and j >= 0:
                idn = G.idn_map(j)
                if a == idn[smap[a]]:
                    values = (b,) if b in values else ()
                elif b == idn[tmap[b]]:
                    values = (a,) if a in values else ()
            values += tail
            if flags.associative:
                assoc = (preimages[j], neighbours(G, j, SOURCE)[b], neighbours(G, j, TARGET)[a])
        if (kind, j) in by_table:
            Y, by_key, by_type, ys, yt = by_table[kind, j]
            exchange = (Y, by_key.get(key, ()), by_type.get((ys[a], yt[a], ys[b], yt[b]), ()))
        rows.append((tables[kind, j], key, values, assoc, exchange))
    return rows


def _extensions_exist(G, spec, tables, slots, values):
    """Whether any single absent entry could be filled while keeping the
    requested axioms; used for the maximal-only filter.  ``values`` holds a
    vertical slot's cells (None skipped), None for a horizontal one."""
    for slot, cells in zip(slots, values):
        kind, j, key = slot
        ent = tables[kind, j]
        if key in ent:
            continue
        for v in _h_values(G, tables, slot) if cells is None else cells:
            if v is None:
                continue
            ent[key] = v
            ok = _passes_flags(G, spec.flags, tables)
            del ent[key]
            if ok:
                return True
    return False


def _recorder(G, spec, result, slots, values):
    """The record step both routes share.  The returned function takes one
    complete assignment; when it passes the flags (and, in maximal-only
    mode, admits no single-entry extension) it is tallied raw and by
    canonical form; only the representatives kept are built."""
    auts = automorphisms(G)
    maximal = spec.maximal_only and not spec.flags.global_
    cap = spec.limits.max_representatives

    def record(tables):
        result.records += 1
        if not _passes_flags(G, spec.flags, tables) or (
                maximal and _extensions_exist(G, spec, tables, slots, values)):
            result.rejected_at_record += 1
            return
        result.raw_count += 1
        form = canonical_form(G, tables, auts)
        if form not in result.canonical_counts and len(result.representatives) < cap:
            result.representatives.append(_structure(G, spec, tables))
        result.canonical_counts[form] += 1

    return record


def enumerate_structures(G: NGraph, spec: EnumSpec = EnumSpec()) -> EnumResult:
    """Count and classify every table family on ``G`` satisfying the flags.

    Deterministic: vertical levels are filled in ascending order with keys
    in lexicographic order, then horizontal levels the same way, and
    candidate values ascend (with "absent" tried last in partial mode).
    Hitting the node or time limit returns the partial tally with
    ``exhausted=False``.  The backtracking keeps its own stack, so the
    number of keys does not bound the search depth.
    """
    levels, h_levels = _resolve_levels(G, spec)
    limits, flags = spec.limits, spec.flags
    start = time.monotonic()
    names, slots = _keys(G, levels, h_levels)
    tables = {name: {} for name in names}
    rows = _slot_table(G, flags, tables, slots)
    result = EnumResult(0, 0, [], True)
    record = _recorder(G, spec, result, slots, [row[2] for row in rows])
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

    def interchange_ok(X, key, Y, holding, composing):
        """Middle-four exchange on the quadruples that read ``key`` of X;
        every other quadruple reads only entries its parent node passed."""
        if not Y:
            return True
        x, y = key
        todo = list(holding)
        for t in composing:
            if Y.get((t[0], t[2])) == x and Y.get((t[1], t[3])) == y:
                todo.append(t)
        for p, q, r, s in todo:
            xl, xr = X.get((p, q)), X.get((r, s))
            yl, yr = Y.get((p, r)), Y.get((q, s))
            if xl is None or xr is None or yl is None or yr is None:
                continue
            one, other = Y.get((xl, xr)), X.get((yl, yr))
            if one is not None and other is not None and one != other:
                return False
        return True

    # Backtracking with an explicit stack: stack[pos] iterates the values of
    # slot pos, made when the search reaches it, and the slot's entry holds
    # the value last taken; pos == depth is a complete assignment
    depth = len(rows)
    nodes, pos, stack = 0, 0, []
    while pos >= 0:
        if pos == depth:
            record(tables)
            pos -= 1
            continue
        ent, key, values, assoc, exchange = rows[pos]
        if pos == len(stack):
            stack.append(iter(values if values is not None
                              else _h_values(G, tables, slots[pos]) + tail))
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
                limits.time_budget is not None and nodes % 1024 == 0
                and time.monotonic() - start > limits.time_budget):
            result.exhausted = False
            break
        if value is not None:
            ent[key] = value
            if assoc is not None:
                assoc[0][value].append(key)
                if not assoc_ok(ent, key, value, assoc):
                    continue
            if exchange is not None and not interchange_ok(ent, key, *exchange):
                continue
        pos += 1
    result.nodes = nodes
    result.iso_count = len(result.canonical_counts)
    result.elapsed = time.monotonic() - start
    return result


def brute_force_oracle(G: NGraph, spec: EnumSpec = EnumSpec(), space_bound: int = 10 ** 6) -> EnumResult:
    """Unpruned reference count over the raw assignment space.

    Every key ranges over every cell of the right dimension (plus "absent"
    in partial mode), a vertical key only those its ends type in the raw
    maps; each full assignment is filtered through the axiom checkers.  The
    assignment space, every cell counted, must fit under ``space_bound``.
    """
    levels, h_levels = _resolve_levels(G, spec)
    start = time.monotonic()
    names, slots = _keys(G, levels, h_levels)

    # the typed cells of each vertical key are also its extension values in
    # the maximal filter; a horizontal key has None there, as in the search
    tail = () if spec.flags.global_ else (None,)
    space, domains, values = 1, [], []
    for kind, j, (a, b) in slots:
        d = j + 1 if kind == "v" else j + 2
        space *= G.count(d) + len(tail)
        if space > space_bound:
            raise SpaceTooLarge(f"assignment space exceeds {space_bound}")
        cells = tuple(range(G.count(d)))
        if kind == "v":
            smap, tmap = G.src_map(d), G.tgt_map(d)
            cells = tuple(v for v in cells if smap[v] == smap[a] and tmap[v] == tmap[b])
        values.append(cells if kind == "v" else None)
        domains.append(cells + tail)

    result = EnumResult(0, 0, [], True)
    record = _recorder(G, spec, result, slots, values)

    for combo in itertools.product(*domains):
        tables = {name: {} for name in names}
        for (kind, j, key), value in zip(slots, combo):
            if value is not None:
                tables[kind, j][key] = value
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
