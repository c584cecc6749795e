"""Exact enumeration of the category structures a finite carrier admits.

Two routes compute the same answer.  ``enumerate_structures`` backtracks
over table entries in a fixed order (levels ascending, keys lexicographic),
pruning branches as soon as typing, unit, associativity or interchange
constraints are decided and can never recover.  ``brute_force_oracle``
iterates the raw assignment space with no pruning at all; it exists so the
search can be checked against an implementation too simple to share its
bugs.  Both hand each complete assignment to one record step, which runs
the checkers' own integer scans on it, whatever the search pruned.

The search checks associativity only on the triples that read the entry
(a, b) -> v it has just set, in four roles: (a, b, c) for each c that can
follow b, (p, a, b) for each p that can precede a, (p, q, b) for each key
(p, q) whose value is a, and (a, q, r) for each key (q, r) whose value is
b.  The last two come from a preimage index per table, value -> keys now
holding it, which the search appends to when it sets an entry and pops
from when it clears one; its stack sets and clears entries last-in,
first-out, so the key it clears is always the last one listed.

Structures are counted both raw and up to isomorphism.  Two structures on
the same carrier are isomorphic when some graph automorphism carries one
table family onto the other, so the canonical form of a structure is the
least integer image of its tables over the automorphism orbit, serialized.
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
    boundary_fibers,
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


def canonical_form(S: CategoryStructure, auts=None) -> bytes:
    """Least image of the table family over the automorphism orbit.

    Each automorphism's image is one list of integers per table: the
    relabeled entries (a, b) -> v coded as (a*N + b)*N + v, N the number of
    cells the table composes, and sorted.  Only the least image is
    serialized.  Structures on the same carrier have equal canonical forms
    exactly when some automorphism relabels one into the other.
    """
    G = S.graph
    if auts is None:
        auts = automorphisms(G)
    tables = [("v", j, j + 1, S.vtables[j].entries) for j in sorted(S.vtables)]
    tables += [("h", j, j + 2, S.htables[j].entries) for j in sorted(S.htables)]
    best = None
    for phi in auts:
        image = []
        for _kind, _j, d, entries in tables:
            m, n = phi.maps[d], G.count(d)
            image.append(sorted([(m[a] * n + m[b]) * n + m[v] for (a, b), v in entries.items()]))
        if best is None or image < best:
            best = image
    return repr([(j, kind, codes) for (kind, j, _d, _e), codes in zip(tables, best)]).encode()


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


def _candidates(G, tables, typed, slot):
    """The cells a slot may take.  A vertical key takes the cells typed by
    its ends, fixed up front in ``typed``; a horizontal key takes those
    typed by the vertical composites of its boundaries, none while either
    composite is absent."""
    kind, j, (a, b) = slot
    if kind == "v":
        return typed[slot]
    d = j + 2
    vt = tables["v", j]
    smap, tmap = G.src_map(d), G.tgt_map(d)
    want_s = vt.get((smap[a], smap[b]))
    want_t = vt.get((tmap[a], tmap[b]))
    if want_s is None or want_t is None:
        return ()
    return hom_buckets(G, d).get((want_s, want_t), ())


def _extensions_exist(G, spec, tables, slots, typed):
    """Whether any single absent entry could be filled while keeping the
    requested axioms; used for the maximal-only filter."""
    for slot in slots:
        kind, j, key = slot
        ent = tables[kind, j]
        if key in ent:
            continue
        for v in _candidates(G, tables, typed, slot):
            ent[key] = v
            ok = _passes_flags(G, spec.flags, tables)
            del ent[key]
            if ok:
                return True
    return False


def _recorder(G, spec, result, slots, typed):
    """The record step both routes share.  The returned function takes one
    complete assignment; when it passes the flags (and, in maximal-only
    mode, admits no single-entry extension) it is tallied raw and by
    canonical form, keeping the first representative of each class."""
    auts = automorphisms(G)
    maximal = spec.maximal_only and not spec.flags.global_
    cap = spec.limits.max_representatives

    def record(tables):
        result.records += 1
        if not _passes_flags(G, spec.flags, tables) or (
                maximal and _extensions_exist(G, spec, tables, slots, typed)):
            result.rejected_at_record += 1
            return
        S = _structure(G, spec, tables)
        result.raw_count += 1
        form = canonical_form(S, auts)
        if form not in result.canonical_counts and len(result.representatives) < cap:
            result.representatives.append(S)
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

    # typed candidates for vertical keys are fixed up front
    typed = {}
    for slot in slots:
        kind, j, (a, b) = slot
        if kind == "v":
            d = j + 1
            typed[slot] = hom_buckets(G, d).get((G.src_map(d)[a], G.tgt_map(d)[b]), ())

    result = EnumResult(0, 0, [], True)
    record = _recorder(G, spec, result, slots, typed)

    tables = {name: {} for name in names}

    # incremental interchange support: for each slot of a table X, the
    # quadruples that read its key.  A quadruple is written from X's side as
    # (p, q, r, s), with X-keys (p, q), (r, s) and keys (p, r), (q, s) of the
    # other table Y: (a, a2, b, b2) for the vertical table, (a, b, a2, b2)
    # for the horizontal one.  It reads the X-keys it holds, and the X-key
    # (Y(p, r), Y(q, s)); for the latter, the quadruples are pre-filtered by
    # the boundaries those composites have, (ys[p], yt[r]) and (ys[q], yt[s]),
    # which holds because the search only places typed values
    watched = {}
    if flags.interchange:
        for j in h_levels:
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
                for slot in slots:
                    kind, level, (x, y) = slot
                    if (kind, level) == x_name:
                        watched[slot] = (tables[y_name], by_key.get((x, y), ()),
                                         by_type.get((ys[x], yt[x], ys[y], yt[y]), ()))

    # incremental associativity support: for each vertical slot (a, b), its
    # table's preimage index (value -> keys now holding it, in the order
    # they were set) and the cells that can follow b or precede a
    assoc_watch = {}
    if flags.associative:
        for j in levels:
            d = j + 1
            preimage = [[] for _ in range(G.count(d))]
            if j == -1:
                cells = range(G.count(d))
                after = before = [cells] * G.count(d)
            else:
                follow = boundary_fibers(G, d, j, SOURCE)
                precede = boundary_fibers(G, d, j, TARGET)
                after = [follow.get(t, ()) for t in G.tgt_map(d)]
                before = [precede.get(s, ()) for s in G.src_map(d)]
            for a, b in composable_pairs(G, j):
                assoc_watch["v", j, (a, b)] = (preimage, after[b], before[a])

    # each slot with its table and its watches, resolved once
    steps = [(tables[slot[:2]], slot[2], assoc_watch.get(slot), watched.get(slot))
             for slot in slots]

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

    def candidates(pos):
        slot = slots[pos]
        kind, j, (a, b) = slot
        base = _candidates(G, tables, typed, slot)
        if kind == "v" and flags.unital and j >= 0:
            idn = G.idn_map(j)
            if a == idn[G.src_map(j + 1)[a]]:
                base = (b,) if b in base else ()
            elif b == idn[G.tgt_map(j + 1)[b]]:
                base = (a,) if a in base else ()
        return iter(base if flags.global_ else base + (None,))

    # Backtracking with an explicit stack: stack[pos] iterates the candidates
    # of slots[pos], whose entry holds the value last taken from it
    nodes = 0
    stack = [candidates(0)] if slots else []
    if not slots:
        record(tables)
    while stack:
        pos = len(stack) - 1
        ent, key, assoc, watch = steps[pos]
        old = ent.pop(key, None)
        if old is not None and assoc is not None:
            assoc[0][old].pop()
        value = next(stack[pos], _END)
        if value is _END:
            stack.pop()
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
            if watch is not None and not interchange_ok(ent, key, *watch):
                continue
        if pos + 1 < len(slots):
            stack.append(candidates(pos + 1))
        else:
            record(tables)
    result.nodes = nodes
    result.iso_count = len(result.canonical_counts)
    result.elapsed = time.monotonic() - start
    return result


def brute_force_oracle(G: NGraph, spec: EnumSpec = EnumSpec(), space_bound: int = 10 ** 6) -> EnumResult:
    """Unpruned reference count over the raw assignment space.

    Every key ranges over every cell of the right dimension (plus "absent"
    in partial mode); each full assignment is filtered through the axiom
    checkers.  The assignment space must fit under ``space_bound``.
    """
    levels, h_levels = _resolve_levels(G, spec)
    start = time.monotonic()
    names, slots = _keys(G, levels, h_levels)

    space = 1
    domains = []
    for kind, j, _key in slots:
        cells = tuple(range(G.count(j + 1 if kind == "v" else j + 2)))
        domains.append(cells if spec.flags.global_ else cells + (None,))
        space *= len(domains[-1])
        if space > space_bound:
            raise SpaceTooLarge(f"assignment space exceeds {space_bound}")

    # typed cells of every vertical key, scanned from the raw maps: a cheap
    # pre-reject here, and the extension candidates of the maximal filter;
    # survivors still go through the real checkers.  Vertical slots come
    # first, so zipping an assignment with ``typed`` pairs exactly those.
    typed = {}
    for slot in slots:
        kind, j, (a, b) = slot
        if kind == "v":
            d = j + 1
            smap, tmap = G.src_map(d), G.tgt_map(d)
            typed[slot] = tuple(
                v for v in range(G.count(d)) if smap[v] == smap[a] and tmap[v] == tmap[b])

    result = EnumResult(0, 0, [], True)
    record = _recorder(G, spec, result, slots, typed)

    for combo in itertools.product(*domains):
        if any(value is not None and value not in members
               for value, members in zip(combo, typed.values())):
            continue
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
