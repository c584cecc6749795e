"""Exact enumeration of the category structures a finite carrier admits.

Two routes compute the same answer.  ``enumerate_structures`` backtracks
over table entries in a fixed order (levels ascending, keys lexicographic),
pruning branches as soon as typing, unit, associativity or interchange
constraints are decided and can never recover.  ``brute_force_oracle``
iterates the raw assignment space with no pruning at all and filters each
candidate through the axiom checkers; it exists so the search can be
checked against an implementation too simple to share its bugs.

Structures are counted both raw and up to isomorphism.  Two structures on
the same carrier are isomorphic when some graph automorphism carries one
table family onto the other, so the canonical form of a structure is the
least serialization over its automorphism orbit.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field

from .graphs import (
    GraphError,
    NGraph,
    SpaceTooLarge,
    automorphisms,
    hom_buckets,
    is_monoidal_carrier,
    is_skeletal,
)
from .structures import (
    FAIL,
    PASS,
    AxiomFlags,
    CategoryStructure,
    CompTable,
    HCompTable,
    check_associativity,
    check_global,
    check_groupoid,
    check_interchange,
    check_typing,
    check_units,
    composable_pairs,
    composable_triples,
    h_composable_pairs,
    interchange_partners,
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
    raw_count: int
    iso_count: int
    representatives: list[CategoryStructure]
    exhausted: bool
    nodes: int = 0
    elapsed: float = 0.0
    canonical_counts: Counter = field(default_factory=Counter)


class _Stop(Exception):
    pass


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


def _passes_flags(S: CategoryStructure) -> bool:
    """The definitional filter: does the candidate satisfy every axiom its
    flags request, per the checkers themselves."""
    if not check_typing(S).passed:
        return False
    flags = S.flags
    for j in sorted(S.vtables):
        if flags.global_ and not check_global(S, j).passed:
            return False
        if flags.unital and check_units(S, j).checks[0].verdict == FAIL:
            return False
        if flags.associative and not check_associativity(S, j).passed:
            return False
        if flags.groupoid:
            verdict = check_units(S, j).checks[0].verdict
            if verdict == FAIL:
                return False
            if verdict == PASS and not check_groupoid(S, j).passed:
                return False
    if flags.interchange:
        for j in sorted(S.htables):
            if j + 1 in S.vtables and not check_interchange(S, j).passed:
                return False
    return True


def canonical_form(S: CategoryStructure, auts=None) -> bytes:
    """Least serialization of the table family over the automorphism orbit.

    Structures on the same carrier have equal canonical forms exactly when
    some automorphism relabels one into the other.
    """
    if auts is None:
        auts = automorphisms(S.graph)
    best = None
    vlevels = sorted(S.vtables)
    hlevels = sorted(S.htables)
    for phi in auts:
        parts = []
        for j in vlevels:
            m = phi.maps[j + 1]
            parts.append((j, "v", tuple(sorted(
                (m[a], m[b], m[v]) for (a, b), v in S.vtables[j].entries.items()))))
        for j in hlevels:
            m = phi.maps[j + 2]
            parts.append((j, "h", tuple(sorted(
                (m[a], m[b], m[v]) for (a, b), v in S.htables[j].entries.items()))))
        blob = repr(parts).encode()
        if best is None or blob < best:
            best = blob
    return best


def _structure(G, spec, v_entries, h_entries):
    vtables = [CompTable(j, dict(e)) for j, e in sorted(v_entries.items())]
    htables = [HCompTable(j, dict(e)) for j, e in sorted(h_entries.items())]
    return CategoryStructure(G, vtables, htables, spec.flags)


def _keys(G, levels, h_levels):
    """The table keys in search order: vertical levels ascending, then
    horizontal levels, each with its keys in lexicographic order."""
    vkeys = [(j, key) for j in levels for key in sorted(composable_pairs(G, j))]
    hkeys = [(j, key) for j in h_levels for key in sorted(h_composable_pairs(G, j))]
    return vkeys, hkeys


def _h_candidates(G, v_entries, j, key):
    """The cells a horizontal key may take: those typed by the vertical
    composites of its boundaries, none while either composite is absent."""
    d = j + 2
    vt = v_entries.get(j, {})
    smap, tmap = G.src_map(d), G.tgt_map(d)
    a, b = key
    want_s = vt.get((smap[a], smap[b]))
    want_t = vt.get((tmap[a], tmap[b]))
    if want_s is None or want_t is None:
        return ()
    return hom_buckets(G, d).get((want_s, want_t), ())


def _extensions_exist(G, spec, v_entries, h_entries, vkeys, hkeys, typed_v):
    """Whether any single absent entry could be filled while keeping the
    requested axioms; used for the maximal-only filter."""
    for (j, key) in vkeys:
        if key in v_entries[j]:
            continue
        for v in typed_v[(j, key)]:
            v_entries[j][key] = v
            S = _structure(G, spec, v_entries, h_entries)
            ok = _passes_flags(S)
            del v_entries[j][key]
            if ok:
                return True
    for (j, key) in hkeys:
        if key in h_entries[j]:
            continue
        for v in _h_candidates(G, v_entries, j, key):
            h_entries[j][key] = v
            S = _structure(G, spec, v_entries, h_entries)
            ok = _passes_flags(S)
            del h_entries[j][key]
            if ok:
                return True
    return False


def _recorder(G, spec, result, vkeys, hkeys, typed_v):
    """The record step both routes share.  The returned function takes one
    complete assignment; when it passes the flags (and, in maximal-only
    mode, admits no single-entry extension) it is tallied raw and by
    canonical form, keeping the first representative of each class."""
    auts = automorphisms(G)
    maximal = spec.maximal_only and not spec.flags.global_
    cap = spec.limits.max_representatives

    def record(v_entries, h_entries):
        S = _structure(G, spec, v_entries, h_entries)
        if not _passes_flags(S):
            return
        if maximal and _extensions_exist(G, spec, v_entries, h_entries, vkeys, hkeys, typed_v):
            return
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
    ``exhausted=False``.
    """
    levels, h_levels = _resolve_levels(G, spec)
    limits = spec.limits
    start = time.monotonic()
    vkeys, hkeys = _keys(G, levels, h_levels)

    # typed candidates for vertical keys are fixed up front
    typed_v = {}
    for j, (a, b) in vkeys:
        d = j + 1
        typed_v[(j, (a, b))] = hom_buckets(G, d).get((G.src_map(d)[a], G.tgt_map(d)[b]), ())

    result = EnumResult(0, 0, [], True)
    record = _recorder(G, spec, result, vkeys, hkeys, typed_v)

    # incremental associativity support: which triples can a key decide
    trip = {j: composable_triples(G, j) for j in levels}
    trip_by_pair = {j: {} for j in levels}
    trip_by_first = {j: {} for j in levels}
    trip_by_third = {j: {} for j in levels}
    if spec.flags.associative:
        for j in levels:
            for t in trip[j]:
                a, b, c = t
                trip_by_pair[j].setdefault((a, b), []).append(t)
                if (b, c) != (a, b):
                    trip_by_pair[j].setdefault((b, c), []).append(t)
                trip_by_first[j].setdefault(a, []).append(t)
                trip_by_third[j].setdefault(c, []).append(t)

    quads = {}
    if spec.flags.interchange:
        for j in h_levels:
            quads[j] = [(a, a2, b, b2) for (a, a2), partners in interchange_partners(G, j)
                        for b, b2 in partners]

    v_entries = {j: {} for j in levels}
    h_entries = {j: {} for j in h_levels}
    order = [("v",) + k for k in vkeys] + [("h",) + k for k in hkeys]

    state = {"nodes": 0}

    def tick():
        state["nodes"] += 1
        if state["nodes"] > limits.max_nodes:
            raise _Stop
        if limits.time_budget is not None and state["nodes"] % 1024 == 0:
            if time.monotonic() - start > limits.time_budget:
                raise _Stop

    def assoc_ok(j, key, value):
        ent = v_entries[j]
        a, b = key
        seen = trip_by_pair[j].get(key, ())
        todo = list(seen)
        for t in trip_by_third[j].get(b, ()):
            if ent.get((t[0], t[1])) == a:
                todo.append(t)
        for t in trip_by_first[j].get(a, ()):
            if ent.get((t[1], t[2])) == b:
                todo.append(t)
        for p, q, r in todo:
            pq = ent.get((p, q))
            qr = ent.get((q, r))
            left = ent.get((pq, r)) if pq is not None else None
            right = ent.get((p, qr)) if qr is not None else None
            if left is not None and right is not None and left != right:
                return False
        return True

    def interchange_ok(j):
        V = v_entries.get(j + 1)
        H = h_entries.get(j)
        if V is None or H is None:
            return True
        for a, a2, b, b2 in quads[j]:
            va, vb = V.get((a, a2)), V.get((b, b2))
            hab, hab2 = H.get((a, b)), H.get((a2, b2))
            if va is None or vb is None or hab is None or hab2 is None:
                continue
            lhs = H.get((va, vb))
            rhs = V.get((hab, hab2))
            if lhs is not None and rhs is not None and lhs != rhs:
                return False
        return True

    def candidates(pos):
        kind, j, key = order[pos]
        if kind == "v":
            base = typed_v[(j, key)]
            if spec.flags.unital and j >= 0:
                idn = G.idn_map(j)
                smap, tmap = G.src_map(j + 1), G.tgt_map(j + 1)
                a, b = key
                if a == idn[smap[a]]:
                    base = (b,) if b in base else ()
                elif b == idn[tmap[b]]:
                    base = (a,) if a in base else ()
        else:
            base = _h_candidates(G, v_entries, j, key)
        if spec.flags.global_:
            return base
        return base + (None,)

    def search(pos):
        if pos == len(order):
            record(v_entries, h_entries)
            return
        kind, j, key = order[pos]
        ent = v_entries[j] if kind == "v" else h_entries[j]
        for value in candidates(pos):
            tick()
            if value is None:
                search(pos + 1)
                continue
            ent[key] = value
            ok = True
            if kind == "v" and spec.flags.associative:
                ok = assoc_ok(j, key, value)
            if ok and spec.flags.interchange:
                if kind == "v":
                    if j - 1 in h_entries:
                        ok = interchange_ok(j - 1)
                else:
                    ok = interchange_ok(j)
            if ok:
                search(pos + 1)
            del ent[key]

    try:
        search(0)
    except _Stop:
        result.exhausted = False
    # ``search`` refers to itself; emptying its cell breaks the cycle so the
    # search state is freed on return instead of at the next full collection
    del search
    result.nodes = state["nodes"]
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
    vkeys, hkeys = _keys(G, levels, h_levels)

    domains = []
    for j, _key in vkeys:
        cells = tuple(range(G.count(j + 1)))
        domains.append(cells if spec.flags.global_ else cells + (None,))
    for j, _key in hkeys:
        cells = tuple(range(G.count(j + 2)))
        domains.append(cells if spec.flags.global_ else cells + (None,))

    space = 1
    for d in domains:
        space *= len(d)
        if space > space_bound:
            raise SpaceTooLarge(f"assignment space exceeds {space_bound}")

    # typed cells of every vertical key, scanned from the raw maps: a cheap
    # pre-reject here, and the extension candidates of the maximal filter;
    # survivors still go through the real checkers
    typed = []
    for j, (a, b) in vkeys:
        d = j + 1
        smap, tmap = G.src_map(d), G.tgt_map(d)
        typed.append(tuple(
            v for v in range(G.count(d)) if smap[v] == smap[a] and tmap[v] == tmap[b]
        ))

    nv = len(vkeys)
    result = EnumResult(0, 0, [], True)
    record = _recorder(G, spec, result, vkeys, hkeys, dict(zip(vkeys, typed)))

    for combo in itertools.product(*domains):
        ok = True
        for value, members in zip(combo, typed):
            if value is not None and value not in members:
                ok = False
                break
        if not ok:
            continue
        v_entries = {j: {} for j in levels}
        h_entries = {j: {} for j in h_levels}
        for (j, key), value in zip(vkeys, combo[:nv]):
            if value is not None:
                v_entries[j][key] = value
        for (j, key), value in zip(hkeys, combo[nv:]):
            if value is not None:
                h_entries[j][key] = value
        record(v_entries, h_entries)

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
