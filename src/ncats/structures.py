"""Composition tables over an n-graph and the axiom checkers that decide
whether a candidate assignment is a category structure.

A table (d, j) composes d-cells along their dimension-j boundaries, and
one rule covers every table.  Its keys are the pairs (a, b) whose
j-boundaries meet (``table_keys``).  A composite runs from src a to tgt b
when d = j+1; otherwise its source and target are the (d-1, j) composites
of the two sources and of the two targets (``composite_type``).  The
vertical table at level j is (j+1, j), kept in ``vtables``; the horizontal
one is (j+2, j), kept in ``htables``.  ``CompTable`` is the one table class
(``HCompTable`` is an alias).  Other modules read and build tables as entry
dicts named (d, j), through ``named_tables`` and its inverse
``split_tables``.  Level -1 is only allowed on a monoidal carrier.  Entries
are written in diagrammatic order: the key (a, b) means "a first, then b".

Checkers never raise on a bad table; they return a report whose checks
carry one verdict each (pass, fail, or not-applicable) plus explicit
counterexamples, so a caller can tell exactly which axiom broke and where.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .graphs import (
    SOURCE,
    TARGET,
    CellId,
    NGraph,
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

FLAG_NAMES = ("global", "unital", "associative", "interchange", "groupoid")


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
        return cls(
            global_="global" in names,
            unital="unital" in names,
            associative="associative" in names,
            interchange="interchange" in names,
            groupoid="groupoid" in names,
        )

    def names(self) -> tuple[str, ...]:
        picked = []
        for name in FLAG_NAMES:
            if getattr(self, "global_" if name == "global" else name):
                picked.append(name)
        return tuple(picked)


@dataclass
class CompTable:
    """Composition at one level, vertical or horizontal: (a, b) -> a-then-b."""

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


def _single(axiom, level, verdict, counterexamples=None, asymmetric=None, notes=None):
    return AxiomReport([AxiomCheck(
        axiom, level, verdict,
        counterexamples or [], asymmetric or [], notes or [],
    )])


@per_carrier
def table_keys(G: NGraph, d: int, j: int):
    """The keys of table (d, j), lexicographically, as a tuple computed once
    per carrier: the pairs (a, b) of d-cells with tgt_j a == src_j b."""
    after = boundary_fibers(G, d, j, SOURCE)
    return tuple((a, b) for a, t in enumerate(boundary_map(G, d, j, TARGET))
                 for b in after.get(t, ()))


@per_carrier
def _end_types(G: NGraph, d: int, j: int):
    """(src a, tgt b) for every key (a, b) of a table (d, j) with d = j+1."""
    smap, tmap = G.src_map(d), G.tgt_map(d)
    return MappingProxyType({(a, b): (smap[a], tmap[b]) for a, b in table_keys(G, d, j)})


class _Composites:
    """The types of the keys of a table (d, j) with d > j+1, read through
    the entries ``below`` of table (d-1, j) as they stand."""

    def __init__(self, G: NGraph, d: int, below):
        self.smap, self.tmap, self.get = G.src_map(d), G.tgt_map(d), below.get

    def __getitem__(self, key):
        a, b = key
        smap, tmap, get = self.smap, self.tmap, self.get
        s, t = get((smap[a], smap[b])), get((tmap[a], tmap[b]))
        return None if s is None or t is None else (s, t)


def composite_type(G: NGraph, d: int, j: int, tables):
    """The typing rule of table (d, j) in the family ``tables`` (entry
    dicts named (d, j)), read by key: ``types[a, b]`` is the (source,
    target) pair of (d-1)-cells the composite of (a, b) must have.

    At d = j+1 the composite runs from src a to tgt b.  Above that its
    source is the (d-1, j) composite of the two sources and its target that
    of the two targets, read in table (d-1, j) as it stands at each lookup;
    the type is None while either is absent.  This is the one place that
    tells the two cases apart.
    """
    if d == j + 1:
        return _end_types(G, d, j)
    return _Composites(G, d, tables.get((d - 1, j), {}))


def composable(G: NGraph, j: int, a: int, b: int) -> bool:
    """Whether (a, b) is a key of the vertical table at level j."""
    return G.tgt_map(j + 1)[a] == G.src_map(j + 1)[b]


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
def interchange_partners(G: NGraph, j: int):
    """Each level-(j+1) key (a, a2) of (j+2)-cells, in ``composable_pairs``
    order, with the keys (b, b2), in the same order, such that (a, b) and
    (a2, b2) are level-j horizontal keys: the quadruples that middle-four
    exchange constrains.  Computed once per carrier; the partner tuples are
    shared, so the index grows with the number of keys, not quadruples."""
    d = j + 2
    outer_t = boundary_map(G, d, j, TARGET)
    outer_s = boundary_map(G, d, j, SOURCE)
    vpairs = composable_pairs(G, j + 1)
    by_outer_src = {}
    for pair in vpairs:
        by_outer_src.setdefault(outer_s[pair[0]], []).append(pair)
    by_outer_src = {x: tuple(pairs) for x, pairs in by_outer_src.items()}
    # by globularity the two cells of a level-(j+1) key share their
    # dimension-j boundaries, so (a2, b2) meets exactly when (a, b) does
    return tuple((pair, by_outer_src.get(outer_t[pair[0]], ())) for pair in vpairs)


class CategoryStructure:
    """A carrier plus whatever composition tables the candidate provides.

    Tables may be partial; the flags say which axioms the candidate claims.
    Construction rejects keys that are not composable and tables at levels
    the carrier cannot host, but makes no judgement about the axioms; that
    is the checkers' job.
    """

    def __init__(self, graph: NGraph, vtables=(), htables=(), flags: AxiomFlags = AxiomFlags()):
        self.graph = graph
        self.flags = flags
        self.vtables: dict[int, CompTable] = {}
        self.htables: dict[int, CompTable] = {}
        # a table at level j composes (j + offset)-cells; the lowest level
        # is offset - 2, and level -1 needs a monoidal carrier
        for offset, given, kept, kind, prefix, unmet in (
                (1, vtables, self.vtables, "vertical", "", "is not composable"),
                (2, htables, self.htables, "horizontal", "horizontal ", "shares no boundary")):
            for t in given.values() if isinstance(given, dict) else given:
                j, d = t.level, t.level + offset
                if not offset - 2 <= j <= graph.n - offset:
                    raise NoTableAtLevel(f"{kind} level {j} outside {offset - 2}..{graph.n - offset}")
                if j == -1 and not is_monoidal_carrier(graph):
                    raise NoTableAtLevel("level -1 table needs a single (-1)-cell")
                if j in kept:
                    raise StructureError(f"duplicate {kind} table at level {j}")
                cnt = graph.count(d)
                tmap, smap = boundary_map(graph, d, j, TARGET), boundary_map(graph, d, j, SOURCE)
                for (a, b), v in t.entries.items():
                    if not (0 <= a < cnt and 0 <= b < cnt and 0 <= v < cnt):
                        raise StructureError(f"{prefix}level {j} entry ({a}, {b}) -> {v} out of range")
                    if tmap[a] != smap[b]:
                        raise NotComposable(f"{prefix}level {j} key ({a}, {b}) {unmet}")
                kept[j] = t

    def __eq__(self, other):
        return (
            isinstance(other, CategoryStructure)
            and self.graph == other.graph
            and self.flags == other.flags
            and named_tables(self) == named_tables(other)
        )

    def __repr__(self):
        vs = {j: len(t.entries) for j, t in sorted(self.vtables.items())}
        hs = {j: len(t.entries) for j, t in sorted(self.htables.items())}
        return f"CategoryStructure(vertical {vs}, horizontal {hs}, flags {self.flags.names()})"


def named_tables(S: CategoryStructure) -> dict:
    """The entry dicts of ``S`` named (d, j): the vertical tables (j+1, j),
    levels ascending, then the horizontal tables (j+2, j)."""
    return {**{(j + 1, j): t.entries for j, t in sorted(S.vtables.items())},
            **{(j + 2, j): t.entries for j, t in sorted(S.htables.items())}}


def split_tables(tables):
    """The vertical and the horizontal tables of entry dicts named (d, j),
    as ``CategoryStructure`` takes them, uncopied: ``named_tables`` undone."""
    split = {1: [], 2: []}
    for (d, j), entries in tables.items():
        split[d - j].append(CompTable(j, entries))
    return split[1], split[2]


def compose(S: CategoryStructure, a: CellId, b: CellId, j: int) -> CellId:
    """Table lookup for "a then b" at level j, raising when impossible."""
    if j not in S.vtables:
        raise NoTableAtLevel(f"no vertical table at level {j}")
    d = j + 1
    if a.dim != d or b.dim != d:
        raise NotComposable(f"level {j} composes dimension-{d} cells, got {a} and {b}")
    if not composable(S.graph, j, a.index, b.index):
        raise NotComposable(f"{a} and {b} do not meet end to end")
    try:
        return CellId(d, S.vtables[j].entries[(a.index, b.index)])
    except KeyError:
        raise NotDefined(f"level {j} table has no entry for ({a}, {b})") from None


# -- one integer scan per axiom ---------------------------------------------
#
# Each scan reads plain entry dicts ({(a, b): v}) and yields one integer
# tuple per violation.  The checkers below turn those tuples into
# counterexamples at the report edge; the enumeration's record step only
# asks whether a scan yields anything, so it stops at the first violation.


def typing_scan(G: NGraph, d: int, j: int, tables):
    """Entries of table (d, j) in the family ``tables`` whose value does not
    have the type of their composite (see ``composite_type``), as
    (a, b, v, want) in stored order; ``want`` is that type, None when it is
    undecided."""
    smap, tmap = G.src_map(d), G.tgt_map(d)
    types = composite_type(G, d, j, tables)
    for key, v in tables[d, j].items():
        want = types[key]
        if want is None or want[0] != smap[v] or want[1] != tmap[v]:
            yield key[0], key[1], v, want


def global_scan(keys, entries):
    """The keys, in order, that have no entry."""
    for key in keys:
        if key not in entries:
            yield key


def units_scan(G: NGraph, j: int, entries, total: bool):
    """Unit-law violations at level j >= 0, cell by cell, as
    (side, key, a, got): side 0 for the left unit key (idn(src a), a) and 1
    for the right one (a, idn(tgt a)), ``got`` the entry there.  A missing
    entry (``got`` None) is a violation only when ``total``."""
    d = j + 1
    idn = G.idn_map(j)
    smap, tmap = G.src_map(d), G.tgt_map(d)
    for a in range(G.count(d)):
        for side, key in ((0, (idn[smap[a]], a)), (1, (a, idn[tmap[a]]))):
            got = entries.get(key)
            if got is None:
                if total:
                    yield side, key, a, None
            elif got != a:
                yield side, key, a, got


def assoc_scan(G: NGraph, j: int, entries, lopsided=None):
    """Composable level-j triples whose two bracketings are both defined
    and differ, as (a, b, c, left, right), lexicographically.

    Given a list, the scan also appends to ``lopsided`` each triple, as
    (a, b, c), with exactly one bracketing defined; without one it skips
    every triple whose left bracketing is undefined before reading the
    right one.
    """
    after = neighbours(G, j, SOURCE)
    get = entries.get
    for a, nxt in enumerate(after):
        for b in nxt:
            ab = get((a, b))
            if ab is None and lopsided is None:
                continue
            for c in after[b]:
                left = get((ab, c)) if ab is not None else None
                if left is None and lopsided is None:
                    continue
                bc = get((b, c))
                right = get((a, bc)) if bc is not None else None
                if left is not None and right is not None:
                    if left != right:
                        yield a, b, c, left, right
                elif lopsided is not None and (left is not None or right is not None):
                    lopsided.append((a, b, c))


def interchange_scan(G: NGraph, j: int, V, H, lopsided=None):
    """Middle-four exchange between the vertical entries ``V`` at level
    j+1 and the horizontal entries ``H`` at level j: the quadruples
    (a, a2, b, b2), in ``interchange_partners`` order, whose four inner
    composites and both outer ones are defined and disagree, as
    (a, a2, b, b2, lhs, rhs).  Given a list, the scan also appends to
    ``lopsided`` each quadruple with only one outer composite defined."""
    vget, hget = V.get, H.get
    for (a, a2), partners in interchange_partners(G, j):
        va = vget((a, a2))
        if va is None:
            continue
        for b, b2 in partners:
            vb = vget((b, b2))
            hab = hget((a, b))
            hab2 = hget((a2, b2))
            if vb is None or hab is None or hab2 is None:
                continue
            lhs = hget((va, vb))
            rhs = vget((hab, hab2))
            if lhs is not None and rhs is not None:
                if lhs != rhs:
                    yield a, a2, b, b2, lhs, rhs
            elif lopsided is not None and (lhs is not None or rhs is not None):
                lopsided.append((a, a2, b, b2))


def _inverses(G: NGraph, j: int, entries, a: int):
    """The two-sided inverses of the (j+1)-cell ``a``, ascending."""
    d = j + 1
    idn = G.idn_map(j)
    x, y = G.src_map(d)[a], G.tgt_map(d)[a]
    for b in hom_buckets(G, d).get((y, x), ()):
        if entries.get((a, b)) == idn[x] and entries.get((b, a)) == idn[y]:
            yield b


def groupoid_scan(G: NGraph, j: int, entries):
    """The (j+1)-cells, ascending, with no two-sided inverse at level j;
    meaningful once the unit law holds there."""
    for a in range(G.count(j + 1)):
        if next(_inverses(G, j, entries, a), None) is None:
            yield a


# -- the checkers: the scans' violations as counterexamples -----------------

def check_typing(S: CategoryStructure) -> AxiomReport:
    """Every entry must land in the hom-set its composite's type spans.

    Horizontal values are typed through the vertical table at the same
    level; a missing vertical composite makes the entry untypeable.
    """
    checks = []
    G = S.graph
    tables = named_tables(S)
    # the scans yield entries as stored; the counterexamples are put in key
    # order
    for d, j in tables:
        bad = []
        for a, b, v, want in sorted(typing_scan(G, d, j, tables)):
            cells = (CellId(d, a), CellId(d, b))
            if want is None:
                bad.append(Counterexample("untypeable", cells,
                                          expected="vertical composite of the boundaries",
                                          actual=CellId(d, v)))
            else:
                bad.append(Counterexample("typing", cells,
                                          expected=(CellId(d - 1, want[0]), CellId(d - 1, want[1])),
                                          actual=CellId(d, v)))
        axiom = "typing" if d == j + 1 else "typing-horizontal"
        checks.append(AxiomCheck(axiom, j, FAIL if bad else PASS, bad))
    return AxiomReport(checks)


def check_global(S: CategoryStructure, j: int) -> AxiomReport:
    """Totality at level j: every key of the vertical and of the horizontal
    table there, whichever ``S`` has, has an entry."""
    tables = [(d, entries) for (d, i), entries in named_tables(S).items() if i == j]
    if not tables:
        raise NoTableAtLevel(f"no table at level {j}")
    checks = []
    for d, entries in tables:
        bad = [Counterexample("missing", (CellId(d, a), CellId(d, b)))
               for a, b in global_scan(table_keys(S.graph, d, j), entries)]
        axiom = "global" if d == j + 1 else "global-horizontal"
        checks.append(AxiomCheck(axiom, j, FAIL if bad else PASS, bad))
    return AxiomReport(checks)


_UNIT_SIDES = ("unit-left", "unit-right")


def check_units(S: CategoryStructure, j: int) -> AxiomReport:
    """Identity cells act as left and right units wherever the table is
    defined; under the global flag the unit entries must also exist.

    Level -1 is not applicable: there is no identity section below
    dimension 0, so the product of 0-cells carries no designated unit.
    """
    if j == -1:
        return _single("units", -1, NOT_APPLICABLE,
                       notes=["no identity section below dimension 0"])
    if j not in S.vtables:
        raise NoTableAtLevel(f"no vertical table at level {j}")
    d = j + 1
    bad = []
    for side, (p, q), a, got in units_scan(S.graph, j, S.vtables[j].entries, S.flags.global_):
        cells = (CellId(d, p), CellId(d, q))
        if got is None:
            bad.append(Counterexample(_UNIT_SIDES[side] + "-missing", cells,
                                      expected=CellId(d, a)))
        else:
            bad.append(Counterexample(_UNIT_SIDES[side], cells,
                                      expected=CellId(d, a), actual=CellId(d, got)))
    return _single("units", j, FAIL if bad else PASS, bad)


def check_associativity(S: CategoryStructure, j: int) -> AxiomReport:
    """Both bracketings of every composable triple agree when both are
    defined.  Triples where exactly one side is defined are collected
    separately; partiality alone is not a violation."""
    if j not in S.vtables:
        raise NoTableAtLevel(f"no vertical table at level {j}")
    d = j + 1
    lopsided = []
    bad = [Counterexample("associativity", (CellId(d, a), CellId(d, b), CellId(d, c)),
                          expected=CellId(d, left), actual=CellId(d, right))
           for a, b, c, left, right in assoc_scan(S.graph, j, S.vtables[j].entries, lopsided)]
    asymmetric = [Counterexample("partiality-asymmetry", (CellId(d, a), CellId(d, b), CellId(d, c)),
                                 expected="both bracketings defined or neither")
                  for a, b, c in lopsided]
    return _single("associativity", j, FAIL if bad else PASS, bad, asymmetric=asymmetric)


def check_interchange(S: CategoryStructure, j: int) -> AxiomReport:
    """Middle-four exchange between vertical composition at level j+1 and
    horizontal composition at level j.

    For quadruples where the four inner composites and both outer ones are
    defined, the two evaluation orders must agree.  Quadruples where only
    one outer side is defined are collected separately.
    """
    if j + 1 not in S.vtables or j not in S.htables:
        raise MissingTables(f"interchange at level {j} needs the vertical table "
                            f"at level {j + 1} and the horizontal table at level {j}")
    d = j + 2
    lopsided = []
    bad = [Counterexample("interchange", tuple(CellId(d, x) for x in quad[:4]),
                          expected=CellId(d, quad[4]), actual=CellId(d, quad[5]))
           for quad in interchange_scan(S.graph, j, S.vtables[j + 1].entries,
                                        S.htables[j].entries, lopsided)]
    asymmetric = [Counterexample("partiality-asymmetry", tuple(CellId(d, x) for x in quad),
                                 expected="both evaluation orders defined or neither")
                  for quad in lopsided]
    return _single("interchange", j, FAIL if bad else PASS, bad, asymmetric=asymmetric)


def check_groupoid(S: CategoryStructure, j: int) -> AxiomReport:
    """Every cell must have a two-sided inverse against the identities.

    The unit law is a precondition; a failing unit check makes inversion
    meaningless, which is raised rather than reported.
    """
    unit = check_units(S, j).checks[0]
    if unit.verdict == FAIL:
        raise UnitsRequired(f"unit law fails at level {j}; inversion is undecidable")
    return _groupoid_report(S, j, unit)


def _groupoid_report(S: CategoryStructure, j: int, unit: AxiomCheck) -> AxiomReport:
    """The groupoid check at level j given the unit check there, which it
    follows when that fails or does not apply."""
    if unit.verdict == FAIL:
        return _single("groupoid", j, FAIL, list(unit.counterexamples),
                       notes=["unit law violated; inversion is undecidable"])
    if unit.verdict == NOT_APPLICABLE:
        return _single("groupoid", j, NOT_APPLICABLE, notes=list(unit.notes))
    G = S.graph
    d = j + 1
    idn = G.idn_map(j)
    smap, tmap = G.src_map(d), G.tgt_map(d)
    bad = [Counterexample("no-inverse", (CellId(d, a),),
                          expected=(CellId(d, idn[smap[a]]), CellId(d, idn[tmap[a]])))
           for a in groupoid_scan(G, j, S.vtables[j].entries)]
    return _single("groupoid", j, FAIL if bad else PASS, bad)


def inverses(S: CategoryStructure, j: int, a: CellId) -> list[CellId]:
    """All two-sided inverses of ``a`` at level j (used to confirm that a
    passing groupoid check pins the inverse down uniquely)."""
    return [CellId(j + 1, b) for b in _inverses(S.graph, j, S.vtables[j].entries, a.index)]


def check_cocategory(G: NGraph, D: CocompTable) -> AxiomReport:
    """Typing of cocomposition: each witness splits a cell z: x -> y into
    pieces x -> w and w -> y through the chosen middle cell."""
    j = D.level
    if not 0 <= j <= G.n - 1:
        raise NoTableAtLevel(f"cocomposition level {j} outside 0..{G.n - 1}")
    d = j + 1
    smap, tmap = G.src_map(d), G.tgt_map(d)
    bad = []
    for z, (w, p, q) in sorted(D.entries.items()):
        if not (0 <= z < G.count(d) and 0 <= p < G.count(d) and 0 <= q < G.count(d) and 0 <= w < G.count(j)):
            bad.append(Counterexample("co-range", (CellId(d, z),),
                                      actual=(w, p, q)))
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
    return _single("cocategory", j, FAIL if bad else PASS, bad)


def check_category(S: CategoryStructure) -> AxiomReport:
    """Run the full battery selected by the structure's flags.

    Typing always runs.  Totality runs for every level that has a table,
    the other per-level axioms for every level that has a vertical table;
    interchange runs for every level that has both tables it needs.
    A groupoid request with a broken unit law is reported as a failure with
    a note instead of raising, so the aggregate stays total.  The unit law
    is scanned once per level, for ``unital`` and as that precondition.
    """
    report = check_typing(S)
    for j in sorted(S.vtables.keys() | S.htables.keys()):
        if S.flags.global_:
            report = report.merged(check_global(S, j))
        if j not in S.vtables:
            continue
        if S.flags.unital or S.flags.groupoid:
            units = check_units(S, j)
        if S.flags.unital:
            report = report.merged(units)
        if S.flags.associative:
            report = report.merged(check_associativity(S, j))
        if S.flags.groupoid:
            report = report.merged(_groupoid_report(S, j, units.checks[0]))
    if S.flags.interchange:
        for j in sorted(S.htables):
            if j + 1 in S.vtables:
                report = report.merged(check_interchange(S, j))
            else:
                report = report.merged(_single(
                    "interchange", j, NOT_APPLICABLE,
                    notes=[f"no vertical table at level {j + 1}"]))
        if not S.htables:
            report = report.merged(_single(
                "interchange", None, NOT_APPLICABLE,
                notes=["no horizontal tables present"]))
    return report
