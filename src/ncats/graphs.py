"""Finite truncated globular carriers (n-graphs).

An n-graph stores finitely many cells in each dimension from -1 up to n,
together with source and target maps going one dimension down and an
identity section going one dimension up.  Two conditions make the data
globular: the identity section is split by both boundary maps, and a cell
can only live between two cells of the same type, where the type of a cell
is its ordered boundary pair.  Dimensions above n are degenerate copies of
dimension n and are never stored.

The negative grades are truncated at -1.  Grade -1 holds one or two
structureless cells; a single (-1)-cell forces every 0-cell to have the
diagonal type, which is exactly the case where the 0-cells can carry a
product of their own (a monoidal carrier).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from types import MappingProxyType

SECTION_VIOLATION = "SectionViolation"
GLOBULARITY_VIOLATION = "GlobularityViolation"
ZERO_TYPE_VIOLATION = "ZeroTypeViolation"
INDEX_OUT_OF_RANGE = "IndexOutOfRange"
BAD_TAIL_SIZE = "BadTailSize"

SOURCE = "source"
TARGET = "target"


class GraphError(Exception):
    """Base class for structural errors raised by graph operations."""


class BadLevel(GraphError):
    pass


class DimensionMismatch(GraphError):
    pass


class DimensionTooHigh(GraphError):
    pass


class SpaceTooLarge(GraphError):
    """A finite search was asked to cover more candidates than its bound, or
    ran past its deadline."""


class GraphValidationError(GraphError):
    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__(f"invalid graph: {ValidationReport(self.issues)}")


@dataclass(frozen=True, order=True)
class CellId:
    dim: int
    index: int

    def __str__(self):
        return f"{self.dim}#{self.index}"


@dataclass(frozen=True)
class StructureTail:
    """The grade -1 data: how many (-1)-cells exist and which ordered pair
    of them every 0-cell is typed by."""

    minus_one_count: int = 1
    zero_type: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class ValidationIssue:
    condition: str
    cell: CellId | None
    detail: str

    def __str__(self):
        where = "" if self.cell is None else f" at {self.cell}"
        return f"{self.condition}{where}: {self.detail}"


@dataclass
class ValidationReport:
    issues: list[ValidationIssue]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self):
        return self.ok

    def __str__(self):
        """The first five issues, joined with "; ", and how many more."""
        lines = "; ".join(str(i) for i in self.issues[:5])
        more = "" if len(self.issues) <= 5 else f" (+{len(self.issues) - 5} more)"
        return lines + more


@dataclass(frozen=True)
class HomSet:
    level: int
    source: CellId
    target: CellId
    members: tuple[CellId, ...]


def _integer(v):
    """Whether ``v`` is an int and not a bool, as ``io.parse`` requires."""
    return isinstance(v, int) and not isinstance(v, bool)


def _sequence(v):
    """Whether ``v`` is a list or a tuple, as ``io.parse`` requires a list."""
    return isinstance(v, (list, tuple))


def _collect_issues(n, minus_one, zero_type, src, tgt, idn):
    issues = []

    def issue(cond, cell, detail):
        issues.append(ValidationIssue(cond, cell, detail))

    if not _integer(n) or n < 1:
        issue(INDEX_OUT_OF_RANGE, None, f"n must be a positive integer, got {n!r}")
        return issues
    if not _integer(minus_one) or minus_one not in (1, 2):
        issue(BAD_TAIL_SIZE, None, f"grade -1 must hold 1 or 2 cells, got {minus_one!r}")
        return issues
    if (
        not _sequence(zero_type)
        or len(zero_type) != 2
        or any(not _integer(v) or not 0 <= v < minus_one for v in zero_type)
    ):
        issue(BAD_TAIL_SIZE, None, f"zero type {zero_type!r} does not index the tail")
        return issues

    if not (_sequence(src) and _sequence(tgt)) or len(src) != n + 1 or len(tgt) != n + 1:
        issue(INDEX_OUT_OF_RANGE, None, "source/target families must cover dimensions 0..n")
        return issues
    if not _sequence(idn) or len(idn) != n:
        issue(INDEX_OUT_OF_RANGE, None, "identity sections must cover dimensions 0..n-1")
        return issues

    for d in range(n + 1):
        if not (_sequence(src[d]) and _sequence(tgt[d])):
            issue(INDEX_OUT_OF_RANGE, None, f"dimension {d}: source and target maps must be lists")
            return issues
        if len(tgt[d]) != len(src[d]):
            issue(INDEX_OUT_OF_RANGE, None, f"dimension {d}: target list length differs from source list")
            return issues
    counts = [len(src[d]) for d in range(n + 1)]
    for d in range(n):
        if not _sequence(idn[d]):
            issue(INDEX_OUT_OF_RANGE, None, f"dimension {d}: identity section must be a list")
            return issues
        if len(idn[d]) != counts[d]:
            issue(INDEX_OUT_OF_RANGE, None, f"dimension {d}: identity section is not total")
            return issues

    # boundary references stay in range; dimension 0 points into the tail
    for i, (s, t) in enumerate(zip(src[0], tgt[0])):
        if not (_integer(s) and _integer(t) and 0 <= s < minus_one and 0 <= t < minus_one):
            issue(INDEX_OUT_OF_RANGE, CellId(0, i), f"boundary ({s!r}, {t!r}) does not index the tail")
        elif (s, t) != tuple(zero_type):
            issue(ZERO_TYPE_VIOLATION, CellId(0, i), f"0-cell typed ({s}, {t}), expected {tuple(zero_type)}")
    for d in range(1, n + 1):
        below = counts[d - 1]
        for i, (s, t) in enumerate(zip(src[d], tgt[d])):
            if not (_integer(s) and _integer(t) and 0 <= s < below and 0 <= t < below):
                issue(INDEX_OUT_OF_RANGE, CellId(d, i), f"boundary ({s!r}, {t!r}) out of range for dimension {d - 1}")
    if any(i.condition == INDEX_OUT_OF_RANGE for i in issues):
        return issues

    # identity section split by both boundaries
    for d in range(n):
        for x, up in enumerate(idn[d]):
            if not (_integer(up) and 0 <= up < counts[d + 1]):
                issue(INDEX_OUT_OF_RANGE, CellId(d, x), f"identity image {up!r} out of range for dimension {d + 1}")
                continue
            if src[d + 1][up] != x or tgt[d + 1][up] != x:
                issue(SECTION_VIOLATION, CellId(d, x),
                      f"identity cell {CellId(d + 1, up)} has boundary "
                      f"({src[d + 1][up]}, {tgt[d + 1][up]}), expected ({x}, {x})")

    # cells of dimension >= 2 sit between cells of one type
    for d in range(2, n + 1):
        for i, (s, t) in enumerate(zip(src[d], tgt[d])):
            stype = (src[d - 1][s], tgt[d - 1][s])
            ttype = (src[d - 1][t], tgt[d - 1][t])
            if stype != ttype:
                issue(GLOBULARITY_VIOLATION, CellId(d, i),
                      f"source typed {stype}, target typed {ttype}")
    return issues


class NGraph:
    """Immutable carrier.  The constructor checks every invariant and raises
    GraphValidationError; ``validate_graph`` turns that into a report.

    Integer indices derived from the boundary data (see ``per_carrier``) are
    memoized in a private slot on first use; the memo takes no part in
    equality or hashing."""

    __slots__ = ("n", "tail", "_src", "_tgt", "_idn", "labels", "_data", "_memo")

    def __init__(self, n, tail, src, tgt, idn, labels=None):
        issues = _collect_issues(n, tail.minus_one_count, tail.zero_type, src, tgt, idn)
        if issues:
            raise GraphValidationError(issues)
        src = tuple(tuple(m) for m in src)
        tgt = tuple(tuple(m) for m in tgt)
        idn = tuple(tuple(m) for m in idn)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "_src", src)
        object.__setattr__(self, "_tgt", tgt)
        object.__setattr__(self, "_idn", idn)
        if labels is not None:
            labels = tuple(tuple(row) for row in labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_data", (n, tail, src, tgt, idn))
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("NGraph is immutable")

    def __eq__(self, other):
        # labels are metadata and do not take part in identity
        return isinstance(other, NGraph) and self._data == other._data

    def __hash__(self):
        return hash(self._data)

    def __repr__(self):
        counts = ", ".join(str(self.count(d)) for d in range(-1, self.n + 1))
        return f"NGraph(n={self.n}, cells by dimension [{counts}])"

    def count(self, dim: int) -> int:
        if dim == -1:
            return self.tail.minus_one_count
        if 0 <= dim <= self.n:
            return len(self._src[dim])
        raise BadLevel(f"dimension {dim} outside -1..{self.n}")

    def cells(self, dim: int):
        return (CellId(dim, i) for i in range(self.count(dim)))

    def src_map(self, dim: int) -> tuple[int, ...]:
        return self._src[dim]

    def tgt_map(self, dim: int) -> tuple[int, ...]:
        return self._tgt[dim]

    def idn_map(self, dim: int) -> tuple[int, ...]:
        return self._idn[dim]

    def index(self, z: CellId) -> int:
        """The index of the cell ``z`` names; BadLevel for a dimension
        outside -1..n, GraphError for an index with no cell there."""
        count = self.count(z.dim)
        if not (_integer(z.index) and 0 <= z.index < count):
            raise GraphError(f"no cell {z}: dimension {z.dim} has {count} cells")
        return z.index

    def src(self, z: CellId) -> CellId:
        if not 0 <= z.dim <= self.n:
            raise BadLevel(f"no boundary below dimension {z.dim}")
        return CellId(z.dim - 1, self._src[z.dim][self.index(z)])

    def tgt(self, z: CellId) -> CellId:
        if not 0 <= z.dim <= self.n:
            raise BadLevel(f"no boundary below dimension {z.dim}")
        return CellId(z.dim - 1, self._tgt[z.dim][self.index(z)])

    def idn(self, x: CellId) -> CellId:
        if not 0 <= x.dim < self.n:
            raise BadLevel(f"no identity section at dimension {x.dim}")
        return CellId(x.dim + 1, self._idn[x.dim][self.index(x)])

    def label(self, z: CellId):
        if self.labels is None or z.dim < 0:
            return None
        return self.labels[z.dim][z.index]


def validate_graph(raw) -> NGraph | ValidationReport:
    """Check a raw description against every carrier invariant.

    ``raw`` is a mapping with keys ``n``, ``minus_one``, ``src``, ``tgt``,
    ``idn`` and optionally ``zero_type`` and ``labels``.  Boundary families
    are lists indexed by dimension; dimension-0 entries index the tail.
    Returns the graph when everything holds, otherwise a report listing
    each violated condition with the offending cell.
    """
    n = raw.get("n")
    minus_one = raw.get("minus_one", 1)
    src = raw.get("src", [])
    tgt = raw.get("tgt", [])
    idn = raw.get("idn", [])
    zero_type = raw.get("zero_type")
    if zero_type is None:
        try:
            zero_type = (src[0][0], tgt[0][0])
        except (IndexError, KeyError, TypeError):
            zero_type = (0, 0)
    if _sequence(zero_type):
        zero_type = tuple(zero_type)
    try:
        return NGraph(n, StructureTail(minus_one, zero_type), src, tgt, idn, raw.get("labels"))
    except GraphValidationError as e:
        return ValidationReport(e.issues)


def per_carrier(fn):
    """Memoize ``fn(G, *args)`` on the carrier ``G``.

    The value is computed on first use and lives as long as ``G`` does.
    Callers share it, so memoized values are immutable: tuples, or
    read-only mappings of tuples.
    """
    @functools.wraps(fn)
    def memoized(G, *args):
        key = (fn, args)
        try:
            return G._memo[key]
        except KeyError:
            value = G._memo[key] = fn(G, *args)
            return value
    return memoized


@per_carrier
def boundary_map(G: NGraph, d: int, j: int, side: str) -> tuple[int, ...]:
    """The index of the dimension-``j`` boundary of every d-cell, following
    the chosen boundary map down one dimension at a time."""
    if side not in (SOURCE, TARGET):
        raise ValueError(f"side must be {SOURCE!r} or {TARGET!r}")
    if not 0 <= d <= G.n:
        raise BadLevel(f"no boundary below dimension {d}")
    if not -1 <= j < d:
        raise BadLevel(f"no dimension-{j} boundary for a cell of dimension {d}")
    step = G.src_map(d) if side == SOURCE else G.tgt_map(d)
    if j == d - 1:
        return step
    below = boundary_map(G, d - 1, j, side)
    return tuple(below[x] for x in step)


def _buckets(keys):
    out = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return MappingProxyType({key: tuple(cells) for key, cells in out.items()})


@per_carrier
def boundary_fibers(G: NGraph, d: int, j: int, side: str):
    """The d-cells grouped by their dimension-``j`` boundary on one side:
    boundary index -> cells in ascending order."""
    return _buckets(boundary_map(G, d, j, side))


@per_carrier
def hom_buckets(G: NGraph, d: int):
    """The d-cells grouped by type: (source, target) -> cells in ascending
    order."""
    if not 0 <= d <= G.n:
        raise BadLevel(f"no cells with a type at dimension {d}")
    return _buckets(zip(G.src_map(d), G.tgt_map(d)))


def cell_type(G: NGraph, z: CellId) -> tuple[CellId, CellId]:
    """The ordered boundary pair that decides which hom-set ``z`` can sit in."""
    return (G.src(z), G.tgt(z))


def hom_set(G: NGraph, x: CellId, y: CellId) -> HomSet:
    """All cells one dimension above ``x`` and ``y`` running from x to y."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"hom endpoints have dimensions {x.dim} and {y.dim}")
    if not 0 <= x.dim <= G.n - 1:
        raise BadLevel(f"hom-sets live over dimensions 0..{G.n - 1}, got {x.dim}")
    d = x.dim + 1
    members = tuple(CellId(d, i) for i in hom_buckets(G, d).get((x.index, y.index), ()))
    return HomSet(x.dim, x, y, members)


def iterated_boundary(G: NGraph, z: CellId, j: int, side: str) -> CellId:
    """The dimension-``j`` boundary of ``z`` reached by following the chosen
    boundary map all the way down."""
    if side not in (SOURCE, TARGET):
        raise ValueError(f"side must be {SOURCE!r} or {TARGET!r}")
    if not -1 <= j < z.dim:
        raise BadLevel(f"no dimension-{j} boundary for a cell of dimension {z.dim}")
    return CellId(j, boundary_map(G, z.dim, j, side)[z.index])


def is_skeletal(G: NGraph) -> bool:
    """True when every same-type hom-set at every level holds exactly one cell."""
    for d in range(0, G.n):
        above = hom_buckets(G, d + 1)
        for group in hom_buckets(G, d).values():
            if any(len(above.get((x, y), ())) != 1 for x in group for y in group):
                return False
    return True


def is_monoidal_carrier(G: NGraph) -> bool:
    return G.tail.minus_one_count == 1


def opposite(G: NGraph, i: int) -> NGraph:
    """Reverse the boundary maps attached to dimension ``i`` (1 <= i <= n).

    Everything else, including identities and labels, is untouched; applying
    the same reversal twice gives back a cell-for-cell identical graph.
    """
    if not 1 <= i <= G.n:
        raise BadLevel(f"reversal level {i} outside 1..{G.n}")
    src = [G.src_map(d) for d in range(G.n + 1)]
    tgt = [G.tgt_map(d) for d in range(G.n + 1)]
    src[i], tgt[i] = tgt[i], src[i]
    idn = [G.idn_map(d) for d in range(G.n)]
    return NGraph(G.n, G.tail, src, tgt, idn, G.labels)


def hom_graph(G: NGraph, x: CellId, y: CellId) -> NGraph:
    """The hom-set between x and y together with everything above it,
    reindexed as a carrier in its own right.

    The result is an (n - i - 1)-graph whose 0-cells are the members of
    hom(x, y).  Its tail is synthesized: one (-1)-cell when x == y, two
    otherwise, mirroring whether the cells can be composed into loops.
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"hom endpoints have dimensions {x.dim} and {y.dim}")
    if cell_type(G, x) != cell_type(G, y):
        raise DimensionMismatch(f"{x} and {y} are typed differently; their hom-set is empty by fiat")
    if x.dim > G.n - 2:
        raise DimensionTooHigh(f"hom tower over dimension {x.dim} has no room below n={G.n}")

    i = x.dim
    new_n = G.n - i - 1
    tiers = [sorted(z.index for z in hom_set(G, x, y).members)]
    for d in range(i + 2, G.n + 1):
        keep = set(tiers[-1])
        tiers.append(sorted(
            k for k in range(G.count(d))
            if G.src_map(d)[k] in keep and G.tgt_map(d)[k] in keep
        ))
    reindex = [{old: new for new, old in enumerate(tier)} for tier in tiers]

    if x == y:
        tail = StructureTail(1, (0, 0))
    else:
        tail = StructureTail(2, (0, 1))
    src = [[tail.zero_type[0]] * len(tiers[0])]
    tgt = [[tail.zero_type[1]] * len(tiers[0])]
    idn = []
    labels = None if G.labels is None else []
    for k in range(1, new_n + 1):
        d = i + 1 + k
        src.append([reindex[k - 1][G.src_map(d)[old]] for old in tiers[k]])
        tgt.append([reindex[k - 1][G.tgt_map(d)[old]] for old in tiers[k]])
    for k in range(new_n):
        d = i + 1 + k
        idn.append([reindex[k + 1][G.idn_map(d)[old]] for old in tiers[k]])
    if labels is not None:
        for k in range(new_n + 1):
            labels.append([G.labels[i + 1 + k][old] for old in tiers[k]])
    return NGraph(new_n, tail, src, tgt, idn, labels)


@dataclass(frozen=True)
class GraphAutomorphism:
    """Per-dimension bijections commuting with boundaries and identities.

    The tail is fixed pointwise, so only dimensions 0..n are stored."""

    maps: tuple[tuple[int, ...], ...]

    def apply(self, z: CellId) -> CellId:
        if z.dim == -1:
            return z
        return CellId(z.dim, self.maps[z.dim][z.index])

    def then(self, other: "GraphAutomorphism") -> "GraphAutomorphism":
        return GraphAutomorphism(tuple(
            tuple(other.maps[d][v] for v in m) for d, m in enumerate(self.maps)
        ))

    def inverse(self) -> "GraphAutomorphism":
        inv = []
        for m in self.maps:
            back = [0] * len(m)
            for i, v in enumerate(m):
                back[v] = i
            inv.append(tuple(back))
        return GraphAutomorphism(tuple(inv))

    @classmethod
    def identity(cls, G: NGraph) -> "GraphAutomorphism":
        return cls(tuple(tuple(range(G.count(d))) for d in range(G.n + 1)))


def _fiber_signature(G, d):
    # cheap per-cell invariant: fiber sizes of the boundary maps one
    # dimension up, used to cut the permutation search early
    out = [0] * G.count(d)
    inn = [0] * G.count(d)
    if d < G.n:
        for s in G.src_map(d + 1):
            out[s] += 1
        for t in G.tgt_map(d + 1):
            inn[t] += 1
    return list(zip(out, inn))


def graph_maps(E: NGraph, F: NGraph, bijective: bool = False, deadline: float | None = None,
               max_steps: int | None = None):
    """The component tuples of every graph morphism E -> F, in lexicographic
    order (dimensions ascending, cells ascending, images ascending).

    Backtracks over the cells of E one at a time: the image of an identity
    cell is forced by the section below, every other d-cell ranges over the
    d-cells of F typed by the images of its boundaries (all 0-cells at
    d = 0).  ``bijective`` keeps only isomorphisms, pruning with injectivity
    and the fiber sizes one dimension up, which isomorphisms preserve.
    Past the ``time.monotonic()`` value ``deadline``, checked every 1024
    steps, or past ``max_steps`` steps (a step places one cell or yields
    one map), it raises SpaceTooLarge.
    """
    if E.n != F.n:
        raise DimensionMismatch(f"carriers have heights {E.n} and {F.n}")
    if E.tail.minus_one_count != F.tail.minus_one_count or (
            E.count(0) > 0 and E.tail.zero_type != F.tail.zero_type):
        return
    dims = range(E.n + 1)
    if bijective:
        if any(E.count(d) != F.count(d) for d in dims):
            return
        sig_e = [_fiber_signature(E, d) for d in dims]
        sig_f = [_fiber_signature(F, d) for d in dims]
    img = [[-1] * E.count(d) for d in dims]
    # the cells of E in search order, each with the cell below whose
    # identity it is (-1 if none) and its two boundary cells
    slots = []
    for d in dims:
        idn_of = {up: x for x, up in enumerate(E.idn_map(d - 1))} if d else {}
        slots += [(d, i, idn_of.get(i, -1), E.src_map(d)[i], E.tgt_map(d)[i])
                  for i in range(E.count(d))]

    def options(k):
        d, i, x, s, t = slots[k]
        if d == 0:
            cands = range(F.count(0))
        elif x >= 0:
            cands = (F.idn_map(d - 1)[img[d - 1][x]],)
        else:
            cands = hom_buckets(F, d).get((img[d - 1][s], img[d - 1][t]), ())
        if bijective:
            return iter([j for j in cands if j not in img[d] and sig_f[d][j] == sig_e[d][i]])
        return iter(cands)

    stack = [None] * len(slots)     # candidate iterators of slots[:k]
    k = steps = 0
    while True:
        steps += 1
        if deadline is not None and steps % 1024 == 0 and time.monotonic() > deadline:
            raise SpaceTooLarge("time budget exceeded while listing graph maps")
        if max_steps is not None and steps > max_steps:
            raise SpaceTooLarge(f"listing graph maps took more than {max_steps} steps")
        if k == len(slots):
            yield tuple(map(tuple, img))
        else:
            stack[k] = options(k)
            k += 1
        # move the deepest slot to its next candidate, backing out of
        # exhausted slots (an unassigned cell holds -1)
        while k:
            d, i, _x, _s, _t = slots[k - 1]
            j = img[d][i] = next(stack[k - 1], -1)
            if j >= 0:
                break
            k -= 1
        if not k:
            return


def automorphisms(G: NGraph, deadline: float | None = None,
                  max_steps: int | None = None) -> list[GraphAutomorphism]:
    """Every self-isomorphism of the carrier, in lexicographic order; see
    ``graph_maps`` for ``deadline`` and ``max_steps``."""
    return [GraphAutomorphism(maps) for maps in graph_maps(G, G, True, deadline, max_steps)]


def skeletal_graph(objects: int, n: int, seed=None) -> NGraph:
    """Build a skeletal n-graph on the given number of 0-cells, over one
    (-1)-cell; past a million cells and dimensions, SpaceTooLarge.

    Singleton hom-sets leave no slack: dimension 1 holds one cell per
    ordered pair of 0-cells and every higher dimension is the identity
    image of the one below.  A seed, when given, shuffles the index order
    of each dimension so repeated calls exercise different labelings of
    the same shape.
    """
    if objects < 0 or n < 1:
        raise GraphError("need a nonnegative object count and n >= 1")
    k = objects
    if k + n * k * k + n > 10 ** 6:
        raise SpaceTooLarge("a skeletal carrier past a million cells is too large to build")
    perms = [list(range(k)), list(range(k * k))]
    if seed is not None:
        import random

        rng = random.Random(seed)
        for p in perms:
            rng.shuffle(p)

    # dimension 1: cell perms[1][x*k + y] runs from perms[0][x] to perms[0][y]
    src1 = [0] * (k * k)
    tgt1 = [0] * (k * k)
    for x in range(k):
        for y in range(k):
            c = perms[1][x * k + y]
            src1[c] = perms[0][x]
            tgt1[c] = perms[0][y]
    idn0 = [0] * k
    for x in range(k):
        idn0[perms[0][x]] = perms[1][x * k + x]

    src = [[0] * k, src1]
    tgt = [[0] * k, tgt1]
    idn = [idn0]
    for d in range(2, n + 1):
        m = k * k
        src.append(list(range(m)))
        tgt.append(list(range(m)))
        idn.append(list(range(m)))
    return NGraph(n, StructureTail(1, (0, 0)), src, tgt, idn)
