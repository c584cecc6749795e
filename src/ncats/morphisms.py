"""Maps between carriers and the layered notions on top of them.

A graph morphism sends cells to cells of the same dimension and commutes
with boundaries and identities; the grade -1 component is the identity, so
both carriers must have tails of the same size.  Contravariance at chosen
levels is checked by reversing the codomain there first.  A functor is a
graph morphism that also carries each defined composite, horizontal ones
included, to a defined composite: one integer scan, ``functor_scan``, that
``check_functor`` renders and ``enumerate_functors`` asks.  A
transformation assigns to every dimension-i cell of the domain a (i+1)-cell
of the codomain and must close the usual naturality square through the
codomain's table; a modification hangs one dimension higher still and is
checked against four boundary paths plus, when the codomain carries
horizontal composition, the square of the inner cells.

Every one of these squares goes through one scan, ``_squares``.  Each row
names a d-cell c over the i-cells x and y, a component map t, and the
images f c and g c; the square closes when the keys (t x, g c) and
(f c, t y) of the codomain table (d, i) name the same d-cell.  Keys are
read diagrammatically: (a, b) means a first, then b.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .graphs import (
    BadLevel,
    CellId,
    DimensionMismatch,
    GraphError,
    NGraph,
    SpaceTooLarge,
    StructureTail,
    _integer,
    graph_maps,
    hom_buckets,
    opposite,
)
from .structures import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    AxiomCheck,
    AxiomFlags,
    AxiomReport,
    CategoryStructure,
    Counterexample,
    _single,
    check_category,
)


@dataclass(frozen=True)
class GraphMorphism:
    """Dimension-indexed cell maps; components cover dimensions 0..n."""

    domain: NGraph
    codomain: NGraph
    comps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.domain.n != self.codomain.n:
            raise DimensionMismatch(
                f"domain has n={self.domain.n}, codomain n={self.codomain.n}")
        comps = tuple(tuple(m) for m in self.comps)
        object.__setattr__(self, "comps", comps)
        if len(comps) != self.domain.n + 1:
            raise GraphError("need one component map per dimension 0..n")
        for d, m in enumerate(comps):
            if len(m) != self.domain.count(d):
                raise GraphError(f"dimension {d} component is not total")
            for v in m:
                if not (_integer(v) and 0 <= v < self.codomain.count(d)):
                    raise GraphError(f"dimension {d} component value {v!r} out of range")

    def apply(self, z: CellId) -> CellId:
        """The image of ``z``; a (-1)-cell maps to itself, which the codomain must have."""
        i = self.domain.index(z)
        return CellId(-1, self.codomain.index(z)) if z.dim == -1 else CellId(z.dim, self.comps[z.dim][i])


def identity_morphism(G: NGraph) -> GraphMorphism:
    return GraphMorphism(G, G, tuple(tuple(range(G.count(d))) for d in range(G.n + 1)))


def compose_morphisms(first: GraphMorphism, second: GraphMorphism) -> GraphMorphism:
    if first.codomain != second.domain:
        raise GraphError("morphisms do not meet end to end")
    return GraphMorphism(first.domain, second.codomain, tuple(
        tuple(second.comps[d][v] for v in m) for d, m in enumerate(first.comps)
    ))


@dataclass(frozen=True)
class VarianceSpec:
    contravariant_levels: frozenset[int] = frozenset()


def check_graph_morphism(m: GraphMorphism) -> AxiomReport:
    """Intertwining with boundaries and identities, plus pointwise
    preservation of the tail (which forces equal tail sizes)."""
    E, F = m.domain, m.codomain
    bad = []
    if E.tail.minus_one_count != F.tail.minus_one_count:
        bad.append(Counterexample(
            "tail-size", (), expected=E.tail.minus_one_count, actual=F.tail.minus_one_count))
    elif E.count(0) > 0 and E.tail.zero_type != F.tail.zero_type:
        bad.append(Counterexample(
            "tail-type", (), expected=E.tail.zero_type, actual=F.tail.zero_type))
    for d in range(1, E.n + 1):
        lower = m.comps[d - 1]
        for i, v in enumerate(m.comps[d]):
            if lower[E.src_map(d)[i]] != F.src_map(d)[v] or lower[E.tgt_map(d)[i]] != F.tgt_map(d)[v]:
                bad.append(Counterexample(
                    "boundary-square", (CellId(d, i),),
                    expected=(CellId(d - 1, lower[E.src_map(d)[i]]), CellId(d - 1, lower[E.tgt_map(d)[i]])),
                    actual=(CellId(d - 1, F.src_map(d)[v]), CellId(d - 1, F.tgt_map(d)[v]))))
    for d in range(E.n):
        upper = m.comps[d + 1]
        for x, up in enumerate(E.idn_map(d)):
            if upper[up] != F.idn_map(d)[m.comps[d][x]]:
                bad.append(Counterexample(
                    "identity-square", (CellId(d, x),),
                    expected=CellId(d + 1, F.idn_map(d)[m.comps[d][x]]),
                    actual=CellId(d + 1, upper[up])))
    return _single("graph-morphism", None, bad)


def check_contravariant(m: GraphMorphism, variance: VarianceSpec) -> AxiomReport:
    """Same intertwining, but against the codomain with every chosen level
    reversed first."""
    flipped = m.codomain
    for i in sorted(variance.contravariant_levels):
        if not 1 <= i <= m.codomain.n:
            raise BadLevel(f"variance level {i} outside 1..{m.codomain.n}")
        flipped = opposite(flipped, i)
    return check_graph_morphism(GraphMorphism(m.domain, flipped, m.comps))


def functor_scan(entries, fmap, image):
    """The entries (a, b) -> v of one domain table whose image (fmap a,
    fmap b) -> fmap v the codomain's table ``image`` lacks, as (a, b, v,
    got) in stored order; ``got`` is ``image``'s entry there, or None."""
    get = image.get
    for (a, b), v in entries.items():
        got = get((fmap[a], fmap[b]))
        if got != fmap[v]:
            yield a, b, v, got


def check_functor(m: GraphMorphism, cE: CategoryStructure, cF: CategoryStructure) -> AxiomReport:
    """Graph morphism plus preservation of every defined composite.

    Gaps on the codomain side are failures: a composite the domain defines
    must be defined, and equal, downstairs.
    """
    if cE.graph != m.domain or cF.graph != m.codomain:
        raise GraphError("structures do not live on the morphism's carriers")
    report = check_graph_morphism(m)
    for (d, j), entries in cE.tables.items():
        fmap, image = m.comps[d], cF.tables.get((d, j))
        bad = [Counterexample(
            "codomain-table-missing" if image is None else "codomain-gap" if got is None else "composite-square",
            (CellId(d, a), CellId(d, b)), expected=CellId(d, fmap[v]),
            actual=None if got is None else CellId(d, got))
            for a, b, v, got in sorted(functor_scan(entries, fmap, image or {}))]
        axiom = "functor" if d == j + 1 else "functor-horizontal"
        report = report.merged(_single(axiom, j, bad))
    return report


def _components(f: GraphMorphism, comps, levels, k: int, no_room: str) -> dict[int, tuple[int, ...]]:
    """The component maps as tuples, checked one level i at a time: f's
    codomain F has (i+k)-cells (else BadLevel, ``no_room`` formatted with i
    and d = i+k) and the map sends every i-cell of f's domain E to one.  A
    modification's levels passed its transformations' check already."""
    E, F = f.domain, f.codomain
    comps = {i: tuple(m) for i, m in comps.items()}
    for i in levels:
        if not _integer(i):
            raise BadLevel(f"level {i!r} is not an integer")
        if not 0 <= i <= E.n - 1 or i + k > F.n:
            raise BadLevel(no_room.format(i=i, d=i + k))
        m = comps.get(i)
        if m is None or len(m) != E.count(i):
            raise GraphError(f"level {i} components are not total")
        for v in m:
            if not (_integer(v) and 0 <= v < F.count(i + k)):
                raise GraphError(f"level {i} component value {v!r} out of range")
    return comps


@dataclass(frozen=True)
class Transformation:
    """Componentwise cell assignment one dimension up, between two parallel
    morphisms.  ``levels`` says which dimensions carry components; carriers
    of height one only support level 0."""

    f: GraphMorphism
    g: GraphMorphism
    comps: dict[int, tuple[int, ...]]
    levels: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.f.domain != self.g.domain or self.f.codomain != self.g.codomain:
            raise GraphError("transformation endpoints are not parallel")
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "comps", _components(
            self.f, self.comps, self.levels, 1, "no room for components at level {i}"))

    def __hash__(self):
        return hash((self.f, self.g, tuple(sorted((i, m) for i, m in self.comps.items())), self.levels))


def _untyped(F: NGraph, i: int, d: int, comp, lo, hi) -> list[Counterexample]:
    """A ComponentUntyped counterexample for every i-cell x whose component,
    the d-cell ``comp[x]``, does not run from ``lo[x]`` to ``hi[x]``."""
    src, tgt = F.src_map(d), F.tgt_map(d)
    return [Counterexample("ComponentUntyped", (CellId(i, x),),
                           expected=(CellId(d - 1, lo[x]), CellId(d - 1, hi[x])),
                           actual=CellId(d, v))
            for x, v in enumerate(comp) if src[v] != lo[x] or tgt[v] != hi[x]]


def _squares(rows, tables, i: int, d: int, undefined: str, failed: str) -> list[Counterexample]:
    """The square of every row ``(c, x, y, comp, fc, gc)`` in the table
    (d, i) of ``tables`` (see the module docstring): ``undefined`` when the
    table or a key is missing, ``failed`` when the two composites differ."""
    table = tables.get((d, i))
    bad = []
    for c, x, y, comp, fc, gc in rows:
        cells = (CellId(d, c), CellId(i, x), CellId(i, y))
        if table is None:
            bad.append(Counterexample(undefined, cells, expected=f"codomain table at level {i}"))
            continue
        left = table.get((comp[x], gc))
        right = table.get((fc, comp[y]))
        if left is None or right is None:
            bad.append(Counterexample(undefined, cells))
        elif left != right:
            bad.append(Counterexample(
                failed, cells, expected=CellId(d, left), actual=CellId(d, right)))
    return bad


def check_transformation(t: Transformation, cE: CategoryStructure, cF: CategoryStructure) -> AxiomReport:
    """Component typing and the naturality square at every configured level.

    An undefined square (partial codomain table) counts against the
    candidate, as does a component outside its hom-set.
    """
    f, g = t.f, t.g
    E, F = f.domain, f.codomain
    if cE.graph != E or cF.graph != F:
        raise GraphError("structures do not live on the transformation's carriers")
    checks = []
    notes = []
    if E.n > 1 and t.levels == (0,):
        notes.append("components configured at level 0 only; higher cells are not constrained")
    for i in t.levels:
        comp = t.comps[i]
        d = i + 1
        bad = _untyped(F, i, d, comp, f.comps[i], g.comps[i])
        if (d, i) not in cF.tables:
            bad += [Counterexample("NaturalitySquareUndefined", (CellId(d, a),),
                                   expected=f"codomain table at level {i}")
                    for a in range(E.count(d))]
        else:
            rows = [(a, x, y, comp, f.comps[d][a], g.comps[d][a])
                    for a, (x, y) in enumerate(zip(E.src_map(d), E.tgt_map(d)))]
            bad += _squares(rows, cF.tables, i, d, "NaturalitySquareUndefined", "NaturalityFailed")
        checks.append(AxiomCheck("naturality", i, FAIL if bad else PASS, bad, notes=list(notes)))
    return AxiomReport(checks)


@dataclass(frozen=True)
class Modification:
    """Cells two dimensions up between the components of two parallel
    transformations."""

    s: Transformation
    t: Transformation
    comps: dict[int, tuple[int, ...]]

    def __post_init__(self):
        if (self.s.f, self.s.g) != (self.t.f, self.t.g):
            raise GraphError("modification endpoints are not parallel transformations")
        if self.s.levels != self.t.levels:
            raise GraphError(f"modification endpoints have levels {self.s.levels} and {self.t.levels}")
        object.__setattr__(self, "comps", _components(
            self.s.f, self.comps, self.s.levels, 2, "codomain has no dimension {d} cells"))


def check_modification(md: Modification, cE: CategoryStructure, cF: CategoryStructure) -> AxiomReport:
    """Component typing, the four boundary path squares through the level-i
    table, and (whenever a level-i horizontal table is present) the square
    of the inner cells themselves; without horizontal composition that last
    equation is reported not-applicable."""
    s, t = md.s, md.t
    f, g = s.f, s.g
    E, F = f.domain, f.codomain
    if cE.graph != E or cF.graph != F:
        raise GraphError("structures do not live on the modification's carriers")
    checks = []
    for i in s.levels:
        comp = md.comps[i]
        d1, d2 = i + 1, i + 2
        bad = _untyped(F, i, d2, comp, s.comps[i], t.comps[i])
        x_of, y_of = E.src_map(d1), E.tgt_map(d1)
        paths = [(arrow, x_of[arrow], y_of[arrow], side, f.comps[d1][arrow], g.comps[d1][arrow])
                 for ends in zip(E.src_map(d2), E.tgt_map(d2)) for arrow in ends
                 for side in (s.comps[i], t.comps[i])]
        bad += _squares(paths, cF.tables, i, d1, "PathUndefined", "path")
        checks.append(AxiomCheck("modification-paths", i, FAIL if bad else PASS, bad))

        if (d2, i) not in cF.tables:
            checks.append(AxiomCheck(
                "modification-cells", i, NOT_APPLICABLE,
                notes=[f"no horizontal table at level {i} in the codomain"]))
            continue
        cells = [(alpha, x_of[a], y_of[a], comp, f.comps[d2][alpha], g.comps[d2][alpha])
                 for alpha, a in enumerate(E.src_map(d2))]
        hbad = _squares(cells, cF.tables, i, d2, "PathUndefined", "cell-square")
        checks.append(AxiomCheck("modification-cells", i, FAIL if hbad else PASS, hbad))
    return AxiomReport(checks)


def enumerate_functors(cE: CategoryStructure, cF: CategoryStructure, bound: int = 10 ** 6) -> list[GraphMorphism]:
    """Every functor from cE to cF, in a deterministic order: the graph
    morphisms ``graph_maps`` lists in whose tables ``functor_scan`` finds
    no miss.  ``bound`` caps the steps of that listing, one per cell placed
    or map yielded; past it SpaceTooLarge is raised."""
    E, F = cE.graph, cF.graph
    tables = [(d, entries, cF.tables.get((d, j), {})) for (d, j), entries in cE.tables.items()]
    return [GraphMorphism(E, F, comps) for comps in graph_maps(E, F, max_steps=bound)
            if not any(next(functor_scan(entries, comps[d], image), None) for d, entries, image in tables)]


def enumerate_transformations(f: GraphMorphism, g: GraphMorphism,
                              cE: CategoryStructure, cF: CategoryStructure,
                              levels: tuple[int, ...] = (0,),
                              bound: int = 10 ** 6) -> list[Transformation]:
    """Every transformation between two parallel functors: raw component
    assignments over the right hom-sets, filtered by the naturality check;
    SpaceTooLarge when the product of the hom-set sizes exceeds ``bound``."""
    E, F = f.domain, f.codomain
    homs = [hom_buckets(F, i + 1).get((f.comps[i][x], g.comps[i][x]), ())
            for i in levels for x in range(E.count(i))]
    if math.prod(map(len, homs)) > bound:
        raise SpaceTooLarge(f"transformation space exceeds {bound}")
    out = []
    for combo in itertools.product(*homs):
        components = iter(combo)
        t = Transformation(f, g, {i: tuple(itertools.islice(components, E.count(i))) for i in levels},
                           levels)
        if check_transformation(t, cE, cF).passed:
            out.append(t)
    return out


def build_cat_of_cats(cats: list[CategoryStructure], depth: int = 2):
    """Assemble the carrier of categories, functors and transformations.

    0-cells are the inputs, 1-cells every functor between every ordered
    pair, 2-cells every transformation between parallel functors.  The
    level-0 table composes functors, the level-1 table composes
    transformations componentwise, and the level-0 horizontal table is
    derived by whiskering.  With ``depth=3`` the top dimension holds the
    modifications between parallel transformations; over height-one inputs
    these are exactly one degenerate cell per transformation.

    Inputs must be height-one structures passing the global, unital and
    associative checks; those laws are what make the derived tables close.
    Returns the carrier and the structure on it, flagged
    {global, unital, associative, interchange}.
    """
    if depth not in (2, 3):
        raise GraphError("depth must be 2 or 3")
    for c in cats:
        if c.graph.n != 1:
            raise GraphError("inputs must be height-one carriers")
        probe = CategoryStructure(c.graph, tables=c.tables,
                                  flags=AxiomFlags(global_=True, unital=True, associative=True))
        if not check_category(probe).passed:
            raise GraphError("inputs must satisfy the global, unital and associative checks")

    k = len(cats)
    functors = []          # (src_obj, tgt_obj, GraphMorphism)
    functor_index = {}
    for i in range(k):
        for j in range(k):
            for m in enumerate_functors(cats[i], cats[j]):
                functor_index[(i, j, m.comps)] = len(functors)
                functors.append((i, j, m))

    transformations = []   # (functor idx, functor idx, Transformation)
    transformation_index = {}
    for u_idx, (i, j, u) in enumerate(functors):
        for v_idx, (i2, j2, v) in enumerate(functors):
            if (i, j) != (i2, j2):
                continue
            for t in enumerate_transformations(u, v, cats[i], cats[j]):
                transformation_index[(u_idx, v_idx, t.comps[0])] = len(transformations)
                transformations.append((u_idx, v_idx, t))

    src = [[0] * k, [f[0] for f in functors], [t[0] for t in transformations]]
    tgt = [[0] * k, [f[1] for f in functors], [t[1] for t in transformations]]

    idn0 = []
    for i in range(k):
        ident = identity_morphism(cats[i].graph)
        idn0.append(functor_index[(i, i, ident.comps)])
    idn1 = []
    for u_idx, (i, j, u) in enumerate(functors):
        D = cats[j].graph
        comp = tuple(D.idn_map(0)[u.comps[0][x]] for x in range(cats[i].graph.count(0)))
        idn1.append(transformation_index[(u_idx, u_idx, comp)])
    idn = [idn0, idn1]

    level0 = {}
    for u_idx, (i, j, u) in enumerate(functors):
        for v_idx, (j2, l, v) in enumerate(functors):
            if j2 != j:
                continue
            w = compose_morphisms(u, v)
            level0[(u_idx, v_idx)] = functor_index[(i, l, w.comps)]

    level1 = {}
    for t_idx, (u_idx, v_idx, t) in enumerate(transformations):
        for s_idx, (v2_idx, w_idx, s) in enumerate(transformations):
            if v2_idx != v_idx:
                continue
            i, j, _u = functors[u_idx]
            table = cats[j].tables[1, 0]
            comp = tuple(table[(t.comps[0][x], s.comps[0][x])]
                         for x in range(cats[i].graph.count(0)))
            level1[(t_idx, s_idx)] = transformation_index[(u_idx, w_idx, comp)]

    hlevel0 = {}
    for t_idx, (u_idx, v_idx, t) in enumerate(transformations):
        i, j, u = functors[u_idx]
        _, _, v = functors[v_idx]
        for s_idx, (p_idx, q_idx, s) in enumerate(transformations):
            pi, pl, p = functors[p_idx]
            if pi != j:
                continue
            table = cats[pl].tables[1, 0]
            # whisker t through p, then s at the far end of each object image
            comp = tuple(
                table[(p.comps[1][t.comps[0][x]], s.comps[0][v.comps[0][x]])]
                for x in range(cats[i].graph.count(0)))
            up_idx = level0[(u_idx, p_idx)]
            vq_idx = level0[(v_idx, q_idx)]
            hlevel0[(t_idx, s_idx)] = transformation_index[(up_idx, vq_idx, comp)]

    n = depth
    tables = {(1, 0): level0, (2, 1): level1, (2, 0): hlevel0}
    if depth == 3:
        m = len(transformations)
        src.append(list(range(m)))
        tgt.append(list(range(m)))
        idn.append(list(range(m)))
        tables[3, 2] = {(i, i): i for i in range(m)}

    graph = NGraph(n, StructureTail(1, (0, 0)), src, tgt, idn)
    structure = CategoryStructure(
        graph, tables=tables, flags=AxiomFlags(global_=True, unital=True, associative=True, interchange=True))
    return graph, structure
