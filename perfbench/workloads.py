"""The benchmark's four workloads and the answers each one must reproduce.

Every workload has three steps.  ``setup`` builds the inputs from the run's
seed: carriers, structures, documents and CLI input files, each relabeled
by seed-drawn permutations, so the library only ever sees the relabeled
copies.  ``run_pass`` is the timed unit of work.  ``verify`` runs once
after the last pass and checks the answers by a second route.

Answers are compared with frozen values.  Each wrong or raised answer is
one failure; raw and iso counts, verdicts, the rewrite count, round-trip
equality and exit codes do not depend on the seed, node counts do.
"""

from __future__ import annotations

import contextlib
import random
import subprocess
import sys
import time

from ncats import cobordism, enumeration, graphs, morphisms, structures
from ncats import io as nio
from ncats.graphs import NGraph, StructureTail
from ncats.structures import AxiomFlags, CategoryStructure, CompTable, HCompTable

import tracer as tr

MONOID = AxiomFlags(global_=True, unital=True, associative=True)
GROUP = AxiomFlags(global_=True, unital=True, associative=True, groupoid=True)
SEMIGROUP = AxiomFlags(associative=True)
MAGMA = AxiomFlags(global_=True)
TWO_CATEGORY = AxiomFlags(global_=True, unital=True, associative=True, interchange=True)

# searches must finish: no time budget, and room for every iso class
EXACT = enumeration.EnumLimits(time_budget=None, max_representatives=4096)

ROUNDTRIPS = 3  # round trips of the corpus per pass, one throughput sample each


class Tally:
    """Answers attempted and failed, plus the latency samples of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.counts = []       # (what, raw, iso, nodes) per enumeration
        self.check_ms = []
        self.cli = []          # (milliseconds, exit code matched)
        self.rt_mb_per_s = []
        self.tracer = None

    @property
    def nodes(self):
        return sum(c[3] for c in self.counts)

    def expect(self, what, got, want):
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.notes.append(f"{what}: got {got!r}, want {want!r}")

    @contextlib.contextmanager
    def answer(self, what):
        """A block whose exception counts as one failed answer."""
        try:
            yield
        except Exception as e:  # noqa: BLE001 - every raised answer is tallied
            self.attempted += 1
            self.failed += 1
            self.notes.append(f"{what}: raised {type(e).__name__}: {e}")

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def check(self, checker, *args):
        t0 = time.perf_counter()
        report = checker(*args)
        self.check_ms.append((time.perf_counter() - t0) * 1e3)
        return report


class Run:
    """What a workload needs from the harness: seed, size, a directory for
    CLI files, the environment CLI subprocesses run in, and the tally."""

    def __init__(self, workdir, env, seed, size, tally):
        self.workdir = workdir
        self.env = env
        self.rng = random.Random(seed)
        self.size = size
        self.tally = tally

    def count(self, what, G, spec, want):
        """Enumerate and compare (raw, iso) with the frozen pair."""
        tally = self.tally
        with tally.answer(what):
            res = enumeration.enumerate_structures(G, spec)
            tally.counts.append((what, res.raw_count, res.iso_count, res.nodes))
            tally.expect(what, (res.exhausted, res.raw_count, res.iso_count), (True, *want))
            return res
        return None

    def cli(self, argv, expected):
        with self.tally.answer(f"ncats {argv[0]}"), self.tally.span(tr.CLI):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "ncats.cli", *argv],
                                  cwd=self.workdir, env=self.env, capture_output=True,
                                  timeout=120)
            ms = (time.perf_counter() - t0) * 1e3
            self.tally.cli.append((ms, proc.returncode == expected))
            self.tally.expect(f"exit code of ncats {' '.join(argv)}", proc.returncode, expected)

    def write(self, name, blob):
        path = self.workdir / name
        path.write_bytes(blob)
        return path.name


# -- relabeling ------------------------------------------------------------

def random_perms(G, rng):
    """One uniformly drawn permutation of the cells of each dimension."""
    perms = []
    for d in range(G.n + 1):
        p = list(range(G.count(d)))
        rng.shuffle(p)
        perms.append(p)
    return perms


def relabel_graph(G, perms):
    """The isomorphic copy of ``G`` in which cell i of dimension d becomes
    cell ``perms[d][i]``; boundaries, identities and labels move along."""
    src, tgt, idn, labels = [], [], [], []
    for d in range(G.n + 1):
        p, below = perms[d], perms[d - 1] if d else None
        s, t = [0] * len(p), [0] * len(p)
        for i, new in enumerate(p):
            s[new] = below[G.src_map(d)[i]] if d else G.src_map(d)[i]
            t[new] = below[G.tgt_map(d)[i]] if d else G.tgt_map(d)[i]
        src.append(s)
        tgt.append(t)
        if G.labels is not None:
            row = [None] * len(p)
            for i, new in enumerate(p):
                row[new] = G.labels[d][i]
            labels.append(row)
    for d in range(G.n):
        row = [0] * G.count(d)
        for x, up in enumerate(G.idn_map(d)):
            row[perms[d][x]] = perms[d + 1][up]
        idn.append(row)
    return NGraph(G.n, G.tail, src, tgt, idn, labels if G.labels is not None else None)


def _move(entries, p):
    return {(p[a], p[b]): p[v] for (a, b), v in entries.items()}


def relabel_structure(S, perms):
    vt = [CompTable(j, _move(t.entries, perms[j + 1])) for j, t in sorted(S.vtables.items())]
    ht = [HCompTable(j, _move(t.entries, perms[j + 2])) for j, t in sorted(S.htables.items())]
    return CategoryStructure(relabel_graph(S.graph, perms), vt, ht, S.flags)


def shuffled_graph(G, rng):
    return relabel_graph(G, random_perms(G, rng))


def shuffled_structure(S, rng):
    return relabel_structure(S, random_perms(S.graph, rng))


# -- small inputs the benchmark builds itself --------------------------------

def loops_graph(k):
    """One object with k loops; loop 0 is the identity."""
    return NGraph(1, StructureTail(1, (0, 0)), [[0], [0] * k], [[0], [0] * k], [[0]])


def cyclic_group(k):
    """Z/k as a one-object category: loop a then loop b is loop a+b."""
    table = {(a, b): (a + b) % k for a in range(k) for b in range(k)}
    return CategoryStructure(loops_graph(k), [CompTable(0, table)], [], MONOID)


# -- second routes ------------------------------------------------------------

def roundtrip(docs, tally, what):
    """Serialize, parse and serialize again, ``ROUNDTRIPS`` times; bytes
    must come back equal."""
    for _ in range(ROUNDTRIPS):
        nbytes, secs = 0, 0.0
        for doc in docs:
            with tally.answer(what):
                t0 = time.perf_counter()
                blob = nio.serialize(doc)
                back = nio.parse(blob)
                again = nio.serialize(back)
                secs += time.perf_counter() - t0
                nbytes += 3 * len(blob)
                tally.expect(what, again == blob and back == doc, True)
        if secs > 0:
            tally.rt_mb_per_s.append(nbytes / secs / 2 ** 20)


def recheck(tally, reps):
    """Every representative passes the checkers for its own flags."""
    for S in reps:
        with tally.answer("representative re-check"):
            tally.expect("representative re-check", structures.check_category(S).passed, True)


def orbit_key(S, auts):
    """Least image of the table family over the automorphisms, computed
    here independently of ``canonical_form``."""
    best = None
    for phi in auts:
        image = []
        for j, t in sorted(S.vtables.items()):
            image.append(sorted(_move(t.entries, phi.maps[j + 1]).items()))
        for j, t in sorted(S.htables.items()):
            image.append(sorted(_move(t.entries, phi.maps[j + 2]).items()))
        if best is None or image < best:
            best = image
    return repr(best)


# -- the workloads -----------------------------------------------------------

class MonoidSearch:
    """The pruned search dominates (``assoc_ok``); ``groupoid`` prunes
    nothing today, so groups cost as many nodes as monoids."""

    name = "monoid-search"
    # A058129(4) = 35 monoids and A000001(4) = 2 groups up to isomorphism;
    # order 3 (smoke): 7 and 1
    frozen = {"full": {"order": 4, "monoids": (156, 35), "groups": (4, 2)},
              "smoke": {"order": 3, "monoids": (11, 7), "groups": (1, 1)}}

    def setup(self, run):
        k = self.frozen[run.size]["order"]
        base = loops_graph(k)
        perms = random_perms(base, run.rng)
        # a one-object carrier has exactly k labelings, one per position of
        # the identity loop; a pass visits each of them once
        return [relabel_graph(base, [perms[0], [(p + r) % k for p in perms[1]]])
                for r in range(k)]

    def run_pass(self, run, carriers):
        want = self.frozen[run.size]
        reps = []
        for G in carriers:
            for what, flags in (("monoids", MONOID), ("groups", GROUP)):
                res = run.count(what, G, enumeration.EnumSpec(flags=flags, limits=EXACT), want[what])
                if res is not None:
                    reps.extend(res.representatives)
        return reps

    def verify(self, run, carriers, reps):
        """Besides the published iso counts: every representative passes."""
        recheck(run.tally, reps)


class RecordHeavy:
    """Almost every leaf is a record, so re-verification and
    ``canonical_form`` dominate; the magma half runs no associativity."""

    name = "record-heavy"
    frozen = {"full": {"loops": 3, "semigroups": (31789, 15999), "magmas": (19683, 9882)},
              "smoke": {"loops": 2, "semigroups": (65, 65), "magmas": (16, 16)}}
    specs = (("semigroups", enumeration.EnumSpec(flags=SEMIGROUP, limits=EXACT)),
             ("magmas", enumeration.EnumSpec(flags=MAGMA, limits=EXACT)))

    def setup(self, run):
        return shuffled_graph(loops_graph(self.frozen[run.size]["loops"]), run.rng)

    def run_pass(self, run, G):
        want = self.frozen[run.size]
        return [run.count(what, G, spec, want[what]) for what, spec in self.specs]

    def verify(self, run, G, results):
        """The unpruned oracle agrees on raw counts and canonical multisets."""
        tally = run.tally
        for (what, spec), res in zip(self.specs, results):
            if res is None:
                continue
            with tally.answer(f"{what} oracle"):
                oracle = enumeration.brute_force_oracle(G, spec)
                tally.expect(f"{what} oracle raw count", oracle.raw_count, res.raw_count)
                tally.expect(f"{what} oracle canonical multiset",
                             oracle.canonical_counts == res.canonical_counts, True)


class InterchangeSearch:
    """The only horizontal-table search: ``interchange_ok``, the
    ``check_interchange`` re-verification and ``iterated_boundary``."""

    name = "interchange-search"
    frozen = {"full": {"cats": 1, "group": 2, "structures": (2098, 2098)},
              "smoke": {"cats": 2, "group": 1, "structures": (1, 1)}}

    def setup(self, run):
        f = self.frozen[run.size]
        cats = [shuffled_structure(cyclic_group(f["group"]), run.rng) for _ in range(f["cats"])]
        G, _S = morphisms.build_cat_of_cats(cats, depth=2)
        return shuffled_graph(G, run.rng)

    def run_pass(self, run, G):
        spec = enumeration.EnumSpec(flags=TWO_CATEGORY, include_horizontal=True, limits=EXACT)
        return run.count("2-categories", G, spec, self.frozen[run.size]["structures"])

    def verify(self, run, G, res):
        """No oracle fits (the raw space exceeds 10^9): every representative
        passes the checkers and no two are isomorphic."""
        if res is None:
            return
        tally = run.tally
        recheck(tally, res.representatives)
        with tally.answer("pairwise non-isomorphic"):
            auts = graphs.automorphisms(G)
            keys = {orbit_key(S, auts) for S in res.representatives}
            tally.expect("representatives held", len(res.representatives), res.iso_count)
            tally.expect("pairwise non-isomorphic", len(keys), len(res.representatives))


class CheckIO:
    """Checkers on passing and failing inputs, parse and serialize, and the
    CLI; no search."""

    name = "check-io"
    frozen = {"full": {"cob": 3, "cats": 2, "rewrites": 128, "corpus_cob": 4, "corpus_sets": 3},
              "smoke": {"cob": 2, "cats": 1, "rewrites": 16, "corpus_cob": 2, "corpus_sets": 1}}

    def setup(self, run):
        f = self.frozen[run.size]
        rng = run.rng
        cob = shuffled_structure(cobordism.build_cob_truncation(f["cob"])[1], rng)
        z2 = shuffled_structure(cyclic_group(2), rng)
        cats = [shuffled_structure(cyclic_group(2), rng) for _ in range(f["cats"])]
        coc = shuffled_structure(morphisms.build_cat_of_cats(cats, depth=2)[1], rng)
        # the criterion-8 corpus, each document relabeled
        corpus = [nio.document_from_structure(
            shuffled_structure(cobordism.build_cob_truncation(mp)[1], rng))
            for mp in range(f["corpus_cob"])]
        corpus += [nio.document_from_graph(shuffled_graph(cobordism.gen_sets_graph(ms), rng))
                   for ms in range(1, f["corpus_sets"] + 1)]
        corpus += [nio.document_from_graph(shuffled_graph(graphs.skeletal_graph(2, 2, seed=s), rng))
                   for s in range(3)]
        corpus.append(nio.document_from_structure(z2))
        corpus.append(nio.document_from_structure(
            shuffled_structure(morphisms.build_cat_of_cats([z2], depth=3)[1], rng)))
        # CLI inputs: a passing file, a failing one, a syntax error, a
        # skeletal carrier, and a search that runs out of nodes
        broken = relabel_structure(CategoryStructure(
            loops_graph(2), [CompTable(0, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0})],
            [], AxiomFlags(global_=True, unital=True)), random_perms(loops_graph(2), rng))
        sk = shuffled_graph(graphs.skeletal_graph(2, 1), rng)
        files = {
            "z2": run.write("z2.json", nio.serialize(nio.document_from_structure(z2))),
            "broken": run.write("broken.json", nio.serialize(nio.document_from_structure(broken))),
            "syntax": run.write("syntax.json", b'{"format_version":'),
            "sk": run.write("sk.json", nio.serialize(nio.document_from_graph(sk))),
        }
        return {"cob": cob, "coc": coc, "corpus": corpus, "files": files}

    def run_pass(self, run, inp):
        tally = run.tally
        with tally.answer("cobordism category"):
            rep = tally.check(structures.check_category, inp["cob"])
            clean = all(not c.counterexamples and not c.asymmetric for c in rep.checks)
            tally.expect("cobordism category passes cleanly", rep.passed and clean, True)
        self._rewrites(run, inp["coc"])
        roundtrip(inp["corpus"], tally, "corpus round trip")
        files = inp["files"]
        for argv, code in ((["check", files["z2"]], 0),
                           (["check", files["broken"]], 1),
                           (["check", files["syntax"]], 2),
                           (["enumerate", files["sk"], "--flags", "global"], 0),
                           (["enumerate", files["z2"], "--flags", "global", "--max-nodes", "2"], 3)):
            run.cli(argv, code)

    def _rewrites(self, run, S):
        """Criterion 5: the base passes interchange, and every typed
        single-entry rewrite of the horizontal table is caught."""
        tally = run.tally
        G = S.graph
        with tally.answer("interchange base"):
            base = tally.check(structures.check_interchange, S, 0)
            tally.expect("interchange base passes", base.passed, True)
        typed = 0
        entries = S.htables[0].entries
        vtables = list(S.vtables.values())
        with tally.answer("interchange rewrites"):
            for key, val in sorted(entries.items()):
                for alt in range(G.count(2)):
                    if alt == val:
                        continue
                    bent_entries = dict(entries)
                    bent_entries[key] = alt
                    with tally.span(tr.BUILD):
                        bent = CategoryStructure(G, vtables, [HCompTable(0, bent_entries)], S.flags)
                    if not tally.check(structures.check_typing, bent).passed:
                        continue
                    typed += 1
                    rep = tally.check(structures.check_interchange, bent, 0)
                    hits = sum(len(c.counterexamples) + len(c.asymmetric) for c in rep.checks)
                    tally.expect(f"rewrite {key} -> {alt} caught", hits >= 1, True)
            tally.expect("typed rewrites", typed, self.frozen[run.size]["rewrites"])

    def verify(self, run, inp, results):
        """Every answer of this workload is checked inside the pass."""


WORKLOADS = {w.name: w for w in (MonoidSearch(), RecordHeavy(), InterchangeSearch(), CheckIO())}
