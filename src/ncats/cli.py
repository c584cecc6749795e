"""Command line front end.

Subcommands cover the whole library surface: ``check`` runs the axiom
checkers over a file, ``enumerate`` counts admissible structures,
``skeletal`` certifies forced uniqueness, ``opposite`` reverses one level,
``morphism``/``functor``/``nat``/``modification`` verify named sections of
a file, and ``gen`` writes example documents.

Exit codes: 0 all requested checks passed (or the enumeration finished),
1 a check failed (an invalid carrier fails its ``carrier`` check in every
subcommand, invalid tables fail with their error in every subcommand that
reads them), 2 usage or parse error, or a standard output that cannot be
written, 3 a budget was exceeded.
``--json`` prints the machine-readable report instead of prose; human
output shows at most 10 counterexamples per check unless ``--all`` is
given.  NCATS_MAX_NODES and NCATS_TIME_BUDGET set default search budgets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io as fmt
from .graphs import (
    BadLevel,
    GraphError,
    NGraph,
    SpaceTooLarge,
    opposite,
    skeletal_graph,
)
from .structures import (
    FAIL,
    AxiomCheck,
    AxiomFlags,
    AxiomReport,
    Counterexample,
    StructureError,
    check_category,
    check_cocategory,
)

HUMAN_CE_CAP = 10


class _Usage(Exception):
    pass


class _Invalid(Exception):
    """An invalid carrier or tables; its argument is the failing report."""


def _parse_flags(text):
    if text is None:
        return None
    names = [p for p in text.replace(",", " ").split() if p]
    try:
        return AxiomFlags.from_names(names)
    except ValueError as e:
        raise _Usage(str(e)) from None


def _parse_levels(text):
    if text is None:
        return None
    try:
        return tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise _Usage(f"bad level list {text!r}") from None


def _limits(args):
    """Each budget: its option, else its environment variable, else the default."""
    from .enumeration import EnumLimits

    limits = {}
    for option, cast in (("max_nodes", int), ("time_budget", float)):
        name, value = "--" + option.replace("_", "-"), getattr(args, option)
        if value is None:
            name = "NCATS_" + option.upper()
            raw = os.environ.get(name)
            try:
                value = getattr(EnumLimits, option) if raw is None else cast(raw)
            except ValueError:
                raise _Usage(f"{name} must be a number, got {raw!r}") from None
        # nan fails every comparison, so it is turned down with the negatives
        if not value >= 0:
            raise _Usage(f"{name} must be at least 0, got {value}")
        limits[option] = value
    return EnumLimits(**limits)


def _load(path):
    try:
        return fmt.load_document(path)
    except OSError as e:
        raise _Usage(f"cannot read {path}: {e.strerror or e}") from None


def _document(args):
    """The file's document and its carrier.  An invalid carrier ends the
    command with its failing report (exit 1)."""
    doc = _load(args.file)
    G = doc.graph()
    if isinstance(G, NGraph):
        return doc, G
    issues = [Counterexample(i.condition, () if i.cell is None else (i.cell,), actual=i.detail)
              for i in G.issues]
    report = AxiomReport([AxiomCheck("carrier", None, FAIL, issues)])
    raise _Invalid(fmt.report_document(report, name_of=str))


def _structure(doc, args):
    """The file's structure under ``--flags``.  Invalid tables end the
    command with a failing report that carries the error (exit 1)."""
    try:
        return doc.structure(_parse_flags(args.flags))
    except StructureError as e:
        raise _Invalid(fmt.report_document(None, error=str(e))) from None


def _emit(rep, args):
    if getattr(args, "json", False):
        print(json.dumps(rep, sort_keys=True, indent=2))
    else:
        _print_human(rep, None if getattr(args, "all", False) else HUMAN_CE_CAP)
    return fmt.exit_code(rep)


def _print_counterexamples(items, cap, prefix=""):
    shown = items if cap is None else items[:cap]
    for x in shown:
        parts = [prefix + x["kind"]]
        if x.get("cells"):
            parts.append("cells " + ", ".join(str(c) for c in x["cells"]))
        if "expected" in x:
            parts.append(f"expected {x['expected']}")
        if "actual" in x:
            parts.append(f"actual {x['actual']}")
        print("  " + "; ".join(parts))
    if cap is not None and len(items) > cap:
        print(f"  ... {len(items) - cap} more (rerun with --all)")


def _print_human(rep, cap):
    for c in rep.get("checks", ()):
        where = f" level {c['level']}" if "level" in c else ""
        print(f"{c['axiom']}{where}: {c['verdict']}")
        _print_counterexamples(c.get("counterexamples", ()), cap)
        _print_counterexamples(c.get("asymmetric", ()), cap, prefix="one-sided ")
        for note in c.get("notes", ()):
            print(f"  note: {note}")
    if "counts" in rep:
        print("counts: " + " ".join(f"{k}={v}" for k, v in sorted(rep["counts"].items())))
    for key in ("unique", "exhausted", "nodes"):
        if key in rep:
            print(f"{key}: {rep[key]}")
    if "elapsed" in rep:
        print(f"elapsed: {rep['elapsed']:.3f}s")
    if "error" in rep:
        print(f"error: {rep['error']}")
    print(f"verdict: {rep['verdict']}")


def _write_doc(doc, out):
    data = fmt.serialize(doc)
    if out:
        try:
            with open(out, "wb") as fh:
                fh.write(data)
        except OSError as e:
            raise _Usage(f"cannot write {out}: {e.strerror or e}") from None
    else:
        sys.stdout.write(data.decode("utf-8"))


def cmd_check(args):
    doc, G = _document(args)
    report = check_category(_structure(doc, args))
    for D in doc.cotables():
        report = report.merged(check_cocategory(G, D))
    return _emit(fmt.report_document(report, name_of=doc.cell_name), args)


def cmd_enumerate(args):
    from .enumeration import EnumSpec, LevelUnavailable, enumerate_structures

    doc, G = _document(args)
    flags = _parse_flags(args.flags)
    if flags is None:
        flags = doc.flags()
    spec = EnumSpec(levels=_parse_levels(args.levels), flags=flags,
                    include_horizontal=args.horizontal,
                    maximal_only=args.maximal_only, limits=_limits(args))
    try:
        result = enumerate_structures(G, spec)
    except LevelUnavailable as e:
        raise _Usage(str(e)) from None
    rep = fmt.report_document(
        None, counts={"raw": result.raw_count, "iso": result.iso_count},
        exhausted=result.exhausted, nodes=result.nodes,
        elapsed=result.elapsed, limit_exceeded=not result.exhausted)
    return _emit(rep, args)


def cmd_skeletal(args):
    from .enumeration import NotSkeletal, verify_skeletal_uniqueness

    _, G = _document(args)
    try:
        cert = verify_skeletal_uniqueness(G, _limits(args))
    except NotSkeletal as e:
        return _emit(fmt.report_document(None, error=str(e)), args)
    result = cert.result
    rep = fmt.report_document(
        None, counts={"raw": result.raw_count, "iso": result.iso_count},
        unique=cert.unique, exhausted=result.exhausted,
        elapsed=result.elapsed, limit_exceeded=not result.exhausted)
    if not cert.unique and result.exhausted:
        rep["verdict"] = "fail"
    return _emit(rep, args)


def cmd_opposite(args):
    _, G = _document(args)
    try:
        flipped = opposite(G, args.level)
    except GraphError as e:
        raise _Usage(str(e)) from None
    # tables are dropped: their composability keying does not survive the flip
    _write_doc(fmt.document_from_graph(flipped), args.output)
    return 0


def cmd_morphism(args):
    from .morphisms import VarianceSpec, check_contravariant, check_graph_morphism

    doc, _ = _document(args)
    m = doc.morphism(args.name)
    variance = _parse_levels(args.contravariant)
    if variance:
        try:
            report = check_contravariant(m, VarianceSpec(frozenset(variance)))
        except BadLevel as e:
            raise _Usage(str(e)) from None
    else:
        report = check_graph_morphism(m)
    return _emit(fmt.report_document(report, name_of=doc.cell_name), args)


def cmd_functor(args):
    from .morphisms import check_functor

    doc, _ = _document(args)
    m = doc.morphism(args.name)
    S = _structure(doc, args)
    report = check_functor(m, S, S)
    return _emit(fmt.report_document(report, name_of=doc.cell_name), args)


def _expect_ends(doc, kind, name, **ends):
    """Usage error unless the item ``name`` of the section ``kind`` has the
    endpoints asked for: ``ends`` maps its two endpoint fields, source
    first, to a name, or to None for any."""
    item = doc.section(kind, name)
    for (field, want), where in zip(ends.items(), ("starts at", "ends at")):
        if want is not None and item[field] != want:
            raise _Usage(f"{kind[:-1]} {name!r} {where} {item[field]!r}, not {want!r}")


def cmd_nat(args):
    from .morphisms import check_transformation

    doc, _ = _document(args)
    t = doc.transformation(args.t)
    _expect_ends(doc, "transformations", args.t, f=args.f, g=args.g)
    S = _structure(doc, args)
    report = check_transformation(t, S, S)
    return _emit(fmt.report_document(report, name_of=doc.cell_name), args)


def cmd_modification(args):
    from .morphisms import check_modification

    doc, _ = _document(args)
    md = doc.modification(args.m)
    _expect_ends(doc, "modifications", args.m, s=args.s, t=args.t)
    S = _structure(doc, args)
    report = check_modification(md, S, S)
    return _emit(fmt.report_document(report, name_of=doc.cell_name), args)


def cmd_gen(args):
    from .cobordism import build_cob_truncation, gen_sets_graph

    try:
        if args.kind == "cob":
            _, S = build_cob_truncation(args.max_points)
            doc = fmt.document_from_structure(S)
        elif args.kind == "sets":
            doc = fmt.document_from_graph(gen_sets_graph(args.max_size))
        else:
            G = skeletal_graph(args.objects, args.n, seed=args.seed)
            doc = fmt.document_from_graph(G)
    except SpaceTooLarge:
        raise
    except GraphError as e:
        raise _Usage(str(e)) from None
    _write_doc(doc, args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse would drop a failed write; main reports it
        (file or sys.stdout).write(self.format_help())


def _build_parser():
    p = _Parser(
        prog="ncats",
        description="Check, count and generate finite higher-category structures.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, flags=True):
        sp.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
        sp.add_argument("--all", action="store_true",
                        help="print every counterexample, not just the first 10")
        if flags:
            sp.add_argument("--flags", metavar="NAMES",
                            help="comma-separated axiom flags overriding the file")

    def budgets(sp):
        sp.add_argument("--max-nodes", type=int, default=None,
                        help="search node budget (default $NCATS_MAX_NODES)")
        sp.add_argument("--time-budget", type=float, default=None,
                        help="seconds before giving up (default $NCATS_TIME_BUDGET)")

    sp = sub.add_parser("check", help="run the axiom checkers over a file")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("enumerate", help="count admissible structures on the carrier")
    sp.add_argument("file")
    common(sp)
    sp.add_argument("--levels", metavar="LIST", help="levels to fill, default all")
    sp.add_argument("--horizontal", action="store_true",
                    help="search horizontal tables too")
    sp.add_argument("--maximal-only", action="store_true",
                    help="in partial mode keep only inextensible tables")
    budgets(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("skeletal", help="certify that a skeletal carrier forces one structure")
    sp.add_argument("file")
    common(sp, flags=False)
    budgets(sp)
    sp.set_defaults(func=cmd_skeletal)

    sp = sub.add_parser("opposite", help="reverse one level and print the carrier")
    sp.add_argument("file")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=cmd_opposite)

    sp = sub.add_parser("morphism", help="check a named graph morphism")
    sp.add_argument("file")
    sp.add_argument("--name", required=True)
    sp.add_argument("--contravariant", metavar="LEVELS",
                    help="levels at which the map reverses direction")
    common(sp, flags=False)
    sp.set_defaults(func=cmd_morphism)

    sp = sub.add_parser("functor", help="check a named morphism against the tables")
    sp.add_argument("file")
    sp.add_argument("--name", required=True)
    common(sp)
    sp.set_defaults(func=cmd_functor)

    sp = sub.add_parser("nat", help="check a named transformation")
    sp.add_argument("file")
    sp.add_argument("--t", required=True, help="transformation name")
    sp.add_argument("--f", help="expected source morphism name")
    sp.add_argument("--g", help="expected target morphism name")
    common(sp)
    sp.set_defaults(func=cmd_nat)

    sp = sub.add_parser("modification", help="check a named modification")
    sp.add_argument("file")
    sp.add_argument("--m", required=True, help="modification name")
    sp.add_argument("--s", help="expected source transformation name")
    sp.add_argument("--t", help="expected target transformation name")
    common(sp)
    sp.set_defaults(func=cmd_modification)

    sp = sub.add_parser("gen", help="write an example document")
    gen_sub = sp.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("cob", help="cobordisms below a point budget")
    g.add_argument("--max-points", type=int, default=2)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=cmd_gen)
    g = gen_sub.add_parser("sets", help="small sets, maps and map replacements")
    g.add_argument("--max-size", type=int, default=2)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=cmd_gen)
    g = gen_sub.add_parser("skeletal", help="a random skeletal carrier")
    g.add_argument("--objects", type=int, default=3)
    g.add_argument("--n", type=int, default=1)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=cmd_gen)

    return p


def _run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 2
    try:
        return args.func(args)
    except _Invalid as e:
        return _emit(e.args[0], args)
    except (_Usage, fmt.ParseError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except SpaceTooLarge as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except (GraphError, StructureError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


def main(argv=None) -> int:
    # every other file a command reads or writes reports its own OSError
    # as a usage error, so one that gets here came from standard output
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except OSError as e:
        sys.stderr.write(f"error: cannot write standard output: {e.strerror or e}\n")
    # what is still buffered goes to the null device, so that the
    # interpreter's last flush does not fail a second time
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    except (OSError, ValueError):
        pass
    return 2


if __name__ == "__main__":
    sys.exit(main())
