"""Command-line surface: index building, query execution, document
generation and the benchmark harness.

Exit codes: 0 success, 1 usage or query-syntax errors, 2 runtime and
IO errors.  Results go to stdout; the metrics line goes to stderr so
result output stays pipe-friendly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import index_io
from .document import GeneratorConfig, IngestError, generate
from .dt import explain
from .kernels import BACKEND_NAMES
from .matcher import MatchTuple, evaluate
from .metrics import Metrics
from .oracle import MaterializedDoc, leaf_scan_match, naive_match
from .path_guide import GuideError, PathGuide
from .twig import QuerySyntaxError, parse

ENGINES = ("dt", "leafscan", "naive")


class _CliUsage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we use 1
        raise _CliUsage(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="twigjoin", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build an index from an XML file")
    p_index.add_argument("xml", help="input XML document")
    p_index.add_argument("-o", "--output", required=True, help="index file to write")

    p_query = sub.add_parser("query", help="run a twig query against an index")
    p_query.add_argument("index", help="index file")
    p_query.add_argument("query", help="twig query text")
    p_query.add_argument("--engine", choices=ENGINES, default="dt")
    p_query.add_argument("--explain", action="store_true",
                         help="print the DT plan the query ran on (dt engine)")
    p_query.add_argument("--count", action="store_true",
                         help="print only the match count")
    p_query.add_argument("--format", choices=("dotted", "count"), default="dotted")
    p_query.add_argument("--project", choices=("jp",),
                         help="print distinct top-JP witness labels instead")
    p_query.add_argument("--no-jump", action="store_true",
                         help="disable jump skipping in the merge")
    p_query.add_argument("--kernels", choices=BACKEND_NAMES,
                         help="merge kernel backend override")

    p_gen = sub.add_parser("gen", help="generate a random XML document")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-depth", type=int, default=12)
    p_gen.add_argument("--max-fanout", type=int, default=10)
    p_gen.add_argument("--tags", default="ABCDEF",
                       help="tag alphabet, one letter per tag")
    p_gen.add_argument("--target-nodes", type=int, default=10_000)

    p_bench = sub.add_parser("bench", help="run a workload, print CSV metrics")
    p_bench.add_argument("index", help="index file")
    group = p_bench.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", help="file with one query per line")
    group.add_argument("--auto", choices=("single-branch", "multi-branch"),
                       help="synthesize the standard sweep for this index")
    p_bench.add_argument("--engines", default="dt,leafscan",
                         help="comma-separated engine list")
    p_bench.add_argument("--kernels", choices=BACKEND_NAMES)
    p_bench.add_argument("--no-jump", action="store_true")
    return p


# ------------------------------------------------------------- commands


def _cmd_index(args) -> int:
    xml = Path(args.xml).read_bytes()
    pg = PathGuide.build_from_xml(xml)
    idx = index_io.Index.from_guide(pg)
    index_io.save(idx, args.output)
    print(f"guide nodes: {len(pg.nodes)}")
    print(f"document nodes: {idx.node_count}")
    return 0


def _print_results(args, results: list[MatchTuple], jp_labels: list) -> None:
    if args.count or args.format == "count":
        print(len(results))
    elif args.project == "jp":
        for lab in jp_labels:
            print(str(lab))
    else:
        for mt in results:
            print("\t".join(str(lab) for lab in mt.leaf_labels))


def _cmd_query(args) -> int:
    if args.explain and args.engine != "dt":
        raise _CliUsage("--explain requires --engine dt")
    if args.project and args.engine != "dt":
        raise _CliUsage("--project jp requires --engine dt")
    idx = index_io.load(args.index)
    pg = idx.guide
    twig = parse(args.query)

    if args.engine == "dt":
        rs, met = evaluate(
            pg, twig, use_jump=not args.no_jump, backend=args.kernels
        )
        if args.explain:
            print("no DT required" if rs.plan is None else explain(rs.plan, pg))
        _print_results(args, rs.matches, rs.top_jp_labels)
    elif args.engine == "leafscan":
        results, met = leaf_scan_match(pg, twig)
        _print_results(args, results, [])
    else:
        met = Metrics()
        with met.timed():
            doc = MaterializedDoc.from_guide(pg, met)
            results = naive_match(doc, twig)
        _print_results(args, results, [])
    print(met.format_line(), file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    cfg = GeneratorConfig(
        max_depth=args.max_depth,
        max_fanout=args.max_fanout,
        tag_alphabet=tuple(args.tags),
        seed=args.seed,
        target_node_count=args.target_nodes,
    )
    doc = generate(cfg)
    Path(args.output).write_bytes(doc.xml)
    print(f"nodes: {doc.node_count}")
    return 0


def synth_single_branch(pg: PathGuide) -> list[tuple[str, str]]:
    """Suffix chains of the deepest guide path, lengths 2 through 9.

    Every longer query's matches are a subset of the shorter one's, so
    the dt engine's reads can only shrink as the chain grows, while
    the leaf tag (and with it the name-scan cost) stays fixed.
    """
    deepest = max(pg.nodes, key=lambda n: (n.depth, -n.gid))
    tags = deepest.path
    out = []
    for k in range(2, 10):
        if k > len(tags):
            break
        out.append((f"sb{k}", "//" + "//".join(tags[len(tags) - k :])))
    if not out:
        raise ValueError("index too shallow for the single-branch sweep")
    return out


def synth_multi_branch(pg: PathGuide) -> list[tuple[str, str]]:
    """One fixed JP, 2 to 5 child-axis branches, largest extents first.

    The trunk is the absolute path of the guide node with the most
    witnesses among those with at least five distinct child tags, so
    each query plans to exactly one DT record; branches are ordered by
    descending extent size, which keeps the dt read-growth ratio below
    the name-scan baseline's.
    """
    best = None
    for node in pg.nodes:
        if len(node.children) < 5:
            continue
        kids = sorted(
            node.children.values(), key=lambda g: (-len(pg.extents[g]), g)
        )[:5]
        score = (len(pg.extents[node.gid]), sum(len(pg.extents[g]) for g in kids))
        if best is None or score > best[0]:
            best = (score, node, kids)
    if best is None:
        raise ValueError(
            "index has no guide node with five distinct child tags; "
            "multi-branch sweep needs a wider document"
        )
    _, node, kids = best
    trunk = "/" + "/".join(node.path)
    tags = [pg.nodes[g].tag for g in kids]
    out = []
    for b in range(2, 6):
        out.append((f"mb{b}", trunk + "".join(f"[./{t}]" for t in tags[:b])))
    return out


def _cmd_bench(args) -> int:
    idx = index_io.load(args.index)
    pg = idx.guide
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    for e in engines:
        if e not in ENGINES:
            raise _CliUsage(f"unknown engine name: {e!r}")
    if args.auto == "single-branch":
        workload = synth_single_branch(pg)
    elif args.auto == "multi-branch":
        workload = synth_multi_branch(pg)
    else:
        lines = Path(args.workload).read_text().splitlines()
        workload = [
            (f"q{i}", line.strip())
            for i, line in enumerate(lines, 1)
            if line.strip() and not line.lstrip().startswith("#")
        ]
        if not workload:
            raise ValueError(f"workload file {args.workload} has no queries")

    def run(engine: str, text: str) -> Metrics:
        twig = parse(text)
        if engine == "dt":
            _, met = evaluate(
                pg, twig, use_jump=not args.no_jump, backend=args.kernels
            )
        elif engine == "leafscan":
            _, met = leaf_scan_match(pg, twig)
        else:
            met = Metrics()
            with met.timed():
                doc = MaterializedDoc.from_guide(pg, met)
                naive_match(doc, twig)
        return met

    print("name,query,engine,nodes_read,bytes_scanned,micros")
    for name, text in workload:
        for engine in engines:
            run(engine, text)  # warm-up, excluded from timing
            met = run(engine, text)
            print(
                f"{name},{text},{engine},"
                f"{met.nodes_read},{met.bytes_scanned},{met.micros}"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliUsage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "index":
            return _cmd_index(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_bench(args)
    except _CliUsage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except QuerySyntaxError as exc:
        print(f"query syntax error: {exc}", file=sys.stderr)
        return 1
    except (IngestError, GuideError, index_io.IndexFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
