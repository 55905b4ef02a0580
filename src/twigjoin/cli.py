"""Command-line surface: index building, query execution, document
generation and the benchmark harness.

Exit codes: 0 success, 1 usage or query-syntax errors, 2 runtime and IO
errors, a dt query past its row bound among them (`query --max-results`, else
matcher.DEFAULT_MAX_RESULTS, as in `bench`).  Results go to stdout, the metrics
line to stderr, so output stays pipe-friendly.  A reader that closes stdout
early (`twigjoin query ... | head -1`) ends the command quietly with status 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import index_io, matcher
from .document import GeneratorConfig, IngestError, generate
from .dt import explain
from .matcher import MatchTuple, ResultLimitError, ResultSet, evaluate
from .metrics import Metrics
from .oracle import MaterializedDoc, leaf_scan_match, naive_match
from .path_guide import GuideError, PathGuide
from .twig import QuerySyntaxError, TwigPattern, is_name, parse

ENGINES = ("dt", "leafscan", "naive")


class _CliUsage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we use 1
        raise _CliUsage(message)


def _row_count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


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
                         help="print only the number of lines the query would list")
    p_query.add_argument("--project", choices=("jp",),
                         help="print distinct top-JP witness labels instead")
    p_query.add_argument("--no-jump", action="store_true",
                         help="disable jump skipping in the merge")
    p_query.add_argument("--max-results", type=_row_count, metavar="N",
                         help="fail (exit 2) before holding more than N result "
                              "or partial-match rows (dt engine; default "
                              f"{matcher.DEFAULT_MAX_RESULTS:,})")

    p_gen = sub.add_parser("gen", help="generate a random XML document")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-depth", type=int, default=12)
    p_gen.add_argument("--max-fanout", type=int, default=10)
    p_gen.add_argument("--tags", default="ABCDEF",
                       help="tag alphabet, one letter (or _) per tag")
    p_gen.add_argument("--target-nodes", type=int, default=10_000)

    p_bench = sub.add_parser("bench", help="run a workload, print CSV metrics")
    p_bench.add_argument("index", help="index file")
    group = p_bench.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", help="file with one query per line")
    group.add_argument("--auto", choices=("single-branch", "multi-branch"),
                       help="synthesize the standard sweep for this index")
    p_bench.add_argument("--engines", default="dt,leafscan",
                         help="comma-separated engine list")
    p_bench.add_argument("--no-jump", action="store_true")
    return p


# ------------------------------------------------------------- commands


def _cmd_index(args) -> int:
    xml = Path(args.xml).read_bytes()
    pg = PathGuide.build_from_xml(xml)
    idx = index_io.Index.from_guide(pg)
    index_io.save(idx, args.output)
    print(f"guide nodes: {len(pg)}")
    print(f"document nodes: {idx.node_count}")
    return 0


def _run(engine: str, pg: PathGuide, twig: TwigPattern, no_jump: bool,
         max_results: int | None = None) -> tuple[ResultSet | list[MatchTuple], Metrics]:
    """One query on one engine: its answers and Metrics.  Only dt reads
    no_jump and max_results (None: the engine's default); naive rebuilds
    the document first, charged as the full scan it is."""
    if engine == "dt":
        return evaluate(pg, twig, use_jump=not no_jump, max_results=max_results)
    if engine == "leafscan":
        return leaf_scan_match(pg, twig)
    met = Metrics()
    with met.timed():
        doc = MaterializedDoc.from_guide(pg, met)
        results = naive_match(doc, twig)
    return results, met


def _cmd_query(args) -> int:
    for flag, given in (("--explain", args.explain), ("--project jp", args.project),
                        ("--max-results", isinstance(args.max_results, int))):
        if given and args.engine != "dt":
            raise _CliUsage(f"{flag} requires --engine dt")
    pg = index_io.load(args.index).guide
    answers, met = _run(args.engine, pg, parse(args.query), args.no_jump, args.max_results)
    if args.explain:
        print("no DT required" if answers.plan is None else explain(answers.plan, pg))
    # the rows listed, and a function that prints them as lines
    if args.project == "jp":
        listed, lines = answers.tops, answers.top_lines
    elif args.engine == "dt":
        listed, lines = answers, answers.lines
    else:
        listed, lines = answers, lambda: ["\t".join(map(str, mt.leaf_labels)) for mt in answers]
    if args.count:
        print(len(listed))
    else:
        sys.stdout.writelines(line + "\n" for line in lines())
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


def _nameable(tags: tuple[str, ...]) -> tuple[str, ...]:
    """The tags of a sweep, refused if a query step cannot name one."""
    for tag in tags:
        if not is_name(tag):
            raise ValueError(f"the sweep's path has tag {tag!r}, which no query step can name")
    return tags


def synth_single_branch(pg: PathGuide) -> list[tuple[str, str]]:
    """Suffix chains of the deepest guide path, lengths 2 through 9.

    Every longer query's matches are a subset of the shorter one's, so
    the dt engine's reads can only shrink as the chain grows, while
    the leaf tag (and with it the name-scan cost) stays fixed.
    """
    tags = _nameable(pg.path_tags(int(np.argmax(pg.depths)))[-9:])  # the first deepest node's
    if len(tags) < 2:
        raise ValueError("index too shallow for the single-branch sweep")
    return [(f"sb{k}", "//" + "//".join(tags[-k:])) for k in range(2, len(tags) + 1)]


def synth_multi_branch(pg: PathGuide) -> list[tuple[str, str]]:
    """One fixed JP, 2 to 5 child-axis branches, largest extents first.

    The trunk is the absolute path of the guide node with the most
    witnesses among those with at least five distinct child tags, so
    each query plans to exactly one DT record; branches are ordered by
    descending extent size, which keeps the dt read-growth ratio below
    the name-scan baseline's.
    """
    sizes = np.diff(pg.start)
    kids = np.lexsort((-sizes, pg.parents))[1:]  # by parent, largest extent first, then gid
    cands = np.flatnonzero(np.bincount(pg.parents[1:], minlength=len(pg)) >= 5)
    if not len(cands):
        raise ValueError(
            "index has no guide node with five distinct child tags; "
            "multi-branch sweep needs a wider document"
        )
    top5 = kids[np.searchsorted(pg.parents[kids], cands)[:, None] + np.arange(5)]
    # the most witnesses, then the largest top five, then the first gid
    best = np.lexsort((-cands, sizes[top5].sum(axis=1), sizes[cands]))[-1]
    trunk = "/" + "/".join(_nameable(pg.path_tags(cands[best])))
    tags = _nameable(tuple(pg.tag_names[t] for t in pg.tags[top5[best]].tolist()))
    return [(f"mb{b}", trunk + "".join(f"[./{t}]" for t in tags[:b])) for b in range(2, 6)]


def _cmd_bench(args) -> int:
    idx = index_io.load(args.index)
    pg = idx.guide
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    if not engines:
        raise _CliUsage("--engines names no engine")
    for e in engines:
        if e not in ENGINES:
            raise _CliUsage(f"unknown engine name: {e!r}")
    if args.auto == "single-branch":
        workload = synth_single_branch(pg)
    elif args.auto == "multi-branch":
        workload = synth_multi_branch(pg)
    else:
        lines = [line.strip() for line in Path(args.workload).read_text().splitlines()]
        workload = [(f"q{i}", q) for i, q in enumerate(lines, 1) if q and not q.startswith("#")]
        if not workload:
            raise ValueError(f"workload file {args.workload} has no queries")

    print("name,query,engine,nodes_read,bytes_scanned,micros")
    for name, text in workload:
        twig = parse(text)
        for engine in engines:
            _run(engine, pg, twig, args.no_jump)  # warm-up, excluded from timing
            _, met = _run(engine, pg, twig, args.no_jump)
            print(
                f"{name},{text},{engine},"
                f"{met.nodes_read},{met.bytes_scanned},{met.micros}"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    commands = {"index": _cmd_index, "query": _cmd_query, "gen": _cmd_gen, "bench": _cmd_bench}
    try:
        args = _build_parser().parse_args(argv)
        return commands[args.command](args)
    except BrokenPipeError:
        # the reader is gone: what stdout still buffers is flushed to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _CliUsage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except QuerySyntaxError as exc:
        print(f"query syntax error: {exc}", file=sys.stderr)
        return 1
    except (IngestError, GuideError, index_io.IndexFormatError, ResultLimitError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
