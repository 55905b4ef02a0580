"""The three workloads, the closed-loop driver, the correctness gate and
the metrics.

Load model: one client, one process, no extra threads, closed loop.  A
query op is ``parse`` -> ``evaluate`` -> ``ResultSet.lines()``, timed
together; a document op (``ingest`` workload) is XML bytes -> ``ingest``
-> ``PathGuide.build`` -> ``to_bytes`` -> ``from_bytes``.  The garbage
collector stays on.

A pass runs a fixed multiset of ops in a seeded order, and a run
measures whole passes: it starts another one only while the busy time
so far plus one more pass fits in the run's seconds, and always runs at
least one.  Every pass has the same make-up, so the metrics do not
depend on how many passes fit.  Each query appears in many copies, and
its latency is the median of its copies.

Times in the end-to-end metrics are scaled to a reference machine speed
(see `_Speed`); per-layer times from spans are raw.

The query pools are fixed; the seed orders the ops and generates the
schema-shaped documents.  Pools drawn per seed moved the percentiles by
13-21 % from seed to seed, more than any bound could absorb.

Answers are checked after the timed passes against ``leaf_scan_match``
on the same index, one reference per distinct query; every timed op
whose answer differs, or that raised, counts as failed.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.metadata
import os
import platform
import random
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import twigjoin
from twigjoin import (
    GeneratorConfig,
    PathGuide,
    ResultSet,
    evaluate,
    generate,
    get_backend,
    ingest,
    leaf_scan_match,
    parse,
    split,
)
from twigjoin import index_io
from twigjoin.kernels import ENV_VAR, default_backend_name

import corpora
from spans import Tracer, instrumented, timing_backend

SETUP_REPS = 3
INGEST_SETUP_REPS = 9  # its set-up is tens of milliseconds
FRAG_CORPUS_SEED = 7  # the ROADMAP baseline corpus
WORKLOADS = ("frag", "schema", "ingest")
SETUP_STAGES = ("document.ingest", "path_guide.build", "index_io.encode", "index_io.decode")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "qps": "1/s",
    "path_p50_ms": "ms",
    "path_p90_ms": "ms",
    "twig_p50_ms": "ms",
    "twig_p90_ms": "ms",
    "nodes_read_per_query": "count",
    "bytes_scanned_per_query": "count",
    "build_nodes_per_s": "1/s",
    "load_nodes_per_s": "1/s",
    "index_bytes_per_node": "B",
}

PER_LAYER = {
    "document.ingest_ms": "ms",
    "path_guide.build_ms": "ms",
    "index_io.encode_ms": "ms",
    "index_io.decode_ms": "ms",
    "twig.parse_ms": "ms",
    "twig.split_ms": "ms",
    "path_guide.branch_eval_ms": "ms",
    "path_guide.extent_reads": "count",
    "dt.plan_ms": "ms",
    "dt.records": "count",
    "dt.tables": "count",
    "kernels.calls": "count",
    "kernels.merge_ms": "ms",
    "kernels.rows_in": "count",
    "kernels.rows_out": "count",
    "kernels.hit_frac": "fraction",
    "matcher.match_ms": "ms",
    "matcher.fanout_ms": "ms",
    "matcher.zero_jp_ms": "ms",
    "matcher.matches": "count",
    "matcher.nodes_read": "count",
    "matcher.bytes_scanned": "count",
    "matcher.prefix_comparisons": "count",
    "matcher.jumps": "count",
    "output.lines_ms": "ms",
    "oracle.leafscan_ms": "ms",
    "oracle.dt_over_leafscan": "ratio",
    "other_ms": "ms",
    "trace.overhead_frac": "fraction",
}

_now = time.perf_counter_ns

# How long one `_calibration_loop` takes on the reference machine (a
# quiet 2-vCPU VM, Python 3.11); timings are scaled to that speed.
CALIBRATION_NS = 320_000


def _calibration_loop() -> int:
    """ns for a fixed, engine-independent interpreter workload.  The
    collector is paused so that the engine's heap cannot slow it."""
    gc.disable()
    try:
        t0 = _now()
        acc, d = 0, {}
        for i in range(2000):
            d[i & 63] = (i, acc)
            acc = (acc * 31 + len(d) + i) & 0xFFFFF
        return _now() - t0
    finally:
        gc.enable()


class _Speed:
    """The machine's current speed, sampled after every measurement.

    A shared machine's speed can drift by tens of percent over seconds
    and minutes, for every process on it alike.  `scaled` times the
    calibration loop right after a measurement, more often after a long
    one, and rescales the measurement by CALIBRATION_NS over the median
    of the samples around it, so the figures follow the engine rather
    than the drift.
    """

    def __init__(self) -> None:
        self.samples = [_calibration_loop() for _ in range(4)]

    def scaled(self, ns: int) -> float:
        k = min(8, 1 + ns // 50_000_000)  # one sample per 50 ms measured
        self.samples += [_calibration_loop() for _ in range(k)]
        around = self.samples[-max(4, 2 * k):]
        return ns * CALIBRATION_NS / statistics.median(around)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the smoke test shrinks them."""

    frag_elements: int = 100_000
    schema_elements: int = 120_000
    ingest_elements: tuple[int, ...] = (5_000, 10_000, 20_000)
    # copies per pass of each query: (ROADMAP probe,) path, twig; a
    # query's latency is the median of its copies
    frag_copies: tuple[int, int, int] = (3, 6, 6)
    schema_copies: tuple[int, int] = (7, 7)


@dataclass
class Query:
    text: str
    twig: bool  # has a join point
    copies: int = 1
    doc: int = 0  # which document's index it runs on


@dataclass
class QueryOp:
    query: int
    ns: int = 0  # wall time
    scaled_ns: float = 0.0  # wall time at the reference speed
    digest: bytes | None = None  # None: the op raised
    matches: int = 0
    nodes_read: int = 0
    bytes_scanned: int = 0
    prefix_comparisons: int = 0
    jumps: int = 0


@dataclass
class DocOp:
    doc: int
    stages: dict[str, float]  # stage -> ns at the reference speed
    elements: int
    index_bytes: int
    ok: bool


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    report: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def reference_lines(pg: PathGuide, text: str) -> list[str]:
    """The answer `leaf_scan_match` gives, in `ResultSet.lines()` form."""
    matches, _ = leaf_scan_match(pg, parse(text))
    return ["\t".join(str(lab) for lab in mt.leaf_labels) for mt in matches]


def _digest(lines: list[str]) -> bytes:
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=16).digest()


def _query(text: str, copies: int = 1, doc: int = 0) -> Query:
    return Query(text, bool(split(parse(text)).jps), copies, doc)


class _Engine:
    """The engine calls a query op makes, spanned when tracing.

    `errors` collects one line per failed op, for the report.
    """

    def __init__(self, tr: Tracer | None, errors: list[str]):
        self.errors = errors
        wrap = tr.wrap if tr else (lambda _name, fn: fn)
        self.parse = wrap("twig.parse", parse)
        self.evaluate = wrap("matcher.evaluate", evaluate)
        self.lines = wrap("output.lines", ResultSet.lines)
        base = get_backend()
        self.backend = timing_backend(base, tr) if tr else base

    def run(self, pg: PathGuide, qi: int, text: str) -> QueryOp:
        op = QueryOp(qi)
        try:
            t0 = _now()
            rs, met = self.evaluate(pg, self.parse(text), backend=self.backend)
            lines = self.lines(rs)
            op.ns = _now() - t0
        except Exception as exc:  # a failed op: digest stays None
            self.errors.append(f"{text}: {type(exc).__name__}: {exc}")
            return op
        op.digest = _digest(lines)
        op.matches = len(lines)
        op.nodes_read = met.nodes_read
        op.bytes_scanned = met.bytes_scanned
        op.prefix_comparisons = met.prefix_comparisons
        op.jumps = met.jumps
        return op


def _build(xml: bytes, speed: _Speed):
    """XML bytes -> guide -> index bytes -> loaded index.  Returns (wall
    ns, stage -> ns at the reference speed, guide, bytes, loaded index)."""
    stages: dict[str, float] = {}
    wall = 0

    def timed(stage: str, fn, *args):
        nonlocal wall
        t0 = _now()
        out = fn(*args)
        ns = _now() - t0
        wall += ns
        stages[stage] = speed.scaled(ns)
        return out

    events = timed("document.ingest", lambda: list(ingest(xml)))
    pg = timed("path_guide.build", PathGuide.build, events)
    del events
    blob = timed("index_io.encode", lambda: index_io.to_bytes(index_io.Index.from_guide(pg)))
    idx = timed("index_io.decode", index_io.from_bytes, blob)
    return wall, stages, pg, blob, idx


def _same_guide(a: PathGuide, b: PathGuide) -> bool:
    return (
        [(n.tag, n.parent, n.depth) for n in a.nodes]
        == [(n.tag, n.parent, n.depth) for n in b.nodes]
        and all(np.array_equal(x.rows, y.rows) for x, y in zip(a.extents, b.extents))
    )


def _passes(seconds: float, run_pass) -> int:
    """Run whole passes while one more still fits in `seconds` of busy
    time; at least one.  Returns the pass count."""
    busy, n = 0, 0
    while True:
        busy += run_pass(n)
        n += 1
        if (busy + busy / n) / 1e9 > seconds:
            return n


def _pass_order(seed: int, phase: str, n: int, items: list) -> list:
    order = list(items)
    random.Random(f"{seed}/{phase}/{n}").shuffle(order)
    return order


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------------- workloads


def _frag_pool(sizes: Sizes) -> list[Query]:
    paths, twigs = corpora.frag_queries(random.Random("frag-pool"), 3, 3)
    fc, pc, tc = sizes.frag_copies
    return (
        [_query(q, fc) for q in corpora.FRAG_FIXED]
        + [_query(q, pc) for q in paths]
        + [_query(q, tc) for q in twigs]
    )


def _schema_pool(sizes: Sizes) -> list[Query]:
    paths, twigs = corpora.schema_queries(random.Random("schema-pool"))
    # every other query: half the reference checks, and each twig form
    # (listed form by form) keeps its share
    paths, twigs = paths[::2], twigs[::2]
    pc, tc = sizes.schema_copies
    return [_query(q, pc) for q in paths] + [_query(q, tc) for q in twigs]


def _frag_xml(seed: int, sizes: Sizes) -> bytes:
    cfg = GeneratorConfig(seed=FRAG_CORPUS_SEED, target_node_count=sizes.frag_elements)
    return generate(cfg).xml


def _schema_xml(seed: int, sizes: Sizes) -> bytes:
    return corpora.schema_xml(seed, sizes.schema_elements)[0]


def _ingest_docs(seed: int, sizes: Sizes) -> list[bytes]:
    """One document per generator and size.  Frag-family documents keep
    fixed seeds, like the frag corpus: their shape varies too much from
    seed to seed for runs to compare."""
    docs = []
    for i, n in enumerate(sizes.ingest_elements):
        cfg = GeneratorConfig(seed=FRAG_CORPUS_SEED + i, target_node_count=n)
        docs.append(generate(cfg).xml)
        docs.append(corpora.schema_xml(seed * 1000 + i, n)[0])
    return docs


def _ingest_pool(n_docs: int) -> list[Query]:
    """Four path and seven twig queries per document, from the template
    family of the generator that made it."""
    rng = random.Random("ingest-pool")
    frag = corpora.frag_queries(rng, 1, 1)
    schema_paths, schema_twigs = corpora.schema_queries(rng)
    schema = rng.sample(schema_paths, 4), rng.sample(schema_twigs, 7)
    pool = []
    for d in range(n_docs):
        paths, twigs = schema if d % 2 else frag
        pool += [_query(q, 1, d) for q in paths + twigs]
    return pool


# ---------------------------------------------------------------- driver


class _Phase:
    """The timed ops of one phase of a run: untraced, or traced."""

    def __init__(self, queries: list[Query], tr: Tracer | None, errors: list[str],
                 speed: _Speed):
        self.queries = queries
        self.tr = tr
        self.speed = speed
        self.engine = _Engine(tr, errors)
        self.ops: list[QueryOp] = []
        self.docs: list[DocOp] = []

    def query(self, pg: PathGuide, qi: int) -> int:
        if self.tr:
            self.tr.op = len(self.ops)
        op = self.engine.run(pg, qi, self.queries[qi].text)
        op.scaled_ns = self.speed.scaled(op.ns)
        self.ops.append(op)
        return op.ns


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes()) -> Result:
    """One run of `workload`; metrics are end-to-end, or per-layer when
    `trace` is set."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "ingest":
        return _run_ingest(seed, seconds, trace, sizes)
    make_xml, make_pool = {
        "frag": (_frag_xml, _frag_pool),
        "schema": (_schema_xml, _schema_pool),
    }[workload]
    return _run_queries(workload, seed, seconds, trace, sizes, make_xml, make_pool)


def _timed_phases(seconds: float, trace: bool, new_phase, one_pass):
    """The untraced phase, then (when tracing) a traced phase of as many
    passes.  Returns (untraced, traced or None, passes, peak RSS MB);
    the RSS is read before tracing and before the gate."""
    main = new_phase(None)
    n_passes = _passes(seconds, lambda n: one_pass(main, "main", n))
    rss = _peak_rss_mb()
    if not trace:
        return main, None, n_passes, rss
    traced = new_phase(Tracer())
    with instrumented(traced.tr):
        for n in range(n_passes):
            one_pass(traced, "traced", n)
    return main, traced, n_passes, rss


def _setup_rep(make_xml, speed: _Speed) -> tuple[dict[str, float], bytes, index_io.Index]:
    """One full set-up: corpus generation, build, encode, load.  Stage
    times (and their "total") at the reference speed."""
    gc.collect()
    t0 = _now()
    xml = make_xml()
    generate_ns = speed.scaled(_now() - t0)
    _, stages, _, blob, idx = _build(xml, speed)
    stages["total"] = generate_ns + sum(stages.values())
    return stages, blob, idx


def _run_queries(name, seed, seconds, trace, sizes, make_xml, make_pool) -> Result:
    make = lambda: make_xml(seed, sizes)  # noqa: E731
    speed = _Speed()
    reps = []
    for _ in range(SETUP_REPS):
        # back to back, so that each set-up meets the same heap
        idx = blob = None
        stages, blob, idx = _setup_rep(make, speed)
        reps.append(stages)
    pg = idx.guide
    queries = make_pool(sizes)
    rounds = max(q.copies for q in queries)
    n_ops = sum(q.copies for q in queries)
    errors: list[str] = []
    warm = _Phase(queries, None, errors, speed)
    for qi in _warmup(queries):
        warm.query(pg, qi)
    gc.collect()

    def one_pass(ph: _Phase, label: str, n: int) -> int:
        busy = 0
        for r in range(rounds):
            # a query with c copies runs in c of the rounds, evenly spaced,
            # so its copies meet different moments of the machine
            due = [qi for qi, q in enumerate(queries)
                   if (r + 1) * q.copies // rounds > r * q.copies // rounds]
            busy += sum(ph.query(pg, qi) for qi in _pass_order(seed, f"{label}/{r}", n, due))
        return busy

    main, traced, n_passes, rss = _timed_phases(
        seconds, trace, lambda tr: _Phase(queries, tr, errors, speed), one_pass
    )
    phases = [main] + ([traced] if traced else [])
    ref_ns, failed = _gate(phases, queries, lambda q: pg, errors)
    elements = idx.node_count
    fast = {s: statistics.median(r[s] for r in reps) for s in SETUP_STAGES}
    metrics = _query_metrics(main, rss)
    metrics.update(_build_metrics(elements, fast, len(blob)))
    metrics["setup_s"] = (statistics.median(r["total"] for r in reps) / 1e9, "s")
    report = _provenance(name, seed, seconds, n_passes, {
        "elements": elements,
        "guide_nodes": len(pg.nodes),
        "labels_per_extent": elements / len(pg.nodes),
        "index_bytes": len(blob),
        "distinct_queries": len(queries),
        "ops_per_pass": n_ops,
        "setup_reps_s": [round(r["total"] / 1e9, 4) for r in reps],
        "machine_speed": round(CALIBRATION_NS / statistics.median(speed.samples), 3),
    })
    if trace:
        stage_ms = {s: fast[s] / 1e6 for s in SETUP_STAGES}
        metrics = _layer_metrics(main, traced, stage_ms, ref_ns)
        _write_spans(traced, name, seed)
        if name == "frag":
            report += _baseline_table(stage_ms, main, traced, ref_ns)
    attempted = sum(len(ph.ops) for ph in phases)
    return Result(metrics, attempted, failed, report, errors)


def _warmup(queries: list[Query]) -> list[int]:
    """Two path and two twig queries, skipping the heavy ROADMAP probes."""
    picks = []
    for twig in (False, True):
        light = [qi for qi, q in enumerate(queries)
                 if q.twig == twig and q.text not in corpora.FRAG_FIXED]
        picks += light[:2]
    return picks


def _run_ingest(seed, seconds, trace, sizes) -> Result:
    def setup_rep() -> list[bytes]:
        gc.collect()
        t0 = _now()
        docs = _ingest_docs(seed, sizes)
        reps.append(speed.scaled(_now() - t0))
        return docs

    speed = _Speed()
    reps: list[float] = []
    for _ in range(INGEST_SETUP_REPS):
        docs = None  # drop the previous set-up's documents first
        docs = setup_rep()
    queries = _ingest_pool(len(docs))
    by_doc = defaultdict(list)
    for qi, q in enumerate(queries):
        by_doc[q.doc].append(qi)
    loaded: dict[int, index_io.Index] = {}
    errors: list[str] = []

    def doc_op(ph: _Phase, d: int) -> int:
        try:
            wall, stages, built, blob, idx = _build(docs[d], speed)
        except Exception as exc:  # counted as a failed op, reported below
            errors.append(f"document {d}: {type(exc).__name__}: {exc}")
            ph.docs.append(DocOp(d, {}, 0, 0, False))
            return 0
        ok = index_io.to_bytes(idx) == blob and _same_guide(built, idx.guide)
        if not ok:
            errors.append(f"document {d}: save -> load -> save is not identical")
        ph.docs.append(DocOp(d, stages, idx.node_count, len(blob), ok))
        loaded[d] = idx
        return wall

    def one_pass(ph: _Phase, label: str, n: int) -> int:
        busy = 0
        for d in _pass_order(seed, label, n, list(range(len(docs)))):
            busy += doc_op(ph, d)
            if d in loaded:
                for qi in _pass_order(seed, f"{label}/{d}", n, by_doc[d]):
                    busy += ph.query(loaded[d].guide, qi)
        return busy

    new_phase = lambda tr: _Phase(queries, tr, errors, speed)  # noqa: E731
    one_pass(new_phase(None), "warmup", 0)
    gc.collect()
    main, traced, n_passes, rss = _timed_phases(seconds, trace, new_phase, one_pass)
    phases = [main] + ([traced] if traced else [])
    ref_ns, failed = _gate(phases, queries, lambda q: loaded[q.doc].guide, errors)
    failed += sum(not d.ok for ph in phases for d in ph.docs)
    # per document, the median of its ops per stage, summed over
    # documents (an op that raised has no stages)
    per_doc: dict[int, list[DocOp]] = defaultdict(list)
    for op in main.docs:
        if op.stages:
            per_doc[op.doc].append(op)
    elements = sum(ops[0].elements for ops in per_doc.values())
    stage_ns = {s: sum(statistics.median(op.stages[s] for op in ops) for ops in per_doc.values())
                for s in SETUP_STAGES}
    metrics = _query_metrics(main, rss)
    metrics.update(_build_metrics(elements, stage_ns, sum(ops[0].index_bytes for ops in per_doc.values())))
    metrics["setup_s"] = (statistics.median(reps) / 1e9, "s")
    guides = [len(loaded[d].guide.nodes) for d in sorted(loaded)]
    sizes_ = [loaded[d].node_count for d in sorted(loaded)]
    report = _provenance("ingest", seed, seconds, n_passes, {
        "documents": len(docs),
        "document_elements": sizes_,
        "guide_nodes": guides,
        "labels_per_extent": sum(sizes_) / sum(guides),
        "distinct_queries": len(queries),
        "setup_reps_s": [round(r / 1e9, 4) for r in reps],
        "machine_speed": round(CALIBRATION_NS / statistics.median(speed.samples), 3),
    })
    if trace:
        stage_ms = {s: stage_ns[s] / len(per_doc) / 1e6 for s in SETUP_STAGES}
        metrics = _layer_metrics(main, traced, stage_ms, ref_ns)
        _write_spans(traced, "ingest", seed)
    attempted = sum(len(ph.ops) + len(ph.docs) for ph in phases)
    return Result(metrics, attempted, failed, report, errors)


# ------------------------------------------------------------------ gate


def _gate(phases: list[_Phase], queries: list[Query], guide_of,
          errors: list[str]) -> tuple[dict[int, int], int]:
    """Reference answer per distinct query; returns (reference ns per
    query, failed op count)."""
    ref_ns: dict[int, int] = {}
    expected: dict[int, bytes] = {}
    for qi in sorted({op.query for ph in phases for op in ph.ops}):
        q = queries[qi]
        t0 = _now()
        lines = reference_lines(guide_of(q), q.text)
        ref_ns[qi] = _now() - t0
        expected[qi] = _digest(lines)
    failed = 0
    for ph in phases:
        for op in ph.ops:
            if op.digest != expected[op.query]:
                failed += 1
                if op.digest is not None:
                    errors.append(f"{queries[op.query].text}: answer differs from leaf_scan_match")
    return ref_ns, failed


# --------------------------------------------------------------- metrics


def _per_query(ph: _Phase, raw: bool = False) -> dict[int, float]:
    """Query -> median over its ops that did not raise, in ns at the
    reference speed (wall ns when `raw`); an op's latency in the metrics
    is its query's."""
    times: dict[int, list[float]] = defaultdict(list)
    for op in ph.ops:
        if op.digest is not None:
            times[op.query].append(op.ns if raw else op.scaled_ns)
    return {q: statistics.median(v) for q, v in times.items()}


def _build_metrics(elements: int, stage_ns: dict[str, int], index_bytes: int):
    return {
        "build_nodes_per_s": (elements / (sum(stage_ns[s] for s in SETUP_STAGES[:3]) / 1e9), "1/s"),
        "load_nodes_per_s": (elements / (stage_ns["index_io.decode"] / 1e9), "1/s"),
        "index_bytes_per_node": (index_bytes / elements, "B"),
    }


def _query_metrics(r: _Phase, rss: float) -> dict[str, tuple[float, str]]:
    lat = _per_query(r)
    ok = [op for op in r.ops if op.digest is not None]
    path = [lat[op.query] / 1e6 for op in ok if not r.queries[op.query].twig]
    twig = [lat[op.query] / 1e6 for op in ok if r.queries[op.query].twig]
    return {
        "peak_rss_mb": (rss, "MB"),
        "qps": (len(ok) / (sum(path + twig) / 1e3), "1/s"),
        "path_p50_ms": (_quantile(path, 50), "ms"),
        "path_p90_ms": (_quantile(path, 90), "ms"),
        "twig_p50_ms": (_quantile(twig, 50), "ms"),
        "twig_p90_ms": (_quantile(twig, 90), "ms"),
        "nodes_read_per_query": (statistics.fmean(op.nodes_read for op in ok), "count"),
        "bytes_scanned_per_query": (statistics.fmean(op.bytes_scanned for op in ok), "count"),
    }


def _layer_metrics(main: _Phase, traced: _Phase,
                   stage_ms: dict[str, float], ref_ns: dict[int, int]) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the traced phase, each a mean per query op
    (set-up stages: per set-up, or per document on `ingest`)."""
    tr = traced.tr
    ops = traced.ops
    n = len(ops)
    self_ns: dict[str, float] = defaultdict(float)
    for (op, name), ns in tr.self_times().items():
        if name == "matcher.evaluate":
            # evaluate's own time is the zero-join-point path; on twigs
            # it is glue around split/plan/match and lands in `other`
            if traced.queries[ops[op].query].twig:
                continue
            name = "matcher.zero_jp"
        self_ns[name] += ns
    match_incl = sum(ns for (_, name), ns in tr.inclusive_times().items()
                     if name == "matcher.match")
    counts: dict[str, float] = defaultdict(float)
    for (_, name), v in tr.counts.items():
        counts[name] += v
    total_ns = sum(op.ns for op in ops)

    def ms(ns: float) -> float:
        return ns / n / 1e6

    def per_op(v: float) -> float:
        return v / n

    lat_main, lat_traced = _per_query(main), _per_query(traced)
    wall_main = _per_query(main, raw=True)
    m = {f"{s}_ms": v for s, v in stage_ms.items()}
    m.update({
        "twig.parse_ms": ms(self_ns["twig.parse"]),
        "twig.split_ms": ms(self_ns["twig.split"]),
        "path_guide.branch_eval_ms": ms(self_ns["path_guide.branch_eval"]),
        "path_guide.extent_reads": per_op(counts["path_guide.extent_reads"]),
        "dt.plan_ms": ms(self_ns["dt.plan"]),
        "dt.records": per_op(counts["dt.records"]),
        "dt.tables": per_op(counts["dt.tables"]),
        "kernels.calls": per_op(counts["kernels.calls"]),
        "kernels.merge_ms": ms(self_ns["kernels.merge"]),
        "kernels.rows_in": per_op(counts["kernels.rows_in"]),
        "kernels.rows_out": per_op(counts["kernels.rows_out"]),
        "kernels.hit_frac": counts["kernels.hits"] / max(counts["kernels.calls"], 1),
        "matcher.match_ms": ms(match_incl),
        "matcher.fanout_ms": ms(self_ns["matcher.match"]),
        "matcher.zero_jp_ms": ms(self_ns["matcher.zero_jp"]),
        "matcher.matches": per_op(sum(op.matches for op in ops)),
        "matcher.nodes_read": per_op(sum(op.nodes_read for op in ops)),
        "matcher.bytes_scanned": per_op(sum(op.bytes_scanned for op in ops)),
        "matcher.prefix_comparisons": per_op(sum(op.prefix_comparisons for op in ops)),
        "matcher.jumps": per_op(sum(op.jumps for op in ops)),
        "output.lines_ms": ms(self_ns["output.lines"]),
        "oracle.leafscan_ms": statistics.fmean(ref_ns.values()) / 1e6,
        "oracle.dt_over_leafscan": sum(wall_main.values()) / sum(ref_ns[q] for q in wall_main),
        "other_ms": ms(total_ns - sum(self_ns.values())),
        "trace.overhead_frac": sum(lat_traced[op.query] for op in ops)
        / sum(lat_main[op.query] for op in ops) - 1,
    })
    return {k: (float(m[k]), unit) for k, unit in PER_LAYER.items()}


# ---------------------------------------------------------------- report


def _provenance(workload, seed, seconds, n_passes, corpus) -> list[str]:
    src = Path(twigjoin.__file__).resolve().parent
    try:
        numba = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba = "absent"
    return [
        f"workload {workload}: seed={seed} seconds={seconds} passes={n_passes}",
        "provenance: "
        f"backend={get_backend().name} (requested {default_backend_name()} via {ENV_VAR}) "
        f"python={platform.python_version()} numpy={np.__version__} numba={numba} "
        f"nproc={len(os.sched_getaffinity(0))} gc={'on' if gc.isenabled() else 'off'} "
        f"corpus_seed={FRAG_CORPUS_SEED if workload == 'frag' else seed} stream_seed={seed} "
        f"src_lines={sum(len(p.read_text().splitlines()) for p in src.rglob('*.py'))}",
        "corpus: " + " ".join(f"{k}={v}" for k, v in corpus.items()),
    ]


def _baseline_table(stage_ms, main: _Phase, traced: _Phase, ref_ns) -> list[str]:
    """The ROADMAP Baseline table: set-up stages, then the probes."""
    tr = traced.tr
    rows = [
        "| Stage or query | Wall time at reference speed | Notes |",
        "|---|---|---|",
    ]
    for s in SETUP_STAGES:
        rows.append(f"| {s} | {stage_ms[s]:.0f} ms | median of {SETUP_REPS} set-ups |")
    incl = tr.inclusive_times()
    for qi, q in enumerate(main.queries):
        if q.text not in corpora.FRAG_FIXED:
            continue
        wall = _per_query(main)[qi] / 1e6
        mine = [i for i, op in enumerate(traced.ops) if op.query == qi]
        k = len(mine)

        def avg(name: str, table) -> float:
            return sum(table.get((i, name), 0) for i in mine) / k

        rows.append(
            f"| `{q.text}` | {wall:.0f} ms | raw, traced: "
            f"plan {avg('dt.plan', incl) / 1e6:.0f} ms, "
            f"eval {avg('matcher.evaluate', incl) / 1e6:.0f} ms, "
            f"kernel {avg('kernels.merge', incl) / 1e6:.0f} ms, "
            f"{avg('dt.records', tr.counts):.0f} DataTable records, "
            f"{avg('kernels.calls', tr.counts):.0f} kernel calls, "
            f"{traced.ops[mine[0]].matches} matches; "
            f"leafscan {ref_ns[qi] / 1e6:.0f} ms |"
        )
    return rows


def _write_spans(traced: _Phase, workload: str, seed: int) -> None:
    out = Path(__file__).resolve().parent / "out" / f"trace-{workload}-seed{seed}.json"
    traced.tr.write(out, [traced.queries[op.query].text for op in traced.ops])


