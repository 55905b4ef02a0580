"""Spans around the engine's layers, recorded from outside the engine.

A traced run installs wrappers on the module attributes the engine's
own code calls through (``twigjoin.matcher.split``, ``build_dt_schema``
and ``match_proc``, and two ``PathGuide`` methods) and passes a timing
``Backend`` through the public ``backend=`` argument.  Spans (name,
start, end, parent, op id) stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

import twigjoin.matcher as matcher
from twigjoin.kernels import Backend
from twigjoin.path_guide import PathGuide

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx] = (name, t0, _now(), parent, self.op)
                self._stack.pop()

        return traced

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.op, name)] += n

    def self_times(self) -> dict[tuple[int, str], int]:
        """(op, span name) -> nanoseconds not covered by child spans."""
        child = [0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[tuple[int, str], int] = defaultdict(int)
        for i, (name, t0, t1, _, op) in enumerate(self.spans):
            out[(op, name)] += t1 - t0 - child[i]
        return out

    def inclusive_times(self) -> dict[tuple[int, str], int]:
        out: dict[tuple[int, str], int] = defaultdict(int)
        for name, t0, t1, _, op in self.spans:
            out[(op, name)] += t1 - t0
        return out

    def write(self, path: Path, ops: list[str]) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": names,
            "ops": ops,
            "spans": [[ids[n], t0, t1, p, op] for n, t0, t1, p, op in self.spans],
        }))


def timing_backend(base: Backend, tr: Tracer) -> Backend:
    """`base` with a span and work counts around every kernel call."""

    def multiway_merge(stacked, offsets, plen, use_jump, touched, reads):
        out = base.multiway_merge(stacked, offsets, plen, use_jump, touched, reads)
        emitted = int(out[1])
        tr.count("kernels.calls")
        tr.count("kernels.rows_in", int(offsets[-1]))
        tr.count("kernels.rows_out", emitted)
        tr.count("kernels.hits", emitted > 0)
        return out

    def jump_scan(*args):
        tr.count("kernels.calls")
        return base.jump_scan(*args)

    return Backend(
        base.name,
        tr.wrap("kernels.merge", jump_scan),
        tr.wrap("kernels.merge", multiway_merge),
    )


@contextlib.contextmanager
def instrumented(tr: Tracer):
    """Wrap the engine's internal layer calls for the duration."""

    def plan(*args, **kwargs):
        schema = build_dt_schema(*args, **kwargs)
        tr.count("dt.tables", len(schema.tables))
        tr.count("dt.records", sum(len(t.records) for t in schema.tables))
        return schema

    def read_extent(self, gid):
        tr.count("path_guide.extent_reads")
        return orig_read_extent(self, gid)

    build_dt_schema = matcher.build_dt_schema
    orig_read_extent = PathGuide.read_extent
    patches = [
        (matcher, "split", tr.wrap("twig.split", matcher.split)),
        (matcher, "build_dt_schema", tr.wrap("dt.plan", plan)),
        (matcher, "match_proc", tr.wrap("matcher.match", matcher.match_proc)),
        (PathGuide, "eval_single_branch",
         tr.wrap("path_guide.branch_eval", PathGuide.eval_single_branch)),
        (PathGuide, "read_extent", read_extent),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, fn in patches:
            setattr(obj, attr, fn)
        yield
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)
