"""Execution of the DTSchema: prefix merge joins over extent lists.

Tables run deepest-JP-first, with one multiway merge per JP level of a
table: a leaf slot contributes the union of the extents its records at
that level name, a nested slot the witnesses of the child table whose
JP guide node those records name.  This is exact: rows with equal
level-prefixes share a data ancestor, hence one JP guide node, so no
tuple can mix the ends of two records.

Every label, witnesses included, is a row of the guide's store, so the
engine carries row ids, in document order (pos).  A row's key at level
L is the pos of its ancestor at L, which compares exactly as its
L-prefix does, and the kernel merges one key column into runs of equal
keys.  A partial match is one row of an int64 entry matrix shared by
the whole query: per twig leaf a row id, per table its witness's row
id, and -1 outside the subtree of the slot that made it.  Every input
row owns a block of entries (an extent row one, itself; a witness those
beneath it): a run fans out into row tuples, a row tuple into the cross
product of its rows' blocks, by index arithmetic; slots fill disjoint
columns.  A finished table, sorted by witness, is the next table's
nested input.

Deduplication is per witness, keyed by the leaf assignment.
Deduplicating across witnesses would be wrong: the same leaf assignment
under two different witnesses must stay visible to a parent record that
references only one of them.  The answer keeps each assignment once,
under its shallowest top witness.

The answer stays row ids too (late materialization): a ResultSet holds
the guide and the row ids of its leaves, witnesses and top witnesses,
and reads labels from the store only when it prints or builds
DeweyLabel/MatchTuple objects, once per distinct row of an id column.
A fan-out that would exceed ``max_results`` rows raises
ResultLimitError, counted from the runs before any tuple is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .dewey import DeweyLabel
from .dt import DataTable, DTSchema, build_dt_schema
from .kernels import Backend, get_backend, lexsort, runs
from .metrics import Metrics
from .path_guide import ExtentList, PathGuide
from .twig import TwigPattern, parse, split


@dataclass(frozen=True)
class MatchTuple:
    """One query answer: a data label per twig leaf, in leaf_id order.

    jp_labels carries one witness label per schema table (deepest JP
    first) for the embedding that produced the tuple; empty for
    zero-JP queries.
    """

    leaf_labels: tuple[DeweyLabel, ...]
    jp_labels: tuple[DeweyLabel, ...] = ()


class ResultLimitError(Exception):
    """Evaluation would hold more rows than the caller's max_results."""

    def __init__(self, rows: int, limit: int):
        super().__init__(f"query needs {rows} result rows, over the limit of {limit}")
        self.rows = rows
        self.limit = limit


@dataclass(eq=False)
class ResultSet:
    """Query answers as int64 row ids of pg's store; labels only on demand.

    leaves[i, j] is the row of answer i's label for twig leaf j and
    jps[i, t] the row of its witness for schema table t (deepest JP
    first).  Answers are sorted by leaf labels and distinct; tops holds
    the rows of the distinct top-JP witnesses, sorted.  Zero-JP queries
    have no tables.
    """

    pg: PathGuide
    leaves: np.ndarray  # (answers, leaves)
    jps: np.ndarray  # (answers, tables)
    tops: np.ndarray  # (witnesses,)
    plan: DTSchema | None = None  # the plan evaluated; None for zero-JP queries

    def __len__(self) -> int:
        return len(self.leaves)

    @cached_property
    def matches(self) -> list[MatchTuple]:
        leaves = [self._labels(col) for col in self.leaves.T]
        jps = [self._labels(col) for col in self.jps.T]
        return list(map(MatchTuple, zip(*leaves), zip(*jps) if jps else repeat(())))

    @cached_property
    def top_jp_labels(self) -> list[DeweyLabel]:
        return self._labels(self.tops)

    def lines(self) -> list[str]:
        """One tab-separated line of dotted leaf labels per answer."""
        line = self._dotted(self.leaves[:, 0])
        for j in range(1, self.leaves.shape[1]):
            line = line + "\t" + self._dotted(self.leaves[:, j])
        return line.tolist()

    def _labels(self, ids: np.ndarray) -> list[DeweyLabel]:
        """The label of each row id, one label object per distinct row."""
        block, _, at = self.pg.label_block(ids)
        return list(map(_row_labels(block).__getitem__, at.tolist()))

    def _dotted(self, ids: np.ndarray) -> np.ndarray:
        """The label of each row id as text, ε for the root's empty label,
        in an object array; each distinct row and component value is
        formatted once."""
        block, depth, at = self.pg.label_block(ids)
        values, word = np.unique(block, return_inverse=True)
        words = np.array(list(map(str, values.tolist())), dtype=object)[word.reshape(block.shape)]
        text = np.full(len(block), "ε", dtype=object)
        for c in range(block.shape[1]):
            text = np.where(depth > c, text + "." + words[:, c] if c else words[:, c], text)
        return text[at]


@dataclass
class NodeList:
    """A sorted label list the merge kernels can read.

    Extent-backed lists are metered (bytes and reads attributed to
    their guide node); plain label lists count reads only.  Rows are
    zero-padded to a common width, which preserves label order because
    real components are >= 1.
    """

    rows: np.ndarray
    extent: ExtentList | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def label_at(self, i: int) -> DeweyLabel:
        return _row_labels(self.rows[i : i + 1])[0]


def as_node_list(src: ExtentList | NodeList | Sequence[DeweyLabel]) -> NodeList:
    if isinstance(src, NodeList):
        return src
    if isinstance(src, ExtentList):
        return NodeList(src.rows, src)
    labels = list(src)
    if not all(prev < cur for prev, cur in zip(labels, labels[1:])):
        raise ValueError("label list must be strictly sorted")
    return NodeList(_stack([np.array([lab.components], np.int64) for lab in labels])[0])


@dataclass
class Cursor:
    list: NodeList
    position: int = 0


def jump(
    cursor: Cursor,
    level: int,
    bound: DeweyLabel | Sequence[int],
    metrics: Metrics | None = None,
    backend: Backend | str | None = None,
) -> Cursor:
    """Smallest position past cursor whose level-prefix exceeds bound.

    Galloping plus binary search; counts one jump and every probed row
    as a read.
    """
    comps = bound.components if isinstance(bound, DeweyLabel) else tuple(bound)
    if len(comps) != level:
        raise ValueError(f"bound must have exactly {level} components")
    rows = cursor.list.rows
    if level > rows.shape[1]:
        raise ValueError("level exceeds the list's label level")
    be = get_backend(backend)
    touched = np.zeros(len(rows), dtype=np.uint8)
    bound_arr = np.asarray(comps, dtype=np.int64)
    pos, reads = be.jump_scan(rows, cursor.position, len(rows), bound_arr, level, touched)
    if metrics is not None:
        metrics.jumps += 1
        metrics.nodes_read += int(reads)
        ext = cursor.list.extent
        if ext is not None:
            local = np.flatnonzero(touched)
            metrics.credit(ext.first + local, ext.byte_lens[local])
    return Cursor(cursor.list, int(pos))


def _stack(arrays: list[np.ndarray], width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The arrays back to back, zero-padded to a common width, and their offsets."""
    offsets = np.cumsum([0] + [len(a) for a in arrays], dtype=np.int64)
    stacked = np.zeros((offsets[-1], max([width] + [a.shape[1] for a in arrays])), dtype=np.int64)
    for a, start in zip(arrays, offsets):
        stacked[start : start + len(a), : a.shape[1]] = a
    return stacked, offsets


def _run_merge(
    stacked: np.ndarray,
    offsets: np.ndarray,
    plen: int,
    use_jump: bool,
    backend: Backend,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Run the merge kernel on the lists stacked[offsets[j] : offsets[j + 1]].

    Returns (first, stop, touched, reads, comps, jumps): per run of
    equal plen-prefixes and per list, the run's first and one-past-last
    position local to that list.
    """
    touched = np.zeros(max(len(stacked), 1), dtype=np.uint8)
    reads = np.zeros(len(offsets) - 1, dtype=np.int64)
    out, count, comps, jumps = backend.multiway_merge(
        stacked, offsets, plen, use_jump, touched, reads
    )
    first, stop = np.hsplit(out[:count] - np.tile(offsets[:-1], 2), 2)
    return first, stop, touched, reads, int(comps), int(jumps)


def _cross(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row r in order, every tuple of range(sizes[r, j]) over the
    columns j, last column fastest: its owner row and its digits."""
    per = sizes.prod(axis=1)
    owner = np.repeat(np.arange(len(sizes)), per)
    rest = np.arange(len(owner)) - np.repeat(np.cumsum(per) - per, per)
    digits = np.empty((len(owner), sizes.shape[1]), dtype=np.int64)
    for j in reversed(range(sizes.shape[1])):
        radix = sizes[owner, j]
        digits[:, j] = rest % radix
        rest //= radix
    return owner, digits


def _eligible(rows: np.ndarray, level: int) -> np.ndarray:
    """Positions whose label is at least `level` deep.

    A shorter label has no prefix at that level, and its zero padding
    must not be allowed to pose as one.
    """
    if rows.shape[1] < level:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero((rows[:, :level] > 0).all(axis=1))


def match_multiway(
    lists: Sequence[ExtentList | NodeList | Sequence[DeweyLabel]],
    level: int,
    metrics: Metrics | None = None,
    use_jump: bool = True,
    backend: Backend | str | None = None,
) -> list[tuple[DeweyLabel, ...]]:
    """All tuples (one label per list) with pairwise-equal level-prefixes.

    Sorted by first component (in fact lexicographically), no
    duplicates.
    """
    if not lists:
        raise ValueError("match_multiway needs at least one list")
    be = get_backend(backend)
    nls = [as_node_list(src) for src in lists]
    keeps = [_eligible(nl.rows, level) for nl in nls]
    stacked, offsets = _stack([nl.rows[keep, :level] for nl, keep in zip(nls, keeps)], level)
    first, stop, touched, reads, comps, jumps = _run_merge(stacked, offsets, level, use_jump, be)
    if metrics is not None:
        metrics.prefix_comparisons += comps
        metrics.jumps += jumps
        for j, nl in enumerate(nls):
            metrics.nodes_read += int(reads[j])
            if nl.extent is not None:
                local = keeps[j][touched[offsets[j] : offsets[j + 1]] > 0]
                metrics.credit(nl.extent.first + local, nl.extent.byte_lens[local])
    run, digits = _cross(stop - first)
    local = first[run] + digits
    cols = [_row_labels(nl.rows[keep[local[:, j]]]) for j, (nl, keep) in enumerate(zip(nls, keeps))]
    return list(zip(*cols))


@dataclass
class _Input:
    """A merge input: row ids in document order, row i owning the entries
    block[starts[i] : starts[i] + counts[i]], which land at column col.

    gids holds each row's guide node.  An extent union is its own block
    and is metered; a finished table's rows are its witnesses.
    """

    ids: np.ndarray
    gids: np.ndarray
    block: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    col: int = 0
    metered: bool = False


def _union(pg: PathGuide, exts: Sequence[ExtentList]) -> tuple[np.ndarray, np.ndarray]:
    """The row ids of the extents' labels in document order, each with its
    guide node; no label sits in two extents."""
    sizes = np.array([len(e) for e in exts], dtype=np.int64)
    firsts = np.array([e.first for e in exts], dtype=np.int64)
    ids = np.arange(sizes.sum()) + np.repeat(firsts - np.cumsum(sizes) + sizes, sizes)
    gids = np.repeat(np.array([e.gid for e in exts], dtype=np.int64), sizes)
    if len(exts) > 1:  # each extent is in document order already
        order = np.argsort(pg.pos[ids], kind="stable")
        ids, gids = ids[order], gids[order]
    return ids, gids


def _first_of_runs(pos: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The first of every set of equal rows of row ids, the rows sorted by
    their columns' document positions."""
    keys = pos[ids[:, (ids != ids[:1]).any(axis=0)]]  # constant columns order nothing
    order = lexsort(keys)
    return order[runs(keys[order])[0]]


def _row_labels(rows: np.ndarray) -> list[DeweyLabel]:
    """One label per zero-padded row."""
    return [DeweyLabel(r[:d]) for r, d in zip(rows.tolist(), (rows > 0).sum(axis=1).tolist())]


def match_proc(
    schema: DTSchema,
    pg: PathGuide,
    metrics: Metrics | None = None,
    use_jump: bool = True,
    backend: Backend | str | None = None,
    max_results: int | None = None,
) -> ResultSet:
    """Evaluate the schema into a ResultSet planned by it.

    Answers are deduplicated by leaf assignment and sorted; witnesses
    are the distinct JP prefixes of the top table that joined at least
    one answer.  Raises ResultLimitError before a table's entries would
    exceed max_results rows; the answers are at most the top table's.
    """
    be = get_backend(backend)
    # an entry holds a row id per leaf, then per table its witness
    n_leaves = sum(s.kind == "leaf" for t in schema.tables for s in t.slots)
    n_tables = len(schema.tables)
    if schema.is_empty:
        return ResultSet(pg, np.zeros((0, n_leaves), np.int64),
                         np.zeros((0, n_tables), np.int64), np.zeros(0, np.int64), schema)

    def run_table(ti: int, table: DataTable) -> _Input:
        """Merge the table level by level; its entries, grouped by witness."""
        wcol = n_leaves + ti
        ends_level = pg.depths[table.ends[:, 0]]  # a record's level is its JP's depth
        blocks = []
        entries = 0
        for level in np.unique(pg.depths[table.records]).tolist():
            here = table.ends[ends_level == level]
            inputs = []
            for si, slot in enumerate(table.slots):
                named = here[here[:, 1] == si, 2]  # distinct: an end fits one node per level
                if slot.kind == "leaf":
                    ids, gids = _union(pg, [pg.read_extent(g) for g in named.tolist()])
                    inputs.append(_Input(ids, gids, ids[:, None], np.arange(len(ids)),
                                         np.ones(len(ids), np.int64), slot.leaf_id, True))
                else:  # the child table's witnesses under the named JP guide nodes
                    c = done[slot.child_table]
                    k = np.isin(c.gids, named)
                    inputs.append(_Input(c.ids[k], c.gids[k], c.block, c.starts[k], c.counts[k]))
            # a row's key is the document position of its ancestor at level
            ancs = [pg.ancestors(inp.ids, inp.gids, level) for inp in inputs]
            offsets = np.cumsum([0] + [len(a) for a in ancs])
            first, stop, touched, reads, comps, jumps = _run_merge(
                pg.pos[np.concatenate(ancs)][:, None], offsets, 1, use_jump, be
            )
            if metrics is not None:
                metrics.prefix_comparisons += comps
                metrics.jumps += jumps
                for j, inp in enumerate(inputs):
                    if inp.metered:
                        metrics.nodes_read += int(reads[j])
                        ids = inp.ids[touched[offsets[j] : offsets[j + 1]] > 0]
                        metrics.credit(ids, pg.byte_lens[ids])
            # a run owns, per slot, the entries of its rows; it yields
            # their product across slots, counted before any is built
            owned = [np.concatenate(([0], np.cumsum(inp.counts))) for inp in inputs]
            entries += int(np.prod([o[stop[:, j]] - o[first[:, j]]
                                    for j, o in enumerate(owned)], axis=0).sum())
            if max_results is not None and entries > max_results:
                raise ResultLimitError(entries, max_results)
            # runs fan out into row tuples, row tuples into entries; slots
            # fill disjoint columns, -1 elsewhere
            run, digits = _cross(stop - first)
            rows = first[run] + digits
            tup, digits = _cross(np.stack([inp.counts[rows[:, j]]
                                           for j, inp in enumerate(inputs)], axis=1))
            out = np.full((len(tup), n_leaves + n_tables), -1, dtype=np.int64)
            for j, inp in enumerate(inputs):
                part = inp.block[inp.starts[rows[tup, j]] + digits[:, j]]
                cols = out[:, inp.col : inp.col + part.shape[1]]
                np.maximum(cols, part, out=cols)
            run = run[tup]
            out[:, wcol] = ancs[0][first[run, 0]]
            blocks.append(out)
        block = np.concatenate(blocks)
        block = block[_first_of_runs(pg.pos, block[:, [wcol, *range(n_leaves)]])]
        first, counts = runs(block[:, wcol : wcol + 1])
        wids = block[first, wcol]  # a witness's guide node is the extent it lies in
        return _Input(wids, np.searchsorted(pg.start, wids, "right") - 1, block, first, counts)

    done: list[_Input] = []
    for ti, table in enumerate(schema.tables):
        done.append(run_table(ti, table))
    top = done.pop()
    del done  # release the inner tables' entry matrices
    # top is sorted by witness, so each assignment keeps its shallowest
    final = top.block[_first_of_runs(pg.pos, top.block[:, :n_leaves])]
    return ResultSet(pg, final[:, :n_leaves], final[:, n_leaves:], top.ids, schema)


def evaluate(
    pg: PathGuide,
    query: str | TwigPattern,
    *,
    use_jump: bool = True,
    backend: Backend | str | None = None,
    metrics: Metrics | None = None,
    max_results: int | None = None,
) -> tuple[ResultSet, Metrics]:
    """Full pipeline: parse, split, plan on the guide, merge extents.

    Zero-JP queries skip planning entirely and sort the union of the
    matched extents; an empty plan short-circuits before any extent is
    touched.  With max_results set, a query whose answers or partial
    matches would exceed that many rows raises ResultLimitError before
    they are allocated.
    """
    if metrics is None:
        metrics = Metrics()
    twig = parse(query) if isinstance(query, str) else query
    d = split(twig)
    with metrics.timed():
        if not d.jps:
            exts = [pg.read_extent(g) for g in pg.eval_single_branch(d.branches[0])]
            n = sum(len(ext) for ext in exts)
            if max_results is not None and n > max_results:
                raise ResultLimitError(n, max_results)
            ids, _ = _union(pg, exts)
            metrics.nodes_read += n
            metrics.credit(ids, pg.byte_lens[ids])
            no_tables = np.zeros((n, 0), np.int64)
            return ResultSet(pg, ids[:, None], no_tables, np.zeros(0, np.int64)), metrics
        rs = match_proc(build_dt_schema(pg, d), pg, metrics=metrics, use_jump=use_jump,
                        backend=backend, max_results=max_results)
        return rs, metrics
