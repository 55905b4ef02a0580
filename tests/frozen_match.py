"""`matcher.match_proc` as it fanned each run out twice (runs into row
tuples, row tuples into entries) and sorted every table and the answer
with a dedup lexsort.  Kept verbatim, with the helpers it called, as
the oracle for the fan-out: both must give the same answers, witness
rows, top witnesses and counters for every plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from twigjoin.dt import DataTable, DTSchema
from twigjoin.kernels import Backend, get_backend, lexsort, runs
from twigjoin.matcher import ResultLimitError, ResultSet
from twigjoin.metrics import Metrics
from twigjoin.path_guide import ExtentList, PathGuide


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
    n_leaves = sum(g.child is None for t in schema.tables for g in t.jp.groups)
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
            for si, (group, child) in enumerate(zip(table.jp.groups, (g.child for g in table.jp.groups))):
                named = here[here[:, 1] == si, 2]  # distinct: an end fits one node per level
                if child is None:
                    ids, gids = _union(pg, [pg.read_extent(g) for g in named.tolist()])
                    inputs.append(_Input(ids, gids, ids[:, None], np.arange(len(ids)),
                                         np.ones(len(ids), np.int64), group.leaf_id, True))
                else:  # the child table's witnesses under the named JP guide nodes
                    c = done[child]
                    k = np.isin(c.gids, named)
                    inputs.append(_Input(c.ids[k], c.gids[k], c.block, c.starts[k], c.counts[k]))
            # a row's key is the document position of its ancestor at level
            ancs = [pg.ancestors(inp.ids, inp.gids, level) for inp in inputs]
            offsets = np.cumsum([0] + [len(a) for a in ancs])
            keys = pg.pos[np.concatenate(ancs)][:, None]
            touched = np.zeros(max(len(keys), 1), np.uint8)
            reads = np.zeros(len(inputs), np.int64)
            out, count, comps, jumps = be.multiway_merge(keys, offsets, 1, use_jump, touched, reads)
            # per run of equal keys and per slot, its first and one-past-last row
            first, stop = np.hsplit(out[:count] - np.tile(offsets[:-1], 2), 2)
            if metrics is not None:
                metrics.prefix_comparisons += int(comps)
                metrics.jumps += int(jumps)
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
