"""Execution of the DTSchema: prefix merge joins over extent lists.

Tables run deepest-JP-first, each with one multiway merge whose segments
are the table's JP levels: at a level, a leaf slot contributes the union
of the extents its records at that level name, a nested slot the
witnesses of the child table whose JP guide node those records name.
This is exact: rows with equal level-prefixes share a data ancestor,
hence one JP guide node, so no tuple can mix the ends of two records.
A slot's rows, by level, are one list of the kernel, cut at the levels;
the kernel merges each segment as a call of its own would, so a table's
runs, reads and counters are those of one merge per level, in level
order.

Every label, witnesses included, is a row of the guide's store, so the
engine carries row ids, in document order (pos).  A row's key at level
L is the pos of its ancestor at L, which compares exactly as its
L-prefix does, raised past the keys of the table's shallower levels,
and the kernel merges one key column into runs of equal keys.  A
partial match is one row of an int64 entry matrix shared by the whole
query: per twig leaf a row id, per table its witness's row id, and -1
outside the subtree of the slot that made it.  Every input
row owns a block of entries (an extent row one, itself; a witness those
beneath it), and a slot's entries are numbered in the order of its rows.
A run fans out once, into the cross product of its slots' entries, in
leaf order: slot by slot (a JP's slots hold its leaves in twig order),
and within a slot in the order of its entries.  An entry's number is its
block row for an extent, and maps to its witness's block by a
searchsorted for a nested slot; slots fill disjoint columns.  A finished
table, sorted by witness, is the next table's nested input.

Deduplication is per witness, keyed by the leaf assignment.
Deduplicating across witnesses would be wrong: the same leaf assignment
under two different witnesses must stay visible to a parent record that
references only one of them.  The answer keeps each assignment once,
under its shallowest top witness.  The plan shows before any extent is
read where a dedup is needed (match_proc): only where the witnesses
that feed a table, or the answer, can nest, which the tables' levels
show.  Elsewhere the fan-out emits each level sorted and distinct.

The answer stays row ids too (late materialization): a ResultSet holds
the guide and the row ids of its leaves, witnesses and top witnesses,
and reads labels from the store only when it prints or builds
DeweyLabel/MatchTuple objects, once per distinct row.  Printing makes
no object but the lines: a slice of answers reads its components from
the store in place, writes each three-digit group with one lookup in a
small digit table, and is decoded and split once.
A query past ``max_results`` rows (None: DEFAULT_MAX_RESULTS) raises
ResultLimitError, counted from the runs before any tuple is built.

The one label-list API is `jump`: a galloping search over a NodeList,
a sorted list of labels (or an extent) as zero-padded rows.  The engine
does not call it; its merges skip inside the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .dewey import DeweyLabel
from .dt import DataTable, DTSchema, build_dt_schema
from .kernels import Backend, get_backend, jump_scan, lexsort, ranges, runs
from .metrics import Metrics
from .path_guide import ExtentList, PathGuide
from .twig import TwigPattern, parse, split

# max_results when None, read at call time: rows of a few int64 columns, hundreds of MB
DEFAULT_MAX_RESULTS = 5_000_000
_PRINT_SLICE = 2048  # answers lines() prints at once: bounds its byte matrices
_GROUP = 1000  # lines() writes a component as groups of three digits


def _digit_table(last: bool) -> np.ndarray:
    """Three-digit group v's 4 bytes as one uint32: at v without its
    leading zeros (no text for 0), at v + 1000 with them; "." ends a last
    group, a zero byte starts an upper one."""
    groups = [str(v).rjust(3, "\0") for v in range(1, _GROUP)]
    groups += [str(v).zfill(3) for v in range(_GROUP)]
    texts = ["\0" * 4] + [g + "." if last else "\0" + g for g in groups]
    return np.frombuffer("".join(texts).encode(), np.uint32)


_DIGITS = (_digit_table(last=False), _digit_table(last=True))  # 16 KB


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
    """Evaluation would hold more rows than max_results allows."""

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
        """One tab-separated line of dotted leaf labels per answer; the
        root's empty label prints as ε.

        A slice of answers is printed into one matrix, a slot per
        component of its labels read in place (PathGuide.label_rows); a
        slot is as many three-digit groups as the slice's widest component
        needs, each written with one lookup in _DIGITS.  A label's last "."
        becomes a tab, a line's last tab a newline; the nonzero bytes are
        the slice's text, decoded and split once.
        """
        out: list[str] = []
        for s in range(0, len(self), _PRINT_SLICE):
            leaves = self.leaves[s : s + _PRINT_SLICE]
            comps, depth = self.pg.label_rows(leaves.ravel())
            labels, d = comps.shape
            g = (len(str(comps.max(initial=0))) + 2) // 3  # groups per slot
            text = np.zeros((labels, max(d, 1), g), np.uint32)  # room for "ε\t"
            for j in range(g - 1, 0, -1):  # the lower groups, last first
                comps, low = np.divmod(comps, _GROUP)
                text[:, :d, j] = _DIGITS[j == g - 1][np.where(comps > 0, low + _GROUP, low)]
            text[:, :d, 0] = _DIGITS[g == 1][comps]
            raw = text.view(np.uint8).reshape(labels, -1)
            raw[depth == 0, :2] = tuple("ε".encode())
            tab = np.where(depth > 0, depth * 4 * g - 1, 2) + np.arange(0, raw.size, raw.shape[1])
            raw = raw.ravel()
            raw[tab] = ord("\t")
            raw[tab[leaves.shape[1] - 1 :: leaves.shape[1]]] = ord("\n")
            out += raw.tobytes().translate(None, b"\0")[:-1].decode().split("\n")
        return out

    def _labels(self, ids: np.ndarray) -> list[DeweyLabel]:
        """The label of each row id, one label object per distinct row."""
        block, depth, at = self.pg.label_block(ids)
        labels = [DeweyLabel(r[:d]) for r, d in zip(block.tolist(), depth.tolist())]
        return list(map(labels.__getitem__, at.tolist()))


@dataclass
class NodeList:
    """A sorted label list that jump can search.

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
        row = self.rows[i]
        return DeweyLabel(row[row > 0].tolist())


def as_node_list(src: ExtentList | Sequence[DeweyLabel]) -> NodeList:
    if isinstance(src, ExtentList):
        return NodeList(src.rows, src)
    labels = list(src)
    if not all(prev < cur for prev, cur in zip(labels, labels[1:])):
        raise ValueError("label list must be strictly sorted")
    rows = np.zeros((len(labels), max(map(len, labels), default=0)), np.int64)
    for row, lab in zip(rows, labels):
        row[: len(lab)] = lab
    return NodeList(rows)


@dataclass
class Cursor:
    list: NodeList
    position: int = 0


def jump(
    cursor: Cursor, level: int, bound: Sequence[int], metrics: Metrics | None = None
) -> Cursor:
    """First position at or past the cursor whose level-prefix orders after bound.

    Galloping plus binary search (kernels.jump_scan); counts one jump
    and every probed row as a read.
    """
    bound = tuple(bound)
    if len(bound) != level:
        raise ValueError(f"bound must have exactly {level} components")
    rows = cursor.list.rows
    if level > rows.shape[1]:
        raise ValueError("level exceeds the list's label level")
    if not 0 <= cursor.position <= len(rows):
        raise ValueError(f"cursor position {cursor.position} outside 0..{len(rows)}")
    pos, read = jump_scan(rows, cursor.position, len(rows), bound, level)
    if metrics is not None:
        metrics.jumps += 1
        metrics.nodes_read += len(read)
        ext = cursor.list.extent
        if ext is not None:
            metrics.credit(ext.first + read, ext.byte_lens[read])
    return Cursor(cursor.list, int(pos))


def _cross(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row r in order, every tuple of range(sizes[r, j]) over the
    columns j, last column fastest: its owner row and its digits."""
    per = sizes.prod(axis=1)
    owner = np.repeat(np.arange(len(sizes)), per)
    rest = ranges(0, per)
    digits = np.empty((len(owner), sizes.shape[1]), dtype=np.int64)
    for j in range(sizes.shape[1] - 1, 0, -1):
        radix = sizes[owner, j]
        digits[:, j] = rest % radix
        rest //= radix
    digits[:, 0] = rest  # below sizes[owner, 0] already
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


def _union(pg: PathGuide, exts: Sequence[ExtentList], segs: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The row ids of the extents' labels in document order, each with its
    guide node; no label sits in two extents.  Given each extent's
    segment, the rows go by segment first, each with its segment, and no
    label sits in two extents of one segment."""
    sizes = np.array([len(e) for e in exts], dtype=np.int64)
    firsts = np.array([e.first for e in exts], dtype=np.int64)
    ids = ranges(firsts, firsts + sizes)
    gids = np.repeat(np.array([e.gid for e in exts], dtype=np.int64), sizes)
    if segs is not None:
        segs = np.repeat(segs, sizes)
    if len(exts) > 1:  # each extent is in document order already
        key = pg.pos[ids] if segs is None else segs * len(pg.pos) + pg.pos[ids]
        order = np.argsort(key, kind="stable")
        ids, gids = ids[order], gids[order]
        segs = segs if segs is None else segs[order]
    return ids, gids, segs


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
    exceed max_results (None: DEFAULT_MAX_RESULTS), which bounds the answers.

    Which sorts are needed follows from the plan.  A table's levels are
    its records' depths, and its witnesses at a level are the data nodes
    at that depth: two of them are disjoint subtrees, and every leaf of
    an entry lies in its witness's subtree.
    - Every nested child of the table has one level, or it has no nested
      slot.  Then each level's block is sorted by (witness, leaves) and
      has no repeat within a witness: runs come out in witness order;
      in a run, extent rows are distinct and in document order, and a
      nested slot's child witnesses are disjoint and in document order,
      so its entries order by child witness first, then by the child's
      sorted, distinct leaves.  Witnesses of two levels differ in depth,
      so a table of one level needs no sort, and one of several levels
      only a stable sort of its blocks by witness.
    - Some nested child has several levels.  Its witnesses can nest, so
      one assignment can come from a witness and from its ancestor: the
      table sorts by (witness, leaves) and keeps the first of each.
    The answer needs the same dedup by leaves only when the top table
    has several levels; with one, its witnesses are disjoint and its
    block is already sorted by leaves and distinct.
    """
    be = get_backend(backend)
    limit = DEFAULT_MAX_RESULTS if max_results is None else max_results
    # an entry holds a row id per leaf, then per table its witness
    n_leaves = sum(g.child is None for t in schema.tables for g in t.jp.groups)
    n_tables = len(schema.tables)
    if schema.is_empty:
        return ResultSet(pg, np.zeros((0, n_leaves), np.int64),
                         np.zeros((0, n_tables), np.int64), np.zeros(0, np.int64), schema)

    # a table's levels are its records' depths; per level, one witness depth
    levels = [np.unique(pg.depths[t.records]).tolist() for t in schema.tables]

    def run_table(ti: int, table: DataTable) -> _Input:
        """Merge the table in one kernel call, a segment per level, each
        slot's rows one list cut at its levels; its entries, sorted by
        witness and leaves, each (witness, leaves) once."""
        wcol = n_leaves + ti
        lv = np.array(levels[ti])
        # a record's level is its JP's depth: an end's segment is its index
        at = np.searchsorted(lv, pg.depths[table.ends[:, 0]])
        inputs, segs = [], []
        for si, group in enumerate(table.jp.groups):
            mine = table.ends[:, 1] == si
            named, seg = table.ends[mine, 2], at[mine]  # distinct: an end fits one node per level
            if group.child is None:
                ids, gids, seg = _union(pg, [pg.read_extent(g) for g in named.tolist()], seg)
                inputs.append(_Input(ids, gids, ids[:, None], np.arange(len(ids)),
                                     np.ones(len(ids), np.int64), group.leaf_id, True))
            else:  # the child table's witnesses, at each level that names their JP guide node
                c = done[group.child]
                seg, rows = np.nonzero(np.isin(np.arange(len(lv))[:, None] * len(pg) + c.gids,
                                               seg * len(pg) + named))
                inputs.append(_Input(c.ids[rows], c.gids[rows], c.block, c.starts[rows],
                                     c.counts[rows]))
            segs.append(seg)
        # slot by slot, each slot's rows by level: the kernel's lists, cut at the levels
        starts = np.cumsum([0] + [len(inp.ids) for inp in inputs])
        offsets = np.append(np.concatenate([s + np.searchsorted(sg, np.arange(len(lv)))
                                            for s, sg in zip(starts, segs)]), starts[-1])
        seg = np.concatenate(segs)
        ids = np.concatenate([inp.ids for inp in inputs])
        # a row's key is the document position of its ancestor at its level
        anc = pg.ancestors(ids, np.concatenate([inp.gids for inp in inputs]), lv[seg])
        keys = (seg * len(pg.pos) + pg.pos[anc])[:, None]
        touched = np.zeros(max(len(keys), 1), np.uint8)
        reads = np.zeros(len(inputs), np.int64)
        out, count, comps, jumps = be.multiway_merge(keys, offsets, 1, use_jump, touched, reads)
        # per run of equal keys and per slot, its first and one-past-last row
        first, stop = np.hsplit(out[:count] - np.tile(starts[:-1], 2), 2)
        if metrics is not None:
            metrics.prefix_comparisons += int(comps)
            metrics.jumps += int(jumps)
            for j, inp in enumerate(inputs):
                if inp.metered:
                    metrics.nodes_read += int(reads[j])
                    read = inp.ids[touched[starts[j] : starts[j + 1]] > 0]
                    metrics.credit(read, pg.byte_lens[read])
        # a run owns, per slot, the entries of its rows: the ordinals
        # owned[j][first] up to owned[j][stop]; it yields their product
        # across slots, counted before any is built
        owned = [np.concatenate(([0], np.cumsum(inp.counts))) for inp in inputs]
        sizes = np.stack([o[stop[:, j]] - o[first[:, j]] for j, o in enumerate(owned)], axis=1)
        entries = np.cumsum(sizes.prod(axis=1))  # runs come level by level
        over = np.searchsorted(entries, limit, "right")
        if over < len(entries):  # named through the level of the first run past it
            level = segs[0][first[:, 0]]
            last = np.searchsorted(level, level[over], "right") - 1
            raise ResultLimitError(int(entries[last]), limit)
        # runs fan out into entries in leaf order; slots fill disjoint
        # columns, -1 elsewhere
        run, digits = _cross(sizes)
        block = np.full((len(run), n_leaves + n_tables), -1, dtype=np.int64)
        for j, inp in enumerate(inputs):
            e = owned[j][first[run, j]] + digits[:, j]  # for an extent, its block row
            if not inp.metered:  # a witness's entry: find its row, then its block row
                r = np.searchsorted(owned[j], e, "right") - 1
                e += inp.starts[r] - owned[j][r]
            part = inp.block[e]
            cols = block[:, inp.col : inp.col + part.shape[1]]
            np.maximum(cols, part, out=cols)
        block[:, wcol] = anc[first[run, 0]]
        if any(len(levels[g.child]) > 1 for g in table.jp.groups if g.child is not None):
            # a child's witnesses can nest, so its entries can repeat
            block = block[_first_of_runs(pg.pos, block[:, [wcol, *range(n_leaves)]])]
        elif len(lv) > 1:  # each level's entries are sorted and distinct already
            block = block[np.argsort(pg.pos[block[:, wcol]], kind="stable")]
        first, counts = runs(block[:, wcol : wcol + 1])
        wids = block[first, wcol]  # a witness's guide node is the extent it lies in
        return _Input(wids, np.searchsorted(pg.start, wids, "right") - 1, block, first, counts)

    done: list[_Input] = []
    for ti, table in enumerate(schema.tables):
        done.append(run_table(ti, table))
    top = done.pop()
    del done  # release the inner tables' entry matrices
    final = top.block
    if len(levels[-1]) > 1:  # top witnesses can nest; sorted by witness, each assignment keeps its shallowest
        final = final[_first_of_runs(pg.pos, final[:, :n_leaves])]
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
    touched.  A query whose answers or partial matches would exceed
    max_results rows (None: DEFAULT_MAX_RESULTS) raises ResultLimitError
    before they are allocated.
    """
    if metrics is None:
        metrics = Metrics()
    twig = parse(query) if isinstance(query, str) else query
    d = split(twig)
    with metrics.timed():
        if not d.jps:
            exts = [pg.read_extent(g) for g in pg.eval_single_branch(d.branches[0])]
            n = sum(len(ext) for ext in exts)
            limit = DEFAULT_MAX_RESULTS if max_results is None else max_results
            if n > limit:
                raise ResultLimitError(n, limit)
            ids, _, _ = _union(pg, exts)
            metrics.nodes_read += n
            metrics.credit(ids, pg.byte_lens[ids])
            no_tables = np.zeros((n, 0), np.int64)
            return ResultSet(pg, ids[:, None], no_tables, np.zeros(0, np.int64)), metrics
        rs = match_proc(build_dt_schema(pg, d), pg, metrics=metrics, use_jump=use_jump,
                        backend=backend, max_results=max_results)
        return rs, metrics
