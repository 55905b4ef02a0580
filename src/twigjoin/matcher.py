"""Execution of the DTSchema: prefix merge joins over extent lists.

Tables run deepest-JP-first, with one multiway merge per JP level of a
table: a leaf slot contributes the sorted union of the extents its
records at that level name, a nested slot the witnesses of the child
table whose JP guide node those records name.  This is exact: rows
with equal level-prefixes share a data ancestor, hence one JP guide
node, so no tuple can mix the ends of two records.

A partial match is one row of an int64 entry matrix shared by the whole
query: per twig leaf its zero-padded label, per table its witness, and
zeros outside the subtree of the slot that made it.  Every merge input
row owns a run of entries (an extent row one, itself; a witness those
beneath it), so a merged tuple fans out into the cross product of its
runs by index arithmetic; slots fill disjoint columns, so an output
entry is the sum of one entry per slot plus the witness.  A finished
table, sorted by witness, is the next table's nested input.

Deduplication is per witness, keyed by the leaf-label assignment.
Deduplicating across witnesses would be wrong: the same leaf assignment
under two different witnesses must stay visible to a parent record that
references only one of them.  The answer keeps each assignment once,
under its shallowest top witness; only then are labels built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dewey import DeweyLabel
from .dt import DataTable, DTSchema, build_dt_schema
from .kernels import Backend, get_backend
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


@dataclass
class ResultSet:
    matches: list[MatchTuple]  # sorted by leaf_labels, duplicate-free
    top_jp_labels: list[DeweyLabel]  # distinct top-JP witnesses, sorted
    plan: DTSchema | None = None  # the plan evaluated; None for zero-JP queries

    def __len__(self) -> int:
        return len(self.matches)

    def lines(self) -> list[str]:
        return [
            "\t".join(str(lab) for lab in mt.leaf_labels) for mt in self.matches
        ]


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
        return _labels(self.rows[i : i + 1])[0]


def as_node_list(src: ExtentList | NodeList | Sequence[DeweyLabel]) -> NodeList:
    if isinstance(src, NodeList):
        return src
    if isinstance(src, ExtentList):
        return NodeList(src.rows, src)
    labels = list(src)
    for prev, cur in zip(labels, labels[1:]):
        if not prev < cur:
            raise ValueError("label list must be strictly sorted")
    width = max((lab.level for lab in labels), default=0)
    rows = np.zeros((len(labels), width), dtype=np.int64)
    for i, lab in enumerate(labels):
        rows[i, : lab.level] = lab.components
    return NodeList(rows)


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
        metrics.count_reads(int(reads))
        ext = cursor.list.extent
        if ext is not None:
            metrics.touch_mask(ext.gid, touched.astype(bool), ext.byte_lens)
    return Cursor(cursor.list, int(pos))


def _stack(arrays: list[np.ndarray], width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The arrays back to back, zero-padded to a common width, and their offsets."""
    offsets = np.cumsum([0] + [len(a) for a in arrays], dtype=np.int64)
    stacked = np.zeros((offsets[-1], max([width] + [a.shape[1] for a in arrays])), dtype=np.int64)
    for a, start in zip(arrays, offsets):
        stacked[start : start + len(a), : a.shape[1]] = a
    return stacked, offsets


def _run_merge(
    arrays: list[np.ndarray],
    plen: int,
    use_jump: bool,
    backend: Backend,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Stack the input lists and run the merge kernel.

    Returns (local_indices, touched, reads, offsets, comps, jumps);
    local_indices has one row per output tuple, one column per list,
    holding positions local to that list.
    """
    stacked, offsets = _stack(arrays, plen)
    touched = np.zeros(max(len(stacked), 1), dtype=np.uint8)
    reads = np.zeros(len(arrays), dtype=np.int64)
    out, count, comps, jumps = backend.multiway_merge(
        stacked, offsets, plen, use_jump, touched, reads
    )
    local = out[:count] - offsets[:-1][None, :]
    return local, touched, reads, offsets, int(comps), int(jumps)


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
    be = get_backend(backend)
    nls = [as_node_list(src) for src in lists]
    keeps = [_eligible(nl.rows, level) for nl in nls]
    arrays = [nl.rows[keep] for nl, keep in zip(nls, keeps)]
    local, touched, reads, offsets, comps, jumps = _run_merge(arrays, level, use_jump, be)
    if metrics is not None:
        metrics.prefix_comparisons += comps
        metrics.jumps += jumps
        for j, nl in enumerate(nls):
            metrics.count_reads(int(reads[j]))
            if nl.extent is not None:
                mask = np.zeros(len(nl.rows), dtype=bool)
                kept_touched = touched[offsets[j] : offsets[j + 1]].astype(bool)
                mask[keeps[j][kept_touched]] = True
                metrics.touch_mask(nl.extent.gid, mask, nl.extent.byte_lens)
    cols = [_labels(nl.rows[keep[local[:, j]]]) for j, (nl, keep) in enumerate(zip(nls, keeps))]
    return list(zip(*cols))


@dataclass
class _Input:
    """A merge input: sorted, zero-padded rows, row i owning the entries
    block[starts[i] : starts[i] + counts[i]], which land at column col.

    gids holds each row's extent (an extent union, which is its own
    block and keeps its extents and sort order for metering) or its
    witness's JP guide node (a finished table).
    """

    rows: np.ndarray
    gids: np.ndarray
    block: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    col: int = 0
    exts: list[ExtentList] | None = None
    order: np.ndarray | None = None


def _union(pg: PathGuide, gids: Sequence[int], col: int = 0) -> _Input:
    """The sorted union of the extents of gids; no label sits in two extents."""
    exts = [pg.read_extent(g) for g in gids]
    rows, _ = _stack([e.rows for e in exts])
    order = _lexsort(rows)
    owner = np.repeat(np.asarray(gids, dtype=np.int64), [len(e) for e in exts])[order]
    rows, ones = rows[order], np.ones(len(rows), dtype=np.int64)
    return _Input(rows, owner, rows, np.arange(len(rows)), ones, col, exts, order)


def _lexsort(keys: np.ndarray) -> np.ndarray:
    """Stable lexicographic order of the rows."""
    return np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal rows."""
    edges = np.ones(len(keys) + 1, dtype=bool)
    edges[1:-1] = (keys[1:] != keys[:-1]).any(axis=1)
    edges = np.flatnonzero(edges)  # run starts, then len(keys)
    return edges[:-1], np.diff(edges)


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """The first of every set of equal rows, in sorted order."""
    keys = keys[:, (keys != keys[:1]).any(axis=0)]  # constant columns order nothing
    order = _lexsort(keys)
    return order[_runs(keys[order])[0]]


def _labels(block: np.ndarray) -> list[DeweyLabel]:
    """One label per row; components are >= 1, so every zero is padding."""
    return [DeweyLabel(r[:d]) for r, d in zip(block.tolist(), (block > 0).sum(axis=1).tolist())]


def match_proc(
    schema: DTSchema,
    pg: PathGuide,
    metrics: Metrics | None = None,
    use_jump: bool = True,
    backend: Backend | str | None = None,
) -> tuple[list[MatchTuple], list[DeweyLabel]]:
    """Evaluate the schema; returns (match tuples, top-JP witnesses).

    Tuples are deduplicated by leaf assignment and sorted; witnesses
    are the distinct JP prefixes of the top table that joined at least
    one tuple.
    """
    be = get_backend(backend)
    if schema.is_empty:
        return [], []
    # leaf i owns entry columns [i * width, (i + 1) * width), table t
    # the n_leaves + t-th such block
    n_leaves = sum(s.kind == "leaf" for t in schema.tables for s in t.slots)
    width = max(pg.nodes[e].depth for t in schema.tables for rec in t.records
                for s, ends in zip(t.slots, rec.ends) if s.kind == "leaf" for e in ends)
    n_cols = (n_leaves + len(schema.tables)) * width

    def run_table(ti: int, table: DataTable) -> _Input:
        """Merge the table level by level; its entries, grouped by witness."""
        wcol = (n_leaves + ti) * width
        levels = sorted({rec.jp_level for rec in table.records})
        blocks, jps = [], []
        for level in levels:
            recs = [rec for rec in table.records if rec.jp_level == level]
            inputs = []
            for si, slot in enumerate(table.slots):
                named = sorted({e for rec in recs for e in rec.ends[si]})
                if slot.kind == "leaf":
                    inputs.append(_union(pg, named, slot.leaf_id * width))
                else:  # the child table's witnesses under the named JP guide nodes
                    c = done[slot.child_table]
                    k = np.isin(c.gids, named)
                    inputs.append(_Input(c.rows[k], c.gids[k], c.block, c.starts[k], c.counts[k]))
            local, touched, reads, offsets, comps, jumps = _run_merge(
                [inp.rows for inp in inputs], level, use_jump, be
            )
            if metrics is not None:
                metrics.prefix_comparisons += comps
                metrics.jumps += jumps
                for j, inp in enumerate(inputs):
                    if inp.exts is not None:
                        metrics.count_reads(int(reads[j]))
                        flat = np.zeros(len(inp.rows), dtype=bool)
                        flat[inp.order[touched[offsets[j] : offsets[j + 1]] > 0]] = True
                        cuts = np.cumsum([len(e) for e in inp.exts])[:-1]
                        for ext, mask in zip(inp.exts, np.split(flat, cuts)):
                            metrics.touch_mask(ext.gid, mask, ext.byte_lens)
            # tuple r yields the cross product of its slots' runs, last slot
            # fastest; entry e is tuple tup[e]'s rest[e]-th, in mixed radix
            sizes = np.prod([inp.counts[local[:, j]] for j, inp in enumerate(inputs)], axis=0)
            tup = np.repeat(np.arange(len(local)), sizes)
            rest = np.arange(len(tup)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            out = np.zeros((len(tup), n_cols), dtype=np.int64)
            for j in reversed(range(len(inputs))):
                inp, row = inputs[j], local[tup, j]
                part = inp.block[inp.starts[row] + rest % inp.counts[row]]
                out[:, inp.col : inp.col + part.shape[1]] += part
                rest //= inp.counts[row]
            out[:, wcol : wcol + level] = inputs[0].rows[local[tup, 0], :level]
            owners, inv = np.unique(inputs[0].gids[local[:, 0]], return_inverse=True)
            anc = np.array([pg.nodes[g].ancestors[level] for g in owners.tolist()], dtype=np.int64)
            blocks.append(out)
            jps.append(anc[inv][tup])
        block, jp = np.concatenate(blocks), np.concatenate(jps)
        witness = slice(wcol, wcol + levels[-1])
        keep = _first_of_runs(np.hstack([block[:, witness], block[:, : n_leaves * width]]))
        block, jp = block[keep], jp[keep]
        first, counts = _runs(block[:, witness])
        return _Input(block[first, witness], jp[first], block, first, counts)

    done: list[_Input] = []
    for ti, table in enumerate(schema.tables):
        done.append(run_table(ti, table))
    top = done.pop()
    # top is sorted by witness, so each assignment keeps its shallowest
    final, witnesses = top.block[_first_of_runs(top.block[:, : n_leaves * width])], top.rows
    del done, top  # release the entry matrices before labels are built
    cols = []
    for c in range(0, n_cols, width):  # one label object per run of equal rows
        starts, counts = _runs(final[:, c : c + width])
        labels = _labels(final[starts, c : c + width])
        which = np.repeat(np.arange(len(labels)), counts).tolist()
        cols.append(list(map(labels.__getitem__, which)))
    del final
    matches = map(MatchTuple, zip(*cols[:n_leaves]), zip(*cols[n_leaves:]))
    return list(matches), _labels(witnesses)


def evaluate(
    pg: PathGuide,
    query: str | TwigPattern,
    *,
    use_jump: bool = True,
    backend: Backend | str | None = None,
    metrics: Metrics | None = None,
) -> tuple[ResultSet, Metrics]:
    """Full pipeline: parse, split, plan on the guide, merge extents.

    Zero-JP queries skip planning entirely and sort the union of the
    matched extents; an empty plan short-circuits before any extent is
    touched.
    """
    if metrics is None:
        metrics = Metrics()
    twig = parse(query) if isinstance(query, str) else query
    d = split(twig)
    with metrics.timed():
        if not d.jps:
            union = _union(pg, pg.eval_single_branch(d.branches[0]))
            for ext in union.exts:
                metrics.read_full_extent(ext.gid, ext.byte_lens)
            return ResultSet(list(map(MatchTuple, zip(_labels(union.rows)))), []), metrics
        schema = build_dt_schema(pg, d)
        if schema.is_empty:
            return ResultSet([], [], schema), metrics
        matches, top = match_proc(
            schema, pg, metrics=metrics, use_jump=use_jump, backend=backend
        )
        return ResultSet(matches, top, schema), metrics
