"""Execution of the DTSchema: prefix merge joins over extent lists.

Tables run deepest-JP-first, with one multiway merge per JP level of a
table: a leaf slot contributes the sorted union of the extents its
records at that level name, a nested slot the witnesses of the child
table whose JP guide node those records name.  This is exact: rows
with equal level-prefixes share a data ancestor, hence one JP guide
node, so no tuple can mix the ends of two records.  Matched rows fan
out into (leaf label, JP witness) entries, grouped by witness prefix;
each table hands the next one up a single sorted witness stream,
tagged with JP guide nodes.

Deduplication is per witness, keyed by the leaf-label assignment.
Deduplicating across witnesses would be wrong: the same leaf assignment
under two different witnesses must stay visible to a parent record that
references only one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence, Union

import numpy as np

from .dewey import DeweyLabel
from .dt import DTSchema, build_dt_schema
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
    labels: list[DeweyLabel] | None = None
    extent: ExtentList | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def label_at(self, i: int) -> DeweyLabel:
        if self.labels is not None:
            return self.labels[i]
        return DeweyLabel(tuple(int(c) for c in self.rows[i]))


def as_node_list(src: ExtentList | NodeList | Sequence[DeweyLabel]) -> NodeList:
    if isinstance(src, NodeList):
        return src
    if isinstance(src, ExtentList):
        return NodeList(src.rows, None, src)
    labels = list(src)
    for prev, cur in zip(labels, labels[1:]):
        if not prev < cur:
            raise ValueError("label list must be strictly sorted")
    width = max((lab.level for lab in labels), default=0)
    rows = np.zeros((len(labels), width), dtype=np.int64)
    for i, lab in enumerate(labels):
        rows[i, : lab.level] = lab.components
    return NodeList(rows, labels, None)


@dataclass
class Cursor:
    list: NodeList
    position: int = 0


def _resolve_backend(backend: Backend | str | None) -> Backend:
    if isinstance(backend, Backend):
        return backend
    return get_backend(backend)


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
    be = _resolve_backend(backend)
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
    k = len(arrays)
    width = max([plen] + [a.shape[1] for a in arrays])
    offsets = np.concatenate([[0], np.cumsum([len(a) for a in arrays])]).astype(np.int64)
    total = int(offsets[k])
    stacked = np.zeros((total, width), dtype=np.int64)
    for a, start in zip(arrays, offsets):
        stacked[start : start + len(a), : a.shape[1]] = a
    touched = np.zeros(max(total, 1), dtype=np.uint8)
    reads = np.zeros(k, dtype=np.int64)
    out, count, comps, jumps = backend.multiway_merge(
        stacked, offsets, plen, use_jump, touched, reads
    )
    local = out[:count] - offsets[:k][None, :]
    return local, touched, reads, offsets, int(comps), int(jumps)


_ListLike = Union[ExtentList, NodeList, Sequence[DeweyLabel]]


def _eligible(rows: np.ndarray, level: int) -> np.ndarray:
    """Positions whose label is at least `level` deep.

    A shorter label has no prefix at that level, and its zero padding
    must not be allowed to pose as one.
    """
    if level == 0:
        return np.arange(len(rows), dtype=np.int64)
    if rows.shape[1] < level:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero((rows[:, :level] > 0).all(axis=1))


def match_multiway(
    lists: Sequence[_ListLike],
    level: int,
    metrics: Metrics | None = None,
    use_jump: bool = True,
    backend: Backend | str | None = None,
) -> list[tuple[DeweyLabel, ...]]:
    """All tuples (one label per list) with pairwise-equal level-prefixes.

    Sorted by first component (in fact lexicographically), no
    duplicates.
    """
    be = _resolve_backend(backend)
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
    out: list[tuple[DeweyLabel, ...]] = []
    for row in local:
        out.append(
            tuple(nls[j].label_at(int(keeps[j][row[j]])) for j in range(len(nls)))
        )
    return out


@dataclass
class _Entry:
    leaves: dict[int, tuple[int, ...]]  # leaf_id -> label components
    jps: dict[int, tuple[int, ...]]  # table index -> witness components


@dataclass
class _Input:
    """One slot's sorted, zero-padded rows for a merge.

    gids holds each row's extent (leaf slots) or its witness's JP guide
    node (nested slots).  Leaf inputs keep their extents and each row's
    position in the extents' concatenation; nested inputs keep the
    entries beneath each witness.
    """

    rows: np.ndarray
    gids: np.ndarray
    exts: list[ExtentList] | None = None
    order: np.ndarray | None = None
    entries: list[list[_Entry]] | None = None


def _leaf_input(pg: PathGuide, gids: list[int]) -> _Input:
    """The union of the extents of gids; no label sits in two extents."""
    exts = [pg.read_extent(g) for g in gids]
    rows = np.zeros((sum(map(len, exts)), max(e.rows.shape[1] for e in exts)), dtype=np.int64)
    pos = 0
    for e in exts:
        rows[pos : pos + len(e), : e.rows.shape[1]] = e.rows
        pos += len(e)
    order = np.lexsort(rows.T[::-1])
    owner = np.repeat(np.arange(len(exts)), list(map(len, exts)))[order]
    return _Input(rows[order], np.array(gids)[owner], exts, order)


def _witness_input(groups: dict, gids: list[int]) -> _Input:
    """A table's witnesses under the JP guide nodes gids, sorted."""
    wanted = set(gids)
    items = sorted((p, g) for p, (g, _) in groups.items() if g in wanted)
    rows = np.zeros((len(items), max((len(p) for p, _ in items), default=0)), dtype=np.int64)
    for i, (prefix, _) in enumerate(items):
        rows[i, : len(prefix)] = prefix
    entries = [list(groups[p][1].values()) for p, _ in items]
    return _Input(rows, np.array([g for _, g in items], dtype=np.int64), entries=entries)


def _column(inp: _Input, idx: np.ndarray) -> list:
    """Per output row: the leaf label's components, or the witness's entries."""
    if inp.entries is not None:
        return [inp.entries[i] for i in idx.tolist()]
    rows = inp.rows[idx]  # components are >= 1, so every zero is padding
    return [tuple(r[:d]) for r, d in zip(rows.tolist(), (rows > 0).sum(axis=1).tolist())]


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
    be = _resolve_backend(backend)
    if schema.is_empty:
        return [], []
    done: list[dict] = []  # per finished table, its groups
    for ti, table in enumerate(schema.tables):
        groups: dict[tuple[int, ...], tuple[int, dict]] = {}  # prefix -> (JP gid, {key: entry})
        leaf_ids = [(si, s.leaf_id) for si, s in enumerate(table.slots) if s.kind == "leaf"]
        nested = [si for si, s in enumerate(table.slots) if s.kind == "nested"]
        for level in sorted({rec.jp_level for rec in table.records}):
            recs = [rec for rec in table.records if rec.jp_level == level]
            inputs = []
            for si, slot in enumerate(table.slots):
                named = sorted({e for rec in recs for e in rec.ends[si]})
                if slot.kind == "leaf":
                    inputs.append(_leaf_input(pg, named))
                else:
                    inputs.append(_witness_input(done[slot.child_table], named))
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
            cols = [_column(inp, local[:, j]) for j, inp in enumerate(inputs)]
            prefixes = inputs[0].rows[local[:, 0], :level].tolist()
            owners = inputs[0].gids[local[:, 0]].tolist()
            for r, (prefix, owner) in enumerate(zip(map(tuple, prefixes), owners)):
                if prefix not in groups:
                    groups[prefix] = (pg.nodes[owner].ancestors[level], {})
                bucket = groups[prefix][1]
                leaf_part = [(leaf_id, cols[si][r]) for si, leaf_id in leaf_ids]
                for combo in product(*(cols[si][r] for si in nested)):
                    leaves = dict(leaf_part)
                    jps = {ti: prefix}
                    for entry in combo:
                        leaves.update(entry.leaves)
                        jps.update(entry.jps)
                    key = tuple(sorted(leaves.items()))
                    if key not in bucket:
                        bucket[key] = _Entry(leaves, jps)
        done.append(groups)

    n_tables = len(schema.tables)
    final: dict[tuple, MatchTuple] = {}
    for _, bucket in groups.values():
        for key, entry in bucket.items():
            if key in final:
                continue
            leaf_labels = tuple(
                DeweyLabel(entry.leaves[i]) for i in sorted(entry.leaves)
            )
            jp_labels = tuple(
                DeweyLabel(entry.jps[t]) for t in range(n_tables)
            )
            final[key] = MatchTuple(leaf_labels, jp_labels)
    matches = sorted(final.values(), key=lambda mt: mt.leaf_labels)
    top = sorted(DeweyLabel(w) for w in groups)
    return matches, top


def evaluate(
    pg: PathGuide,
    query: str | TwigPattern,
    *,
    use_jump: bool = True,
    backend: Backend | str | None = None,
    metrics: Metrics | None = None,
) -> tuple[ResultSet, Metrics]:
    """Full pipeline: parse, split, plan on the guide, merge extents.

    Zero-JP queries skip planning entirely and stream the matched
    extents; an empty plan short-circuits before any extent is
    touched.
    """
    if metrics is None:
        metrics = Metrics()
    twig = parse(query) if isinstance(query, str) else query
    d = split(twig)
    with metrics.timed():
        if not d.jps:
            matched = pg.eval_single_branch(d.branches[0])
            matches: list[MatchTuple] = []
            for g in matched:
                ext = pg.read_extent(g)
                metrics.read_full_extent(g, ext.byte_lens)
                matches.extend(MatchTuple((DeweyLabel(r),)) for r in ext.rows.tolist())
            matches.sort(key=lambda mt: mt.leaf_labels)
            return ResultSet(matches, []), metrics
        schema = build_dt_schema(pg, d)
        if schema.is_empty:
            return ResultSet([], []), metrics
        matches, top = match_proc(
            schema, pg, metrics=metrics, use_jump=use_jump, backend=backend
        )
        return ResultSet(matches, top), metrics
