"""Path summary over one columnar extent store.

One guide node per distinct root-to-node tag path; the root guide node
is the document element at depth 0.  The node table is three int32
arrays, per guide node (gid) its parent (an earlier node; -1 for the
root), tag id (tag_names[t] is tag t, tag_id the reverse) and depth,
set and checked by _set_nodes.  GuideNode objects (nodes) are a view
made on first use, for readers outside the query path.

A node's extent holds the Dewey labels of all document nodes sharing
its path, each of depths[g] components.  All extents live in one store,
built in one pass and laid out as in the index file: comps holds each
extent as a dense len × depths[g] int64 block, strictly sorted, the
blocks back to back in gid order from comp_start[g].  The extent of g
is rows start[g] : start[g + 1], so a row's index is its global row id;
byte_lens[i] is row i's encoded size.  Two more int64 arrays per row,
never serialized, let a row id stand for its label: pos[i], row i's
document position (label order is document order), and up[i], the row
id of its parent label (-1 for the root); ancestors walks up to any
level.  build takes both from the events and rejects events out of
document order.  A guide loaded from tables or from an index file
starts from its node table (from_node_table) and takes a filled store
through adopt_store, which checks it and derives pos and up
(_check_store).  label_block reads labels out as padded rows.

Extent access goes through read_extent, which returns the extent's
guide node, first row id and length, with views of the store made only
when read, so tests can spy on it to assert that guide-only phases
touch no extents.

Two int32 matrices derived from the node table (never serialized) serve
planning: anc[g, d], the ancestor of g at depth d, and tag_paths[d, g],
the tag id of anc[g, d] (both -1 below g); path_tags reads the latter.
match_steps runs a step sequence over many guide nodes' tag paths at
once; branch evaluation and DataTable fitting both use it, so no query
phase walks guide nodes in Python.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .dewey import _CLASS_BASE, _CLASS_CAP, DeweyLabel
from .document import NodeEvent, ingest
from .twig import DESCENDANT, WILDCARD, SingleBranchQuery, Step

_VIRTUAL = -1
_NO_TAG = -2  # a test for a tag the guide lacks: equals no tag id and no padding
# first value needing 2, 3, 4, 5 encoded bytes; the code is biased, so
# each class starts where the previous one ends, not at a power of two
_LEN_BINS = np.array(
    [_CLASS_BASE[k] + _CLASS_CAP[k] for k in range(4)], dtype=np.int64
)


class GuideError(ValueError):
    """Structural problem in the events or tables (orphan, unsorted extent)."""


@dataclass(slots=True)
class GuideNode:
    gid: int
    tag: str
    parent: int  # -1 for the root
    depth: int  # Dewey level of the labels in this node's extent
    path: tuple[str, ...]  # tags from the document element down to here
    children: dict[str, int] = field(default_factory=dict)


class ExtentList:
    """One guide node's extent in the store.  Its rows and byte_lens are
    views made when read: the matcher's unions need only len, first and
    gid."""

    __slots__ = ("_pg", "gid", "first", "stop")

    def __init__(self, pg: "PathGuide", gid: int, first: int, stop: int) -> None:
        self._pg = pg
        self.gid = gid
        self.first = first  # global row id of rows[0]
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.first

    @property
    def rows(self) -> np.ndarray:
        """(n, depth) int64, strictly sorted rows: a view of the extent's block."""
        at, depth = self._pg.comp_start.item(self.gid), self._pg.depths.item(self.gid)
        return self._pg.comps[at : at + len(self) * depth].reshape(len(self), depth)

    @property
    def byte_lens(self) -> np.ndarray:
        """(n,) int64, encoded size per label."""
        return self._pg.byte_lens[self.first : self.stop]


class PathGuide:
    def __init__(self) -> None:
        # the node table, set by _set_nodes
        self.parents = self.tags = self.depths = np.empty(0, dtype=np.int32)
        self.tag_id: dict[str, int] = {}
        self.tag_names: list[str] = []
        self.anc = np.empty((0, 1), dtype=np.int32)
        self.tag_paths = np.empty((1, 0), dtype=np.int32)
        # the extent store, set by _set_store
        self.comps = np.zeros(0, dtype=np.int64)
        self.start = self.comp_start = np.zeros(1, dtype=np.int64)
        self.byte_lens = np.zeros(0, dtype=np.int64)
        self.pos = self.up = np.zeros(0, dtype=np.int64)  # set with the store

    # ------------------------------------------------------ construction

    @classmethod
    def build(cls, events: Iterable[NodeEvent]) -> "PathGuide":
        pg = cls()
        node_of: dict[tuple[str, int], int] = {}  # (tag, parent gid) -> gid
        stack: list[tuple[DeweyLabel, int, int]] = []  # (label, gid, event), the last per depth
        gids = array("q")  # per event, its guide node
        parents = array("q")  # per event, its parent's event (-1 for the root)
        labels: list[tuple[int, ...]] = []  # per event, its components

        for k, ev in enumerate(events):
            comps = ev.label.components
            depth = len(comps)
            if depth > len(stack):
                raise GuideError(f"orphan event at {ev.label}: no parent on stack")
            if 0 < depth < len(stack) and stack[depth][0].components >= comps:
                raise GuideError(f"event at {ev.label} is not sorted after {stack[depth][0]}")
            del stack[depth:]
            if depth == 0:
                if node_of:
                    raise GuideError("second root element in event stream")
                parent_gid = parent_k = _VIRTUAL
            else:
                parent_label, parent_gid, parent_k = stack[-1]
                if comps[:-1] != parent_label.components:
                    raise GuideError(f"event at {ev.label} does not extend {parent_label}")
            gid = node_of.setdefault((ev.tag, parent_gid), len(node_of))
            labels.append(comps)
            gids.append(gid)
            parents.append(parent_k)
            stack.append((ev.label, gid, k))

        if not node_of:
            raise GuideError("empty event stream")
        # the store is gid-major: a stable sort by guide node takes each
        # row to its event, whose index is the row's document position
        gids = np.frombuffer(gids, np.int64)
        pg.pos = np.argsort(gids, kind="stable")
        row = np.full(len(gids) + 1, -1, dtype=np.int64)  # row[-1] stands for no parent
        row[pg.pos] = np.arange(len(gids))
        pg.up = row[np.frombuffer(parents, np.int64)[pg.pos]]
        pg._set_nodes(*zip(*node_of))
        counts = np.bincount(gids, minlength=len(pg))
        del gids, parents, row
        labels = np.fromiter(labels, dtype=object, count=len(labels))[pg.pos]  # row r: event pos[r]
        comps = np.fromiter(chain.from_iterable(labels), np.int64, counts @ pg.depths)
        del labels  # before the store's temporaries
        pg._set_store(comps, counts)
        return pg

    @classmethod
    def build_from_xml(cls, data: bytes) -> "PathGuide":
        return cls.build(ingest(data))

    @classmethod
    def from_tables(
        cls,
        tags: Sequence[str],
        parents: Sequence[int],
        extent_rows: Sequence[np.ndarray],
    ) -> "PathGuide":
        """Rebuild from flat tables, checking them."""
        pg = cls.from_node_table(tags, parents)
        bad = np.flatnonzero([np.shape(rows)[1] for rows in extent_rows] != pg.depths)
        if len(bad):
            raise GuideError(f"extent width mismatch for guide node {bad[0]}")
        comps = [np.asarray(rows, dtype=np.int64).ravel() for rows in extent_rows]
        pg.adopt_store(np.concatenate(comps or [np.zeros(0, np.int64)]), [*map(len, extent_rows)])
        return pg

    @classmethod
    def from_node_table(cls, tags: Sequence[str], parents: Sequence[int]) -> "PathGuide":
        """A guide with these nodes and no store yet; each parent must be
        an earlier node (-1 for the root)."""
        pg = cls()
        pg._set_nodes(tags, parents)
        return pg

    def adopt_store(self, comps: np.ndarray, counts: Sequence[int]) -> None:
        """Take a store filled outside build (from tables or an index file); check it."""
        self._set_store(comps, counts)
        self._check_store()

    def _set_store(self, comps: np.ndarray, counts: Sequence[int]) -> None:
        """Take the components and each extent's label count."""
        counts = np.asarray(counts, dtype=np.int64)
        self.comps, self.start = comps, np.concatenate([[0], np.cumsum(counts)])
        self.comp_start = np.concatenate([[0], np.cumsum(counts * self.depths)])
        width = np.repeat(self.depths, counts).astype(np.int64)  # a byte per component, and
        big = [np.flatnonzero(comps >= b) for b in _LEN_BINS]  # one more per class boundary reached
        row = np.searchsorted(np.cumsum(width), np.concatenate(big), side="right")
        self.byte_lens = width + np.bincount(row, minlength=len(width))
        self.comps.flags.writeable = self.byte_lens.flags.writeable = False

    def _set_nodes(self, tags: Sequence[str], parents: Sequence[int]) -> None:
        """Take the node table, per node its tag and parent, and derive the
        rest.  Raises GuideError at the first node whose parent is not an
        earlier node, that is a second root, or whose tag an earlier
        sibling has.

        One pass per depth copies each parent's ancestor row into its
        children's rows.  tag_paths is stored depth-major, so match_steps
        works on long contiguous rows.
        """
        self.tag_names = list(dict.fromkeys(tags))  # in order of first use
        self.tag_id = {tag: i for i, tag in enumerate(self.tag_names)}
        self.tags = np.array(list(map(self.tag_id.__getitem__, tags)), dtype=np.int32)
        parents = np.asarray(parents, dtype=np.int64)
        late = (parents < _VIRTUAL) | (parents >= np.arange(len(parents)))
        second_root = (parents == _VIRTUAL) & (np.arange(len(parents)) > 0)
        dup = np.ones(len(parents), dtype=bool)  # a (parent, tag) pair seen before
        dup[np.unique((parents + 1) * len(self.tag_names) + self.tags, return_index=True)[1]] = False
        bad = late | second_root | dup
        if bad.any():
            g = int(np.argmax(bad))
            if late[g]:
                raise GuideError(f"guide node {g}: parent {parents[g]} is not an earlier node")
            if second_root[g]:
                raise GuideError("second root element in event stream")
            raise GuideError(f"duplicate child tag {tags[g]!r} under guide node {parents[g]}")
        self.parents = parents.astype(np.int32)
        self.depths = np.zeros(len(parents), dtype=np.int32)
        up = parents
        while (up >= 0).any():
            self.depths += up >= 0
            up = np.where(up >= 0, parents[up], _VIRTUAL)
        self.anc = np.full((len(parents), self.depths.max(initial=0) + 1), -1, dtype=np.int32)
        for d in range(self.anc.shape[1]):
            at = np.flatnonzero(self.depths == d)
            self.anc[at, :d] = self.anc[parents[at], :d]
            self.anc[at, d] = at
        self.tag_paths = np.where(self.anc >= 0, self.tags[self.anc], -1).T.copy()

    def _check_store(self) -> None:
        """Raise GuideError unless every extent is strictly sorted, no label
        sits in two extents, and every label's parent prefix is a label in
        the parent node's extent.

        Level j numbers the distinct j-prefixes of the rows of depth j or
        more in label order, as (node of the (j - 1)-prefix, component j):
        the nodes of the labels' prefix trie.  A row's parent label is the
        row at its node's parent, and its document position (pos) counts
        the rows before its node.  The first error wins, in this order: an
        unsorted extent, a label held twice, a label without its parent
        (the first by row, then in document order).
        """
        owner = np.repeat(np.arange(len(self), dtype=np.int32), np.diff(self.start))
        depth = self.depths[owner]
        order = np.argsort(-depth, kind="stable")  # the rows of depth j or more come first
        at = (np.cumsum(depth, dtype=np.int64) - depth)[order]  # each row's next component
        node = np.zeros(len(owner), dtype=np.int64)  # by place in order
        parent, size, level = [np.full(1, -1)], [np.full(1, len(owner))], [0, 1]
        for m in np.cumsum(np.bincount(depth)[::-1])[-2::-1]:
            up, last = node[:m] - level[-2], self.comps[at[:m]]
            at[:m] += 1
            if np.ptp(last) >= m:  # ranks keep the pairs' numbers below rows²
                last = np.unique(last, return_inverse=True)[1]
            key = up * (int(np.ptp(last)) + 1) + (last - last.min())
            pair = np.argsort(key, kind="stable")  # a sorted extent is a sorted run
            step = np.diff(key[pair], prepend=-1) != 0  # the first of each node
            parent.append(up[pair[step]] + level[-2])
            size.append(np.diff(np.flatnonzero(step), append=m))
            node[pair] = np.cumsum(step) + (level[-1] - 1)
            level.append(level[-1] + len(size[-1]))
        node[order] = node.copy()
        order = at = up = last = key = pair = step = None  # free before the rest
        parent, size = np.concatenate(parent), np.concatenate(size)
        held = np.bincount(node, minlength=len(parent))
        pre = np.zeros(len(parent), dtype=np.int64)  # the rows before each node
        for a, b in zip(level[1:], level[2:]):
            kids, before = parent[a:b], np.cumsum(size[a:b]) - size[a:b]
            pre[a:b] = pre[kids] + held[kids] + before - before[np.searchsorted(kids, kids)]
        pos = pre[node]
        bad = np.flatnonzero((owner[1:] == owner[:-1]) & (pos[1:] < pos[:-1]))
        twice = np.flatnonzero(held[node] > 1)
        if len(bad) or len(twice):
            row = bad[0] if len(bad) else twice[np.argmin(pos[twice])]
            raise GuideError(f"guide node {owner[row]} is not sorted or shares a label")
        row_of = np.full(len(parent) + 1, -1, dtype=np.int64)  # row_of[-1]: no parent node
        row_of[node] = np.arange(len(node))
        up = row_of[parent[node]]
        orphan = np.flatnonzero((depth > 0) & ((up < 0) | (owner[up] != self.parents[owner])))
        if len(orphan):
            row = orphan[np.argmin(pos[orphan])]
            label, gid = DeweyLabel(self.label_block([row])[0][0].tolist()), owner[row]
            raise GuideError(f"label {label} of guide node {gid} has no parent label "
                             f"in guide node {self.parents[gid]}")
        self.pos, self.up = pos, up

    # ------------------------------------------------------------ access

    def __len__(self) -> int:
        return len(self.tags)

    @cached_property
    def nodes(self) -> list[GuideNode]:
        """The node table as GuideNode objects, in gid order, made on first
        use for readers outside the query path."""
        table = zip(self.tags.tolist(), self.parents.tolist(), self.depths.tolist())
        nodes = [GuideNode(g, self.tag_names[t], p, d, self.path_tags(g))
                 for g, (t, p, d) in enumerate(table)]
        for node in nodes[1:]:
            nodes[node.parent].children[node.tag] = node.gid
        return nodes

    def _extent(self, gid: int) -> ExtentList:
        return ExtentList(self, gid, self.start.item(gid), self.start.item(gid + 1))

    def read_extent(self, gid: int) -> ExtentList:
        """The only sanctioned way for query evaluation to reach extent data."""
        return self._extent(gid)

    @property
    def extents(self) -> list[ExtentList]:
        """Every extent, in gid order, as views of the store."""
        return [self._extent(g) for g in range(len(self))]

    def path_tags(self, gid: int) -> tuple[str, ...]:
        """The tags from the document element down to guide node gid."""
        return tuple(map(self.tag_names.__getitem__,
                         self.tag_paths[: self.depths[gid] + 1, gid].tolist()))

    def label_block(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct rows of ids as labels zero-padded in one int64 block, their
        depths, and each id's row in the block."""
        rows, at = np.unique(ids, return_inverse=True)
        gids = np.searchsorted(self.start, rows, side="right") - 1
        depth = self.depths[gids]
        cols = np.arange(depth.max(initial=0))
        first = self.comp_start[gids] + (rows - self.start[gids]) * depth
        block = self.comps.take(first[:, None] + cols, mode="clip")
        return np.where(cols < depth[:, None], block, 0), depth, at

    def ancestors(self, ids: np.ndarray, gids: np.ndarray, level: int) -> np.ndarray:
        """Row id of each row's ancestor-or-self label at depth level, for
        rows ids[i] of guide nodes gids[i] at least that deep.  pos of the
        result ranks the rows' level-prefixes exactly as the prefixes do."""
        steps = self.depths[gids] - level
        for s in range(steps.max(initial=0)):
            ids = np.where(steps > s, self.up[ids], ids)
        return ids

    # -------------------------------------------------------- evaluation

    def match_steps(self, steps: Sequence[Step], ends: np.ndarray) -> np.ndarray:
        """M[x, i]: the steps (one or more) consume exactly the tags from
        depth x down to ends[i] itself; shape (max depth + 2, len(ends)).

        Backward dynamic program over the ends' tag-path columns, one
        row per depth: a child step is a shift-and, a descendant step
        adds a reverse cumulative OR (it may skip tags above its own).
        The -1 padding below each end matches no test, not even a
        wildcard.  No extent is read.
        """
        paths = np.take(self.tag_paths, ends, axis=1)
        reach = np.zeros((len(paths) + 1, len(ends)), dtype=bool)
        after = np.arange(len(paths))[:, None] == self.depths[ends]  # no steps left
        for step in reversed(steps):
            if step.test == WILDCARD:
                hit = paths >= 0
            else:
                hit = paths == self.tag_id.get(step.test, _NO_TAG)
            hit &= after
            if step.axis == DESCENDANT:
                for x in range(len(hit) - 2, -1, -1):
                    hit[x] |= hit[x + 1]
            reach[:-1] = hit
            after = reach[1:]
        return reach

    def branch_mask(self, q: SingleBranchQuery | Sequence[Step]) -> np.ndarray:
        """Per guide node, whether its root path matches the branch; no
        extent use.

        Candidates pass the last step's test and are deep enough for
        every step to consume a tag; match_steps keeps those whose
        whole path, from depth 0, the steps consume.
        """
        steps = q.steps if isinstance(q, SingleBranchQuery) else tuple(q)
        if not steps:
            return np.zeros(len(self), dtype=bool)
        keep = self.depths >= len(steps) - 1
        if steps[-1].test != WILDCARD:
            keep &= self.tags == self.tag_id.get(steps[-1].test, _NO_TAG)
        keep[keep] = self.match_steps(steps, np.flatnonzero(keep))[0]
        return keep

    def eval_single_branch(self, q: SingleBranchQuery | Sequence[Step]) -> list[int]:
        """Guide nodes whose root path matches the branch, ascending."""
        return np.flatnonzero(self.branch_mask(q)).tolist()
