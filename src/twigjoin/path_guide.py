"""Path summary over one columnar extent store.

One guide node per distinct root-to-node tag path; the root guide node
is the document element at depth 0.  The node table is three int32
arrays, per guide node (gid) its parent (an earlier node; -1 for the
root), tag id (tag_names[t] is tag t, tag_id the reverse) and depth,
set and checked by _set_nodes.  GuideNode objects (nodes) are a view
made on first use, for readers outside the query path.

A node's extent holds the Dewey labels of all document nodes sharing
its path.  All extents live in one store, built in one pass: rows is an
int64 matrix of zero-padded labels, gid-major and strictly sorted within
each extent, so the extent of g is rows start[g] : start[g + 1] and a
row's index is its global row id; byte_lens[i] is row i's encoded size.
Two more int64 arrays per row, never serialized, let a row id stand for
its label: pos[i], row i's document position (label order is document
order), and up[i], the row id of its parent label (-1 for the root);
ancestors walks up to any level.  build takes both from the events and
rejects events out of document order.  A guide loaded from tables or
from an index file starts from its node table (from_node_table) and
takes a filled store through adopt_store, which checks it and derives
pos and up (_check_store).

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
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .dewey import _CLASS_BASE, _CLASS_CAP, DeweyLabel
from .document import NodeEvent, ingest
from .kernels import lexsort
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
        """(n, depth) int64, strictly sorted rows."""
        return self._pg.rows[self.first : self.stop, : self._pg.depths.item(self.gid)]

    @property
    def byte_lens(self) -> np.ndarray:
        """(n,) int64, encoded size per label."""
        return self._pg.byte_lens[self.first : self.stop]


def _component_byte_lens(rows: np.ndarray) -> np.ndarray:
    """Each row's encoded size; zero padding takes no bytes."""
    lens = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:  # a column at a time keeps the temporaries small
        lens += (1 + np.digitize(col, _LEN_BINS)) * (col > 0)
    return lens


def _pack(extents: Sequence, depths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A store filled from each node's labels (rows or tuples), in gid order."""
    start = np.cumsum([0] + [len(e) for e in extents], dtype=np.int64)
    rows = np.zeros((start[-1], depths.max(initial=0)), dtype=np.int64)
    for g, labels in enumerate(extents):
        rows[start[g] : start[g + 1], : depths[g]] = labels
    return rows, start


class PathGuide:
    def __init__(self) -> None:
        # the node table, set by _set_nodes
        self.parents = self.tags = self.depths = np.empty(0, dtype=np.int32)
        self.tag_id: dict[str, int] = {}
        self.tag_names: list[str] = []
        self.anc = np.empty((0, 1), dtype=np.int32)
        self.tag_paths = np.empty((1, 0), dtype=np.int32)
        # the extent store, set by _set_store
        self.rows = np.zeros((0, 0), dtype=np.int64)
        self.start = np.zeros(1, dtype=np.int64)
        self.byte_lens = np.zeros(0, dtype=np.int64)
        self.pos = self.up = np.zeros(0, dtype=np.int64)  # set with the store

    # ------------------------------------------------------ construction

    @classmethod
    def build(cls, events: Iterable[NodeEvent]) -> "PathGuide":
        pg = cls()
        node_of: dict[tuple[str, int], int] = {}  # (tag, parent gid) -> gid
        # per guide node, in gid order, its labels in document order
        buffers: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)
        stack: list[tuple[DeweyLabel, int, int]] = []  # (label, gid, event), the last per depth
        gids = array("q")  # per event, its guide node
        parents = array("q")  # per event, its parent's event (-1 for the root)

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
            buffers[gid].append(comps)
            gids.append(gid)
            parents.append(parent_k)
            stack.append((ev.label, gid, k))

        if not node_of:
            raise GuideError("empty event stream")
        # the store is gid-major: a stable sort by guide node takes each
        # row to its event, whose index is the row's document position
        pg.pos = np.argsort(np.frombuffer(gids, np.int64), kind="stable")
        row = np.full(len(gids) + 1, -1, dtype=np.int64)  # row[-1] stands for no parent
        row[pg.pos] = np.arange(len(gids))
        pg.up = row[np.frombuffer(parents, np.int64)[pg.pos]]
        del gids, parents, row  # freed before the store, the largest allocation, is made
        pg._set_nodes(*zip(*node_of))
        pg._set_store(*_pack(list(buffers.values()), pg.depths))
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
        pg.adopt_store(*_pack(extent_rows, pg.depths))
        return pg

    @classmethod
    def from_node_table(cls, tags: Sequence[str], parents: Sequence[int]) -> "PathGuide":
        """A guide with these nodes and no store yet; each parent must be
        an earlier node (-1 for the root)."""
        pg = cls()
        pg._set_nodes(tags, parents)
        return pg

    def adopt_store(self, rows: np.ndarray, start: np.ndarray) -> None:
        """Take a store filled outside build (from tables or an index file)
        and check it."""
        self._set_store(rows, start)
        self._check_store()

    def _set_store(self, rows: np.ndarray, start: np.ndarray) -> None:
        """Take rows, zero-padded and gid-major, and the extent offsets."""
        self.rows, self.start = rows, start
        self.byte_lens = _component_byte_lens(rows)
        self.rows.flags.writeable = self.byte_lens.flags.writeable = False

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

        One stable lexsort puts the labels in document order (pos): within
        each guide node it must keep the store order, with no two equal
        neighbours.  A label's parent is then the last label one level up
        before it (up), which must be its prefix and lie in the parent's
        extent.  The checks run on one level at a time, so their
        temporaries stay at a few arrays of one level's labels.  A store
        that passes keeps pos and up.
        """
        n = len(self.rows)
        owner = np.repeat(np.arange(len(self), dtype=np.int32), np.diff(self.start))
        order = lexsort(self.rows)
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        moved = np.flatnonzero((pos[1:] < pos[:-1]) & (owner[1:] == owner[:-1]))
        twin = np.ones(max(n - 1, 0), dtype=bool)
        for col in self.rows.T:
            twin &= col[order[1:]] == col[order[:-1]]
        bad = np.concatenate([moved, order[np.flatnonzero(twin)]])
        if len(bad):
            raise GuideError(f"guide node {owner[bad[0]]} is not sorted or shares a label")
        depth = self.depths[owner][order]
        up = np.full(n, -1, dtype=np.int64)
        first_bad = n  # in document order
        for d in range(1, self.rows.shape[1] + 1):
            here = np.flatnonzero(depth == d)
            above = np.flatnonzero(depth == d - 1)
            at = np.searchsorted(above, here) - 1  # the last position one level up
            kid = order[here]
            par = up[kid] = order[above[np.maximum(at, 0)]] if len(above) else kid
            ok = (at >= 0) & (owner[par] == self.anc[owner[kid], d - 1])
            for col in self.rows.T[: d - 1]:  # zero padding matches by construction
                ok &= col[par] == col[kid]
            if not ok.all():
                first_bad = min(first_bad, here[np.argmin(ok)])
        if first_bad < n:
            row = order[first_bad]
            gid = owner[row]
            label = DeweyLabel(self.rows[row, : self.depths[gid]].tolist())
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
