"""Path summary with per-node extent lists.

One guide node per distinct root-to-node tag path; the root guide node
is the document element at depth 0.  Extents hold the Dewey labels of
all document nodes sharing a path, as a 2-D int64 array with one row
per label (row width = guide depth), strictly sorted.

Extent access goes through read_extent, so tests can spy on it to
assert that guide-only phases touch no extents.

A finished guide also holds int32 arrays derived from the node table
(never serialized): per node its depth and tag id, the ancestor matrix
anc[g, d] (the ancestor of g at depth d, -1 below g) and the tag-path
matrix tag_paths[d, g] (the tag id of anc[g, d], -1 below g).
match_steps runs a step sequence over many guide nodes' tag paths at
once; branch evaluation and DataTable fitting both use it, so no query
phase walks guide nodes in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Structural problem in the event stream (orphan, second root)."""


@dataclass
class GuideNode:
    gid: int
    tag: str
    parent: int  # -1 for the root
    depth: int  # Dewey level of the labels in this node's extent
    path: tuple[str, ...]  # tags from the document element down to here
    ancestors: tuple[int, ...]  # gids root..self inclusive; len = depth+1
    children: dict[str, int] = field(default_factory=dict)


@dataclass
class ExtentList:
    gid: int
    rows: np.ndarray  # (n, depth) int64, strictly sorted rows
    byte_lens: np.ndarray  # (n,) int64, encoded size per label

    def __len__(self) -> int:
        return len(self.rows)

    def labels(self) -> list[DeweyLabel]:
        return [DeweyLabel(tuple(int(c) for c in row)) for row in self.rows]


def _component_byte_lens(rows: np.ndarray) -> np.ndarray:
    if rows.shape[1] == 0:
        return np.zeros(len(rows), dtype=np.int64)
    return (1 + np.digitize(rows, _LEN_BINS)).sum(axis=1).astype(np.int64)


class PathGuide:
    def __init__(self) -> None:
        self.nodes: list[GuideNode] = []
        self.extents: list[ExtentList] = []
        self.by_tag: dict[str, list[int]] = {}
        # derived by _derive_arrays once the node table is complete
        self.tag_id: dict[str, int] = {}
        self.tags = self.depths = np.empty(0, dtype=np.int32)
        self.anc = np.empty((0, 1), dtype=np.int32)
        self.tag_paths = np.empty((1, 0), dtype=np.int32)

    # ------------------------------------------------------ construction

    @classmethod
    def build(cls, events: Iterable[NodeEvent]) -> "PathGuide":
        pg = cls()
        buffers: list[list[tuple[int, ...]]] = []
        stack: list[tuple[DeweyLabel, int]] = []  # (label, gid) per open level

        for ev in events:
            depth = ev.label.level
            if depth > len(stack):
                raise GuideError(f"orphan event at {ev.label}: no parent on stack")
            del stack[depth:]
            if depth == 0:
                if pg.nodes:
                    raise GuideError("second root element in event stream")
                gid = pg._add_node(ev.tag, _VIRTUAL)
                buffers.append([])
            else:
                parent_label, parent_gid = stack[-1]
                if ev.label.prefix(depth - 1) != parent_label:
                    raise GuideError(f"event at {ev.label} does not extend {parent_label}")
                parent = pg.nodes[parent_gid]
                gid = parent.children.get(ev.tag, _VIRTUAL)
                if gid == _VIRTUAL:
                    gid = pg._add_node(ev.tag, parent_gid)
                    buffers.append([])
            buffers[gid].append(ev.label.components)
            stack.append((ev.label, gid))

        if not pg.nodes:
            raise GuideError("empty event stream")
        for gid, buf in enumerate(buffers):
            depth = pg.nodes[gid].depth
            rows = np.array(buf, dtype=np.int64).reshape(len(buf), depth)
            pg.extents.append(ExtentList(gid, rows, _component_byte_lens(rows)))
        pg._check_sorted()
        pg._derive_arrays()
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
        """Rebuild from flat tables (index deserialization), checking them."""
        pg = cls()
        for gid, (tag, parent) in enumerate(zip(tags, parents)):
            if not _VIRTUAL <= parent < gid:
                raise GuideError(f"guide node {gid}: parent {parent} is not an earlier node")
            pg._add_node(tag, parent)
        for gid, rows in enumerate(extent_rows):
            rows = np.asarray(rows, dtype=np.int64)
            if rows.shape[1] != pg.nodes[gid].depth:
                raise GuideError(f"extent width mismatch for guide node {gid}")
            pg.extents.append(ExtentList(gid, rows, _component_byte_lens(rows)))
        pg._check_sorted()
        pg._derive_arrays()
        return pg

    def _derive_arrays(self) -> None:
        """Fill tag_id, tags, depths, anc and tag_paths from the nodes.

        Parents precede children, so one pass per depth copies each
        parent's ancestor row into its children's rows.  tag_paths is
        stored depth-major, so match_steps works on long contiguous rows.
        """
        self.tag_id = {tag: i for i, tag in enumerate(self.by_tag)}
        self.tags = np.array([self.tag_id[n.tag] for n in self.nodes], dtype=np.int32)
        self.depths = np.array([n.depth for n in self.nodes], dtype=np.int32)
        parents = np.array([n.parent for n in self.nodes], dtype=np.int32)
        self.anc = np.full((len(self.nodes), self.depths.max(initial=0) + 1), -1, dtype=np.int32)
        for d in range(self.anc.shape[1]):
            at = np.flatnonzero(self.depths == d)
            self.anc[at, :d] = self.anc[parents[at], :d]
            self.anc[at, d] = at
        self.tag_paths = np.where(self.anc >= 0, self.tags[self.anc], -1).T.copy()

    def _check_sorted(self) -> None:
        """Raise GuideError unless every extent is strictly sorted.

        Vectorized per depth, one column at a time: each row must exceed
        the row before it in its extent.
        """
        by_depth: dict[int, list[ExtentList]] = {}
        for ext in self.extents:
            by_depth.setdefault(ext.rows.shape[1], []).append(ext)
        for exts in by_depth.values():
            rows = np.concatenate([e.rows for e in exts])
            gids = np.repeat([e.gid for e in exts], [len(e) for e in exts])
            ahead = np.zeros(max(len(rows) - 1, 0), dtype=bool)  # decided: greater
            tied = ~ahead  # equal so far
            for col in rows.T:
                ahead |= tied & (col[1:] > col[:-1])
                tied &= col[1:] == col[:-1]
            bad = np.flatnonzero(~ahead & (gids[1:] == gids[:-1]))
            if len(bad):
                raise GuideError(f"extent of guide node {gids[bad[0]]} is not sorted")

    def _add_node(self, tag: str, parent: int) -> int:
        gid = len(self.nodes)
        if parent == _VIRTUAL:
            if gid != 0:
                raise GuideError("second root element in event stream")
            node = GuideNode(gid, tag, _VIRTUAL, 0, (tag,), (gid,))
        else:
            pnode = self.nodes[parent]
            if tag in pnode.children:
                raise GuideError(f"duplicate child tag {tag!r} under guide node {parent}")
            node = GuideNode(
                gid,
                tag,
                parent,
                pnode.depth + 1,
                pnode.path + (tag,),
                pnode.ancestors + (gid,),
            )
            pnode.children[tag] = gid
        self.nodes.append(node)
        self.by_tag.setdefault(tag, []).append(gid)
        return node.gid

    # ------------------------------------------------------------ access

    @property
    def root(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self.nodes)

    def read_extent(self, gid: int) -> ExtentList:
        """The only sanctioned way for query evaluation to reach extent data."""
        return self.extents[gid]

    def extent_size(self, gid: int) -> int:
        return len(self.extents[gid].rows)

    def path_tags(self, gid: int) -> tuple[str, ...]:
        return self.nodes[gid].path

    def ancestor_at_depth(self, gid: int, depth: int) -> int:
        return self.nodes[gid].ancestors[depth]

    def is_ancestor_or_self(self, a: int, b: int) -> bool:
        anc = self.nodes[b].ancestors
        da = self.nodes[a].depth
        return da < len(anc) and anc[da] == a

    def total_extent_bytes(self) -> int:
        return sum(int(e.byte_lens.sum()) for e in self.extents)

    def total_nodes(self) -> int:
        return sum(len(e.rows) for e in self.extents)

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
            return np.zeros(len(self.nodes), dtype=bool)
        keep = self.depths >= len(steps) - 1
        if steps[-1].test != WILDCARD:
            keep &= self.tags == self.tag_id.get(steps[-1].test, _NO_TAG)
        keep[keep] = self.match_steps(steps, np.flatnonzero(keep))[0]
        return keep

    def eval_single_branch(self, q: SingleBranchQuery | Sequence[Step]) -> list[int]:
        """Guide nodes whose root path matches the branch, ascending."""
        return np.flatnonzero(self.branch_mask(q)).tolist()
