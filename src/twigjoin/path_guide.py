"""Path summary with per-node extent lists.

One guide node per distinct root-to-node tag path; the root guide node
is the document element at depth 0.  Extents hold the Dewey labels of
all document nodes sharing a path, as a 2-D int64 array with one row
per label (row width = guide depth), strictly sorted.

Extent access goes through read_extent, so tests can spy on it to
assert that guide-only phases touch no extents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dewey import _CLASS_BASE, _CLASS_CAP, DeweyLabel
from .document import NodeEvent, ingest
from .twig import CHILD, WILDCARD, SingleBranchQuery, Step, test_matches

_VIRTUAL = -1
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
        for tag, parent in zip(tags, parents):
            pg._add_node(tag, parent)
        for gid, rows in enumerate(extent_rows):
            rows = np.asarray(rows, dtype=np.int64)
            if rows.shape[1] != pg.nodes[gid].depth:
                raise GuideError(f"extent width mismatch for guide node {gid}")
            pg.extents.append(ExtentList(gid, rows, _component_byte_lens(rows)))
        pg._check_sorted()
        return pg

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

    def eval_single_branch(self, q: SingleBranchQuery | Sequence[Step]) -> list[int]:
        """Guide nodes whose root path matches the branch; no extent use.

        Frontier sweep, one step at a time: the frontier is the set of
        guide nodes reachable after the steps consumed so far (-1 is
        the virtual start above the root).
        """
        steps = q.steps if isinstance(q, SingleBranchQuery) else tuple(q)
        frontier: set[int] = {_VIRTUAL}
        for step in steps:
            nxt: set[int] = set()
            if step.axis == CHILD:
                for p in frontier:
                    if p == _VIRTUAL:
                        if self.nodes and test_matches(step.test, self.nodes[0].tag):
                            nxt.add(0)
                    else:
                        node = self.nodes[p]
                        if step.test == WILDCARD:
                            nxt.update(node.children.values())
                        else:
                            child = node.children.get(step.test)
                            if child is not None:
                                nxt.add(child)
            else:
                if step.test == WILDCARD:
                    candidates: Iterable[int] = range(len(self.nodes))
                else:
                    candidates = self.by_tag.get(step.test, [])
                if _VIRTUAL in frontier:
                    nxt.update(candidates)
                else:
                    for g in candidates:
                        anc = self.nodes[g].ancestors
                        for a in anc[:-1]:  # proper ancestors only
                            if a in frontier:
                                nxt.add(g)
                                break
            if not nxt:
                return []
            frontier = nxt
        return sorted(frontier)
