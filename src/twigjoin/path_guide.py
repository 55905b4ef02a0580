"""Path summary over one columnar extent store.

One guide node per distinct root-to-node tag path; the root guide node
is the document element at depth 0.  The node table is three int32
arrays, per guide node (gid) its parent (an earlier node; -1 for the
root), tag id (tag_names[t] is tag t, tag_id the reverse) and depth
(its parent's plus one), set and checked by from_node_table.  nodes
gives its rows as GuideNode tuples, made on first use, for readers
outside the query path.

A node's extent holds the Dewey labels of all document nodes sharing
its path, each of depths[g] components.  All extents live in one store,
built in one pass and laid out as in the index file: comps holds each
extent as a dense len × depths[g] int64 block, strictly sorted, the
blocks back to back in gid order from comp_start[g].  The extent of g
is rows start[g] : start[g + 1], so a row's index is its global row id;
byte_lens[i] is row i's size in dewey's byte code (dewey.encoded_lens).
Two more int64 arrays per row, never serialized, let a row id stand for
its label: pos[i], row i's document position (label order is document
order), and up[i], the row id of its parent label (-1 for the root);
ancestors walks up to any level.  A guide loaded from tables or from an
index file starts from its node table (from_node_table) and takes a
filled store through adopt_store, which checks it and derives pos and
up (_check_store).  label_rows and label_block read labels as padded rows.

build makes the guide from an event stream with array steps after one
pass over the events (_shape, then the store) and rejects events out
of document order with boolean arrays (_unsound).  The first event at
fault gets the message of the first rule it breaks, in this order:
orphan, not sorted after, second root, does not extend (_rejection).

Extent access goes through read_extent, which returns the extent's
guide node, first row id and length, with views of the store made only
when read, so tests can spy on it to assert that guide-only phases
touch no extents.

Planning walks the guide downward, as on a DataGuide, through int32
arrays linear in the guide nodes that from_node_table derives after its
checks (never serialized).  The children of g are kids[kid_start[g + 1]
: kid_start[g + 2]], ordered by tag; g = -1 is the virtual document
node, the root's parent.  The pre-order ranks of g's subtree are pre[g]
: end[g] (XPath Accelerator's intervals; pre[-1] : end[-1] are the
virtual node's).  by_pre lists the gids in pre-order, and tag_pre[
tag_start[t] : tag_start[t + 1]] the ranks of tag t's nodes, ascending.
Branch evaluation and DataTable fitting both use walk, so no query
phase scans the whole guide.  path_tags walks up the node table.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, count
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .dewey import DeweyLabel, encoded_lens
from .document import NodeEvent, ingest
from .kernels import ranges
from .twig import DESCENDANT, WILDCARD, SingleBranchQuery, Step

_VIRTUAL = -1
_CHECK_EVENTS = 1 << 12  # events per step of build's label checks: bounds their temporaries


class GuideError(ValueError):
    """Structural problem in the events or tables (orphan, unsorted extent)."""


def _shape(depth: np.ndarray, tid: np.ndarray, n_tags: int):
    """The tree of a sound event stream (one root, then no event more than
    one level below the event before it) from its depths and tag ids.

    A stable sort by depth keeps each depth's events in document order, so
    an event's parent is the last event one level up before it
    (searchsorted), and its previous sibling the event before it at its
    depth when that one follows the parent.  Guide nodes come one depth at
    a time from np.unique of (parent node, tag id), renumbered by first
    event.  Returns order (depth t at order[bound[t]:bound[t + 1]]), bound,
    per event its parent, previous sibling (-1 for none) and gid, and per
    gid its tag id and parent.
    """
    order = np.argsort(depth, kind="stable").astype(np.int32)
    bound = np.concatenate([[0], np.cumsum(np.bincount(depth))])
    parent = np.full(len(depth), _VIRTUAL, dtype=np.int32)
    sib = np.full(len(depth), _VIRTUAL, dtype=np.int32)
    node = np.zeros(len(depth), dtype=np.int32)  # numbered depth by depth for now
    first, up = [np.zeros(1, np.int32)], [np.full(1, _VIRTUAL, np.int32)]  # per node
    n_nodes = 1
    for t in range(1, len(bound) - 1):
        ks, above = order[bound[t] : bound[t + 1]], order[bound[t - 1] : bound[t]]
        parent[ks] = pk = above[np.searchsorted(above, ks) - 1]
        sib[ks[1:]] = np.where(ks[:-1] > pk[1:], ks[:-1], _VIRTUAL)
        key = node[pk].astype(np.int64) * n_tags + tid[ks]
        _, at, inv = np.unique(key, return_index=True, return_inverse=True)
        node[ks] = inv + n_nodes
        n_nodes += len(at)
        first.append(ks[at])
        up.append(node[pk[at]])
    first, up = np.concatenate(first), np.concatenate(up)
    gid = np.empty(n_nodes, dtype=np.int32)  # in order of first event
    gid[np.argsort(first)] = np.arange(n_nodes, dtype=np.int32)
    node_tag, node_parent = np.empty(n_nodes, np.int32), np.empty(n_nodes, np.int64)
    node_tag[gid] = tid[first]
    node_parent[gid] = np.where(up >= 0, gid[up], _VIRTUAL)
    return order, bound, parent, sib, gid[node], node_tag, node_parent


def _unsound(comps, off, order, bound, parent, sib) -> np.ndarray:
    """The events whose label does not extend its parent event's label or
    whose last component does not exceed its previous sibling's; event k's
    label starts at comps[off[k]].  order and bound are _shape's.  Walks
    _CHECK_EVENTS events at a time in depth order, one component column at
    a time: column c is compared for the events deeper than c + 1."""
    bad = [np.zeros(0, np.int32)]
    for lo in range(bound[1], len(order), _CHECK_EVENTS):
        ks = order[lo : lo + _CHECK_EVENTS]
        at, above = off[ks], off[parent[ks]]
        flag = np.zeros(len(ks), dtype=bool)
        for t in range(2, len(bound) - 1):  # column t - 2, of the events t deep or more
            s = max(bound[t] - lo, 0)
            if s >= len(ks):
                break
            flag[s:] |= comps[at[s:]] != comps[above[s:]]
            at[s:] += 1
            above[s:] += 1
        has = np.flatnonzero(sib[ks] >= 0)  # at is now each label's last component
        last = at[has]
        flag[has] |= comps[last] <= comps[last - off[ks[has]] + off[sib[ks[has]]]]
        bad.append(ks[flag])
    return np.concatenate(bad)


def _rejection(k: int, labels: Sequence[DeweyLabel], depth: np.ndarray,
               parent: np.ndarray | None, sib: np.ndarray | None) -> str:
    """Why event k breaks document order, for a stream sound before k:
    the first of these rules that holds."""
    label = labels[k]
    above = depth[k - 1] if k else -1
    if depth[k] > above + 1:
        return f"orphan event at {label}: no parent on stack"
    if 0 < depth[k] <= above and labels[sib[k]] >= label:
        return f"event at {label} is not sorted after {labels[sib[k]]}"
    if depth[k] == 0:
        return "second root element in event stream"
    if label[:-1] != labels[parent[k]]:
        return f"event at {label} does not extend {labels[parent[k]]}"
    raise AssertionError("unreachable")


class GuideNode(NamedTuple):
    """One row of the node table."""

    gid: int
    tag: str
    parent: int  # -1 for the root
    depth: int  # Dewey level of the labels in this node's extent


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
        # the node table, set by from_node_table
        self.parents = self.tags = self.depths = np.empty(0, dtype=np.int32)
        self.tag_id: dict[str, int] = {}
        self.tag_names: list[str] = []
        # the planning arrays, derived by from_node_table
        self.kids = self.kid_start = self.pre = self.end = np.zeros(0, dtype=np.int32)
        self.by_pre = self.tag_pre = self.tag_start = np.zeros(0, dtype=np.int32)
        # the extent store, set by _set_store
        self.comps = np.zeros(0, dtype=np.int64)
        self.start = self.comp_start = np.zeros(1, dtype=np.int64)
        self.byte_lens = np.zeros(0, dtype=np.int64)
        self.pos = self.up = np.zeros(0, dtype=np.int64)  # set with the store

    # ------------------------------------------------------ construction

    @classmethod
    def build(cls, events: Iterable[NodeEvent]) -> "PathGuide":
        """The guide and store of an event stream in document order.

        One pass takes each event's components and tag; the rest are
        array steps: the tree and its guide nodes (gids in first-seen
        order) from a stable depth-major sort (_shape), pos from a stable
        sort by gid, and the gid-major store from the components.

        Raises GuideError at the first event that breaks document order,
        found with boolean arrays: a depth jump or a second root from the
        depths, then _unsound on the store.  Its message is that of the
        first rule the event breaks, in this order: orphan (more than one
        level below the event before it), not sorted after its previous
        sibling (whole labels compared), second root, does not extend its
        parent's label.
        """
        labels: list[DeweyLabel] = []  # per event, its label
        names: list[str] = []  # per event, its tag
        for ev in events:
            labels.append(ev.label)
            names.append(ev.tag)
        if not labels:
            raise GuideError("empty event stream")
        depth = np.fromiter(map(len, labels), np.int32, len(labels))
        if depth[0] != 0:
            raise GuideError(_rejection(0, labels, depth, None, None))
        # the sound prefix ends at a jump of more than one level or a second root
        fault = np.flatnonzero((depth[1:] > depth[:-1] + 1) | (depth[1:] == 0))
        m = int(fault[0]) + 1 if len(fault) else len(labels)
        tag_names = list(dict.fromkeys(names))  # in order of first use
        tag_id = {tag: i for i, tag in enumerate(tag_names)}
        tid = np.fromiter(map(tag_id.__getitem__, names), np.int32, m)
        del names
        order, bound, parent, sib, node, node_tag, node_parent = _shape(depth[:m], tid, len(tag_names))
        del tid
        pos = np.argsort(node, kind="stable")
        counts = np.bincount(node)  # every guide node has an event
        width = depth[pos]
        pg = cls.from_node_table([tag_names[t] for t in node_tag.tolist()], node_parent,
                                 width[np.cumsum(counts) - counts])
        off = np.empty(m, dtype=np.int64)  # per event, where its label starts in the store
        off[pos] = np.cumsum(width, dtype=np.int64) - width
        del node, width
        rows = np.fromiter(labels, dtype=object, count=m)[pos]  # row r: event pos[r]
        comps = np.fromiter(chain.from_iterable(rows), np.int64, counts @ pg.depths)
        del rows
        bad = _unsound(comps, off, order, bound, parent, sib)
        if len(bad) or m < len(labels):
            raise GuideError(_rejection(int(bad.min(initial=m)), labels, depth, parent, sib))
        del off, order, sib, labels, depth
        row = np.full(m + 1, -1, dtype=np.int64)  # row[-1] stands for no parent
        row[pos] = np.arange(m)
        pg.pos, pg.up = pos, row[parent[pos]]
        del row, parent
        pg._set_store(comps, counts)
        return pg

    @classmethod
    def build_from_xml(cls, data: bytes) -> "PathGuide":
        return cls.build(ingest(data))

    @classmethod
    def from_node_table(cls, tags: Sequence[str], parents: Sequence[int],
                        depths: Sequence[int]) -> "PathGuide":
        """A guide with this node table, per node its tag, parent and
        depth, and no store yet: nothing of size nodes x depth is made
        before the store comes.  Raises GuideError for an empty table (a
        guide has a root), at the first node whose parent is not an
        earlier node, that is a second root, or whose tag an earlier
        sibling has; then at the first node whose depth, the width of its
        extent's labels, is not its parent's plus one (0 for a root): the
        first whose depth differs from its distance to the root.
        """
        if not len(tags):
            raise GuideError("empty node table: no root")
        pg = cls()
        pg.tag_names = list(dict.fromkeys(tags))  # in order of first use
        pg.tag_id = {tag: i for i, tag in enumerate(pg.tag_names)}
        pg.tags = np.array(list(map(pg.tag_id.__getitem__, tags)), dtype=np.int32)
        parents = np.asarray(parents, dtype=np.int64)
        late = (parents < _VIRTUAL) | (parents >= np.arange(len(parents)))
        second_root = (parents == _VIRTUAL) & (np.arange(len(parents)) > 0)
        dup = np.ones(len(parents), dtype=bool)  # a (parent, tag) pair seen before
        kids = np.unique((parents + 1) * len(pg.tag_names) + pg.tags, return_index=True)[1]
        dup[kids] = False
        bad = late | second_root | dup
        if bad.any():
            g = int(np.argmax(bad))
            if late[g]:
                raise GuideError(f"guide node {g}: parent {parents[g]} is not an earlier node")
            if second_root[g]:
                raise GuideError("second root element in event stream")
            raise GuideError(f"duplicate child tag {tags[g]!r} under guide node {parents[g]}")
        depths = np.asarray(depths, dtype=np.int64)
        wrong = np.flatnonzero(depths != np.where(parents >= 0, depths[parents] + 1, 0))
        if len(wrong):
            raise GuideError(f"extent width mismatch for guide node {wrong[0]}")
        pg.parents, pg.depths = parents.astype(np.int32), depths.astype(np.int32)
        pg._derive_plan_arrays(kids.astype(np.int32))
        return pg

    def _derive_plan_arrays(self, kids: np.ndarray) -> None:
        """The planning arrays of a checked node table, from kids, all nodes
        by (parent, tag): subtree sizes summed bottom-up a depth at a time,
        then ranks top-down, each after its parent's and its earlier
        siblings' subtrees.  Past the last tag id T, tag_pre has an empty
        run (T: a tag the guide lacks) and one of all ranks (T + 1: *)."""
        n, parents = len(self), self.parents
        offsets = lambda counts: np.append(0, np.cumsum(counts)).astype(np.int32)  # noqa: E731
        levels = np.split(np.argsort(self.depths, kind="stable"),
                          np.cumsum(np.bincount(self.depths))[:-1])  # per depth, its nodes
        size = np.ones(n, dtype=np.int32)
        for at in levels[:0:-1]:
            np.add.at(size, parents[at], size[at])
        self.kids, self.kid_start = kids, offsets(np.bincount(parents + 1, minlength=n + 1))
        before = np.cumsum(size[kids]) - size[kids]  # the subtrees of the earlier kids
        skip = np.empty(n, dtype=np.int32)  # a node's rank after its parent's
        skip[kids] = before - before[self.kid_start[parents[kids] + 1]] + 1
        pre = np.full(n + 1, -1, dtype=np.int32)  # pre[-1]: the virtual document node
        for at in levels:
            pre[at] = pre[parents[at]] + skip[at]
        self.pre, self.end = pre, np.append(pre[:n] + size, n).astype(np.int32)
        self.by_pre = np.empty_like(kids)
        self.by_pre[pre[:n]] = np.arange(n)
        by_tag = np.argsort(self.tags[self.by_pre], kind="stable")
        self.tag_pre = np.append(by_tag, np.arange(n)).astype(np.int32)
        self.tag_start = offsets([*np.bincount(self.tags, minlength=len(self.tag_names) + 1), n])

    def adopt_store(self, comps: np.ndarray, counts: Sequence[int]) -> None:
        """Take a store filled outside build (from tables or an index file); check it."""
        self._set_store(comps, counts)
        self._check_store()

    def _set_store(self, comps: np.ndarray, counts: Sequence[int]) -> None:
        """Take the components and each extent's label count."""
        counts = np.asarray(counts, dtype=np.int64)
        self.comps, self.start = comps, np.concatenate([[0], np.cumsum(counts)])
        self.comp_start = np.concatenate([[0], np.cumsum(counts * self.depths)])
        self.byte_lens = encoded_lens(comps, np.repeat(self.depths, counts))
        self.comps.flags.writeable = self.byte_lens.flags.writeable = False

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
        """The node table's rows as GuideNodes, in gid order, made on first
        use for readers outside the query path."""
        tags = map(self.tag_names.__getitem__, self.tags.tolist())
        return list(map(GuideNode._make, zip(count(), tags, self.parents.tolist(),
                                              self.depths.tolist())))

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
        """The tags from the document element down to guide node gid, read
        up the node table's parents."""
        path = []
        while gid >= 0:
            path.append(self.tag_names[self.tags.item(gid)])
            gid = self.parents.item(gid)
        return tuple(reversed(path))

    def label_rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The label of each row id zero-padded in one int64 block, and its
        depth: row id -> guide node -> first component, then one take."""
        gids = np.searchsorted(self.start, ids, side="right") - 1
        depth = self.depths[gids]
        cols = np.arange(depth.max(initial=0))
        first = self.comp_start[gids] + (ids - self.start[gids]) * depth
        block = self.comps.take(first[:, None] + cols, mode="clip")
        return np.where(cols < depth[:, None], block, 0), depth

    def label_block(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct rows of ids as labels zero-padded in one int64 block, their
        depths, and each id's row in the block."""
        rows, at = np.unique(ids, return_inverse=True)
        return *self.label_rows(rows), at

    def ancestors(self, ids: np.ndarray, gids: np.ndarray, level: int | np.ndarray) -> np.ndarray:
        """Row id of each row's ancestor-or-self label at depth level (one
        for all rows, or level[i] for row i), for rows ids[i] of guide
        nodes gids[i] at least that deep.  pos of the result ranks the
        rows' level-prefixes exactly as the prefixes do."""
        steps = self.depths[gids] - level
        for s in range(steps.max(initial=0)):
            ids = np.where(steps > s, self.up[ids], ids)
        return ids

    # -------------------------------------------------------- evaluation

    def walk(self, steps: Sequence[Step], start) -> tuple[np.ndarray | None, np.ndarray]:
        """(s, e) pairs, one per guide node e whose tags below start node s
        (-1: the virtual document node) the steps consume exactly; start
        is distinct, and so are the pairs, in no set order.  start None
        walks from the virtual node and gives no origins.  A child step
        expands the children lists and keeps the tag; a descendant step
        takes the tag's ranks in the intervals of each origin's topmost
        nodes (_topmost).  No extent is read."""
        if start is None:
            origin, node = None, np.full(1, _VIRTUAL, dtype=np.intp)
        else:
            origin = node = np.asarray(start, dtype=np.intp)
        nested = False  # whether a node may lie below another of its origin
        for step in steps:
            t = (len(self.tag_names) + 1 if step.test == WILDCARD
                 else self.tag_id.get(step.test, len(self.tag_names)))
            if step.axis == DESCENDANT:
                if nested:
                    origin, node = _topmost(self, origin, node)
                ranks = self.tag_pre[self.tag_start[t] : self.tag_start[t + 1]]
                lo, hi = ranks.searchsorted(self.pre[node] + 1), ranks.searchsorted(self.end[node])
                origin, at = _expand(origin, lo, hi)
                node, nested = self.by_pre[ranks[at]], True
            else:
                origin, at = _expand(origin, self.kid_start[node + 1], self.kid_start[node + 2])
                node = self.kids[at]
                if step.test != WILDCARD:
                    keep = self.tags[node] == t
                    origin, node = None if origin is None else origin[keep], node[keep]
        return origin, node

    def eval_single_branch(self, q: SingleBranchQuery | Sequence[Step]) -> list[int]:
        """Guide nodes whose root path matches the branch, ascending."""
        steps = q.steps if isinstance(q, SingleBranchQuery) else tuple(q)
        return np.sort(self.walk(steps, None)[1]).tolist() if steps else []


def _expand(origin: np.ndarray | None, lo: np.ndarray, hi: np.ndarray):
    """origin[i] once per position of lo[i]:hi[i], and the positions."""
    return None if origin is None else np.repeat(origin, hi - lo), ranges(lo, hi)


def _topmost(pg: PathGuide, origin: np.ndarray | None, node: np.ndarray):
    """The (origin, node) pairs whose node lies below no other pair's node
    of the same origin, by origin, then pre-order: a pair stays when its
    rank reaches the furthest subtree end before it, each origin's ranks
    and ends lifted above the last origin's."""
    lift = 0 if origin is None else origin * (len(pg) + 1)
    key = lift + pg.pre[node]
    order = np.argsort(key)
    key, stop = key[order], (lift + pg.end[node])[order]
    keep = np.ones(len(key), dtype=bool)
    keep[1:] = key[1:] >= np.maximum.accumulate(stop)[:-1]
    order = order[keep]
    return None if origin is None else origin[order], node[order]
