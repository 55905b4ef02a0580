"""Reference engines: a direct tree-walking matcher and a name-scan
baseline.

naive_match enumerates twig embeddings over a materialized document
tree.  It is the ground truth the merge engine is compared against.

leaf_scan_match is the baseline the DataTable approach is meant to
beat: per branch it reads every extent whose leaf tag merely has the
right name, filters by path afterwards, then joins branch candidates
at every admissible split level.  Its read counts cover the name
scans; the joins run on labels already in memory.

Both share no planning or matching code with the DataTable engine:
paths are tested one tag tuple at a time with twig.steps_match, not
with the guide's downward step walk, and guide paths and ancestors are
walked up the node table (parents, tags), not read off the planner's
arrays (children lists, pre-order intervals), so a fault in either
shows up as a disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator

import numpy as np

from .dewey import DeweyLabel
from .document import NodeEvent
from .matcher import MatchTuple
from .metrics import Metrics
from .path_guide import PathGuide
from .twig import (
    WILDCARD,
    Step,
    TwigPattern,
    split,
    steps_match,
    test_matches,
)


@dataclass
class DocNode:
    label: DeweyLabel
    tag: str
    children: list["DocNode"] = field(default_factory=list)


@dataclass
class MaterializedDoc:
    root: DocNode
    node_count: int

    @classmethod
    def from_events(cls, events: Iterable[NodeEvent]) -> "MaterializedDoc":
        root: DocNode | None = None
        stack: list[DocNode] = []
        count = 0
        for ev in events:
            node = DocNode(ev.label, ev.tag)
            count += 1
            depth = ev.label.level
            if depth == 0:
                if root is not None:
                    raise ValueError("second root element in event stream")
                root = node
            else:
                while len(stack) > depth:
                    stack.pop()
                stack[-1].children.append(node)
            del stack[depth:]
            stack.append(node)
        if root is None:
            raise ValueError("empty event stream")
        return cls(root, count)

    @classmethod
    def from_guide(cls, pg: PathGuide, metrics: Metrics | None = None) -> "MaterializedDoc":
        """Rebuild the whole document from the extents.

        Every extent is read in full; with a Metrics this charges the
        rebuild like the full scan it is.
        """
        items: list[tuple[DeweyLabel, str]] = []
        for gid, tag in enumerate(map(pg.tag_names.__getitem__, pg.tags.tolist())):
            ext = pg.read_extent(gid)
            if metrics is not None:
                metrics.nodes_read += len(ext)
                metrics.credit(np.arange(ext.first, ext.first + len(ext)), ext.byte_lens)
            items += [(DeweyLabel(row), tag) for row in ext.rows.tolist()]
        items.sort()
        return cls.from_events(NodeEvent(label, tag) for label, tag in items)

    def iter_nodes(self) -> Iterator[DocNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def _descendants(node: DocNode) -> Iterator[DocNode]:
    stack = list(reversed(node.children))
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


def naive_match(doc: MaterializedDoc, twig: TwigPattern) -> list[MatchTuple]:
    """Ground truth by direct embedding enumeration, memoized per
    (twig node, document node)."""
    leaf_index = {id(n): i for i, n in enumerate(twig.leaves())}
    memo: dict[tuple[int, DeweyLabel], list[dict[int, DeweyLabel]]] = {}

    def embeddings(tnode, dnode: DocNode) -> list[dict[int, DeweyLabel]]:
        if not test_matches(tnode.test, dnode.tag):
            return []
        key = (id(tnode), dnode.label)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if tnode.is_leaf():
            result = [{leaf_index[id(tnode)]: dnode.label}]
        else:
            per_child: list[list[dict[int, DeweyLabel]]] = []
            for c in tnode.children:
                cands = dnode.children if c.axis == "child" else _descendants(dnode)
                merged: list[dict[int, DeweyLabel]] = []
                for m in cands:
                    merged.extend(embeddings(c, m))
                if not merged:
                    per_child = []
                    break
                per_child.append(merged)
            result = []
            if per_child:
                for combo in product(*per_child):
                    assign: dict[int, DeweyLabel] = {}
                    for part in combo:
                        assign.update(part)
                    result.append(assign)
        memo[key] = result
        return result

    root_cands: Iterable[DocNode]
    if twig.root.axis == "child":
        root_cands = [doc.root]
    else:
        root_cands = doc.iter_nodes()

    seen: set[tuple[DeweyLabel, ...]] = set()
    for dnode in root_cands:
        for assign in embeddings(twig.root, dnode):
            seen.add(tuple(assign[i] for i in range(len(leaf_index))))
    return [MatchTuple(key) for key in sorted(seen)]


def _admissible_depths(pg: PathGuide, gid: int, tail: tuple[Step, ...]) -> dict[int, int]:
    """Per JP depth d such that gid's path below d matches the tail steps,
    gid's guide ancestor at d."""
    up = [gid]  # gid and its ancestors, walked up the parents
    while pg.parents.item(up[-1]) >= 0:
        up.append(pg.parents.item(up[-1]))
    path = pg.path_tags(gid)
    return {d: up[-1 - d] for d in range(len(path)) if steps_match(tail, path[d + 1 :])}


# A candidate item carried through the leaf-scan joins: the label it
# joins on, the guide node of that label, and the leaf assignment
# accumulated so far.
_Item = tuple[tuple[int, ...], int, dict[int, tuple[int, ...]]]


def leaf_scan_match(
    pg: PathGuide, twig: TwigPattern
) -> tuple[list[MatchTuple], Metrics]:
    """Name-indicator baseline: scan-by-tag, filter, then join."""
    metrics = Metrics()
    d = split(twig)
    with metrics.timed():
        cand: list[list[tuple[tuple[int, ...], int]]] = []
        for branch in d.branches:
            tag = branch.steps[-1].test
            if tag == WILDCARD:
                gids: Iterable[int] = range(len(pg))
            else:
                gids = np.flatnonzero(pg.tags == pg.tag_id.get(tag, -1)).tolist()
            items: list[tuple[tuple[int, ...], int]] = []
            for g in gids:
                ext = pg.read_extent(g)
                metrics.nodes_read += len(ext)
                metrics.credit(np.arange(ext.first, ext.first + len(ext)), ext.byte_lens)
                if steps_match(branch.steps, pg.path_tags(g)):
                    items += [(tuple(row), g) for row in ext.rows.tolist()]
            items.sort()
            cand.append(items)

        if not d.jps:
            labels = sorted({comps for comps, _ in cand[0]})
            return [MatchTuple((DeweyLabel(c),)) for c in labels], metrics

        streams: list[list[_Item]] = []  # per JP of d.jps, in that order
        for jp in d.jps:
            group_items: list[list[_Item]] = []
            for group in jp.groups:
                if group.child is None:
                    git: list[_Item] = [
                        (comps, g, {group.leaf_id: comps})
                        for comps, g in cand[group.leaf_id]
                    ]
                else:
                    git = streams[group.child]
                group_items.append(git)
            buckets: dict[tuple[int, tuple[int, ...], int], list[list[_Item]]] = {}
            m = len(jp.groups)
            trunk_ok: dict[int, bool] = {}
            for gi, git in enumerate(group_items):
                tail = jp.groups[gi].steps
                adm_cache: dict[int, dict[int, int]] = {}
                for comps, g, leaves in git:
                    adm = adm_cache.get(g)
                    if adm is None:
                        adm = _admissible_depths(pg, g, tail)
                        adm_cache[g] = adm
                    for lev, w in adm.items():
                        ok = trunk_ok.get(w)
                        if ok is None:
                            ok = steps_match(jp.trunk_steps, pg.path_tags(w))
                            trunk_ok[w] = ok
                        if not ok:
                            continue
                        key = (lev, comps[:lev], w)  # w follows from the prefix
                        buckets.setdefault(key, [[] for _ in range(m)])[gi].append(
                            (comps, g, leaves)
                        )
            out_items: list[_Item] = []
            for (lev, prefix, witness_gid), lists in sorted(buckets.items()):
                if any(not lst for lst in lists):
                    continue
                dedup: dict[tuple, _Item] = {}
                for combo in product(*lists):
                    leaves: dict[int, tuple[int, ...]] = {}
                    for _, _, part in combo:
                        leaves.update(part)
                    key = tuple(sorted(leaves.items()))
                    if key not in dedup:
                        dedup[key] = (prefix, witness_gid, leaves)
                out_items.extend(dedup.values())
            out_items.sort(key=lambda it: it[0])
            streams.append(out_items)

        top = streams[-1]
        final: dict[tuple[tuple[int, ...], ...], MatchTuple] = {}
        for _, _, leaves in top:
            key = tuple(leaves[i] for i in range(len(d.branches)))
            if key not in final:
                final[key] = MatchTuple(tuple(DeweyLabel(c) for c in key))
        return sorted(final.values(), key=lambda mt: mt.leaf_labels), metrics
