"""DataTables: the search plan compiled from guide-level evaluation.

A DataTable belongs to one JP and holds one record per JP guide node g
that can witness it.  Slot i is the JP's child group jp.groups[i]; per
slot (branch end or nested child JP), the record lists every guide node
that fits under g; at evaluation time any choice of one end per slot
means "merge these extent lists on equality of their prefixes at g's
depth", the record's level.  Both are arrays (DataTable); record_view
gives them as tuples.  A DTSchema holds one table per JP, in the order
of Decomposition.jps (deepest JP first), so a nested group's child
index is its child table's index too.

An end e sits in slot i of the record for g only when all three hold:

(a) g's root path matches the twig's root-to-JP pattern;
(b) g is a guide-ancestor-or-self of e;
(c) the part of e's root path below depth(g) matches slot i's steps
    below the JP.

Without (c) a branch end reachable through some other embedding of the
JP step could pair with a witness it does not actually sit under,
producing tuples the twig never matches; prefix merging at the data
level never re-checks tags, so the plan must be exact here.

build_dt_schema makes three passes over the tables, a full reducer
(Yannakakis, VLDB 1981) run on the guide:

1. Down, top JP first.  The top JP's guide nodes are its trunk's,
   pg.eval_single_branch; each slot is one pg.walk from its JP's guide
   nodes, each (g, e) pair reached putting end e in g's slot, which
   gives (a) to (c).  A nested slot's distinct ends are exactly its
   child JP's trunk nodes, so no other trunk is walked.
2. Up, deepest JP first.  A record needs an end in every slot, and a
   nested slot's ends must be among its child table's records.
3. Down again.  A child table keeps only the records, and their ends,
   that its parent's kept records name: no other can join an answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import runs
from .path_guide import PathGuide
from .twig import Decomposition, JPDescriptor, steps_to_str


@dataclass
class DataTable:
    """records holds one JP guide node per record, sorted; ends holds one
    (JP guide node, slot, end) row per end of a record, sorted and
    distinct, so a record's ends are one run of rows, slot by slot."""

    jp: JPDescriptor  # slot i is jp.groups[i]
    records: np.ndarray  # (records,) int64
    ends: np.ndarray  # (ends, 3) int64


@dataclass
class DTSchema:
    tables: list[DataTable]  # deepest JP first; last table is the top JP

    @property
    def is_empty(self) -> bool:
        return any(len(t.records) == 0 for t in self.tables)


def record_view(table: DataTable, pg: PathGuide) -> list[tuple]:
    """Per record, in order: its ends per slot, its level (the depth of
    its JP guide node) and its JP guide node, all as ints."""
    ends: dict[int, list[list[int]]] = {}
    for g, slot, end in table.ends.tolist():
        ends.setdefault(g, [[] for _ in table.jp.groups])[slot].append(end)
    return [(tuple(map(tuple, ends[g])), pg.depths.item(g), g) for g in table.records.tolist()]


def build_dt_schema(pg: PathGuide, d: Decomposition) -> DTSchema:
    """One DataTable per JP, in the order of d.jps (deepest first), fully
    reduced: see the module docstring for the three passes."""
    if not d.jps:
        raise ValueError("zero-JP query: no DT required")
    n = len(pg)  # sets of guide nodes are counts per node: np.unique and np.isin would sort
    nodes = [None] * len(d.jps)  # per JP, its guide nodes, distinct
    nodes[-1] = np.array(pg.eval_single_branch(d.jps[-1].trunk_steps), dtype=np.intp)
    walks = [None] * len(d.jps)  # per JP, per slot, its (g, end) pairs
    for t in reversed(range(len(d.jps))):  # a parent sits after its children
        walks[t] = [pg.walk(group.steps, nodes[t]) for group in d.jps[t].groups]
        for group, (_, ends) in zip(d.jps[t].groups, walks[t]):
            if group.child is not None:
                nodes[group.child] = np.flatnonzero(np.bincount(ends, minlength=n))
    tables: list[DataTable] = []
    for jp, slots in zip(d.jps, walks):
        # one key (g * m + slot) * n + end per pair; the walk gives each once
        m, keys = len(jp.groups), []
        for i, (group, (at, ends)) in enumerate(zip(jp.groups, slots)):
            if group.child is not None:
                fit = np.bincount(tables[group.child].records, minlength=n)[ends] > 0
                at, ends = at[fit], ends[fit]
            keys.append((at * m + i) * n + ends)
        key = np.sort(np.concatenate(keys))
        # one run of keys per (g, slot); g has a record when it has a run per slot
        run = key // n
        jps, n_slots = np.unique(run[runs(run[:, None])[0]] // m, return_counts=True)
        full = n_slots == m
        key = key[full[np.searchsorted(jps, run // m)]]
        tables.append(DataTable(jp, jps[full], np.column_stack([key // (m * n), key // n % m, key % n])))
    for table in reversed(tables):  # parents first, each already reduced
        for i, group in enumerate(table.jp.groups):
            if group.child is not None:
                named = np.bincount(table.ends[table.ends[:, 1] == i, 2], minlength=n) > 0
                child = tables[group.child]
                child.records = child.records[named[child.records]]
                child.ends = child.ends[named[child.ends[:, 0]]]
    return DTSchema(tables)


def explain(schema: DTSchema, pg: PathGuide, max_records: int = 50) -> str:
    """Human-readable plan: tables, slots, one record per JP guide node."""

    def path_str(gid: int) -> str:
        return "/".join(pg.path_tags(gid))

    lines: list[str] = []
    for ti, table in enumerate(schema.tables):
        jp = table.jp
        lines.append(
            f"DT {ti + 1} @ {jp.node.test} "
            f"(twig depth {jp.depth}, pattern {steps_to_str(jp.trunk_steps)})"
        )
        for si, group in enumerate(jp.groups):
            if group.child is None:
                target = f"leaf -> branch {group.leaf_id}"
            else:
                target = f"nested -> DT {group.child + 1}"
            lines.append(f"  slot {si}: {target}, tail {steps_to_str(group.steps)}")
        lines.append(f"  records: {len(table.records)}")
        for ends, level, jp_guide in record_view(table, pg)[:max_records]:
            ends = ", ".join(" | ".join(map(path_str, slot)) for slot in ends)
            lines.append(f"    ({ends}) level={level} jp={path_str(jp_guide)}")
        hidden = len(table.records) - max_records
        if hidden > 0:
            lines.append(f"    ... {hidden} more")
    return "\n".join(lines)
