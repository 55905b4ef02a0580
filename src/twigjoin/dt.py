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

A record exists only when every slot has at least one end.

Without (c) a branch end reachable through some other embedding of the
JP step could pair with a witness it does not actually sit under,
producing tuples the twig never matches; prefix merging at the data
level never re-checks tags, so the plan must be exact here.

(a) gives the JP guide nodes, pg.eval_single_branch of the trunk; (b)
and (c), one pg.walk per slot from them down its steps: each (g, e)
pair reached puts end e in g's slot.  Trunk and slot steps make up a
leaf's branch, so a leaf's end needs no more; a nested slot keeps the
ends its child table has records for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def build_dt(
    pg: PathGuide,
    candidates: Sequence[Sequence[int] | None],
    jp: JPDescriptor,
) -> DataTable:
    """Group the ends each slot's steps reach under every JP guide node.

    candidates[i], in the order of jp.groups, holds the GuideIds slot i
    may end at (a nested slot's child table records), or is None for no
    limit.  One record per JP guide node under which every slot has at
    least one end.
    """
    if len(candidates) != len(jp.groups):
        raise ValueError("one candidate list per JP child group required")
    m, n = len(jp.groups), len(pg)
    trunk = pg.eval_single_branch(jp.trunk_steps)
    trunk = np.fromiter(trunk, np.intp, len(trunk))
    # one key (g * m + slot) * n + end per end the slot's steps reach from
    # JP guide node g; the walk gives each pair once, so no key repeats
    keys = []
    for i, (group, allowed) in enumerate(zip(jp.groups, candidates)):
        at, ends = pg.walk(group.steps, trunk)
        if allowed is not None:
            fit = np.append(allowed, -1)[np.searchsorted(allowed, ends)] == ends
            at, ends = at[fit], ends[fit]
        keys.append((at * m + i) * n + ends)
    key = np.sort(np.concatenate(keys))
    # one run of keys per (g, slot); g has a record when it has a run per slot
    run = key // n
    new_run = np.ones(len(key), dtype=bool)
    new_run[1:] = run[1:] != run[:-1]
    jps, n_slots = np.unique(run[new_run] // m, return_counts=True)
    full = n_slots == m
    key = key[full[np.searchsorted(jps, run // m)]]
    return DataTable(jp, jps[full], np.column_stack([key // (m * n), key // n % m, key % n]))


def record_view(table: DataTable, pg: PathGuide) -> list[tuple]:
    """Per record, in order: its ends per slot, its level (the depth of
    its JP guide node) and its JP guide node, all as ints."""
    ends: dict[int, list[list[int]]] = {}
    for g, slot, end in table.ends.tolist():
        ends.setdefault(g, [[] for _ in table.jp.groups])[slot].append(end)
    return [(tuple(map(tuple, ends[g])), pg.depths.item(g), g) for g in table.records.tolist()]


def build_dt_schema(pg: PathGuide, d: Decomposition) -> DTSchema:
    """One DataTable per JP, in the order of d.jps (deepest first).

    A nested slot's candidates are the records (JP guide nodes) of the
    child JP's table, which is always built first because a child JP
    sits strictly deeper in the twig; a leaf slot has no candidate list.
    """
    if not d.jps:
        raise ValueError("zero-JP query: no DT required")
    tables: list[DataTable] = []
    for jp in d.jps:
        nested = [None if g.child is None else tables[g.child].records for g in jp.groups]
        tables.append(build_dt(pg, nested, jp))
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
