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

(b) and (c) are read off one step-matcher call per slot: column e of
pg.match_steps(slot steps, ends) has row d + 1 set exactly when the
steps consume e's path below depth d, and g is then anc[e, d]; (a) is
a mask over the guide nodes the JP's trunk matches.
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
    branch_results: Sequence[Sequence[int]],
    jp: JPDescriptor,
) -> DataTable:
    """Group branch end candidates under every matching JP guide node.

    branch_results[i] holds the candidate GuideIds for slot i, in the
    order of jp.groups.  One record per JP guide node under which every
    slot keeps at least one candidate.
    """
    if len(branch_results) != len(jp.groups):
        raise ValueError("one candidate list per JP child group required")
    m = len(jp.groups)
    jp_mask = pg.branch_mask(jp.trunk_steps)
    # one (g, slot, end) triple per end fitting JP guide node g; an end
    # fits g at exactly one depth, so no triple repeats
    g, slot, end = [], [], []
    for i, (group, ends) in enumerate(zip(jp.groups, branch_results)):
        ends = np.asarray(ends, dtype=np.int64)
        d, col = np.nonzero(pg.match_steps(group.steps, ends)[1:])
        at = pg.anc[ends[col], d]
        fit = jp_mask[at]
        g.append(at[fit])
        slot.append(np.full(fit.sum(), i))
        end.append(ends[col[fit]])
    g, slot, end = (np.concatenate(a) for a in (g, slot, end))
    rows = np.column_stack([g, slot, end])[np.lexsort((end, slot, g))]
    g, slot = rows[:, 0], rows[:, 1]
    # one run per (g, slot); g has a record when it has a run per slot
    new_run = np.ones(len(rows), dtype=bool)
    new_run[1:] = (g[1:] != g[:-1]) | (slot[1:] != slot[:-1])
    jps, n_slots = np.unique(g[new_run], return_counts=True)
    full = n_slots == m
    return DataTable(jp, jps[full], rows[full[np.searchsorted(jps, g)]])


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
    sits strictly deeper in the twig.
    """
    if not d.jps:
        raise ValueError("zero-JP query: no DT required")
    tables: list[DataTable] = []
    for jp in d.jps:
        results = [
            pg.eval_single_branch(d.branches[g.leaf_id]) if g.child is None
            else tables[g.child].records
            for g in jp.groups
        ]
        tables.append(build_dt(pg, results, jp))
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
