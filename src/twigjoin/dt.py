"""DataTables: the search plan compiled from guide-level evaluation.

A DataTable belongs to one JP and holds one record per JP guide node g
that can witness it.  Per slot (branch end or nested child JP), the
record lists every guide node that fits under g; at evaluation time
any choice of one end per slot means "merge these extent lists on
equality of their jp_level-prefixes".  A DTSchema chains the tables
deepest-JP-first.

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

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .path_guide import PathGuide
from .twig import Decomposition, JPDescriptor, Step, jp_order, steps_to_str


@dataclass(frozen=True)
class DTRecord:
    ends: tuple[tuple[int, ...], ...]  # per slot, the GuideIds fitting jp_guide
    jp_level: int  # document depth of the JP occurrence
    jp_guide: int  # GuideId of the matched JP guide node


@dataclass(frozen=True)
class SlotSpec:
    kind: str  # "leaf" | "nested"
    steps: tuple[Step, ...]  # steps below the JP down to the slot target
    leaf_id: int | None = None  # branch id for leaf slots
    child_table: int | None = None  # DTSchema table index for nested slots


@dataclass
class DataTable:
    jp: JPDescriptor
    slots: tuple[SlotSpec, ...]
    records: list[DTRecord]


@dataclass
class DTSchema:
    tables: list[DataTable]  # deepest JP first; last table is the top JP

    @property
    def is_empty(self) -> bool:
        return any(not t.records for t in self.tables)


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
    # group kind "jp" becomes slot kind "nested": the slot consumes a
    # table, not the twig node itself
    slots = tuple(
        SlotSpec(
            kind="leaf" if g.kind == "leaf" else "nested",
            steps=g.steps,
            leaf_id=g.leaf_id,
        )
        for g in jp.groups
    )
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
    order = np.lexsort((end, slot, g))
    g, slot, end = g[order], slot[order], end[order]
    # one run per (g, slot); g has a record when it has a run per slot
    new_run = np.ones(len(g), dtype=bool)
    new_run[1:] = (g[1:] != g[:-1]) | (slot[1:] != slot[:-1])
    starts = np.flatnonzero(new_run)
    jps, first, n_slots = np.unique(g[starts], return_index=True, return_counts=True)
    jps, first = jps[n_slots == m], first[n_slots == m]
    end, bounds = end.tolist(), starts.tolist() + [len(end)]
    runs = [tuple(end[a:b]) for a, b in zip(bounds, bounds[1:])]
    records = [
        DTRecord(tuple(runs[r : r + m]), level, jp_guide)
        for r, level, jp_guide in zip(first.tolist(), pg.depths[jps].tolist(), jps.tolist())
    ]
    return DataTable(jp, slots, records)


def build_dt_schema(pg: PathGuide, d: Decomposition) -> DTSchema:
    """One DataTable per JP, deepest first, nested slots linked.

    A nested slot's candidates are the distinct jp_guide values of the
    child JP's table, which is always built first because a child JP
    sits strictly deeper in the twig.
    """
    if not d.jps:
        raise ValueError("zero-JP query: no DT required")
    tables: list[DataTable] = []
    table_of: dict[int, int] = {}  # id(twig node) -> table index
    for jp in jp_order(d):
        results: list[Sequence[int]] = []
        links: list[int | None] = []
        for group in jp.groups:
            if group.kind == "leaf":
                results.append(pg.eval_single_branch(d.branches[group.leaf_id]))
                links.append(None)
            else:
                child_idx = table_of[id(group.jp_node)]
                results.append(sorted({r.jp_guide for r in tables[child_idx].records}))
                links.append(child_idx)
        table = build_dt(pg, results, jp)
        table.slots = tuple(
            replace(slot, child_table=link) for slot, link in zip(table.slots, links)
        )
        table_of[id(jp.node)] = len(tables)
        tables.append(table)
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
        for si, slot in enumerate(table.slots):
            if slot.kind == "leaf":
                target = f"branch {slot.leaf_id}"
            else:
                target = f"DT {slot.child_table + 1}"
            lines.append(f"  slot {si}: {slot.kind} -> {target}, tail {steps_to_str(slot.steps)}")
        lines.append(f"  records: {len(table.records)}")
        for rec in table.records[:max_records]:
            ends = ", ".join(" | ".join(map(path_str, slot)) for slot in rec.ends)
            lines.append(f"    ({ends}) level={rec.jp_level} jp={path_str(rec.jp_guide)}")
        hidden = len(table.records) - max_records
        if hidden > 0:
            lines.append(f"    ... {hidden} more")
    return "\n".join(lines)
