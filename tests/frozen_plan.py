"""The planner as it was before planning walked the guide downward, kept
as an oracle for PathGuide.walk, eval_single_branch and
dt.build_dt_schema.  It reduces the plan bottom-up only: a child table
keeps records that no parent record names.

It derives two int32 matrices from the node table: anc[g, d], the
ancestor of g at depth d, and tag_paths[d, g], the tag id of anc[g, d]
(both -1 below g).  match_steps runs a step sequence backwards over the
ends' tag-path columns, branch_mask keeps the guide nodes whose whole
path the steps consume, and build_dt fits each slot's candidates to
the JP guide nodes read off anc.  Leaf slots take their whole branch's
guide nodes as candidates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from twigjoin.dt import DataTable, DTSchema
from twigjoin.path_guide import PathGuide
from twigjoin.twig import DESCENDANT, WILDCARD, Decomposition, JPDescriptor, Step

_NO_TAG = -2


class FrozenPlanner:
    def __init__(self, pg: PathGuide) -> None:
        self.pg = pg
        self.anc = np.full((len(pg), pg.depths.max(initial=0) + 1), -1, dtype=np.int32)
        for d in range(self.anc.shape[1]):
            at = np.flatnonzero(pg.depths == d)
            self.anc[at, :d] = self.anc[pg.parents[at], :d]
            self.anc[at, d] = at
        self.tag_paths = np.where(self.anc >= 0, pg.tags[self.anc], -1).T.copy()

    def match_steps(self, steps: Sequence[Step], ends: np.ndarray) -> np.ndarray:
        """M[x, i]: the steps consume exactly the tags from depth x down to
        ends[i] itself; shape (max depth + 2, len(ends))."""
        pg = self.pg
        paths = np.take(self.tag_paths, ends, axis=1)
        reach = np.zeros((len(paths) + 1, len(ends)), dtype=bool)
        after = np.arange(len(paths))[:, None] == pg.depths[ends]  # no steps left
        for step in reversed(steps):
            if step.test == WILDCARD:
                hit = paths >= 0
            else:
                hit = paths == pg.tag_id.get(step.test, _NO_TAG)
            hit &= after
            if step.axis == DESCENDANT:
                for x in range(len(hit) - 2, -1, -1):
                    hit[x] |= hit[x + 1]
            reach[:-1] = hit
            after = reach[1:]
        return reach

    def branch_mask(self, steps: Sequence[Step]) -> np.ndarray:
        """Per guide node, whether its root path matches the steps."""
        pg = self.pg
        steps = tuple(steps)
        if not steps:
            return np.zeros(len(pg), dtype=bool)
        keep = pg.depths >= len(steps) - 1
        if steps[-1].test != WILDCARD:
            keep &= pg.tags == pg.tag_id.get(steps[-1].test, _NO_TAG)
        keep[keep] = self.match_steps(steps, np.flatnonzero(keep))[0]
        return keep

    def eval_single_branch(self, steps: Sequence[Step]) -> list[int]:
        return np.flatnonzero(self.branch_mask(steps)).tolist()

    def build_dt(self, branch_results: Sequence[Sequence[int]], jp: JPDescriptor) -> DataTable:
        m = len(jp.groups)
        jp_mask = self.branch_mask(jp.trunk_steps)
        g, slot, end = [], [], []
        for i, (group, ends) in enumerate(zip(jp.groups, branch_results)):
            ends = np.asarray(ends, dtype=np.int64)
            d, col = np.nonzero(self.match_steps(group.steps, ends)[1:])
            at = self.anc[ends[col], d]
            fit = jp_mask[at]
            g.append(at[fit])
            slot.append(np.full(fit.sum(), i))
            end.append(ends[col[fit]])
        g, slot, end = (np.concatenate(a) for a in (g, slot, end))
        rows = np.column_stack([g, slot, end])[np.lexsort((end, slot, g))]
        g, slot = rows[:, 0], rows[:, 1]
        new_run = np.ones(len(rows), dtype=bool)
        new_run[1:] = (g[1:] != g[:-1]) | (slot[1:] != slot[:-1])
        jps, n_slots = np.unique(g[new_run], return_counts=True)
        full = n_slots == m
        return DataTable(jp, jps[full], rows[full[np.searchsorted(jps, g)]])

    def build_dt_schema(self, d: Decomposition) -> DTSchema:
        tables: list[DataTable] = []
        for jp in d.jps:
            results = [
                self.eval_single_branch(d.branches[g.leaf_id].steps) if g.child is None
                else tables[g.child].records
                for g in jp.groups
            ]
            tables.append(self.build_dt(results, jp))
        return DTSchema(tables)
