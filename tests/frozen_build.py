"""PathGuide.build as it walked the events in a Python loop, before the
build moved to array steps.  Kept verbatim as the oracle for the array
build, but for the node depths that PathGuide.from_node_table now
takes: on every event stream both must give the same node table
and store, or raise GuideError with the same message.
"""

from array import array
from itertools import chain

import numpy as np

from twigjoin.dewey import DeweyLabel
from twigjoin.path_guide import GuideError, PathGuide

_VIRTUAL = -1


def build(events) -> PathGuide:
    node_of: dict[tuple[str, int], int] = {}  # (tag, parent gid) -> gid
    stack: list[tuple[DeweyLabel, int, int]] = []  # (label, gid, event), the last per depth
    gids = array("q")  # per event, its guide node
    parents = array("q")  # per event, its parent's event (-1 for the root)
    labels: list[tuple[int, ...]] = []  # per event, its components

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
        labels.append(comps)
        gids.append(gid)
        parents.append(parent_k)
        stack.append((ev.label, gid, k))

    if not node_of:
        raise GuideError("empty event stream")
    depths: list[int] = []  # per guide node; a parent comes before its children
    for _, parent_gid in node_of:
        depths.append(depths[parent_gid] + 1 if parent_gid >= 0 else 0)
    pg = PathGuide.from_node_table(*zip(*node_of), depths)
    # the store is gid-major: a stable sort by guide node takes each
    # row to its event, whose index is the row's document position
    gids = np.frombuffer(gids, np.int64)
    pg.pos = np.argsort(gids, kind="stable")
    row = np.full(len(gids) + 1, -1, dtype=np.int64)  # row[-1] stands for no parent
    row[pg.pos] = np.arange(len(gids))
    pg.up = row[np.frombuffer(parents, np.int64)[pg.pos]]
    counts = np.bincount(gids, minlength=len(pg))
    del gids, parents, row
    labels = np.fromiter(labels, dtype=object, count=len(labels))[pg.pos]  # row r: event pos[r]
    comps = np.fromiter(chain.from_iterable(labels), np.int64, counts @ pg.depths)
    del labels  # before the store's temporaries
    pg._set_store(comps, counts)
    return pg
