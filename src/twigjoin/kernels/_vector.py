"""The multiway merge as whole-array numpy steps.

It computes exactly what :func:`twigjoin.kernels._impl.multiway_merge`
computes, output and counters alike, without a per-row loop.  With 1-D
keys, every round of that kernel starts with each list's cursor at its
successor of some key x (its first position with key >= x; x = 0 at
the start), so a round is fixed by x alone:

* ``v`` is the largest key under the cursors.  If every list holds
  ``v`` there, the round emits a run and the next round starts at
  ``v + 1``; otherwise the lagging lists jump and it starts at ``v``.
* The merge stops after the round whose next cursors leave some list
  at its end.

One count of the keys per list gives the successors for every x,
pointer doubling gives the orbit of rounds from the first, and every probe
of a jump or run scan is a closed-form function of its cursor, target
and list end, which the counters and ``touched`` are built from.  This is the
max-of-successors walk of leapfrog triejoin (Veldhuizen, ICDT 2014).

Segments (see :mod:`twigjoin.kernels`) hold disjoint, increasing key
ranges, and a list's segments lie back to back, so each list is one
sorted run whose successor table serves all its segments.  The round
that would end a segment's merge hops instead to the next live
segment's first round, as a segmented scan restarts at a segment's head
(Blelloch, "Prefix sums and their applications", 1990): one orbit walks
every segment.
"""

from __future__ import annotations

import numpy as np


def _gallop_probes(r: np.ndarray, t: np.ndarray, end: np.ndarray) -> list[np.ndarray]:
    """The positions each galloping lower-bound search probes, all
    searches at once: from cursor r (its key below the bound) to t,
    the first position at or past the bound, within end."""
    probes = []
    low, high = r.copy(), end.copy()
    live = np.arange(len(r))
    step = 1
    while live.size:  # gallop: probe r + 2**i - 1 until one reaches t
        p = low[live] + step
        inside = p < end[live]
        live, p = live[inside], p[inside]
        probes.append(p)
        hit = p >= t[live]
        high[live[hit]] = p[hit]
        low[live[~hit]] = p[~hit]
        live = live[~hit]
        step <<= 1
    live = np.flatnonzero(low + 1 < high)
    while live.size:  # binary search on (low, high): t is in (low, high]
        mid = (low[live] + high[live]) >> 1
        probes.append(mid)
        hit = mid >= t[live]
        high[live[hit]] = mid[hit]
        low[live[~hit]] = mid[~hit]
        live = live[low[live] + 1 < high[live]]
    return probes


def ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Every position of the ranges [lo, hi), back to back; lo may be one
    number for all of them."""
    n = hi - lo
    return np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)


def multiway_merge(keys, offsets, use_jump, touched, reads_out):
    """Drop-in for :func:`twigjoin.kernels._impl.multiway_merge`: the
    same ``(out, count, comps, jumps)``, ``touched`` and ``reads_out``.

    ``offsets`` are slot-major (see :mod:`twigjoin.kernels`), and the
    keys of each segment must lie below those of the next."""
    k = len(reads_out)
    heads = offsets[:-1].reshape(k, -1).T  # [segment, list]
    ends = offsets[1:].reshape(k, -1).T
    live = (ends > heads).all(axis=1)
    if not live.any():
        return np.empty((0, 2 * k), dtype=np.int64), 0, 0, 0
    slots = offsets[:: len(live)]  # where each list starts, then where the last one ends
    lists = np.repeat(np.arange(k), np.diff(slots))
    n_keys = int(keys.max()) + 1
    # a live segment's heads, ends, first key and each list's last key
    heads, ends = heads[live], ends[live]
    lo = keys[heads].min(axis=1)
    last = keys[ends - 1]

    # succ[j, x]: list j's first position with key >= x, for x in 0..n_keys:
    # its head plus the count of its keys below x
    below = np.bincount(lists * (n_keys + 1) + keys + 1, minlength=k * (n_keys + 1))
    below = below.reshape(k, n_keys + 1)
    below[:, 0] = slots[:-1]
    succ = np.cumsum(below, axis=1)
    # the key under each cursor; any value for a cursor at its list's end,
    # as such a round is never run
    under = np.append(keys, 0)[succ]
    top = under.max(axis=0)
    is_run = under.min(axis=0) == top
    nxt = top + is_run

    def of_round(a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """a's row for each round x's live segment; with one, its row for all."""
        return a if len(lo) == 1 else a[np.searchsorted(lo, x, "right") - 1]

    # The orbit by pointer doubling: a round whose successor lies past its
    # segment's least last key leaves a list at its end, so it leads to
    # the next live segment's first round, the last one to the sink
    # n_keys; path holds the first 2**i rounds after i doublings.  Rounds
    # start at increasing x, so there are at most n_keys of them.
    x = np.arange(n_keys + 1)
    after = np.append(lo[1:], n_keys)
    hop = np.where(nxt > of_round(last.min(axis=1), x), of_round(after, x), nxt)
    hop[n_keys] = n_keys
    path = lo[:1]
    while path[-1] != n_keys and len(path) <= n_keys:
        path = np.concatenate([path, hop[path]])
        hop = hop[hop]
    orbit = path[path != n_keys]

    # A run round scans each list from its cursor to its first key past
    # the run; a lag round jumps each lagging list to its successor of
    # the round's top key.  Both stop at the end of the round's segment.
    runs = orbit[is_run[orbit]]
    lags = orbit[~is_run[orbit]]
    first = succ[:, runs].T
    stop = succ[:, top[runs] + 1].T
    probes = [ranges((first + 1).ravel(), np.minimum(stop + 1, of_round(ends, runs)).ravel())]
    lagging = under[:, lags] < top[lags]
    r = succ[:, lags][lagging]
    t = succ[:, top[lags]][lagging]
    end = np.broadcast_to(of_round(ends, lags).T, lagging.shape)[lagging]
    if use_jump:
        probes += _gallop_probes(r, t, end)
        jumps = len(r)
    else:
        probes.append(ranges(r + 1, np.minimum(t + 1, end)))
        jumps = 0
    probes = np.concatenate(probes)

    touched[heads] = 1
    touched[probes] = 1
    reads_out += len(heads) + np.bincount(lists[probes], minlength=k)
    comps = len(orbit) * (2 * k - 1) + len(probes)
    return np.hstack([first, stop]), len(runs), comps, jumps
