"""The scalar merge-join kernel over sorted key lists.

``multiway_merge`` is written in the subset of Python/numpy that numba's
nopython mode accepts, and it calls nothing else in the package, so
its galloping search is written out inline.  The numba backend
compiles it; the numpy backend runs, in its place, the vectorized merge
of :mod:`twigjoin.kernels._vector`, which the tests hold to this one.

Conventions:

* the kernel reads one int64 key per label, the dense rank of the
  label's join prefix among all rows of the call: keys compare exactly
  as the prefixes do, so every comparison is one scalar test.  It emits
  the runs of keys that every list holds, never the tuples they join;
* the lists come in segments, laid out slot-major in ``offsets`` (see
  :mod:`twigjoin.kernels`); the segment loop runs the merge once per
  segment, so no cursor, probe or run crosses a segment's end;
* ``touched`` is a uint8 flag array parallel to the rows; the kernel
  sets an entry to 1 whenever it materializes that row.
"""

from __future__ import annotations

import numpy as np


def multiway_merge(keys, offsets, use_jump, touched, reads_out):
    """Join k sorted key lists on key equality, segment by segment.

    ``keys`` holds the lists slot-major, as :mod:`twigjoin.kernels`
    states: list j's segments back to back, cut at ``offsets``.  Each
    segment is merged as a call of its own would merge it: a segment
    with an empty list is skipped unread, its cursors start at its heads
    and stop at its ends.  Emits, segment by segment, one row per maximal
    run of a key that every list of the segment holds, in key order:
    column j is the global position of list j's first row of the run,
    column k + j one past its last.  The joined tuples are the cross
    product of these ranges, which the kernel never writes.

    Returns ``(out, count, comps, jumps)``; per-list read counts are
    accumulated into ``reads_out``, per slot j across the segments.
    ``out`` has capacity >= count and must be sliced by the caller.
    """
    k = len(reads_out)
    n_seg = (len(offsets) - 1) // k
    comps = 0
    jumps = 0

    # every run holds at least one row of every list
    cap = offsets[n_seg] - offsets[0]
    for j in range(1, k):
        cap = min(cap, offsets[(j + 1) * n_seg] - offsets[j * n_seg])
    out = np.empty((cap, 2 * k), dtype=np.int64)
    count = 0

    cur = np.empty(k, dtype=np.int64)
    for s in range(n_seg):
        empty = False
        for j in range(k):
            cur[j] = offsets[j * n_seg + s]
            if cur[j] >= offsets[j * n_seg + s + 1]:
                empty = True
        if empty:
            continue
        for j in range(k):
            reads_out[j] += 1
            touched[cur[j]] = 1

        while True:
            # Locate the largest current key.
            mx = keys[cur[0]]
            for j in range(1, k):
                comps += 1
                if keys[cur[j]] > mx:
                    mx = keys[cur[j]]

            # Advance every list that lags behind it.
            lagging = False
            exhausted = False
            for j in range(k):
                r = cur[j]
                comps += 1
                if keys[r] >= mx:
                    continue
                lagging = True
                end = offsets[j * n_seg + s + 1]
                if use_jump:
                    # Galloping lower bound: first key >= max.
                    jumps += 1
                    low = r  # keys[low] < mx holds
                    high = end
                    step = 1
                    while low + step < high:
                        p = low + step
                        reads_out[j] += 1
                        touched[p] = 1
                        comps += 1
                        if keys[p] >= mx:
                            high = p
                            break
                        low = p
                        step <<= 1
                    while low + 1 < high:
                        mid = (low + high) >> 1
                        reads_out[j] += 1
                        touched[mid] = 1
                        comps += 1
                        if keys[mid] >= mx:
                            high = mid
                        else:
                            low = mid
                    cur[j] = high
                else:
                    p = r + 1
                    while p < end:
                        reads_out[j] += 1
                        touched[p] = 1
                        comps += 1
                        if keys[p] >= mx:
                            break
                        p += 1
                    cur[j] = p
                if cur[j] >= end:
                    exhausted = True
            if exhausted:
                break
            if lagging:
                continue

            # All current keys agree: delimit the run in every list and emit it.
            done = False
            for j in range(k):
                end = offsets[j * n_seg + s + 1]
                stop = cur[j] + 1
                while stop < end:
                    reads_out[j] += 1
                    touched[stop] = 1
                    comps += 1
                    if keys[stop] != mx:
                        break
                    stop += 1
                out[count, j] = cur[j]
                out[count, k + j] = stop
                cur[j] = stop
                if stop >= end:
                    done = True
            count += 1
            if done:
                break

    return out, count, comps, jumps
