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
* ``touched`` is a uint8 flag array parallel to the rows; the kernel
  sets an entry to 1 whenever it materializes that row.
"""

from __future__ import annotations

import numpy as np


def multiway_merge(keys, offsets, use_jump, touched, reads_out):
    """Join k sorted key lists on key equality.

    ``keys`` holds the lists back to back; list j occupies positions
    ``offsets[j]:offsets[j+1]``.  Emits one row per maximal run of a
    key that every list holds, in key order: column j is the global
    position of list j's first row of the run, column k + j one past
    its last.  The joined tuples are the cross product of these
    ranges, which the kernel never writes.

    Returns ``(out, count, comps, jumps)``; per-list read counts are
    accumulated into ``reads_out``.  ``out`` has capacity >= count and
    must be sliced by the caller.
    """
    k = len(offsets) - 1
    comps = 0
    jumps = 0

    # every run holds at least one row of every list
    out = np.empty((np.diff(offsets).min(), 2 * k), dtype=np.int64)
    count = 0

    cur = np.empty(k, dtype=np.int64)
    for j in range(k):
        cur[j] = offsets[j]
        if cur[j] >= offsets[j + 1]:
            return out, 0, comps, jumps
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
            end = offsets[j + 1]
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
            end = offsets[j + 1]
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
