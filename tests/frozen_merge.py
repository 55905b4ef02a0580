"""The multiway merge kernel as it compared label prefixes column by
column, before the kernel moved to prefix ranks.  Kept verbatim as the
oracle for the rank-based kernel: both must produce the same output and
the same read, touch, comparison and jump counts on every input.
"""

import numpy as np


def multiway_merge(stacked, offsets, plen, use_jump, touched, reads_out):
    """Join k sorted label lists on equality of their ``plen``-prefixes.

    ``stacked`` holds the lists back to back; list j occupies rows
    ``offsets[j]:offsets[j+1]``.  Emits the cross product of every
    maximal equal-prefix run, as rows of global indices into
    ``stacked`` with list 0 in column 0, varying the last list fastest,
    so the output is sorted by the corresponding label tuples.

    Returns ``(out, count, comps, jumps)``; per-list read counts are
    accumulated into ``reads_out``.  ``out`` has capacity >= count and
    must be sliced by the caller.
    """
    k = len(offsets) - 1
    comps = 0
    jumps = 0

    cap = 16
    out = np.empty((cap, k), dtype=np.int64)
    count = 0

    cur = np.empty(k, dtype=np.int64)
    for j in range(k):
        cur[j] = offsets[j]
        if cur[j] >= offsets[j + 1]:
            return out, 0, comps, jumps
    for j in range(k):
        reads_out[j] += 1
        touched[cur[j]] = 1

    run_end = np.empty(k, dtype=np.int64)
    idx = np.empty(k, dtype=np.int64)

    while True:
        # Locate the largest current prefix.
        mx = cur[0]
        for j in range(1, k):
            r = cur[j]
            comps += 1
            gt = False
            for c in range(plen):
                a = stacked[r, c]
                b = stacked[mx, c]
                if a != b:
                    gt = a > b
                    break
            if gt:
                mx = r

        # Advance every list that lags behind it.
        lagging = False
        exhausted = False
        for j in range(k):
            r = cur[j]
            comps += 1
            lt = False
            for c in range(plen):
                a = stacked[r, c]
                b = stacked[mx, c]
                if a != b:
                    lt = a < b
                    break
            if not lt:
                continue
            lagging = True
            end = offsets[j + 1]
            if use_jump:
                # Galloping lower bound: first row with prefix >= max.
                jumps += 1
                low = r  # stacked[low] < bound holds
                high = end
                step = 1
                while low + step < high:
                    p = low + step
                    reads_out[j] += 1
                    touched[p] = 1
                    comps += 1
                    ge = True
                    for c in range(plen):
                        a = stacked[p, c]
                        b = stacked[mx, c]
                        if a != b:
                            ge = a > b
                            break
                    if ge:
                        high = p
                        break
                    low = p
                    step <<= 1
                while low + 1 < high:
                    mid = (low + high) >> 1
                    reads_out[j] += 1
                    touched[mid] = 1
                    comps += 1
                    ge = True
                    for c in range(plen):
                        a = stacked[mid, c]
                        b = stacked[mx, c]
                        if a != b:
                            ge = a > b
                            break
                    if ge:
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
                    lt = False
                    for c in range(plen):
                        a = stacked[p, c]
                        b = stacked[mx, c]
                        if a != b:
                            lt = a < b
                            break
                    if not lt:
                        break
                    p += 1
                cur[j] = p
            if cur[j] >= end:
                exhausted = True
        if exhausted:
            break
        if lagging:
            continue

        # All current prefixes agree: delimit the run in every list.
        total = 1
        for j in range(k):
            end = offsets[j + 1]
            stop = cur[j] + 1
            while stop < end:
                reads_out[j] += 1
                touched[stop] = 1
                comps += 1
                eq = True
                for c in range(plen):
                    if stacked[stop, c] != stacked[cur[j], c]:
                        eq = False
                        break
                if not eq:
                    break
                stop += 1
            run_end[j] = stop
            total *= stop - cur[j]

        # Grow the output buffer to hold the whole cross product.
        if count + total > cap:
            while cap < count + total:
                cap <<= 1
            grown = np.empty((cap, k), dtype=np.int64)
            grown[:count] = out[:count]
            out = grown

        # Odometer over the runs, last list fastest.
        for j in range(k):
            idx[j] = cur[j]
        for _ in range(total):
            for j in range(k):
                out[count, j] = idx[j]
            count += 1
            j = k - 1
            while j >= 0:
                idx[j] += 1
                if idx[j] < run_end[j]:
                    break
                idx[j] = cur[j]
                j -= 1

        done = False
        for j in range(k):
            cur[j] = run_end[j]
            if cur[j] >= offsets[j + 1]:
                done = True
        if done:
            break

    return out, count, comps, jumps
