"""The jump search as a numba-compilable kernel that compared padded
label rows column by column, before it became a plain-Python search over
prefixes compared as lists.  Kept verbatim as the oracle for the new
search: both must return the same position and read the same rows.
"""


def jump_scan(rows, lo, hi, bound, plen, touched):
    """Find the first position in ``rows[lo:hi]`` whose ``plen``-prefix
    orders strictly after ``bound``.

    Returns ``(pos, reads)`` where ``pos == hi`` means no such row.
    Runs a galloping phase followed by a binary search; every probed
    row counts one read.
    """
    reads = 0
    if lo >= hi:
        return hi, reads

    # First row may already satisfy the bound.
    reads += 1
    touched[lo] = 1
    gt = False
    for c in range(plen):
        a = rows[lo, c]
        b = bound[c]
        if a != b:
            gt = a > b
            break
    if gt:
        return lo, reads

    # Gallop: rows[low] <= bound throughout; stop once a probe exceeds.
    low = lo
    high = hi
    step = 1
    while low + step < high:
        r = low + step
        reads += 1
        touched[r] = 1
        gt = False
        for c in range(plen):
            a = rows[r, c]
            b = bound[c]
            if a != b:
                gt = a > b
                break
        if gt:
            high = r
            break
        low = r
        step <<= 1

    # Binary search on (low, high): rows[low] <= bound < rows[high].
    while low + 1 < high:
        mid = (low + high) >> 1
        reads += 1
        touched[mid] = 1
        gt = False
        for c in range(plen):
            a = rows[mid, c]
            b = bound[c]
            if a != b:
                gt = a > b
                break
        if gt:
            high = mid
        else:
            low = mid
    return high, reads
