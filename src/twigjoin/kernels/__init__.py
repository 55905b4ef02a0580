"""Kernel backends, and the jump search over a label list.

``numba`` compiles the scalar merge of :mod:`twigjoin.kernels._impl`
with ``@njit``.  ``numpy`` runs the vectorized merge of
:mod:`twigjoin.kernels._vector`, which retraces the scalar merge's
cursors exactly.  Results and counters are identical on both.  Both
stay importable side by side so they can be compared on identical
inputs; the ``TWIGJOIN_KERNELS`` environment variable picks which one
evaluators use by default.

A backend's ``multiway_merge(stacked, offsets, plen, use_jump, touched,
reads_out)`` takes stacked label rows and a prefix length: it ranks the
prefixes once in numpy (:func:`prefix_ranks`) and runs the merge on the
ranks, which returns each run of equal prefixes as row ranges, not the
joined tuples.  The lists come in segments, each merged as a call of its
own, laid out slot-major: with k = ``len(reads_out)`` lists per segment
and S = ``(len(offsets) - 1) / k`` segments, list j of segment s is
``stacked[offsets[j*S + s] : offsets[j*S + s + 1]]``.  So list j's
segments lie back to back, one run of rows cut at the segment bounds, and
``reads_out[j]`` sums its reads over them.  A segment's prefixes must
all order below the next segment's.  The query engine makes one call
per table, each slot's rows by level, a segment per level, with one key
column (plen 1): each row's level, then its ancestor's document
position.  A one-segment call is a plain k-way merge; the kernel tests
merge wider prefixes of zero-padded label rows that way.

:func:`jump_scan` is plain Python on both backends: it compares a few
rows' prefixes as lists, in the labels' own lexicographic order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import _impl, _vector
from ._vector import ranges  # shared with the matcher and the index codec

ENV_VAR = "TWIGJOIN_KERNELS"
BACKEND_NAMES = ("numba", "numpy")


@dataclass(frozen=True)
class Backend:
    name: str
    jump_scan: Callable  # the same jump_scan on every backend
    multiway_merge: Callable


def lexsort(rows: np.ndarray) -> np.ndarray:
    """Stable lexicographic order of the rows."""
    return np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))


def runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal rows."""
    edges = np.ones(len(rows) + 1, dtype=bool)
    edges[1:-1] = (rows[1:] != rows[:-1]).any(axis=1)
    edges = np.flatnonzero(edges)  # run starts, then len(rows)
    return edges[:-1], np.diff(edges)


def prefix_ranks(stacked: np.ndarray, plen: int) -> np.ndarray:
    """Dense rank of each row's plen-prefix among all rows: ranks are
    equal, or ordered, exactly as the prefixes are."""
    prefix = stacked[:, :plen]
    order = lexsort(prefix)
    _, counts = runs(prefix[order])
    keys = np.empty(len(prefix), dtype=np.int64)
    keys[order] = np.repeat(np.arange(len(counts)), counts)
    return keys


def _on_ranks(merge: Callable) -> Callable:
    """The merge kernel `merge` taking label rows: it merges their prefix ranks."""

    def multiway_merge(stacked, offsets, plen, use_jump, touched, reads_out):
        return merge(prefix_ranks(stacked, plen), offsets, use_jump, touched, reads_out)

    return multiway_merge


def jump_scan(rows, lo, hi, bound, plen) -> tuple[int, np.ndarray]:
    """First position in ``rows[lo:hi]`` whose ``plen``-prefix orders
    strictly after ``bound`` (``hi`` if none), and the positions read to
    find it, in probe order: ``lo``, then a gallop, then a binary search.

    ``rows`` are labels zero-padded on the right to a common width (real
    components are >= 1, so padding keeps their order).  No position is
    read twice.
    """
    bound = list(bound)
    read: list[int] = []

    def after(r: int) -> bool:
        read.append(r)
        return rows[r, :plen].tolist() > bound

    if lo >= hi:
        return hi, np.array(read, dtype=np.int64)
    if after(lo):
        return lo, np.array(read, dtype=np.int64)
    low, high, step = lo, hi, 1  # rows[low] <= bound throughout
    while low + step < high:
        if after(low + step):
            high = low + step
            break
        low += step
        step <<= 1
    while low + 1 < high:  # rows[low] <= bound < rows[high]
        mid = (low + high) >> 1
        if after(mid):
            high = mid
        else:
            low = mid
    return high, np.array(read, dtype=np.int64)


@lru_cache(maxsize=None)
def _numpy_backend() -> Backend:
    return Backend("numpy", jump_scan, _on_ranks(_vector.multiway_merge))


@lru_cache(maxsize=None)
def _numba_backend() -> Backend:
    try:
        import numba
    except ImportError:
        return _numpy_backend()
    jit = numba.njit(cache=True)
    return Backend("numba", jump_scan, _on_ranks(jit(_impl.multiway_merge)))


def default_backend_name() -> str:
    name = os.environ.get(ENV_VAR, "numba").strip().lower()
    return name if name in BACKEND_NAMES else "numba"


def get_backend(name: Backend | str | None = None) -> Backend:
    """Return the given or named backend, or the environment-selected default."""
    if isinstance(name, Backend):
        return name
    if name is None:
        name = default_backend_name()
    if name == "numpy":
        return _numpy_backend()
    if name == "numba":
        return _numba_backend()
    raise ValueError(f"unknown kernel backend: {name!r}")
