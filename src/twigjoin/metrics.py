"""Work counters shared by every evaluator.

The counting model is fixed so that repeated runs of the same query on
the same index produce identical numbers:

* ``nodes_read`` counts label materializations: one unit each time an
  extent row is loaded for a comparison, including every probe of a
  jump's binary search.  A row probed and later revisited counts twice;
  that keeps the counter conservative and reproducible.
* ``bytes_scanned`` sums the encoded size of each distinct extent row
  touched.  Rows are deduplicated per extent, so the total can never
  exceed the extent section of the index.
* ``micros`` is wall-clock time; callers wrap the timed region in
  :meth:`Metrics.timed`.
* ``prefix_comparisons`` and ``jumps`` are side counters used by the
  merge kernels; they are not part of the reporting line.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np


@dataclass
class Metrics:
    nodes_read: int = 0
    bytes_scanned: int = 0
    micros: int = 0
    prefix_comparisons: int = 0
    jumps: int = 0
    # gid -> bool flags, one per extent row already credited to bytes_scanned
    _touched: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def count_reads(self, n: int) -> None:
        self.nodes_read += int(n)

    def _flags(self, gid: int, n_rows: int) -> np.ndarray:
        flags = self._touched.get(gid)
        if flags is None:
            flags = np.zeros(n_rows, dtype=bool)
            self._touched[gid] = flags
        return flags

    def touch_mask(self, gid: int, mask: np.ndarray, byte_lens: np.ndarray) -> None:
        """Credit bytes for the masked rows of one extent, each row once."""
        flags = self._flags(gid, len(byte_lens))
        fresh = np.asarray(mask, dtype=bool) & ~flags
        if fresh.any():
            self.bytes_scanned += int(byte_lens[fresh].sum())
            flags[fresh] = True

    def read_full_extent(self, gid: int, byte_lens: np.ndarray) -> None:
        """Account for a sequential scan of a whole extent list."""
        self.nodes_read += len(byte_lens)
        flags = self._flags(gid, len(byte_lens))
        fresh = ~flags
        if fresh.any():
            self.bytes_scanned += int(byte_lens[fresh].sum())
            flags[:] = True

    @contextmanager
    def timed(self) -> Iterator["Metrics"]:
        t0 = time.perf_counter_ns()
        try:
            yield self
        finally:
            self.micros += (time.perf_counter_ns() - t0) // 1000

    def format_line(self) -> str:
        return (
            f"nodes_read={self.nodes_read}, "
            f"bytes_scanned={self.bytes_scanned}, "
            f"micros={self.micros}"
        )
