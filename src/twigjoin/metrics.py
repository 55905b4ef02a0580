"""Work counters shared by every evaluator.

The counting model is fixed so that repeated runs of the same query on
the same index produce identical numbers:

* ``nodes_read`` counts label materializations: one unit each time an
  extent row is loaded for a comparison, including every probe of a
  jump's binary search.  A row probed and later revisited counts twice;
  that keeps the counter conservative and reproducible.
* ``bytes_scanned`` sums the encoded size of each distinct extent row
  touched.  Bytes are credited once per global row id of the guide's
  extent store, however many merges or scans touch the row, so the
  total can never exceed the extent section of the index.
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
    # one flag per global row id, set once the row's bytes are credited
    _touched: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=bool), repr=False, compare=False
    )

    def credit(self, ids: np.ndarray, byte_lens: np.ndarray) -> None:
        """Add byte_lens[i] to bytes_scanned for each distinct row id ids[i] not yet credited."""
        if len(ids) and ids.max() >= len(self._touched):
            self._touched.resize(2 * int(ids.max()) + 1, refcheck=False)  # zero-filled; no views
        fresh = ~self._touched[ids]
        self._touched[ids] = True
        self.bytes_scanned += int(byte_lens[fresh].sum())

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
