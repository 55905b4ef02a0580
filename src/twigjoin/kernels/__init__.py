"""Kernel backends.

Two builds of the same kernel source: ``numba`` wraps the functions in
:mod:`twigjoin.kernels._impl` with ``@njit``, ``numpy`` runs them
uncompiled.  Both stay importable side by side so they can be compared
on identical inputs; the ``TWIGJOIN_KERNELS`` environment variable
picks which one evaluators use by default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from . import _impl

ENV_VAR = "TWIGJOIN_KERNELS"
BACKEND_NAMES = ("numba", "numpy")


@dataclass(frozen=True)
class Backend:
    name: str
    jump_scan: Callable
    multiway_merge: Callable


@lru_cache(maxsize=None)
def _numpy_backend() -> Backend:
    return Backend("numpy", _impl.jump_scan, _impl.multiway_merge)


@lru_cache(maxsize=None)
def _numba_backend() -> Backend:
    try:
        import numba
    except ImportError:
        return _numpy_backend()
    jit = numba.njit(cache=True)
    return Backend("numba", jit(_impl.jump_scan), jit(_impl.multiway_merge))


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
