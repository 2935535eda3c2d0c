"""Bounded per-process memos of the engine's pure set-up.

``kept(size)`` keeps the last ``size`` results of a pure module-level
function with ``functools.lru_cache``: its parameters are exactly the frozen
records (and module constants) it reads, so its arguments are its key and
equal keys give bit-identical results.  An error is never kept: a call that
raises keeps nothing, and the next call computes and raises again.  A kept
result is shared by every caller, so it must be immutable or read-only.
``clear_memos`` empties every memo, as a fresh process starts.
"""

from __future__ import annotations

from functools import lru_cache

_KEPT = []


def kept(size: int):
    """Decorator: keep the last ``size`` results of the function."""
    def keep(function):
        _KEPT.append(lru_cache(maxsize=size)(function))
        return _KEPT[-1]
    return keep


def clear_memos() -> None:
    """Empty every memo of the process."""
    for function in _KEPT:
        function.cache_clear()
