"""Bounded per-process memos of the engine's pure set-up.

A ``Memo`` keeps the results of one pure computation by key, the least
recently used first out, for the life of the process: each key is the tuple
of frozen records (and module constants) the computation reads, so equal
keys give bit-identical results.  An error is never kept: a call that raises
keeps nothing, and the next call with that key computes and raises again.
A kept result is shared by every caller, so it must be immutable or
read-only.  ``clear_memos`` empties every memo, as a fresh process starts.
"""

from __future__ import annotations

import math
from collections import OrderedDict

_MEMOS = []


class _Key(list):
    """A key tuple's items with its hash, taken once: a key of many records
    hashes each of them, and the memo's lookups would otherwise repeat it."""

    __slots__ = ("hash",)

    def __init__(self, key: tuple):
        super().__init__(key)
        self.hash = hash(key)

    def __hash__(self):
        return self.hash


class Memo:
    """At most ``size`` results, and at most ``max_bytes`` of what
    ``nbytes`` weighs them at (the held arrays of a result)."""

    def __init__(self, size: int, max_bytes: float = math.inf, nbytes=None):
        self.size, self.max_bytes, self.nbytes = size, max_bytes, nbytes
        self._held = OrderedDict()  # key -> (result, its weight)
        self.held_bytes = 0
        _MEMOS.append(self)

    def __len__(self) -> int:
        return len(self._held)

    def get(self, key: tuple, make):
        """The result kept for ``key``, else ``make()``, then kept."""
        key, held = _Key(key), self._held
        found = held.get(key)
        if found is not None:
            held.move_to_end(key)
            return found[0]
        value = make()
        weight = self.nbytes(value) if self.nbytes else 0
        held[key] = value, weight
        self.held_bytes += weight
        while len(held) > self.size or self.held_bytes > self.max_bytes:
            self.held_bytes -= held.popitem(last=False)[1][1]
        return value

    def clear(self) -> None:
        self._held.clear()
        self.held_bytes = 0


def clear_memos() -> None:
    """Empty every ``Memo`` of the process."""
    for memo in _MEMOS:
        memo.clear()
