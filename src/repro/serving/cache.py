"""LRU result cache keyed by canonicalised query rectangles.

Nothing in :mod:`repro` serves through this cache any more: every
committed run recorded 0 hits (random workloads do not repeat queries
and every mutation flushed it), and one kernel pass over a few hundred
bytes of buckets is cheaper than the lookup.  The module stays only
because the repository benchmark's tracer (``perfbench/tracing.py``)
imports :class:`QueryCache` by path to wrap its methods; it goes when
that tracer stops importing it.

Keys are *canonicalised* coordinate tuples: ``-0.0`` is folded onto
``0.0`` (the two compare equal as rectangles, so they must hit the
same cache line).  Hit, miss, and eviction counts are exposed both as
attributes and as ``serving.cache.*`` counters in
:data:`repro.obs.OBS`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

import numpy as np
import numpy.typing as npt

from ..geometry import RectSet
from ..obs import OBS

__all__ = ["QueryCache", "canonical_key"]

CacheKey = Tuple[float, float, float, float]


def canonical_key(
    x1: float, y1: float, x2: float, y2: float
) -> CacheKey:
    """The cache key of a query rectangle.

    Adding ``0.0`` folds ``-0.0`` onto ``+0.0`` so the two (equal)
    rectangles share one entry; all other finite floats are unchanged.
    """
    return (x1 + 0.0, y1 + 0.0, x2 + 0.0, y2 + 0.0)


class QueryCache:
    """A bounded LRU map from canonical query keys to estimates.

    Parameters
    ----------
    capacity:
        Maximum number of retained entries (must be positive).
    """

    __slots__ = (
        "capacity", "_entries", "hits", "misses", "evictions",
        "flushes",
    )

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> "float | None":
        """The cached estimate for ``key``, refreshing its recency."""
        value = self._entries.get(key)
        if value is None:
            return None
        self._entries.move_to_end(key)
        return value

    def lookup(self, key: CacheKey) -> "float | None":
        """:meth:`get` plus hit/miss accounting (the scalar path)."""
        value = self.get(key)
        if value is None:
            self.misses += 1
            OBS.add("serving.cache.misses")
        else:
            self.hits += 1
            OBS.add("serving.cache.hits")
        return value

    def put(self, key: CacheKey, value: float) -> None:
        """Insert (or refresh) one entry, evicting the oldest on
        overflow."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
            OBS.add("serving.cache.evictions")

    # ------------------------------------------------------------------
    def lookup_batch(
        self, queries: RectSet
    ) -> Tuple["npt.NDArray[np.float64]", "npt.NDArray[np.int64]"]:
        """Split a batch into cached answers and missing positions.

        Returns ``(values, missing)``: ``values`` has the cached
        estimate at every hit position (0.0 placeholders elsewhere)
        and ``missing`` lists the positions, in order, that must be
        computed.  Duplicate missing queries are *not* collapsed, so
        computing them all in one kernel call keeps the filled batch
        bit-identical to an uncached evaluation.
        """
        n = len(queries)
        values = np.zeros(n, dtype=np.float64)
        missing = []
        coords = queries.coords
        hits = 0
        for i in range(n):
            row = coords[i]
            key = canonical_key(row[0], row[1], row[2], row[3])
            cached = self.get(key)
            if cached is None:
                missing.append(i)
            else:
                values[i] = cached
                hits += 1
        misses = len(missing)
        self.hits += hits
        self.misses += misses
        if OBS.enabled:
            OBS.add("serving.cache.hits", hits)
            OBS.add("serving.cache.misses", misses)
        return values, np.asarray(missing, dtype=np.int64)

    def store_batch(
        self,
        queries: RectSet,
        positions: "npt.NDArray[np.int64]",
        values: "npt.NDArray[np.float64]",
    ) -> None:
        """Insert the freshly computed answers for ``positions``."""
        coords = queries.coords
        for pos, value in zip(positions, values):
            row = coords[pos]
            self.put(
                canonical_key(row[0], row[1], row[2], row[3]),
                float(value),
            )

    def clear(self) -> None:
        """Drop every entry (the statistics are kept)."""
        self._entries.clear()

    def flush(self) -> None:
        """:meth:`clear` plus invalidation accounting — for when
        cached answers became *wrong* (source epoch moved), as opposed
        to a caller merely resetting a cache it owns."""
        self.clear()
        self.flushes += 1
        OBS.add("serving.cache.flushes")

    def __repr__(self) -> str:
        return (
            f"QueryCache(capacity={self.capacity}, "
            f"size={len(self)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
