"""TTL + LRU response cache for the serving gateway.

A serving front door sees heavy repetition: the same unit is scored again on
refresh, dashboards re-ask the head model the same what-if queries, and drift
replays re-submit whole tapes.  Because the prediction service executes
every query at the canonical batch size or at a size certified to give the
same answers, a response is a pure function of
``(model version, covariate row)`` — which makes responses safely cacheable:
a hit is *bitwise* the answer a cold query would have produced, and bumping
the model version changes the key, so stale answers become unreachable
instead of needing an explicit flush.

:class:`TTLLRUCache` is the storage: bounded (LRU eviction), optionally
time-bounded (per-entry TTL against an injectable monotonic clock, so tests
can advance time deterministically), and thread-safe (one lock per cache;
the gateway keeps one cache per shard so shards never contend).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

import time

__all__ = ["CacheStats", "TTLLRUCache"]

#: Sentinel distinguishing "not cached" from a cached falsy value.
_MISS = object()


@dataclass(frozen=True)
class CacheStats:
    """Lifetime counters of one cache instance (consistent snapshot)."""

    hits: int
    misses: int
    evictions: int
    expirations: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class TTLLRUCache:
    """Bounded mapping with least-recently-used eviction and optional TTL.

    Parameters
    ----------
    capacity:
        Maximum number of entries; inserting beyond it evicts the least
        recently *used* entry.  ``capacity == 0`` disables the cache (every
        lookup misses, every put is dropped) so callers can keep one code
        path for cached and uncached deployments.
    ttl_s:
        Optional per-entry lifetime in seconds; expired entries are treated
        as misses and dropped lazily on access.  ``None`` means no expiry.
    clock:
        Monotonic time source, injectable for deterministic TTL tests.
    """

    def __init__(
        self,
        capacity: int,
        ttl_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None for no expiry)")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (value, expires_at or None), in recency order (MRU last).
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    def get(self, key: Hashable):
        """Return the cached value or ``None``; counts the lookup either way."""
        with self._lock:
            entry = self._entries.get(key, _MISS)
            if entry is _MISS:
                self._misses += 1
                return None
            value, expires_at = entry
            if expires_at is not None and self._clock() >= expires_at:
                del self._entries[key]
                self._expirations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry when full."""
        if self.capacity == 0:
            return
        expires_at = None if self.ttl_s is None else self._clock() + self.ttl_s
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            elif len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = (value, expires_at)

    def clear(self) -> None:
        """Drop every entry (the counters keep counting)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """Consistent snapshot of the lifetime counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                expirations=self._expirations,
                size=len(self._entries),
                capacity=self.capacity,
            )
