"""A per-client LRU read cache with write-through/write-back policies.

The session tier sits *in front of* the replica control protocol: a hit
is served from client memory and costs zero network messages, which is
the whole point — the paper's C1 result makes protocol reads cheap
(read-one), and the cache makes repeat reads of a hot key free.

Two write policies, after the classic pair:

* ``write-through`` — every logical write rides the program's protocol
  transaction; the cache is refreshed with the committed value
  (flush-on-commit).
* ``write-back`` — a write only marks the cached entry dirty; the
  store is updated when the entry is evicted (flush-on-evict) or when
  the session drains.  Dirty entries are *pending local writes*, so
  invalidation never drops them and a dirty hit is a read-your-writes
  guarantee.

The cache itself is policy-free about freshness: a clean hit may be
stale.  Freshness is the lease table's business (see
:mod:`repro.client.lease`); when leases are on, the session only
serves clean entries under a valid lease.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

#: the two supported write policies
WRITE_THROUGH = "write-through"
WRITE_BACK = "write-back"
POLICIES = (WRITE_THROUGH, WRITE_BACK)


@dataclass
class CacheStats:
    """Counters the benchmark tables report per cell."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class CacheEntry:
    value: Any
    dirty: bool = False


class SessionCache:
    """Bounded LRU map of object -> last value this client saw."""

    def __init__(self, capacity: int, policy: str = WRITE_THROUGH):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1: {capacity}")
        if policy not in POLICIES:
            raise ValueError(f"unknown cache policy {policy!r}; "
                             f"expected one of {POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, obj: str) -> bool:
        return obj in self._entries

    def lookup(self, obj: str) -> Optional[CacheEntry]:
        """LRU-touching lookup; counts a hit or a miss."""
        entry = self._entries.get(obj)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(obj)
        self.stats.hits += 1
        return entry

    def peek(self, obj: str) -> Optional[CacheEntry]:
        """Lookup without touching LRU order or the counters."""
        return self._entries.get(obj)

    def put(self, obj: str, value: Any,
            dirty: bool = False) -> List[Tuple[str, Any]]:
        """Insert/overwrite an entry; returns evicted dirty writes.

        The caller owns flushing whatever comes back — the cache cannot
        run a transaction.  A dirty overwrite of a dirty entry simply
        supersedes the pending value (last write wins, one flush).
        """
        entry = self._entries.get(obj)
        if entry is not None:
            entry.value = value
            # a clean fill must not launder a pending write
            entry.dirty = entry.dirty or dirty
            self._entries.move_to_end(obj)
            return []
        self._entries[obj] = CacheEntry(value, dirty)
        flushes: List[Tuple[str, Any]] = []
        while len(self._entries) > self.capacity:
            victim, victim_entry = self._entries.popitem(last=False)
            self.stats.evictions += 1
            if victim_entry.dirty:
                self.stats.dirty_evictions += 1
                flushes.append((victim, victim_entry.value))
        return flushes

    def invalidate(self, obj: str) -> bool:
        """Drop a *clean* entry (a remote write committed elsewhere).

        Dirty entries survive: they are this client's own pending
        writes, and dropping one would lose data.  Returns True when an
        entry was dropped.
        """
        entry = self._entries.get(obj)
        if entry is None or entry.dirty:
            return False
        del self._entries[obj]
        self.stats.invalidations += 1
        return True

    def mark_flushed(self, obj: str, value: Any) -> None:
        """A dirty value reached the store; clean the entry if it still
        holds that exact value (a newer overwrite stays dirty)."""
        entry = self._entries.get(obj)
        if entry is not None and entry.dirty and entry.value == value:
            entry.dirty = False

    def dirty_items(self) -> List[Tuple[str, Any]]:
        """Pending writes, in LRU order (oldest first)."""
        return [(obj, entry.value) for obj, entry in self._entries.items()
                if entry.dirty]

    def __repr__(self) -> str:
        dirty = sum(1 for e in self._entries.values() if e.dirty)
        return (f"SessionCache({self.policy}, {len(self._entries)}"
                f"/{self.capacity}, dirty={dirty})")
