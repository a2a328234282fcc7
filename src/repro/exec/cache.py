"""Bounded cross-query caches with epoch-based invalidation.

Two stores back the prepared-query layer (:mod:`repro.exec.prepared`):

* :class:`AnswerCache` — an LRU map from ``(query form, constants,
  epoch snapshot)`` to final answer sets.  Invalidation is *implicit*:
  the key embeds the mutation epochs of every base relation the
  rewritten program reads (see
  :meth:`~repro.engine.database.Database.epochs`), so a database update
  changes the key and stale entries simply stop matching.  They age out
  of the LRU instead of being hunted down.
* :class:`CountingTableStore` — an LRU map from a source node to the
  counting set built from it (phase 1 of the dedicated evaluators).
  Tables are validated *explicitly* against an epoch snapshot on
  lookup, because a stale table must never be extended — unlike answer
  entries, which are only ever returned whole or not at all.

Both caches are deliberately dumb containers: what goes into the key —
and therefore what "same query" means — is decided by the prepared
layer.

Concurrency: every public operation runs under a per-cache
:class:`threading.RLock`, so the LRU reorder + counter update of a
``get`` and the insert + eviction of a ``put`` are atomic with respect
to other threads — the serving layer (:mod:`repro.serve`) shares one
cache across its whole worker pool.  The invariant ``hits + misses ==
lookups`` holds under arbitrary contention; :meth:`assert_consistent`
checks it (tests hammer the caches from many threads and then call
it).  The :func:`repro.engine.faults.stall` checkpoint inside each
critical section lets the fault injector stretch lock hold times
deterministically, so lost-update bugs that need a long race window
become reproducible.
"""

import threading
from collections import OrderedDict

from ..engine.faults import stall as _stall


class AnswerCache:
    """Bounded LRU cache for final query answers.

    ``get`` accepts an optional ``valid`` predicate over the stored
    entry; an entry failing the predicate is dropped and counted as an
    invalidation plus a miss.  The prepared layer uses this to reject
    entries recorded against a different (dead or replaced)
    :class:`~repro.engine.database.Database` instance.
    """

    __slots__ = ("capacity", "_entries", "_lock", "lookups", "hits",
                 "misses", "evictions", "invalidations")

    def __init__(self, capacity=128):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1, got %r"
                             % (capacity,))
        self.capacity = capacity
        self._entries = OrderedDict()
        self._lock = threading.RLock()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key, valid=None):
        with self._lock:
            _stall("cache")
            self.lookups += 1
            entry = self._entries.get(key)
            if entry is not None and (valid is None or valid(entry)):
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            if entry is not None:
                del self._entries[key]
                self.invalidations += 1
            self.misses += 1
            return None

    def put(self, key, entry):
        with self._lock:
            _stall("cache")
            entries = self._entries
            if key in entries:
                entries[key] = entry
                entries.move_to_end(key)
                return
            entries[key] = entry
            if len(entries) > self.capacity:
                entries.popitem(last=False)
                self.evictions += 1

    def clear(self):
        with self._lock:
            self._entries.clear()

    def assert_consistent(self):
        """Check the counter/size invariants; raises AssertionError.

        ``hits + misses == lookups`` (every lookup got exactly one
        verdict) and the entry count never exceeds capacity.  Both must
        hold under arbitrary thread contention.
        """
        with self._lock:
            assert self.hits + self.misses == self.lookups, (
                "cache counters diverged: %d hits + %d misses != %d "
                "lookups" % (self.hits, self.misses, self.lookups)
            )
            assert len(self._entries) <= self.capacity, (
                "cache overflow: %d entries > capacity %d"
                % (len(self._entries), self.capacity)
            )

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    @property
    def hit_rate(self):
        """Fraction of lookups served from the cache (0.0 when unused).

        Reads both counters under the lock: torn reads (``hits`` from
        before a concurrent lookup, ``misses`` from after) could
        otherwise report a rate over or under the true value.
        """
        with self._lock:
            total = self.hits + self.misses
            return 0.0 if total == 0 else self.hits / total

    def stats(self):
        """One consistent snapshot of every counter, taken atomically.

        The serving layer's ``counters()`` endpoint reads this instead
        of the individual attributes so a concurrent ``get``/``put``
        can never produce a snapshot violating ``hits + misses ==
        lookups``.
        """
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "lookups": self.lookups,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": 0.0 if total == 0 else self.hits / total,
            }

    def __repr__(self):
        with self._lock:
            return "%s(%d/%d entries, %d hits, %d misses)" % (
                type(self).__name__, len(self._entries), self.capacity,
                self.hits, self.misses,
            )


class CountingTableStore(AnswerCache):
    """Bounded LRU store for counting sets, validated by epoch snapshot.

    Keys identify a source node of a specific query form; the stored
    value is the :class:`~repro.exec.counting_engine.CountingTable`
    built from that node plus the epoch snapshot of the base relations
    the DFS read.  A lookup under a different snapshot drops the entry:
    the left graph may have gained arcs, so the table cannot be
    trusted, only rebuilt.  It is the answer cache with that epoch
    check as the ``valid`` predicate — the same LRU, lock, stall
    checkpoint, counters and :meth:`stats`.
    """

    __slots__ = ()

    def __init__(self, capacity=64):
        super().__init__(capacity)

    def get(self, key, epochs):
        entry = super().get(key, valid=lambda entry: entry[0] == epochs)
        return None if entry is None else entry[1]

    def put(self, key, epochs, table):
        super().put(key, (epochs, table))
