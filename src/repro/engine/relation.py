"""In-memory relations with lazily built, persistently maintained
hash indexes.

A :class:`Relation` stores a set of ground tuples and answers two query
shapes:

* ``match(pattern)`` — the tuple-at-a-time interface: a pattern fixes
  some positions to values and leaves the rest as :data:`WILDCARD`;
* ``lookup(positions, key)`` — the batched interface used by the
  compiled join engine (:mod:`repro.engine.compile`): the bound
  positions are given once per probe and the whole candidate bucket is
  returned as a sequence.

The first query for a given set of bound positions builds a hash index
on those positions; subsequent queries and insertions keep every
existing index current, so indexes persist across semi-naive rounds and
across :meth:`copy` (delta relations carry their indexes with them
instead of rebuilding).  Single-position indexes are keyed by the bare
value — the common case in the paper's programs — so probes hash one
(interned) constant instead of allocating a 1-tuple.

Indexes make the nested-loop joins of the engine behave like index
nested-loop joins, which is the performance model assumed by the paper
(the pointer-based counting implementation is "a direct access to the
memory").

Rows
----

A relation holds its rows once: as value tuples, in the tuple set and
in the insertion log.  A relation constructed with an intern ``pool``
(every database relation) can also serialize that log as intern-id
columns on demand (:meth:`Relation.column_bytes`, the checkpoint
encoding of :mod:`repro.engine.columnar`); nothing is kept for it
between calls.
"""

import weakref
from operator import itemgetter

from .columnar import encode_rows


class _Wildcard:
    __slots__ = ()

    def __repr__(self):
        return "WILDCARD"


#: Placeholder for unbound positions in match patterns.  ``None`` is not
#: usable because ``nil`` is a legal constant value.
WILDCARD = _Wildcard()


class Relation:
    """A named set of fixed-arity ground tuples.

    ``use_indexes=False`` disables hash indexes — every match becomes a
    full scan with per-row filtering.  Kept as an ablation switch
    (benchmark A3); production paths never set it.
    """

    __slots__ = ("name", "arity", "tuples", "_indexes", "use_indexes",
                 "epoch", "_log", "_pool", "_view")

    def __init__(self, name, arity, use_indexes=True, pool=None):
        self.name = name
        self.arity = arity
        self.tuples = set()
        self._indexes = {}
        self.use_indexes = use_indexes
        #: Weak reference to the newest frozen view :meth:`pinned` has
        #: derived (None before the first pin) — the starting point of
        #: the next one.  Weak, so the relation never keeps a frozen
        #: copy alive by itself: views live exactly as long as the
        #: snapshots holding them.
        self._view = None
        #: Intern pool :meth:`column_bytes` encodes through (None for
        #: engine-internal derived relations).
        self._pool = pool
        #: Monotone mutation counter: bumped once per *new* row, so two
        #: relations with equal epochs seen by the same observer hold
        #: the same tuples.  Cross-query caches key their entries on the
        #: epochs of the relations a query reads (see
        #: :mod:`repro.exec.cache`), which makes invalidation free: a
        #: mutated relation simply never matches a stale key again.
        self.epoch = 0
        #: New rows in insertion order — ``_log[:E]`` is exactly the
        #: contents the relation had when ``epoch`` was ``E``, which is
        #: what makes :meth:`pinned` snapshots O(E) row *references*
        #: instead of a deep rebuild.  Append-only, one entry per epoch
        #: bump.
        self._log = []

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __contains__(self, row):
        return row in self.tuples

    def add(self, row):
        """Insert ``row``; returns True if it was new."""
        if len(row) != self.arity:
            raise ValueError(
                "arity mismatch for %s: expected %d, got %r"
                % (self.name, self.arity, row)
            )
        # Single-hash insert: membership test plus ``set.add`` would
        # hash the row twice, which is measurable when rows carry long
        # tuple values (the extended counting rewriting's path lists —
        # tuple hashes are not cached).
        tuples = self.tuples
        before = len(tuples)
        tuples.add(row)
        if len(tuples) == before:
            return False
        # Log before the epoch bump: a concurrent reader that sees the
        # new epoch value is then guaranteed to find the row in the log
        # prefix it slices (list appends are atomic under the GIL).
        self._log.append(row)
        self.epoch += 1
        for positions, index in self._indexes.items():
            if len(positions) == 1:
                key = row[positions[0]]
            else:
                key = tuple(row[i] for i in positions)
            index.setdefault(key, []).append(row)
        return True

    def add_all(self, rows):
        """Insert a batch; returns the new rows, first occurrence first.

        Leaves log, epoch and index buckets as :meth:`add` row by
        row would; a wrong-arity row anywhere raises, nothing inserted.
        """
        rows = tuple(rows)
        for row in rows:
            if len(row) != self.arity:
                raise ValueError(
                    "arity mismatch for %s: expected %d, got %r"
                    % (self.name, self.arity, row)
                )
        return self.add_trusted(rows)

    def add_trusted(self, rows):
        """:meth:`add_all` for a sequence of rows known to have the
        relation's arity — a compiled rule head's batch, whose width
        the engine checks once per pass — without the per-row check."""
        # One hash per row, as in :meth:`add`; never ``set(rows)``,
        # whose iteration order would depend on the hash seed.
        tuples = self.tuples
        insert = tuples.add
        size = len(tuples)
        new = []
        keep = new.append
        for row in rows:
            insert(row)
            if len(tuples) != size:
                size += 1
                keep(row)
        if new:
            self._logged(new)
        return new

    def _logged(self, new):
        """Log and index rows just added to the tuple set."""
        # Log before the epoch bump, as in :meth:`add`.
        self._log.extend(new)
        self.epoch += len(new)
        for positions, index in self._indexes.items():
            key_of = itemgetter(*positions)
            for row in new:
                index.setdefault(key_of(row), []).append(row)

    def _index_for(self, positions, stats=None):
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            if len(positions) == 1:
                position = positions[0]
                for row in self.tuples:
                    index.setdefault(row[position], []).append(row)
            else:
                for row in self.tuples:
                    key = tuple(row[i] for i in positions)
                    index.setdefault(key, []).append(row)
            self._indexes[positions] = index
            if stats is not None:
                stats.index_builds += 1
        return index

    def ensure_index(self, positions, stats=None):
        """Build (or return) the hash index on ``positions`` now.

        The index is maintained incrementally by subsequent :meth:`add`
        calls, so declaring probe positions up front turns later bulk
        loads into incremental index maintenance instead of a rebuild.
        A build triggered here counts toward ``stats.index_builds``
        exactly like one triggered by a :meth:`lookup` probe.
        """
        return self._index_for(tuple(positions), stats)

    def probe_index(self, positions, stats=None):
        """A hoistable index view for repeated probes, or None.

        The generated executors resolve each scan's relation once per
        rule pass; when this returns a dict, they inline every
        subsequent probe as ``index.get(key, ())`` plus the same
        ``index_probes`` bump :meth:`lookup` performs.  Returns None
        whenever the inline probe would not be equivalent — scans
        without indexes, full scans, and full-arity probes (which are
        set membership tests, see :meth:`probe_set`).  The dict is
        maintained in place by :meth:`add`, so a hoisted reference
        stays current for the whole pass.
        """
        if (not self.use_indexes or not positions
                or len(positions) == self.arity):
            return None
        return self._index_for(tuple(positions), stats)

    def probe_set(self):
        """A hoistable membership view for full-arity probes, or None.

        The full-arity counterpart of :meth:`probe_index`: generated
        executors test ``row in view`` directly, mirroring the
        full-arity fast path of :meth:`lookup` including its
        ``index_probes`` accounting.
        """
        return self.tuples if self.use_indexes else None

    def lookup(self, positions, key, stats=None):
        """Return the candidate rows with ``positions`` equal to ``key``.

        The batched-probe interface of the compiled engine: the result
        is a *sequence* (the index bucket itself, or a materialized
        list) whose length is the batch size.  ``key`` is the bare value
        when one position is bound, a tuple in ascending position order
        otherwise, and ignored when ``positions`` is empty (full scan).
        """
        if not positions:
            return list(self.tuples)
        if not self.use_indexes:
            if len(positions) == 1:
                position = positions[0]
                return [row for row in self.tuples if row[position] == key]
            return [
                row
                for row in self.tuples
                if all(row[i] == v for i, v in zip(positions, key))
            ]
        if len(positions) == self.arity:
            # The full-arity fast path is a hash probe of the tuple set
            # — count it like any other index probe, or the A3 ablation
            # undercounts exactly the probes it is supposed to measure.
            if stats is not None:
                stats.index_probes += 1
            row = key if self.arity != 1 else (key,)
            return (row,) if row in self.tuples else ()
        index = self._indexes.get(positions)
        if index is None:
            index = self._index_for(positions, stats)
        if stats is not None:
            stats.index_probes += 1
        return index.get(key, ())

    def select(self, positions, key):
        """The rows with ``positions`` equal to ``key``, counting nothing.

        ``key`` follows :meth:`lookup`'s convention.  One probe of the
        index on ``positions`` when the relation has it, else a scan: a
        selection builds no index.
        """
        if len(positions) == self.arity:
            row = key if self.arity != 1 else (key,)
            return (row,) if row in self.tuples else ()
        index = self._indexes.get(positions)
        if index is not None:
            return index.get(key, ())
        if len(positions) == 1:
            position = positions[0]
            return [row for row in self.tuples if row[position] == key]
        return [
            row for row in self.tuples
            if all(row[i] == v for i, v in zip(positions, key))
        ]

    def match(self, pattern, stats=None):
        """Yield rows matching ``pattern``.

        ``pattern`` is a tuple of length ``arity`` whose entries are
        either concrete values or :data:`WILDCARD`.  ``stats`` threads
        the same ``index_builds``/``index_probes`` accounting as
        :meth:`lookup` — the tuple-at-a-time path does identical index
        work, so it must be charged identically.
        """
        if len(pattern) != self.arity:
            raise ValueError(
                "pattern arity mismatch for %s: %r" % (self.name, pattern)
            )
        positions = tuple(
            i for i, v in enumerate(pattern) if v is not WILDCARD
        )
        if not positions:
            return iter(self.tuples)
        if not self.use_indexes:
            return (
                row
                for row in self.tuples
                if all(row[i] == pattern[i] for i in positions)
            )
        if len(positions) == self.arity:
            if stats is not None:
                stats.index_probes += 1
            row = tuple(pattern)
            return iter((row,)) if row in self.tuples else iter(())
        index = self._index_for(positions, stats)
        if stats is not None:
            stats.index_probes += 1
        if len(positions) == 1:
            key = pattern[positions[0]]
        else:
            key = tuple(pattern[i] for i in positions)
        return iter(index.get(key, ()))

    def copy(self):
        """Clone the relation, *including* its hash indexes.

        Snapshot-heavy strategies copy relations often; rebuilding every
        index from scratch on the clone would repeat O(n) work the
        source already paid.  Buckets are shallow-copied per key so
        later ``add``s on either side stay independent.
        """
        clone = Relation(self.name, self.arity,
                         use_indexes=self.use_indexes, pool=self._pool)
        clone.tuples = set(self.tuples)
        clone.epoch = self.epoch
        clone._log = list(self._log)
        clone._indexes = {
            positions: {key: list(rows) for key, rows in index.items()}
            for positions, index in self._indexes.items()
        }
        return clone

    def newest_view(self):
        """The newest frozen view :meth:`pinned` derived, while some
        snapshot still holds it; None otherwise."""
        ref = self._view
        return None if ref is None else ref()

    def pinned(self, epoch):
        """The frozen, read-only view holding exactly the first
        ``epoch`` rows.

        The insertion log records one row per epoch bump, so the prefix
        of length ``epoch`` is precisely the relation's contents when
        its epoch had that value — the building block of
        :meth:`~repro.engine.database.Database.snapshot` read views.

        Relations are append-only, so a view is derived by *extending*
        the newest view still alive (:meth:`newest_view`, the base)
        instead of rebuilding it.  A base already at the requested
        epoch is returned as it is — a relation nobody wrote keeps its
        view, and every index readers built on it, across snapshot
        generations.  From an older base the new view takes C-level
        copies of the tuple set and of each index the base has, and
        only the log suffix between the two epochs is applied row by
        row.  A touched index bucket is *replaced* by a longer list,
        never appended to in place: untouched buckets are shared by
        reference with the base, which readers of the previous
        generation may still be probing.
        With no usable base — the first pin, or an older pin
        materializing after a newer one — the same code extends the
        empty view, which is the from-scratch build; readers then build
        indexes lazily as on any relation.

        Safe to call while another thread appends (the log is
        append-only and no slice reaches past ``epoch``) or builds an
        index on the base (an index is published whole and never
        changes afterwards).  Two threads racing to pin one epoch may
        both build; whichever view is published, each is correct on its
        own — wasted work, never wrong answers.
        """
        if epoch < 0 or epoch > len(self._log):
            raise ValueError(
                "cannot pin %s at epoch %d (log holds %d rows)"
                % (self.name, epoch, len(self._log))
            )
        base = self.newest_view()
        if base is not None and base.epoch == epoch:
            return base
        view = _FrozenRelation(self.name, self.arity,
                               use_indexes=self.use_indexes,
                               pool=self._pool)
        if base is None or base.epoch > epoch:
            # No usable base: the new, still empty view is its own.
            base = view
        suffix = self._log[base.epoch:epoch]
        view.tuples = base.tuples.copy()
        view.tuples.update(suffix)
        # ``dict.copy`` of the index table first: a reader of the base
        # may be publishing a freshly built index into it right now.
        view._indexes = {
            positions: index.copy()
            for positions, index in base._indexes.copy().items()
        }
        for positions, index in view._indexes.items():
            # One position -> the bare value, several -> a tuple in
            # position order: exactly the key convention of ``add``.
            key_of = itemgetter(*positions)
            for row in suffix:
                key = key_of(row)
                index[key] = [*index.get(key, ()), row]
        view._log = self._log[:epoch]
        view.epoch = epoch
        # Publish as the next starting point — unless a racing reader
        # got there first (share its view) or a newer generation has
        # materialized meanwhile (the newest view stays the base).
        newest = self.newest_view()
        if newest is not None and newest.epoch >= epoch:
            return newest if newest.epoch == epoch else view
        self._view = weakref.ref(view)
        return view

    def column_bytes(self):
        """The insertion log as intern-id columns, encoded now through
        the relation's pool (see :func:`~repro.engine.columnar.
        encode_rows`): 16 + 8 x arity x rows bytes."""
        if self._pool is None:
            raise TypeError(
                "%s/%d has no intern pool to encode through"
                % (self.name, self.arity)
            )
        return encode_rows(self._log, self.arity, self._pool)

    def __repr__(self):
        return "Relation(%s/%d, %d tuples)" % (
            self.name,
            self.arity,
            len(self.tuples),
        )


class _FrozenRelation(Relation):
    """What :meth:`Relation.pinned` returns: a relation that can no
    longer change.

    Neighbouring snapshot generations share index buckets by
    reference, so an insert into one view would leak into the others;
    the type rules it out at no cost to :meth:`Relation.add` on the
    fixpoint's hot path.  Everything else — probes, lazily built
    indexes, counters — is the plain :class:`Relation`, and
    :meth:`Relation.copy` of a view is a detached, mutable one.
    """

    # The live relation remembers its newest view weakly.
    __slots__ = ("__weakref__",)

    def add(self, _rows):
        raise TypeError(
            "%s/%d is a frozen view pinned at epoch %d; copy() it or "
            "mutate the source relation" % (self.name, self.arity,
                                            self.epoch)
        )

    add_all = add_trusted = add


class EmptyRelation:
    """A read-only stand-in for relations with no tuples."""

    __slots__ = ("name", "arity")

    #: Empty stand-ins never mutate, so their epoch is a constant.
    epoch = 0

    def __init__(self, name, arity):
        self.name = name
        self.arity = arity

    def __len__(self):
        return 0

    def __iter__(self):
        return iter(())

    def __contains__(self, row):
        return False

    def match(self, pattern, stats=None):
        if len(pattern) != self.arity:
            raise ValueError(
                "pattern arity mismatch for %s: %r" % (self.name, pattern)
            )
        return iter(())

    def select(self, positions, key):
        return ()

    def lookup(self, positions, key, stats=None):
        for position in positions:
            if not 0 <= position < self.arity:
                raise ValueError(
                    "lookup position %d out of range for %s/%d"
                    % (position, self.name, self.arity)
                )
        return ()

    def __repr__(self):
        return "EmptyRelation(%s/%d)" % (self.name, self.arity)
