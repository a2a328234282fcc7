"""The extensional database: a mapping from predicate keys to relations.

Facts can be loaded three ways:

* programmatically with :meth:`Database.add_fact`;
* from an iterable of ``(name, values)`` pairs with :meth:`add_facts`;
* from program text containing ground facts via :meth:`Database.from_text`.

The database only ever stores plain Python values (strings, ints,
tuples, frozensets) — terms are normalized before insertion.

Concurrency: mutators (:meth:`Database.add_fact` / :meth:`add_facts` /
:meth:`relation`) serialize on an internal lock, and concurrent readers
take :meth:`Database.snapshot` — a cheap epoch-pinned read view whose
relations never change, so a reader can never observe a half-applied
``add_facts`` batch.  The snapshot is lazy: pinning records only the
per-relation epochs (taken under the mutation lock); on first access
each relation's frozen view is derived from the previous generation's
view plus the rows logged since (see
:meth:`~repro.engine.relation.Relation.pinned`).
"""

import os
import threading

from ..datalog.parser import parse_program
from .interning import InternPool
from .relation import EmptyRelation, Relation


def fresh_lineage():
    """A new lineage token: a short random hex string.

    Lineage identifies one logical mutation *history*.  Two databases
    share a lineage only when one is provably a view or a faithful
    replay of the other (snapshots, durable recovery) — then an equal
    epoch table implies equal contents, which is what lets the answer
    cache (:mod:`repro.exec.cache`) trust entries across instances.
    Everything else (fresh databases, ``copy()`` clones whose futures
    may diverge) gets its own token.
    """
    return os.urandom(12).hex()


class Database:
    """A collection of named base relations.

    Constant values are interned on insertion (see
    :mod:`repro.engine.interning`): equal values share one canonical
    instance, which makes the join engine's hash probes and equality
    checks cheap, and every constant gets a stable integer id available
    through :attr:`intern_pool` for encoded strategies.  Interning never
    changes what a relation *contains* — canonical instances are ``==``
    to the originals.
    """

    def __init__(self):
        self._relations = {}
        self.intern_pool = InternPool()
        #: Identity of this database's mutation history (see
        #: :func:`fresh_lineage`).  Snapshots inherit it; durable
        #: recovery restores it from disk, so a recovered database can
        #: keep serving a warm answer cache.
        self.lineage = fresh_lineage()
        #: Serializes mutations against snapshot pinning.  Reads do not
        #: take it — they either race benignly (single monotone facts)
        #: or go through an epoch-pinned :meth:`snapshot`.
        self._lock = threading.RLock()

    @classmethod
    def from_facts(cls, facts):
        """Build a database from ``(predicate_name, values_tuple)`` pairs."""
        db = cls()
        db.add_facts(facts)
        return db

    @classmethod
    def from_text(cls, text):
        """Build a database from program text of ground facts."""
        program = parse_program(text)
        db = cls()
        for rule in program:
            if not rule.is_fact():
                raise ValueError(
                    "database text contains a rule: %r" % (rule,)
                )
            if not rule.head.is_ground():
                raise ValueError(
                    "database fact is not ground: %r" % (rule.head,)
                )
        for key, values in program.facts():
            db.relation(key[0], key[1]).add(
                db.intern_pool.intern_row(values)
            )
        return db

    def add_fact(self, name, *values):
        """Insert one fact, e.g. ``db.add_fact("up", "a", "b")``."""
        with self._lock:
            self.relation(name, len(values)).add(
                self.intern_pool.intern_row(values)
            )

    def add_facts(self, facts):
        """Insert many facts as one atomic batch.

        The whole batch runs under the mutation lock, so an epoch
        snapshot taken concurrently sees either none of it or all of it
        — never a half-applied batch.
        """
        with self._lock:
            intern_row = self.intern_pool.intern_row
            for name, values in facts:
                self.relation(name, len(values)).add(
                    intern_row(tuple(values))
                )

    def relation(self, name, arity):
        """The relation for ``name/arity``, created empty on first use."""
        key = (name, arity)
        rel = self._relations.get(key)
        if rel is None:
            with self._lock:
                rel = self._relations.get(key)
                if rel is None:
                    # Base relations carry the intern pool, which
                    # Relation.column_bytes encodes their rows through.
                    rel = Relation(name, arity, pool=self.intern_pool)
                    self._relations[key] = rel
        return rel

    def get(self, key):
        """The relation for ``key`` or an empty stand-in."""
        rel = self._relations.get(key)
        if rel is None:
            return EmptyRelation(key[0], key[1])
        return rel

    def epoch_of(self, key):
        """The mutation epoch of the relation for ``key`` (0 if absent).

        Relation epochs are monotone insertion counters (see
        :attr:`~repro.engine.relation.Relation.epoch`); a relation that
        does not exist yet reports epoch 0, the same value it will
        report right up until its first fact arrives.
        """
        rel = self._relations.get(key)
        return 0 if rel is None else rel.epoch

    def epochs(self, keys):
        """Epoch snapshot for ``keys``, in the given order.

        The returned tuple is the invalidation fingerprint used by the
        cross-query caches: two snapshots over the same keys are equal
        exactly when none of those relations gained a fact in between.
        """
        return tuple(self.epoch_of(key) for key in keys)

    def keys(self):
        return set(self._relations)

    def predicates(self):
        """Predicate keys that actually hold tuples."""
        return {k for k, rel in self._relations.items() if len(rel)}

    def total_facts(self):
        return sum(len(rel) for rel in self._relations.values())

    def constants(self, keys=None):
        """All constant values appearing in the given relations.

        With ``keys=None`` every relation contributes.  Used to bound
        the classical counting index for divergence detection.
        """
        values = set()
        relations = (
            self._relations.values()
            if keys is None
            else [self.get(key) for key in keys]
        )
        for rel in relations:
            for row in rel:
                values.update(row)
        return values

    def copy(self):
        clone = Database()
        # The pool is append-only, so sharing it keeps interned ids
        # stable across snapshots at zero copying cost.  The lock keeps
        # a concurrent add_facts batch from landing half inside the
        # copy.
        clone.intern_pool = self.intern_pool
        with self._lock:
            for key, rel in self._relations.items():
                clone._relations[key] = rel.copy()
        return clone

    def snapshot(self):
        """A cheap epoch-pinned read view of this database.

        Pinning records each relation's current epoch under the
        mutation lock — O(#relations), no row copying — and the
        returned :class:`DatabaseSnapshot` serves every read from that
        frozen point: rows added afterwards (or whole new relations)
        are invisible, and a concurrent :meth:`add_facts` batch is
        either fully visible or fully absent.  Frozen views materialize
        lazily on first access, so snapshots of relations the reader
        never touches stay free, and each one *extends* the view of the
        newest snapshot still held (:meth:`~repro.engine.relation.
        Relation.pinned`): a relation nobody wrote since keeps the same
        view object with every index built on it; a relation that grew
        copies the tuple set and the indexes at C level and applies
        only the new rows.  Views are read-only and are kept alive by
        the snapshots alone — once the last snapshot is dropped the
        database holds no frozen copy of anything.
        """
        return DatabaseSnapshot(self)

    def to_text(self):
        """Serialize as program text; inverse of :meth:`from_text`.

        Relations and rows are emitted in sorted order, so the output
        is deterministic and diff-friendly.
        """
        from ..datalog.pretty import format_value

        lines = []
        for key in sorted(self._relations):
            relation = self._relations[key]
            for row in sorted(relation, key=repr):
                lines.append(
                    "%s(%s)."
                    % (key[0], ", ".join(format_value(v) for v in row))
                )
        return "\n".join(lines)

    def __contains__(self, key):
        return key in self._relations

    def __repr__(self):
        inner = ", ".join(
            "%s/%d:%d" % (k[0], k[1], len(rel))
            for k, rel in sorted(self._relations.items())
        )
        return "Database(%s)" % inner


class _PinnedRelation:
    """A lazy, read-only view of one relation frozen at a pinned epoch.

    Creation is O(1): it stores the source, the epoch to pin at and the
    source's newest frozen view.  The first read access asks the source
    for its view at that epoch — the same object when the relation has
    not grown since, otherwise that view extended by the log suffix
    (:meth:`~repro.engine.relation.Relation.pinned`; safe against
    concurrent appends — the log is append-only and the pin never
    reaches past its epoch) — and delegates everything to it from then
    on.  Should two threads race the materialization, both get
    equivalent frozen relations and the last assignment wins — wasted
    work, never wrong answers.
    """

    __slots__ = ("name", "arity", "epoch", "_source", "_frozen", "_base")

    def __init__(self, source, epoch):
        self.name = source.name
        self.arity = source.arity
        #: The pinned epoch — reported to cache-key snapshots in place
        #: of the live relation's moving counter.
        self.epoch = epoch
        self._source = source
        self._frozen = None
        #: The source only remembers its newest view weakly.  Resolved
        #: here — under the source database's lock, while the previous
        #: generation still holds that view — so the starting point
        #: survives until this pin has materialized from it, even if
        #: the previous generation is dropped first.
        self._base = source.newest_view()

    def _rel(self):
        rel = self._frozen
        if rel is None:
            rel = self._source.pinned(self.epoch)
            self._frozen = rel
            self._base = None
        return rel

    def __len__(self):
        return len(self._rel())

    def __iter__(self):
        return iter(self._rel())

    def __contains__(self, row):
        return row in self._rel()

    def match(self, pattern, stats=None):
        return self._rel().match(pattern, stats)

    def lookup(self, positions, key, stats=None):
        return self._rel().lookup(positions, key, stats)

    def probe_index(self, positions, stats=None):
        return self._rel().probe_index(positions, stats)

    def select(self, positions, key):
        return self._rel().select(positions, key)

    def probe_set(self):
        return self._rel().probe_set()

    def ensure_index(self, positions, stats=None):
        return self._rel().ensure_index(positions, stats)

    def copy(self):
        """A mutable copy of the pinned contents."""
        return self._rel().copy()

    def __repr__(self):
        return "_PinnedRelation(%s/%d @ epoch %d)" % (
            self.name, self.arity, self.epoch
        )


class DatabaseSnapshot(Database):
    """An epoch-pinned, read-only view of a :class:`Database`.

    Behaves like the source database for every *read* — ``get`` /
    ``epochs`` / ``constants`` / ``copy`` and the full evaluation stack
    work unchanged — but its contents are frozen at the epochs observed
    when the snapshot was taken, so readers on other threads never see
    a half-applied mutation.  ``epoch_of``/``epochs`` report the pinned
    values, which keeps cross-query cache keys stable for as long as a
    service generation serves from one snapshot.

    Mutating a snapshot raises ``TypeError``; the interning pool is
    shared with the source (append-only, so canonical instances and ids
    agree across the pin).
    """

    def __init__(self, source):
        self._relations = {}
        self.intern_pool = source.intern_pool
        # A snapshot is a view of the source's history, so it shares the
        # source's lineage: cache entries written against the snapshot
        # stay valid for the live database (and vice versa) as long as
        # the epochs agree.
        self.lineage = source.lineage
        self._lock = threading.RLock()
        with source._lock:
            for key, rel in source._relations.items():
                self._relations[key] = _PinnedRelation(rel, rel.epoch)

    def snapshot(self):
        """Snapshots are immutable; re-snapshotting returns ``self``."""
        return self

    def add_fact(self, name, *values):
        raise TypeError(
            "DatabaseSnapshot is read-only; mutate the source database "
            "and take a new snapshot"
        )

    def add_facts(self, facts):
        raise TypeError(
            "DatabaseSnapshot is read-only; mutate the source database "
            "and take a new snapshot"
        )

    def relation(self, name, arity):
        """The pinned relation, or an empty stand-in (never creates)."""
        rel = self._relations.get((name, arity))
        if rel is None:
            return EmptyRelation(name, arity)
        return rel

    def __repr__(self):
        inner = ", ".join(
            "%s/%d@%d" % (k[0], k[1], rel.epoch)
            for k, rel in sorted(self._relations.items())
        )
        return "DatabaseSnapshot(%s)" % inner
