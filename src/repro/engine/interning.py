"""Constant interning: canonical instances plus stable integer ids.

Join keys in this engine are Python values (strings, ints, tuples).
Hashing and equality-testing the same string value millions of times
during a fixpoint costs real time even though ``str`` caches its hash,
because distinct-but-equal instances always fall through the pointer
fast path of ``==``.  :class:`InternPool` canonicalizes every constant
at :class:`~repro.engine.database.Database` load time:

* strings go through :func:`sys.intern`, so repeated occurrences of the
  same value across facts share one object and ``==`` short-circuits on
  identity;
* tuples (the paper's encoded lists) and frozensets are canonicalized
  recursively and deduplicated, so structurally equal compounds compare
  via a single pointer check prefix;
* a canonical value receives a stable, append-only **integer id**
  (:meth:`InternPool.ident`) the first time rows holding it are
  encoded as id columns (a checkpoint or a shard exchange, see
  :mod:`repro.engine.columnar`).

Invariant: interning must never change observable output.  Canonical
instances are ``==`` to the originals, so ``render()`` / CLI output,
answer sets, sort orders and arithmetic are byte-identical with and
without the pool — the integer ids are an *extra* view, never a
substitute applied to stored rows.  (Substituting ids into rows would
corrupt value ordering and arithmetic, which is why the pool keeps the
values themselves canonical instead.)

``Database.copy()`` shares its pool with the clone: the table is
append-only, so sharing is safe and keeps ids stable across snapshots.
"""

import sys
import threading


class InternPool:
    """Append-only table of canonical constant values and their ids.

    Safe to share across threads: :meth:`intern` races are benign (two
    threads canonicalizing the same new value both publish equal
    instances; the pointer fast path merely warms up one insert later),
    but :meth:`ident` must hand out *stable* ids, so id assignment is
    serialized on a lock.
    """

    __slots__ = ("_canon", "_ids", "_values", "_id_lock")

    def __init__(self):
        self._canon = {}
        self._ids = {}
        #: Reverse table: ``_values[ident]`` is the canonical value the
        #: id was assigned to.  Append-only, published under the id
        #: lock *before* the id itself, so any id a reader legitimately
        #: holds already has its value in place.
        self._values = []
        self._id_lock = threading.Lock()

    def intern(self, value):
        """Return the canonical instance equal to ``value``.

        Keys include the concrete type so equal-but-distinct values
        (``1`` / ``True`` / ``1.0``) keep their own identity — folding
        them together would change rendered output.
        """
        if isinstance(value, str):
            return sys.intern(value)
        if isinstance(value, tuple):
            value = tuple(self.intern(item) for item in value)
        elif isinstance(value, frozenset):
            value = frozenset(self.intern(item) for item in value)
        key = (value.__class__, value)
        canonical = self._canon.get(key)
        if canonical is None:
            self._canon[key] = value
            return value
        return canonical

    def ident(self, value):
        """A stable integer id for ``value`` (assigned on first use)."""
        value = self.intern(value)
        key = (value.__class__, value)
        ident = self._ids.get(key)
        if ident is None:
            with self._id_lock:
                ident = self._ids.get(key)
                if ident is None:
                    ident = len(self._ids)
                    self._values.append(value)
                    self._ids[key] = ident
        return ident

    def peek(self, value):
        """The id of ``value`` if one was ever assigned, else ``None``.

        Unlike :meth:`ident` this never allocates — probing for a
        constant the database has never stored must not grow the pool.
        """
        value = self.intern(value)
        return self._ids.get((value.__class__, value))

    def ident_row(self, row):
        """Id-encode a value row (assigning ids on first use)."""
        return tuple(self.ident(value) for value in row)

    def decode_row(self, ids):
        """Decode an id row back to its canonical value tuple."""
        values = self._values
        return tuple(values[ident] for ident in ids)

    def intern_row(self, row):
        return tuple(self.intern(value) for value in row)

    def __len__(self):
        return len(self._ids)

    def __repr__(self):
        return "InternPool(%d canonical, %d ids)" % (
            len(self._canon), len(self._ids)
        )
