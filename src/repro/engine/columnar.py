"""Column-major integer-id encoding of relation rows.

Relations store value rows only (:mod:`repro.engine.relation`).  When
rows leave the process — a checkpoint (:mod:`repro.durability.
checkpoint`) or a shard exchange (:mod:`repro.parallel.executor`) —
they are encoded as parallel ``array('q')`` columns of **intern-pool
ids** (see :meth:`~repro.engine.interning.InternPool.ident`) and
serialized as raw machine words (:meth:`ColumnStore.to_bytes`), a
lossless encoding that costs O(rows) words and no per-row framing.
"""

from array import array


class ColumnStore:
    """Parallel ``array('q')`` id columns for one relation.

    Row *ordinals* (0-based insertion positions) are the row identity;
    the store never reorders or deletes, matching the append-only
    insertion log of :class:`~repro.engine.relation.Relation`.  All ids
    are intern-pool idents, so two stores over the same pool can be
    compared, merged, or shipped between processes as raw bytes.
    """

    __slots__ = ("arity", "_columns",)

    def __init__(self, arity, columns=None):
        if arity < 0:
            raise ValueError("arity must be non-negative, got %d" % arity)
        self.arity = arity
        if columns is None:
            self._columns = tuple(array("q") for _ in range(arity))
        else:
            columns = tuple(columns)
            if len(columns) != arity:
                raise ValueError(
                    "expected %d columns, got %d" % (arity, len(columns))
                )
            self._columns = columns

    def __len__(self):
        return len(self._columns[0]) if self._columns else 0

    def append(self, ids):
        """Append one id-encoded row (one id per column)."""
        for column, ident in zip(self._columns, ids):
            column.append(ident)

    def row(self, ordinal):
        """The id tuple stored at ``ordinal``."""
        return tuple(column[ordinal] for column in self._columns)

    def nbytes(self):
        """Total machine bytes held by the columns."""
        return sum(len(c) * c.itemsize for c in self._columns)

    def to_bytes(self):
        """Serialize as raw little-endian machine words.

        Layout: 8-byte arity, 8-byte row count, then each column's
        words back to back.  No per-row framing — a deserializer
        reslices by count, which is what makes shard serialization
        proportional to raw data size instead of row count times
        object overhead.
        """
        import struct
        import sys

        header = struct.pack("<qq", self.arity, len(self))
        parts = [header]
        for column in self._columns:
            if sys.byteorder == "big":  # pragma: no cover
                column = array("q", column)
                column.byteswap()
            parts.append(column.tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data):
        """Rebuild a store serialized by :meth:`to_bytes`."""
        import struct
        import sys

        arity, count = struct.unpack_from("<qq", data, 0)
        if arity < 0 or count < 0:
            raise ValueError("corrupt column store header")
        word = array("q").itemsize
        expected = 16 + arity * count * word
        if len(data) != expected:
            raise ValueError(
                "corrupt column store: expected %d bytes, got %d"
                % (expected, len(data))
            )
        columns = []
        offset = 16
        for _ in range(arity):
            column = array("q")
            column.frombytes(data[offset:offset + count * word])
            if sys.byteorder == "big":  # pragma: no cover
                column.byteswap()
            columns.append(column)
            offset += count * word
        return cls(arity, tuple(columns))

    def __eq__(self, other):
        if not isinstance(other, ColumnStore):
            return NotImplemented
        return (self.arity == other.arity
                and self._columns == other._columns)

    def __repr__(self):
        return "ColumnStore(arity=%d, rows=%d, %d bytes)" % (
            self.arity, len(self), self.nbytes()
        )


def encode_rows(rows, arity, pool):
    """Id-encode value ``rows`` through ``pool``, assigning ids on first
    use, and serialize them with :meth:`ColumnStore.to_bytes`."""
    store = ColumnStore(arity)
    ident_row = pool.ident_row
    for row in rows:
        store.append(ident_row(row))
    return store.to_bytes()
