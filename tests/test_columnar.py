"""Differential suite for the columnar storage layer.

Every database relation holds its rows twice (see
:mod:`repro.engine.columnar`): as value tuples, which the joins read,
and as parallel id columns, which checkpoints, shard exchange and
snapshots serialize.  The contract is that the id columns are a
lossless view of the rows: a database rebuilt from nothing but the
column bytes must produce byte-identical rendered answers and
identical semantic work counters on every workload and strategy.  This
suite enforces that over the full paper matrix — the e1–e10 experiment
shapes plus the S1 (``sg_cylinder``) and S3 (``sg_forest``) workloads —
and covers the storage primitives the equivalence rests on: the
:class:`ColumnStore` id mirror, the lossless decode contract, and
``pinned()`` prefix snapshots under concurrent writers, with and
without id columns.
"""

import threading

import pytest

from repro.data.workloads import WORKLOADS
from repro.datalog.pretty import format_value
from repro.engine.columnar import ColumnStore
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.exec.strategies import run_strategy

#: Every (workload, strategy) cell of the paper matrix.  This spans the
#: program shapes of experiments e1–e10 (trees, chains, multi-rule,
#: shared variables, cyclic data, mixed/right/left-linear) plus the S1
#: cylinder and S3 forest workloads.
MATRIX = [
    (wname, sname)
    for wname, workload in sorted(WORKLOADS.items())
    for sname in workload.applicable
]


def _render(answers):
    """Render an answer set exactly as the CLI would print it.

    Sorted, formatted through :func:`format_value`, encoded — the
    "byte-identical rendered answers" half of the storage contract.
    """
    lines = sorted(
        "(%s)" % ", ".join(format_value(v) for v in row)
        for row in answers
    )
    return "\n".join(lines).encode("utf-8")


def _from_columns(db):
    """A database rebuilt from ``db``'s serialized id columns alone —
    what a checkpoint load or a shard worker holds."""
    decode_row = db.intern_pool.decode_row
    clone = Database()
    for name, arity in sorted(db.keys()):
        store = ColumnStore.from_bytes(db.get((name, arity)).column_bytes())
        clone.add_facts(
            (name, decode_row(store.row(ordinal)))
            for ordinal in range(len(store))
        )
    return clone


def _edge_relation(pooled):
    """``edge/2`` with id columns (a database relation) or without."""
    return (Database().relation("edge", 2) if pooled
            else Relation("edge", 2))


def _run(from_columns, wname, sname):
    workload = WORKLOADS[wname]
    db, _source = workload.make_db()
    if from_columns:
        db = _from_columns(db)
    result = run_strategy(sname, workload.query, db)
    return _render(result.answers), dict(result.stats.as_dict())


class TestDifferentialBackends:
    @pytest.mark.parametrize("wname,sname", MATRIX)
    def test_backends_agree(self, wname, sname):
        rows_rendered, rows_stats = _run(False, wname, sname)
        col_rendered, col_stats = _run(True, wname, sname)
        assert rows_rendered == col_rendered
        # The headline counters first, for a readable failure…
        assert rows_stats["facts_derived"] == col_stats["facts_derived"]
        assert rows_stats["iterations"] == col_stats["iterations"]
        # …then the whole dict: *every* semantic work counter must
        # match, including index_probes (the A3 ablation reads it) and
        # tuples_scanned.
        assert rows_stats == col_stats


class TestColumnStore:
    def test_append_row_roundtrip(self):
        store = ColumnStore(3)
        store.append((1, 2, 3))
        store.append((4, 5, 6))
        assert len(store) == 2
        assert store.row(0) == (1, 2, 3)
        assert store.row(1) == (4, 5, 6)
        assert list(store.column(1)) == [2, 5]

    def test_zero_arity(self):
        store = ColumnStore(0)
        assert len(store) == 0
        with pytest.raises(ValueError):
            ColumnStore(-1)

    def test_prefix_is_a_copy(self):
        store = ColumnStore(2)
        store.append((1, 2))
        store.append((3, 4))
        prefix = store.prefix(1)
        assert len(prefix) == 1
        assert prefix.row(0) == (1, 2)
        store.append((5, 6))
        assert len(prefix) == 1
        with pytest.raises(ValueError):
            store.prefix(7)

    def test_bytes_roundtrip(self):
        store = ColumnStore(2)
        store.append((1, -2))
        store.append((2 ** 40, 7))
        data = store.to_bytes()
        assert ColumnStore.from_bytes(data) == store
        # 16-byte header + arity * rows machine words.
        assert len(data) == 16 + 2 * 2 * 8

    def test_bytes_rejects_corruption(self):
        store = ColumnStore(1)
        store.append((42,))
        data = store.to_bytes()
        with pytest.raises(ValueError):
            ColumnStore.from_bytes(data[:-1])
        with pytest.raises(ValueError):
            ColumnStore.from_bytes(b"\xff" * 16)


class TestDecodeContract:
    def test_decode_ordinal_matches_insertion_log(self):
        rel = Database().relation("edge", 2)
        rows = [("n%d" % i, "n%d" % (i + 1)) for i in range(50)]
        rel.add_all(rows)
        for ordinal, row in enumerate(rows):
            assert rel.decode_ordinal(ordinal) == row
        assert rel.column_bytes() == rel._ids.to_bytes()

    def test_row_backend_has_no_columns(self):
        # A relation built without an intern pool holds value rows only.
        rel = Relation("edge", 2)
        rel.add(("a", "b"))
        for probe in (
            lambda: rel.id_column(0),
            lambda: rel.id_row(0),
            lambda: rel.column_bytes(),
        ):
            with pytest.raises(TypeError):
                probe()


class TestPinnedUnderConcurrentWriters:
    """``pinned()`` must serve a frozen prefix while writers append."""

    ROWS = 400

    def _hammer(self, pooled):
        rel = _edge_relation(pooled)
        stop = threading.Event()
        failures = []

        def writer():
            i = 0
            while not stop.is_set():
                rel.add(("w%d" % i, "w%d" % (i + 1)))
                i += 1
                if i >= self.ROWS:
                    break

        def reader():
            while not stop.is_set():
                epoch = rel.epoch
                pinned = rel.pinned(epoch)
                try:
                    assert len(pinned) == epoch
                    assert pinned.epoch == epoch
                    assert set(pinned._log) == pinned.tuples
                    if pinned.columnar:
                        for ordinal in (0, epoch // 2, epoch - 1):
                            if 0 <= ordinal < epoch:
                                assert (
                                    pinned.decode_ordinal(ordinal)
                                    == pinned._log[ordinal]
                                )
                except AssertionError as exc:  # pragma: no cover
                    failures.append(exc)
                    stop.set()
                if epoch >= self.ROWS:
                    break

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        stop.set()
        assert not failures
        return rel

    def test_columnar_pinned_is_consistent_prefix(self):
        rel = self._hammer(True)
        assert rel.columnar

    def test_row_pinned_is_consistent_prefix(self):
        rel = self._hammer(False)
        assert not rel.columnar

    def test_pinned_views_agree_across_backends(self):
        rows = [("p%d" % i, "p%d" % (i + 1)) for i in range(64)]
        views = {}
        for pooled in (False, True):
            rel = _edge_relation(pooled)
            rel.add_all(rows)
            views[pooled] = rel.pinned(32)
        assert views[False].tuples == views[True].tuples
        assert views[False]._log == views[True]._log
        assert views[True]._ids is not None
        assert len(views[True]._ids) == 32
        assert views[False]._ids is None


class TestStorageInfo:
    def test_relation_without_pool_stays_rows(self):
        # Bare relations (no intern pool) cannot encode ids.
        rel = Relation("scratch", 2)
        rel.add(("a", "b"))
        assert not rel.columnar
        assert Database().relation("edge", 2).columnar
