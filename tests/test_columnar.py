"""Differential suite for the checkpoint codec.

A relation holds its rows once, as value tuples (see
:mod:`repro.engine.relation`); a checkpoint encodes each insertion log
as intern-id columns (:mod:`repro.engine.columnar`) beside the pool's
value table.  The contract is that the encoding is lossless: a
database restored from nothing but the checkpoint file must hold the
same logs and epochs, and produce byte-identical rendered answers and
identical semantic work counters on every workload and strategy.  This
suite enforces that over the full paper matrix — the e1–e10 experiment
shapes plus the S1 (``sg_cylinder``) and S3 (``sg_forest``) workloads —
and covers the primitives the round trip rests on: the
:class:`ColumnStore` byte layout, :meth:`Relation.column_bytes`, and
``pinned()`` prefix snapshots under concurrent writers.
"""

import threading

import pytest

from repro.data.workloads import WORKLOADS
from repro.datalog.pretty import format_value
from repro.durability.checkpoint import read_checkpoint, write_checkpoint
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
    "byte-identical rendered answers" half of the codec contract.
    """
    lines = sorted(
        "(%s)" % ", ".join(format_value(v) for v in row)
        for row in answers
    )
    return "\n".join(lines).encode("utf-8")


def _run(db, workload, sname):
    result = run_strategy(sname, workload.query, db)
    return _render(result.answers), dict(result.stats.as_dict())


class TestDifferentialBackends:
    """The live database against its checkpoint-restored twin."""

    @pytest.mark.parametrize("wname,sname", MATRIX)
    def test_backends_agree(self, tmp_path, wname, sname):
        workload = WORKLOADS[wname]
        live, _source = workload.make_db()
        path = write_checkpoint(str(tmp_path / "ckpt.bin"), live, 0)
        restored = read_checkpoint(path).restore(Database())
        for key in live.keys():
            assert restored.get(key)._log == live.get(key)._log
        assert restored.epochs(sorted(live.keys())) == live.epochs(
            sorted(live.keys()))
        live_rendered, live_stats = _run(live, workload, sname)
        restored_rendered, restored_stats = _run(restored, workload, sname)
        assert live_rendered == restored_rendered
        # The headline counters first, for a readable failure…
        assert live_stats["facts_derived"] == restored_stats["facts_derived"]
        assert live_stats["iterations"] == restored_stats["iterations"]
        # …then the whole dict: *every* semantic work counter must
        # match, including index_probes (the A3 ablation reads it) and
        # tuples_scanned.
        assert live_stats == restored_stats


class TestColumnStore:
    def test_append_row_roundtrip(self):
        store = ColumnStore(3)
        store.append((1, 2, 3))
        store.append((4, 5, 6))
        assert len(store) == 2
        assert store.row(0) == (1, 2, 3)
        assert store.row(1) == (4, 5, 6)

    def test_zero_arity(self):
        store = ColumnStore(0)
        assert len(store) == 0
        with pytest.raises(ValueError):
            ColumnStore(-1)

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


class TestColumnBytes:
    def test_column_bytes_decode_to_the_insertion_log(self):
        db = Database()
        rel = db.relation("edge", 2)
        rows = [("n%d" % i, "n%d" % (i + 1)) for i in range(50)]
        rel.add_all(rows)
        data = rel.column_bytes()
        assert len(data) == 16 + 8 * 2 * len(rows)
        store = ColumnStore.from_bytes(data)
        decode_row = db.intern_pool.decode_row
        assert [decode_row(store.row(i)) for i in range(len(store))] == rows
        # Encoding keeps nothing: the same log encodes to the same bytes.
        assert rel.column_bytes() == data

    def test_relation_without_pool_has_no_column_bytes(self):
        rel = Relation("edge", 2)
        rel.add(("a", "b"))
        with pytest.raises(TypeError):
            rel.column_bytes()


class TestPinnedUnderConcurrentWriters:
    """``pinned()`` must serve a frozen prefix while writers append."""

    ROWS = 400

    def test_pinned_is_consistent_prefix(self):
        rel = Database().relation("edge", 2)
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
                    assert pinned._log == rel._log[:epoch]
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
