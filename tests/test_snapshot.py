"""Epoch-pinned snapshots: read views that never move.

The serving layer evaluates every request against a
``Database.snapshot()`` generation.  The contract under test: a reader
pinned to epoch E observes exactly the first E insertions of each
relation — never a row added after the pin, never a half-applied
``add_facts`` batch — even while writer threads mutate the source
concurrently.
"""

import itertools
import sys
import threading
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, DatabaseSnapshot, evaluate_query, parse_query
from repro.durability import DurableDatabase
from repro.engine.instrumentation import EvalStats
from repro.engine.relation import Relation, WILDCARD


def index_key(row, positions):
    """The key ``Relation`` files ``row`` under in its ``positions``
    index: the bare value for one position, a tuple otherwise."""
    if len(positions) == 1:
        return row[positions[0]]
    return tuple(row[i] for i in positions)


def assert_from_empty_build(view, log):
    """``view`` is what a from-empty build over ``log[:view.epoch]``
    holds: rows, insertion log and every index present."""
    rows = log[:view.epoch]
    assert view._log == rows
    assert set(view) == set(rows)
    assert len(view) == len(rows)
    for positions, index in view._indexes.items():
        expected = {}
        for row in rows:
            expected.setdefault(index_key(row, positions), []).append(row)
        assert index.keys() == expected.keys()
        for key, bucket in expected.items():
            # Rows are unique, so sorted lists compare as multisets.
            assert sorted(index[key]) == sorted(bucket)


def fingerprint(view):
    """Everything a frozen view holds, bucket order included."""
    return (
        view.epoch,
        tuple(view._log),
        frozenset(view.tuples),
        {
            positions: {key: tuple(rows) for key, rows in index.items()}
            for positions, index in view._indexes.items()
        },
    )


def assert_unchanged(view, recorded):
    """Bit for bit what ``fingerprint`` recorded; indexes built since
    are allowed, the recorded ones must not have moved."""
    now = fingerprint(view)
    assert now[:3] == recorded[:3]
    for positions, index in recorded[3].items():
        assert now[3][positions] == index


class TestRelationPinned:
    def test_pinned_prefix_matches_insertion_order(self):
        rel = Relation("r", 1)
        for index in range(5):
            rel.add((index,))
        view = rel.pinned(3)
        assert set(view) == {(0,), (1,), (2,)}
        assert view.epoch == 3
        assert len(view) == 3

    def test_pinned_ignores_later_adds(self):
        rel = Relation("r", 1)
        rel.add((1,))
        view = rel.pinned(rel.epoch)
        rel.add((2,))
        assert set(view) == {(1,)}
        assert (2,) not in view

    def test_pinned_bounds_checked(self):
        rel = Relation("r", 1)
        rel.add((1,))
        with pytest.raises(ValueError):
            rel.pinned(2)
        with pytest.raises(ValueError):
            rel.pinned(-1)

    def test_duplicate_adds_do_not_bump_epoch_or_log(self):
        rel = Relation("r", 1)
        rel.add((1,))
        rel.add((1,))
        assert rel.epoch == 1
        assert set(rel.pinned(1)) == {(1,)}

    def test_pinned_lookup_and_match_work(self):
        rel = Relation("r", 2)
        rel.add(("a", 1))
        rel.add(("a", 2))
        view = rel.pinned(1)
        assert list(view.lookup((0,), "a")) == [("a", 1)]
        assert set(view.match(("a", WILDCARD))) == {("a", 1)}


class TestViewsExtend:
    """Generation g+1 of a relation is generation g plus the log
    suffix: same object when nothing was written, copied containers
    and shared buckets otherwise."""

    @staticmethod
    def edges():
        db = Database()
        db.add_facts([("e", ("a", 1)), ("e", ("a", 2)), ("e", ("b", 3)),
                      ("other", ("x",))])
        return db

    def test_unwritten_relation_keeps_its_view_and_indexes(self):
        db = self.edges()
        first = db.snapshot()
        view = first.get(("e", 2))._rel()
        built = EvalStats()
        assert sorted(first.get(("e", 2)).lookup((0,), "a", built)) == [
            ("a", 1), ("a", 2)]
        assert built.index_builds == 1
        db.add_fact("other", "y")
        second = db.snapshot()
        assert second.get(("e", 2))._rel() is view
        assert second.get(("other", 1))._rel() is not \
            first.get(("other", 1))._rel()
        carried = EvalStats()
        second.get(("e", 2)).lookup((0,), "b", carried)
        assert carried.index_builds == 0
        assert carried.index_probes == 1

    def test_grown_relation_copies_and_shares_buckets(self):
        db = self.edges()
        first = db.snapshot()
        old = first.get(("e", 2))
        old.ensure_index((0,))
        old.ensure_index((0, 1))
        old_a = old.lookup((0,), "a")
        old_b = old.lookup((0,), "b")
        db.add_facts([("e", ("a", 4)), ("e", ("c", 5)), ("e", ("a", 6))])
        new = db.snapshot().get(("e", 2))
        stats = EvalStats()
        assert new.lookup((0,), "a", stats) == old_a + [
            ("a", 4), ("a", 6)]
        assert new.lookup((0,), "c", stats) == [("c", 5)]
        assert new.lookup((0, 1), ("a", 6), stats) == (("a", 6),)
        assert new._rel()._indexes[(0, 1)][("c", 5)] == [("c", 5)]
        assert stats.index_builds == 0
        # The untouched bucket is shared, the touched one was replaced
        # and the previous generation still reads what it read before.
        assert new.lookup((0,), "b") is old_b
        assert old.lookup((0,), "a") is old_a
        assert sorted(old_a) == [("a", 1), ("a", 2)]
        assert old.lookup((0,), "c") == ()
        assert len(old) == 3 and len(new) == 6
        assert_from_empty_build(old._rel(), db.get(("e", 2))._log)
        assert_from_empty_build(new._rel(), db.get(("e", 2))._log)

    def test_older_pin_materializing_after_a_newer_one(self):
        db = self.edges()
        base = db.snapshot()
        base.get(("e", 2)).ensure_index((1,))
        db.add_fact("e", "c", 4)
        older = db.snapshot()
        db.add_fact("e", "d", 5)
        newer = db.snapshot()
        newest = newer.get(("e", 2))._rel()
        assert (1,) in newest._indexes
        view = older.get(("e", 2))._rel()
        # Built from the empty view: correct, index-less, and not the
        # starting point of later generations.
        assert view._indexes == {}
        assert set(view) == {("a", 1), ("a", 2), ("b", 3), ("c", 4)}
        assert db.get(("e", 2)).newest_view() is newest
        assert db.snapshot().get(("e", 2))._rel() is newest

    def test_views_are_read_only_and_copies_are_not(self):
        db = self.edges()
        view = db.get(("e", 2)).pinned(2)
        view.ensure_index((0,))
        assert isinstance(view, Relation)
        with pytest.raises(TypeError):
            view.add(("z", 9))
        with pytest.raises(TypeError):
            view.add_all([("z", 9)])
        clone = view.copy()
        assert type(clone) is Relation
        assert clone.add(("a", 9))
        assert sorted(clone.lookup((0,), "a")) == [
            ("a", 1), ("a", 2), ("a", 9)]
        assert sorted(view.lookup((0,), "a")) == [("a", 1), ("a", 2)]
        assert len(view) == 2

    def test_live_database_keeps_no_view_alive(self, tmp_path,
                                               refcount_only):
        """Views die with the snapshots holding them, by refcount
        alone — a checkpoint's internal snapshot included."""
        db = DurableDatabase(str(tmp_path / "state"))
        db.add_facts([("e", ("a", 1)), ("e", ("b", 2))])
        relation = db.get(("e", 2))
        snap = db.snapshot()
        view = weakref.ref(snap.get(("e", 2))._rel())
        db.add_fact("e", "c", 3)
        later = db.snapshot()
        del snap
        # Held as the starting point of the pin not yet touched.
        assert view() is not None
        assert len(later.get(("e", 2))) == 3
        assert view() is None
        assert relation.newest_view() is later.get(("e", 2))._rel()
        db.checkpoint()
        assert relation.newest_view() is later.get(("e", 2))._rel()
        del later
        assert relation.newest_view() is None
        db.checkpoint()
        assert relation.newest_view() is None
        db.close()


RELATIONS = {"r": 2, "s": 3, "t": 1}
POSITIONS = {
    "r": [(0,), (1,), (0, 1)],
    "s": [(0,), (2,), (0, 1), (1, 2), (0, 1, 2)],
    "t": [(0,)],
}
VALUES = st.integers(0, 3)
FACTS = st.one_of(*[
    st.tuples(st.just(name), st.tuples(*[VALUES] * arity))
    for name, arity in sorted(RELATIONS.items())
])
#: Drops are rare, so that several generations are usually alive.
KINDS = ("write",) * 2 + ("snapshot",) * 2 + ("probe",) * 3 + ("drop",)
#: One step: its kind, and the arguments whichever kind it is reads —
#: a batch to write; which snapshot to probe or drop (0 = the newest
#: alive); for some relations, which index to build and a key to look
#: up in it.
OPS = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.lists(FACTS, max_size=6),
        st.integers(0, 3),
        st.dictionaries(st.sampled_from(sorted(RELATIONS)),
                        st.tuples(st.integers(0, 4), VALUES), min_size=1),
    ),
    # hypothesis draws lists of ~5 elements unless told otherwise: too
    # short for write / snapshot / probe / write / snapshot / probe.
    min_size=8, max_size=40,
)


class TestGenerationsEqualFromEmptyBuilds:
    """Whatever the interleaving of writes, snapshots, index-building
    probes on arbitrary generations (so older pins materialize after
    newer ones) and dropped snapshots: every generation alive is the
    from-empty build at its epochs and never moves afterwards."""

    @staticmethod
    def check(db, alive, recorded):
        """Every *materialized* view of every live snapshot against the
        reference and against the fingerprint recorded one step ago."""
        for snap in alive:
            for key, pinned in snap._relations.items():
                view = pinned._frozen
                if view is None:
                    continue
                assert view.epoch == pinned.epoch
                assert_from_empty_build(view, db.get(key)._log)
                if view in recorded:
                    assert_unchanged(view, recorded[view])
                recorded[view] = fingerprint(view)

    @staticmethod
    def probe(db, snap, probes):
        for name, (choice, value) in sorted(probes.items()):
            key = (name, RELATIONS[name])
            if key not in snap:
                continue  # created after the snapshot was taken
            positions = POSITIONS[name][choice % len(POSITIONS[name])]
            relation = snap.get(key)
            index = relation.ensure_index(positions)
            rows = db.get(key)._log[:relation.epoch]
            wanted = index_key((value,) * RELATIONS[name], positions)
            assert sorted(index.get(wanted, ())) == sorted(
                row for row in rows
                if index_key(row, positions) == wanted
            )

    @staticmethod
    def touch_all(alive):
        """Materialize everything still lazy, oldest generation last
        (in a frame of its own: no local may outlive the snapshots)."""
        for snap in reversed(alive):
            for pinned in snap._relations.values():
                pinned._rel()

    # ``refcount_only`` spans all examples, which is what is wanted.
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=OPS)
    def test_interleavings(self, refcount_only, ops):
        db = Database()
        alive, recorded = [], weakref.WeakKeyDictionary()
        for kind, batch, which, probes in ops:
            if kind == "write":
                db.add_facts(batch)
            elif kind == "snapshot":
                alive.append(db.snapshot())
            elif alive and kind == "probe":
                self.probe(db, alive[-1 - which % len(alive)], probes)
            elif alive and kind == "drop":
                del alive[-1 - which % len(alive)]
            self.check(db, alive, recorded)
        self.touch_all(alive)
        self.check(db, alive, recorded)
        del alive[:]
        assert len(recorded) == 0
        for key in db.keys():
            assert db.get(key).newest_view() is None


class TestDatabaseSnapshot:
    def test_snapshot_is_frozen_view(self):
        db = Database.from_text("up(a, b). flat(b, c).")
        snap = db.snapshot()
        db.add_fact("up", "b", "c")
        db.add_fact("down", "x", "y")
        assert set(snap.get(("up", 2))) == {("a", "b")}
        assert len(snap.get(("down", 2))) == 0
        assert set(db.get(("up", 2))) == {("a", "b"), ("b", "c")}

    def test_snapshot_is_read_only(self):
        snap = Database.from_text("up(a, b).").snapshot()
        with pytest.raises(TypeError):
            snap.add_fact("up", "x", "y")
        with pytest.raises(TypeError):
            snap.add_facts([("up", ("x", "y"))])

    def test_snapshot_of_snapshot_is_itself(self):
        snap = Database.from_text("up(a, b).").snapshot()
        assert snap.snapshot() is snap
        assert isinstance(snap, DatabaseSnapshot)
        assert isinstance(snap, Database)

    def test_relation_access_never_creates(self):
        snap = Database.from_text("up(a, b).").snapshot()
        missing = snap.relation("ghost", 2)
        assert len(missing) == 0
        assert ("ghost", 2) not in snap.keys()

    def test_snapshot_epochs_are_pinned(self):
        db = Database.from_text("up(a, b).")
        snap = db.snapshot()
        before = snap.epochs((("up", 2),))
        db.add_fact("up", "b", "c")
        assert snap.epochs((("up", 2),)) == before
        assert db.epochs((("up", 2),)) != before

    def test_snapshot_copy_is_mutable_and_detached(self):
        db = Database.from_text("up(a, b).")
        snap = db.snapshot()
        clone = snap.copy()
        clone.add_fact("up", "b", "c")
        assert set(clone.get(("up", 2))) == {("a", "b"), ("b", "c")}
        assert set(snap.get(("up", 2))) == {("a", "b")}

    def test_evaluate_against_snapshot(self):
        query = parse_query("""
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
            ?- sg(a, Y).
        """)
        db = Database.from_text("""
            up(a, b). flat(b, c). down(c, d).
        """)
        snap = db.snapshot()
        before = evaluate_query(query, snap).answers
        db.add_fact("flat", "a", "direct")
        after_live = evaluate_query(query, db).answers
        after_snap = evaluate_query(query, snap).answers
        assert after_snap == before
        assert ("direct",) in after_live
        assert ("direct",) not in after_snap


class TestConcurrentPinning:
    """Property: a reader pinned to epoch E never sees row E+1."""

    WRITERS = 4
    ROWS_PER_WRITER = 300

    def test_reader_never_sees_rows_past_pin(self):
        db = Database()
        db.add_fact("r", 0, 0)
        stop = threading.Event()
        errors = []

        def writer(writer_id):
            for index in range(1, self.ROWS_PER_WRITER + 1):
                db.add_fact("r", writer_id, index)

        def reader():
            try:
                while not stop.is_set():
                    snap = db.snapshot()
                    rel = snap.get(("r", 2))
                    pinned_epoch = rel.epoch
                    first = set(rel)
                    # Re-reads of the same pinned view are frozen ...
                    assert set(rel) == first
                    assert len(first) == pinned_epoch
                    # ... while the live relation only ever grows.
                    assert len(db.get(("r", 2))) >= pinned_epoch
            except AssertionError as exc:  # pragma: no cover
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writers = [
            threading.Thread(target=writer, args=(writer_id,))
            for writer_id in range(self.WRITERS)
        ]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert errors == []
        assert len(db.get(("r", 2))) == (
            self.WRITERS * self.ROWS_PER_WRITER + 1
        )

    def test_indexing_a_generation_while_the_next_derives_from_it(self):
        """Generation g+1 copies g's containers while a reader is still
        building indexes on g and a writer appends: nothing raises
        (``dictionary changed size during iteration``), no view holds a
        row past its pin, g loses no index and g+1 carries those g had
        when the derivation began."""
        db = Database()
        # Near-unique columns: every index is as large as the relation.
        db.add_facts(
            ("r", (index, index * 7 % 593, index * 13 % 587))
            for index in range(600)
        )
        key = ("r", 3)
        log = db.get(key)._log
        # Every ordered choice of columns is an index of its own, so
        # g's index table keeps growing while g+1 is copied from it.
        orders = [
            positions
            for size in (1, 2, 3)
            for positions in itertools.permutations(range(3), size)
        ]
        before, during = orders[:8], orders[8:]

        def one_round(round_id):
            # Nothing outlives a round, so g starts from the empty
            # view with no indexes but the ones built here.
            previous = db.snapshot().get(key)
            for positions in before:
                previous.ensure_index(positions)
            first_new = 10000 + 20 * round_id
            db.add_fact("r", first_new, round_id, round_id)
            errors = []

            def index_previous():
                try:
                    for positions in during:
                        previous.ensure_index(positions)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            def write():
                for item in range(1, 20):
                    db.add_fact("r", first_new + item, item, item)

            threads = [threading.Thread(target=index_previous),
                       threading.Thread(target=write)]
            for thread in threads:
                thread.start()
            try:
                derived = db.snapshot().get(key)._rel()
            finally:
                for thread in threads:
                    thread.join(30.0)
                    assert not thread.is_alive()
            assert errors == []
            old = previous._rel()
            assert derived is not old
            assert derived.epoch > old.epoch
            assert set(old._indexes) == set(orders)
            assert set(derived._indexes) >= set(before)
            assert_from_empty_build(old, log)
            assert_from_empty_build(derived, log)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_id in range(20):
                one_round(round_id)
        finally:
            sys.setswitchinterval(interval)

    def test_index_published_on_the_base_mid_derivation(self):
        """The interleaving the stress test above can only hope for,
        forced: a reader publishes an index on g while g+1 is half way
        through copying g's index table."""
        db = Database()
        db.add_facts(("r", (index % 3, index)) for index in range(12))
        key = ("r", 2)
        base = db.snapshot().get(key)._rel()
        published = []

        class PublishesWhenCopied(dict):
            def copy(self):
                published.append(base.ensure_index((1,)))
                return dict(self)

        base._indexes[(0,)] = PublishesWhenCopied(base.ensure_index((0,)))
        db.add_fact("r", 0, 99)
        derived = db.snapshot().get(key)._rel()
        assert len(published) == 1
        assert set(base._indexes) == {(0,), (1,)}
        assert (0,) in derived._indexes
        assert_from_empty_build(base, db.get(key)._log)
        assert_from_empty_build(derived, db.get(key)._log)

    def test_add_facts_batches_are_atomic_under_snapshots(self):
        """A snapshot sees whole ``add_facts`` batches or nothing."""
        db = Database()
        batch_size = 7
        batches = 120
        stop = threading.Event()
        errors = []

        def writer():
            for batch_id in range(batches):
                db.add_facts(
                    ("r", (batch_id, item))
                    for item in range(batch_size)
                )

        def reader():
            try:
                while not stop.is_set():
                    snap = db.snapshot()
                    count = len(snap.get(("r", 2)))
                    assert count % batch_size == 0, (
                        "snapshot saw a torn batch: %d rows" % count
                    )
            except AssertionError as exc:  # pragma: no cover
                errors.append(exc)

        reader_threads = [
            threading.Thread(target=reader) for _ in range(3)
        ]
        writer_thread = threading.Thread(target=writer)
        for thread in reader_threads:
            thread.start()
        writer_thread.start()
        writer_thread.join()
        stop.set()
        for thread in reader_threads:
            thread.join()
        assert errors == []
        assert len(db.get(("r", 2))) == batch_size * batches

    def test_interning_identity_stable_across_threads(self):
        """Interned constants keep one identity under concurrent adds."""
        db = Database()
        names = ["c%d" % index for index in range(50)]

        def writer(offset):
            for index, name in enumerate(names):
                db.add_fact("r", name, offset * 1000 + index)

        threads = [
            threading.Thread(target=writer, args=(offset,))
            for offset in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pool = db.intern_pool
        for name in names:
            assert pool.ident(name) == pool.ident(name)
        idents = [pool.ident(name) for name in names]
        assert len(set(idents)) == len(names)
