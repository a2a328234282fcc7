"""Relation storage, indexing and database tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.relation import WILDCARD, EmptyRelation, Relation
from repro.engine.database import Database


class TestRelation:
    def test_add_and_len(self):
        rel = Relation("p", 2)
        assert rel.add(("a", "b"))
        assert not rel.add(("a", "b"))
        assert len(rel) == 1

    def test_arity_checked(self):
        rel = Relation("p", 2)
        with pytest.raises(ValueError):
            rel.add(("a",))

    def test_match_all(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        rel.add(("a", "c"))
        pattern = (WILDCARD, WILDCARD)
        assert sorted(rel.match(pattern)) == [("a", "b"), ("a", "c")]

    def test_match_bound_first(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        rel.add(("x", "y"))
        assert list(rel.match(("a", WILDCARD))) == [("a", "b")]

    def test_match_fully_bound(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        assert list(rel.match(("a", "b"))) == [("a", "b")]
        assert list(rel.match(("a", "z"))) == []

    def test_index_updated_after_add(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        # Force index creation, then add more rows.
        list(rel.match(("a", WILDCARD)))
        rel.add(("a", "c"))
        assert sorted(rel.match(("a", WILDCARD))) == [("a", "b"), ("a", "c")]

    def test_match_pattern_arity_checked(self):
        rel = Relation("p", 2)
        with pytest.raises(ValueError):
            list(rel.match(("a",)))

    def test_none_is_a_value_not_wildcard(self):
        rel = Relation("p", 1)
        rel.add((None,))
        rel.add(("a",))
        assert list(rel.match((None,))) == [(None,)]

    def test_copy_is_independent(self):
        rel = Relation("p", 1)
        rel.add(("a",))
        clone = rel.copy()
        clone.add(("b",))
        assert len(rel) == 1
        assert len(clone) == 2

    def test_add_all_reports_new(self):
        rel = Relation("p", 1)
        rel.add(("a",))
        added = rel.add_all([("a",), ("b",)])
        assert added == [("b",)]

    def test_contains(self):
        rel = Relation("p", 1)
        rel.add(("a",))
        assert ("a",) in rel
        assert ("b",) not in rel

    def test_structured_values(self):
        rel = Relation("c", 2)
        rel.add(("a", (("r1", (1,)),)))
        assert list(rel.match(("a", WILDCARD)))

    def test_unindexed_scan_mode(self):
        rel = Relation("p", 2, use_indexes=False)
        rel.add(("a", "b"))
        rel.add(("a", "c"))
        rel.add(("z", "w"))
        assert sorted(rel.match(("a", WILDCARD))) == [("a", "b"),
                                                      ("a", "c")]
        assert list(rel.match(("a", "c"))) == [("a", "c")]
        assert rel._indexes == {}
        clone = rel.copy()
        assert not clone.use_indexes


values = st.sampled_from(["a", "b", "c", 0, 1, ("r1", 2)])
rows3 = st.tuples(values, values, values)
INDEXED = ((0,), (2,), (0, 2), (0, 1, 2))


def twin(present):
    """A relation holding ``present`` with every ``INDEXED`` index."""
    rel = Relation("p", 3)
    for row in present:
        rel.add(row)
    for positions in INDEXED:
        rel.ensure_index(positions)
    return rel


def state(rel):
    return (rel.tuples, rel._log, rel.epoch, rel._indexes)


class TestAddAllContract:
    """``add_all`` is a loop of ``add`` with the bookkeeping batched:
    nothing observable — log, epoch, the order inside every index
    bucket — may tell the two apart."""

    @settings(max_examples=120, deadline=None)
    @given(present=st.lists(rows3, max_size=8),
           batch=st.lists(rows3, max_size=12))
    def test_equals_a_loop_of_add(self, present, batch):
        looped, batched = twin(present), twin(present)
        expected = [row for row in batch if looped.add(row)]
        assert batched.add_all(batch) == expected
        assert state(batched) == state(looped)
        assert len(set(expected)) == len(expected)

    @settings(max_examples=60, deadline=None)
    @given(present=st.lists(rows3, max_size=5),
           batch=st.lists(rows3, max_size=6),
           bad=st.sampled_from([("a",), ("a", "b"), ("a", 0, 1, 2)]),
           where=st.integers(0, 6))
    def test_wrong_arity_anywhere_inserts_nothing(self, present, batch,
                                                  bad, where):
        rel, untouched = twin(present), twin(present)
        batch.insert(min(where, len(batch)), bad)
        with pytest.raises(ValueError):
            rel.add_all(batch)
        assert state(rel) == state(untouched)

    def test_accepts_any_iterable_once(self):
        rel = Relation("p", 1)
        assert rel.add_all(iter([("a",), ("b",), ("a",)])) == [
            ("a",), ("b",)]
        assert rel._log == [("a",), ("b",)]


class TestEmptyRelation:
    def test_behaves_empty(self):
        rel = EmptyRelation("p", 2)
        assert len(rel) == 0
        assert list(rel.match((WILDCARD, WILDCARD))) == []
        assert ("a", "b") not in rel


class TestDatabase:
    def test_add_fact(self):
        db = Database()
        db.add_fact("up", "a", "b")
        assert ("a", "b") in db.relation("up", 2)

    def test_from_facts(self):
        db = Database.from_facts([("up", ("a", "b")), ("up", ("b", "c"))])
        assert len(db.relation("up", 2)) == 2

    def test_from_text(self):
        db = Database.from_text("up(a, b). flat(c, 1).")
        assert ("c", 1) in db.relation("flat", 2)

    def test_from_text_rejects_rules(self):
        with pytest.raises(ValueError):
            Database.from_text("p(X) :- q(X).")

    def test_get_missing_is_empty(self):
        db = Database()
        assert len(db.get(("nope", 3))) == 0

    def test_same_name_different_arity(self):
        db = Database()
        db.add_fact("p", "a")
        db.add_fact("p", "a", "b")
        assert len(db.relation("p", 1)) == 1
        assert len(db.relation("p", 2)) == 1

    def test_constants(self):
        db = Database.from_text("up(a, b). down(b, 3).")
        assert db.constants() == {"a", "b", 3}
        assert db.constants([("up", 2)]) == {"a", "b"}

    def test_total_facts(self):
        db = Database.from_text("up(a, b). up(b, c). flat(a, a).")
        assert db.total_facts() == 3

    def test_copy_independent(self):
        db = Database.from_text("up(a, b).")
        clone = db.copy()
        clone.add_fact("up", "b", "c")
        assert db.total_facts() == 1
        assert clone.total_facts() == 2
