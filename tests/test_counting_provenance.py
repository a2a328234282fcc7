"""Counting-table rendering and answer provenance tests."""

import pytest

from repro import parse_query
from repro.exec.counting_engine import CountingEngine
from repro.rewriting.adornment import adorn_query
from repro.rewriting.canonical import canonicalize_clique, query_constants
from repro.rewriting.support import goal_clique_of


def make_engine(query, db, **kwargs):
    adorned = adorn_query(query)
    clique, _support = goal_clique_of(adorned)
    canonical = canonicalize_clique(clique, adorned)
    return CountingEngine(
        canonical,
        adorned.goal.key,
        query_constants(adorned.goal),
        db.get,
        **kwargs,
    )


class TestRender:
    def test_example5_table_matches_paper(self, sg_query, example5_db):
        engine = make_engine(sg_query, example5_db)
        engine.build_counting_set()
        text = engine.table.render()
        # The paper's counting set: o1..o5 with these predecessor sets.
        assert "o1 : (a, {(r0, [], nil)})" in text
        assert "o2 : (b, {(r1, [], o1)})" in text
        assert "o3 : (c, {(r1, [], o2)})" in text
        # d has o3 (ahead) and o5 (back); e has o4 and o2 (forward).
        d_line = [l for l in text.splitlines() if l.startswith("o4")][0]
        assert "o3" in d_line and "o5" in d_line
        e_line = [l for l in text.splitlines() if l.startswith("o5")][0]
        assert "o4" in e_line and "o2" in e_line

    def test_shared_values_rendered(self, example4_query, example4_db_a):
        engine = make_engine(example4_query, example4_db_a)
        engine.build_counting_set()
        text = engine.table.render()
        assert "[1]" in text  # the shared W value rides the triple


class TestAnswerPath:
    def test_path_unwinds_to_exit(self, sg_query, sg_db):
        engine = make_engine(sg_query, sg_db)
        engine.run()
        steps = engine.answer_path(("e1",))
        # Exit fired at c (two ups from a), then two down steps.
        assert len(steps) == 3
        exit_label, exit_node, exit_values = steps[0]
        assert exit_node == ("c",)
        assert exit_values == ("c1",)
        final_label, final_node, final_values = steps[-1]
        assert final_node == ("a",)
        assert final_values == ("e1",)

    def test_rule_sequence_replayed_in_reverse(self, example3_query):
        from repro.engine import Database

        db = Database.from_text("""
            up1(a, b). up2(b, c).
            flat(c, m).
            down2(m, n). down1(n, o).
        """)
        engine = make_engine(example3_query, db)
        engine.run()
        steps = engine.answer_path(("o",))
        labels = [label for label, _node, _values in steps[1:]]
        # Left applied r1 then r2; the unwinding pops r2 then r1.
        assert labels == ["r2", "r1"]

    def test_cyclic_paths(self, sg_query, example5_db):
        engine = make_engine(sg_query, example5_db)
        engine.run()
        for answer, expected_len in ((("h",), 3), (("j",), 5),
                                     (("l",), 7)):
            steps = engine.answer_path(answer)
            assert len(steps) == expected_len
            assert steps[-1][1] == ("a",)

    def test_unknown_answer_raises(self, sg_query, sg_db):
        engine = make_engine(sg_query, sg_db)
        engine.run()
        with pytest.raises(KeyError):
            engine.answer_path(("nope",))

    def test_dfs_order_also_tracks_parents(self, sg_query, sg_db):
        engine = make_engine(sg_query, sg_db, answer_order="dfs")
        engine.run()
        assert len(engine.answer_path(("e1",))) == 3


class TestAnswerPathUnderCoarseKeys:
    """A run keyed by distance or by nothing keeps no parents;
    ``answer_path`` records them on demand, node values included."""

    def run_workload(self, name, **sizes):
        from repro.data import WORKLOADS

        workload = WORKLOADS[name]
        db, _source = workload.make_db(**sizes)
        engine = make_engine(workload.query, db)
        answers = engine.run()
        return engine, db, answers

    def test_distance_keyed_path_replays_through_the_rules(self):
        engine, db, answers = self.run_workload("sg_cylinder",
                                                width=3, height=4)
        assert engine.state_key == "distance"
        up, flat, down = (db.get((n, 2)) for n in ("up", "flat", "down"))
        assert len(answers) == 3
        for answer in answers:
            steps = engine.answer_path(answer)
            label, node, values = steps[0]
            assert node + values in flat
            for (_l, below, was), (label, node, now) in zip(steps,
                                                           steps[1:]):
                assert label == "r1"
                assert node + below in up and was + now in down
            assert steps[-1][1:] == (("a",), answer)

    def test_unkeyed_path_replays_through_the_rules(self):
        engine, db, answers = self.run_workload("mixed_linear",
                                                up_depth=5, down_depth=4)
        assert engine.state_key == "none"
        up, flat, down = (db.get((n, 2)) for n in ("up", "flat", "down"))
        assert len(answers) == 5
        for answer in answers:
            steps = engine.answer_path(answer)
            label, node, values = steps[0]
            assert node + values in flat
            for (_l, below, was), (label, node, now) in zip(steps,
                                                           steps[1:]):
                if node == below:       # left-linear: stays at its row
                    assert was + now in down
                else:                   # right-linear: values pass
                    assert node + below in up and was == now
            assert steps[-1][1:] == (("a",), answer)

    def test_recording_charges_nothing_to_the_run(self):
        engine, _db, answers = self.run_workload("sg_cylinder",
                                                 width=3, height=4)
        before = engine.stats.as_dict()
        states, frontier = engine.state_count, engine.max_frontier
        for answer in answers:
            engine.answer_path(answer)
        assert engine.stats.as_dict() == before
        assert (engine.state_count, engine.max_frontier) \
            == (states, frontier)
        assert engine.state_key == "distance"

    def test_guards_survive(self):
        from repro.data import WORKLOADS
        from repro.errors import EvaluationError

        workload = WORKLOADS["right_linear"]
        db, _source = workload.make_db(depth=4)
        engine = make_engine(workload.query, db)
        engine.build_counting_set()
        with pytest.raises(EvaluationError, match="has not run"):
            engine.answer_path(("y0",))
        engine.compute_answers()
        assert engine.state_key == "none"
        assert engine.answer_path(("y4",))[-1] == ("r1", ("a",), ("y4",))
        with pytest.raises(KeyError):
            engine.answer_path(("nope",))
