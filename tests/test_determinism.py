"""Determinism and accounting invariants of the work counters."""

import json
import os
import subprocess
import sys

import pytest

from repro.data import WORKLOADS
from repro.engine import EvalStats
from repro.exec.strategies import run_strategy


REPEATABLE = (
    "naive", "magic", "classical_counting", "extended_counting",
    "reduced_counting", "pointer_counting", "cyclic_counting",
)


class TestRepeatability:
    @pytest.mark.parametrize("method", REPEATABLE)
    def test_same_counters_on_repeat(self, method):
        workload = WORKLOADS["sg_chain"]
        db, _source = workload.make_db(depth=8)
        first = run_strategy(method, workload.query, db)
        second = run_strategy(method, workload.query, db)
        assert first.answers == second.answers
        assert first.stats.as_dict() == second.stats.as_dict()
        assert first.extras.keys() == second.extras.keys()

    def test_fresh_database_same_counters(self):
        workload = WORKLOADS["sg_tree"]
        db1, _ = workload.make_db(fanout=2, depth=4)
        db2, _ = workload.make_db(fanout=2, depth=4)
        r1 = run_strategy("pointer_counting", workload.query, db1)
        r2 = run_strategy("pointer_counting", workload.query, db2)
        assert r1.stats.total_work == r2.stats.total_work


class TestAccounting:
    @pytest.mark.parametrize("method", REPEATABLE)
    def test_total_work_definition(self, method):
        workload = WORKLOADS["sg_chain"]
        db, _source = workload.make_db(depth=8)
        stats = run_strategy(method, workload.query, db).stats
        assert stats.total_work == (
            stats.tuples_scanned + stats.facts_derived
            + stats.facts_duplicate
        )
        assert stats.rule_firings >= 0
        assert stats.iterations >= 1

    def test_counters_strictly_positive_on_real_work(self):
        workload = WORKLOADS["sg_chain"]
        db, _source = workload.make_db(depth=8)
        stats = run_strategy("magic", workload.query, db).stats
        assert stats.tuples_scanned > 0
        assert stats.facts_derived > 0

    def test_stats_isolated_between_runs(self):
        # A fresh EvalStats per run: no accumulation across strategies.
        workload = WORKLOADS["sg_chain"]
        db, _source = workload.make_db(depth=4)
        small = run_strategy("pointer_counting", workload.query, db)
        db2, _source = workload.make_db(depth=16)
        big = run_strategy("pointer_counting", workload.query, db2)
        db3, _source = workload.make_db(depth=4)
        small_again = run_strategy("pointer_counting", workload.query,
                                   db3)
        assert small.stats.total_work == small_again.stats.total_work
        assert big.stats.total_work > small.stats.total_work


class TestSharedDatabase:
    def test_multiple_engines_share_base_relations(self):
        from repro import Database, parse_query
        from repro.engine import SemiNaiveEngine

        program = parse_query("""
            tc(X, Y) :- arc(X, Y).
            tc(X, Y) :- tc(X, Z), arc(Z, Y).
            ?- tc(a, Y).
        """).program
        db = Database.from_text("arc(a, b). arc(b, c).")
        first = SemiNaiveEngine(program, db)
        first.run()
        # Derived facts of one engine must not leak into the next.
        second = SemiNaiveEngine(program, db)
        derived = second.run()
        assert len(derived[("tc", 2)]) == 3
        assert db.total_facts() == 2  # base data untouched


SEED_EXACT = (
    "sup_magic", "classical_counting", "encoded_counting",
    "extended_counting", "reduced_counting",
)

_COUNTERS_SCRIPT = """
import json
from repro.data import WORKLOADS
from repro.exec.strategies import run_strategy

out = {}
for name in ("sg_tree", "mixed_linear", "shared_vars", "sg_cyclic"):
    workload = WORKLOADS[name]
    db, _source = workload.make_db()
    for method in %r:
        if method in workload.applicable:
            stats = run_strategy(method, workload.query, db).stats
            out[name + "/" + method] = stats.as_dict()
print(json.dumps(out, sort_keys=True))
""" % (SEED_EXACT,)

DEDICATED = ("pointer_counting", "cyclic_counting", "magic_counting")

#: The three answer-state keys: distance (cylinder, layered DAG) and
#: none (right-linear); set order must reach none of their counters.
_STATE_KEY_SCRIPT = """
import json
from repro.data import WORKLOADS
from repro.data.generators import duplication_dag_db
from repro.data.workloads import _rename_source
from repro.exec.strategies import run_strategy

dag, source = duplication_dag_db(6, 6, 1, seed=1992)
cases = {
    "sg_cylinder": WORKLOADS["sg_cylinder"].make_db()[0],
    "dup_dag": _rename_source(dag, source, "a"),
    "right_linear": WORKLOADS["right_linear"].make_db()[0],
}
out = {}
for name, db in cases.items():
    query = WORKLOADS.get(name, WORKLOADS["sg_tree"]).query
    for method in %r:
        result = run_strategy(method, query, db)
        out[name + "/" + method] = [
            result.stats.as_dict(), result.extras["state_key"],
            result.extras["answer_states"],
        ]
print(json.dumps(out, sort_keys=True))
""" % (DEDICATED,)


def _under_hash_seeds(script):
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(json.loads(completed.stdout))
    return outputs


class TestHashSeedIndependence:
    def test_rewriting_counters_do_not_depend_on_the_hash_seed(self):
        """No delta pass of these methods reads its own head, so each
        is drained in one batch: nothing the string hash seed orders
        (set iteration inside a full scan) reaches a counter."""
        outputs = _under_hash_seeds(_COUNTERS_SCRIPT)
        assert len(outputs[0]) >= 12
        assert outputs[0] == outputs[1] == outputs[2]

    def test_dedicated_counters_do_not_depend_on_the_hash_seed(self):
        """Whatever key the answer states carry: the quotient is built
        from the table's arrays in ordinal order, never from a set."""
        outputs = _under_hash_seeds(_STATE_KEY_SCRIPT)
        assert len(outputs[0]) == 9
        keys = {entry[1] for entry in outputs[0].values()}
        assert keys == {"distance", "none"}
        assert outputs[0] == outputs[1] == outputs[2]
