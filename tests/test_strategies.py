"""Cross-strategy equivalence: the central correctness claim.

Theorems 1-3 say the rewritten queries are equivalent to the original
ones; here every applicable strategy is compared against naive
evaluation on every workload at several sizes.
"""

import weakref

import pytest

from repro.data import WORKLOADS
from repro.errors import ReproError
from repro.exec.strategies import (
    STRATEGIES,
    run_naive,
    run_strategy,
)

SIZED = {
    "sg_tree": [dict(fanout=2, depth=3), dict(fanout=3, depth=3)],
    "sg_cylinder": [dict(width=3, height=4), dict(width=4, height=6)],
    "sg_chain": [dict(depth=6), dict(depth=20)],
    "sg_forest": [dict(trees=2, fanout=2, depth=3)],
    "sg_cyclic": [dict(cycle_length=3, down_length=12),
                  dict(cycle_length=5, down_length=30)],
    "multi_rule": [dict(depth=7), dict(depth=14)],
    "shared_vars": [dict(depth=6), dict(depth=11)],
    "mixed_linear": [dict(up_depth=5, down_depth=5)],
    "right_linear": [dict(depth=10)],
    "left_linear": [dict(depth=10)],
    "nonlinear": [dict(nodes=12, arcs=25, seed=3)],
    "mutual": [dict(depth=10), dict(depth=11)],
}


def _cases():
    for name, workload in sorted(WORKLOADS.items()):
        for params in SIZED[name]:
            for strategy in workload.applicable:
                yield name, params, strategy


@pytest.mark.parametrize(
    "name,params,strategy",
    [pytest.param(n, p, s, id="%s-%s-%s" % (n, s, i))
     for i, (n, p, s) in enumerate(_cases())],
)
def test_strategy_matches_naive(name, params, strategy):
    workload = WORKLOADS[name]
    db, _source = workload.make_db(**params)
    expected = run_naive(workload.query, db).answers
    result = run_strategy(strategy, workload.query, db)
    assert result.answers == expected


class TestSnapshotReleased:
    """No strategy leaves a reference cycle through the database it
    read: a snapshot generation (frozen tuple sets and indexes) must be
    freed by refcount when its last reader is done, not whenever the
    cycle collector next runs."""

    @pytest.mark.parametrize("method", sorted(STRATEGIES))
    def test_snapshot_dies_with_the_result(self, method, sg_query, sg_db,
                                           refcount_only):
        snap = sg_db.snapshot()
        alive = weakref.ref(snap)
        result = run_strategy(method, sg_query, snap)
        assert result.answers
        del result, snap
        assert alive() is None


class TestInapplicability:
    def test_inapplicable_strategies_raise_cleanly(self):
        for name, workload in WORKLOADS.items():
            db, _source = workload.make_db()
            for strategy in set(STRATEGIES) - set(workload.applicable):
                with pytest.raises(ReproError):
                    run_strategy(strategy, workload.query, db)


class TestRunnerPlumbing:
    def test_unknown_strategy(self, sg_query, sg_db):
        with pytest.raises(ValueError):
            run_strategy("nope", sg_query, sg_db)

    def test_type_checks(self, sg_query, sg_db):
        with pytest.raises(TypeError):
            run_strategy("naive", "text", sg_db)
        with pytest.raises(TypeError):
            run_strategy("naive", sg_query, {"not": "a db"})

    def test_result_shape(self, sg_query, sg_db):
        result = run_strategy("magic", sg_query, sg_db)
        assert result.method == "magic"
        assert result.elapsed >= 0
        assert result.stats.total_work > 0
        assert "ExecutionResult" in repr(result)
