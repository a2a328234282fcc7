"""E7 — §1 / [4, 11]: where the counting advantage erodes.

The paper (citing the Bancilhon-Ramakrishnan and Marchetti-Spaccamela
et al. comparisons) frames counting as the winner on low-duplication
data, with magic sets preferred when many distinct paths reach the
same node: counting re-derives per path position, magic collapses them.

Workload: layered same-generation DAGs with a tunable number of extra
parents per node.  At 0 extra parents the up graph is a forest of
chains; each increment multiplies the distinct source-to-node paths.
Two variants, measured side by side:

* **skip-level** — an extra parent comes from *any* earlier layer, so a
  node is reached by paths of different lengths.  This is the data
  [4, 11] describe: one answer state per (value, node), and the
  magic/counting work ratio decreases monotonically, from comfortably
  above 1 to no more than 0.6 of where it started.
* **layered** — extra parents come from the layer directly above, so
  every node keeps one distance from the source.  The evaluator then
  keys its states by that distance (Algorithm 3(i), the classical
  index): ``answer_states`` stay put however many paths there are and
  the ratio *grows* — duplication alone does not erode counting, paths
  of different lengths do.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import register_table
from _common import assert_claims, make_timer, work_of

from repro.bench import matrix_table, run_matrix
from repro.data.generators import duplication_dag_db
from repro.data.workloads import WORKLOADS, _rename_source

WORKLOAD = WORKLOADS["sg_tree"]  # same program; data built here
QUERY = WORKLOAD.query
METHODS = ["magic", "pointer_counting"]
DUPLICATION = [0, 1, 2, 4]
LEVELS = 5
WIDTH = 6
VARIANTS = {"layered": False, "skip-level": True}


def make_db(extra_parents, variant="layered"):
    db, source = duplication_dag_db(
        LEVELS, WIDTH, extra_parents, seed=1234,
        skip_levels=VARIANTS[variant],
    )
    return _rename_source(db, source, "a")


def label_of(variant, extra):
    return "%s extra_parents=%d" % (variant, extra)


def sweep():
    collected = []
    for variant in VARIANTS:
        for extra in DUPLICATION:
            collected.extend(
                run_matrix(QUERY, make_db(extra, variant), METHODS,
                           label=label_of(variant, extra))
            )
    return collected


def magic_over_counting(rows):
    return {
        variant: [
            work_of(rows, label_of(variant, extra), "magic")
            / work_of(rows, label_of(variant, extra), "pointer_counting")
            for extra in DUPLICATION
        ]
        for variant in VARIANTS
    }


def counting_extras(rows, variant, name):
    return [
        row.extras[name] for row in rows
        if row.method == "pointer_counting"
        and row.label.startswith(variant)
    ]


def ratios_at_hash_seed_0(rows):
    """The sweeps' ratios under ``PYTHONHASHSEED=0``.

    magic's counter moves with the string hash seed (ROADMAP item 1e),
    so the thresholds below are stated for the seed EXPERIMENTS.md and
    CI measure under; any other interpreter re-runs the sweep in a
    child pinned to it.
    """
    if os.environ.get("PYTHONHASHSEED") == "0":
        return magic_over_counting(rows)
    completed = subprocess.run(
        [sys.executable, "-c",
         "import json, bench_e7_crossover as e7; "
         "print(json.dumps(e7.magic_over_counting(e7.sweep())))"],
        env=dict(os.environ, PYTHONHASHSEED="0",
                 PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def rows():
    collected = sweep()
    register_table(
        "e7_crossover",
        matrix_table(
            collected,
            title="E7: counting advantage vs path duplication "
                  "(DAG, %d levels x %d nodes)" % (LEVELS, WIDTH),
            extra_columns=("counting_triples", "answer_states",
                           "state_key", "magic_set_size"),
        ),
    )
    return collected


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("extra", [0, 4])
def test_e7_time(benchmark, method, extra, rows):
    benchmark(make_timer(QUERY, make_db(extra), method))


def test_e7_counting_wins_without_duplication(rows, benchmark):
    def check():
        label = label_of("layered", 0)
        assert work_of(rows, label, "pointer_counting") \
            < work_of(rows, label, "magic")

    assert_claims(benchmark, check)


def test_e7_advantage_shrinks_with_duplication(rows, benchmark):
    def check():
        ratios = ratios_at_hash_seed_0(rows)["skip-level"]
        assert all(
            later <= earlier * 1.05
            for earlier, later in zip(ratios, ratios[1:])
        ), ratios
        assert ratios[-1] <= 0.6 * ratios[0], ratios
        # Paths of different lengths: states are keyed by node.
        keys = counting_extras(rows, "skip-level", "state_key")
        assert keys == ["distance", "node", "node", "node"], keys

    assert_claims(benchmark, check)


def test_e7_one_distance_per_node_keeps_the_advantage(rows, benchmark):
    def check():
        ratios = ratios_at_hash_seed_0(rows)["layered"]
        assert all(
            later >= earlier
            for earlier, later in zip(ratios, ratios[1:])
        ), ratios
        assert set(counting_extras(rows, "layered", "state_key")) \
            == {"distance"}
        states = counting_extras(rows, "layered", "answer_states")
        assert len(set(states)) == 1, states

    assert_claims(benchmark, check)
