"""The generated semi-naive clique loop.

``SemiNaiveEngine`` runs every untraced clique in one function
generated per pass plan (``compile.clique_loop``), its counters and the
per-rule profile kept in locals and flushed once per round.  These
tests hold it to

* the pass-by-pass engine it replaced: ``golden/clique_loop.json``
  holds every ``EvalStats.as_dict()`` counter and per-rule profile
  ``calls`` / ``derived`` entry of the 85 one-shot matrix cells, and
  the counters at which an iteration cap, a fact budget and an injected
  round fault stop a left-linear chain, all recorded with
  :func:`snapshot` under ``PYTHONHASHSEED=0`` (``magic`` follows the
  string hashes) by that engine; to regenerate after an intentional
  counter change::

      PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_clique_loop.py

* ``tests/test_compiled.py::ReferenceEngine``, the tuple-at-a-time
  evaluator run pass by pass, and the traced route, under any seed;
* the structural cache: a prepared form's second binding generates no
  code.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro import PreparedQuery, parse_program, parse_query
from repro.data.workloads import LEFT_LINEAR_TEXT, WORKLOADS, left_linear_chain
from repro.engine import DerivationTrace, EvalStats, SemiNaiveEngine
from repro.engine.database import Database
from repro.engine.faults import FaultInjector
from repro.engine.guard import ResourceBudget
from repro.exec import magic_counting, strategies
from repro.exec.strategies import prepare, run_strategy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "clique_loop.json")


def _inputs():
    """The one-shot matrices of the end-to-end benchmark."""
    path = os.path.join(ROOT, "benchmarks", "e2e", "inputs.py")
    spec = importlib.util.spec_from_file_location("e2e_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _profile(stats):
    return {str(label): [entry["calls"], entry["derived"]]
            for label, entry in stats.rule_profile.items()}


def cell_counters():
    """``{cell: {stats, profile, answers}}`` over both matrices."""
    inputs = _inputs()
    dbs = inputs.matrix_databases(1)
    out = {}
    for methods in (inputs.FIXPOINT_METHODS, inputs.COUNTING_METHODS):
        for name, method in inputs.matrix_cells(methods):
            text, facts = dbs[name]
            db = Database()
            db.add_facts(facts)
            result = run_strategy(method, parse_query(text), db)
            out["%s/%s" % (name, method)] = {
                "stats": result.stats.as_dict(),
                "profile": _profile(result.stats),
                "answers": len(result.answers),
            }
    return out


CHAIN_DEPTH = 40

#: (name, engine keywords, fault checkpoint): where each trip stops the
#: ``sup_magic`` rewriting of the left-linear chain (four passes a
#: round) and the ``reduced_counting`` one (one pass a round).
TRIPS = (
    ("max_iterations", lambda: {"max_iterations": 7}, None),
    ("max_facts", lambda: {"budget": ResourceBudget(max_facts=30)}, None),
    ("fault", dict, 9),
)


def trip_counters(trace=False):
    """``{method/trip: [error class, message, stats, profile]}``."""
    query = parse_query(LEFT_LINEAR_TEXT)
    out = {}
    for method in ("sup_magic", "reduced_counting"):
        program = prepare(method, query).program
        for name, options, after in TRIPS:
            db, _source = left_linear_chain(CHAIN_DEPTH)
            stats = EvalStats()
            engine = SemiNaiveEngine(
                program, db, stats=stats,
                trace=DerivationTrace() if trace else None, **options()
            )
            injector = FaultInjector()
            if after is not None:
                injector.raise_mid_fixpoint(after=after, points=("round",))
            with injector:
                try:
                    engine.run()
                    error = None
                except Exception as exc:  # noqa: BLE001 — recorded
                    error = [type(exc).__name__, str(exc)]
            out["%s/%s" % (method, name)] = [
                error, stats.as_dict(), _profile(stats),
            ]
    return out


def snapshot():
    return {"cells": cell_counters(), "trips": trip_counters()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


class TestEqualsThePassByPassEngine:
    def test_every_cell_and_trip_under_hash_seed_0(self, golden):
        """Run in a child pinned to the seed the golden file was
        recorded under: ``magic``'s counters follow the string hashes."""
        env = dict(os.environ, PYTHONHASHSEED="0",
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(ROOT, "src"), ROOT]))
        completed = subprocess.run(
            [sys.executable, "-c",
             "import json; from tests.test_clique_loop import snapshot; "
             "print(json.dumps(snapshot(), sort_keys=True))"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        got = json.loads(completed.stdout)
        assert len(got["cells"]) == 85
        for cell, expected in golden["cells"].items():
            assert got["cells"][cell] == expected, cell
        assert got["trips"] == golden["trips"]

    def test_trips_stop_where_they_did(self, golden):
        trips = golden["trips"]
        for method in ("sup_magic", "reduced_counting"):
            assert trips[method + "/max_iterations"][0] == [
                "EvaluationError",
                "fixpoint did not converge within 7 iterations",
            ]
            assert trips[method + "/max_facts"][0][0] == \
                "FactBudgetExceeded"
            assert trips[method + "/fault"][0] == [
                "InjectedFault",
                "injected mid-fixpoint fault (at round checkpoint 9)",
            ]


class TestEqualsTheReference:
    def test_every_cell_equals_the_reference_engine(self, monkeypatch):
        """Every counter but ``batch_rows``: the tuple-at-a-time
        reference delivers no batches (the golden file pins it)."""
        from .test_compiled import ReferenceEngine

        generated = cell_counters()
        monkeypatch.setattr(strategies, "SemiNaiveEngine", ReferenceEngine)
        monkeypatch.setattr(magic_counting, "SemiNaiveEngine",
                            ReferenceEngine)
        reference = cell_counters()
        for cells in (generated, reference):
            for counters in cells.values():
                del counters["stats"]["batch_rows"]
        assert reference == generated

    def test_trips_equal_the_traced_route(self):
        assert trip_counters() == trip_counters(trace=True)

    @pytest.mark.parametrize("text", [
        # A clique of a non-ground fact alone: no pass at all.
        "p(X). q(a) :- p(a).",
        # A body that fails a test before its first loop.
        "s(1). s(2). r(X) :- 1 > 2, s(X). r(X) :- s(X), X > 1.",
    ], ids=["facts-only-clique", "test-before-first-loop"])
    def test_edge_shapes_equal_the_traced_route(self, text):
        outcomes = []
        for trace in (None, DerivationTrace()):
            stats = EvalStats()
            derived = SemiNaiveEngine(parse_program(text), Database(),
                                      stats=stats, trace=trace).run()
            outcomes.append((
                {key: sorted(relation) for key, relation in derived.items()},
                stats.as_dict(), _profile(stats),
            ))
        assert outcomes[0] == outcomes[1]


class TestCachedByStructure:
    def test_second_binding_of_a_prepared_form_generates_no_code(
        self, monkeypatch
    ):
        from repro.engine import codegen

        workload = WORKLOADS["sg_tree"]
        db, source = workload.make_db()
        prepared = PreparedQuery(workload.query, method="magic")
        first = prepared.run((source,), db)
        other = sorted(row[1] for row in db.get(("up", 2)))[0]

        generated = []
        compile_fn = codegen._compile_fn

        def counting(*args, **kwargs):
            generated.append(args[2])
            return compile_fn(*args, **kwargs)

        monkeypatch.setattr(codegen, "_compile_fn", counting)
        second = prepared.run((other,), db)
        assert generated == []
        assert second.stats.facts_derived > 0
        naive = PreparedQuery(workload.query, method="naive")
        assert second.answers == naive.run((other,), db).answers
        assert first.answers == naive.run((source,), db).answers

    def test_labels_are_arguments_not_code(self):
        """Rule equality ignores labels: relabelled rules share the
        loop, and each run's profile carries its own labels."""
        from repro.datalog.rules import Program

        query = parse_query(LEFT_LINEAR_TEXT)
        program = prepare("sup_magic", query).program
        relabelled = Program(
            rule.with_label("x_%s" % rule.label) for rule in program.rules
        )
        profiles = []
        for rules in (program, relabelled):
            db, _source = left_linear_chain(8)
            stats = EvalStats()
            SemiNaiveEngine(rules, db, stats=stats).run()
            profiles.append(_profile(stats))
        assert profiles[1] == {
            "x_" + label: entry for label, entry in profiles[0].items()
        }


def write_golden(data):
    """One line per cell and per trip, so a counter change reads as a
    one-line diff."""
    with open(GOLDEN, "w") as handle:
        handle.write("{\n")
        for i, section in enumerate(sorted(data)):
            handle.write("%s: {\n" % json.dumps(section))
            entries = sorted(data[section].items())
            handle.write(",\n".join(
                "  %s: %s" % (json.dumps(key), json.dumps(value,
                                                          sort_keys=True))
                for key, value in entries
            ))
            handle.write("\n}%s\n" % ("," if i < len(data) - 1 else ""))
        handle.write("}\n")


if __name__ == "__main__":
    write_golden(snapshot())
    print("wrote", GOLDEN)
