"""Case study: peer discovery in a large organization chart.

An HR system stores reporting edges for several subsidiaries and wants
"grade peers": employees the same number of reporting levels below
founders who started together.  This is the same-generation query at a
scale where method choice is visible — thousands of facts, one
subsidiary relevant to the query, the others dead weight for any
unfocused evaluation.

The script walks the full production flow:

1. generate the organization (deterministic, seeded);
2. validate the query (`validate_query` — safety, applicability);
3. let the optimizer pick a method and run it;
4. compare against the whole strategy matrix;
5. explain one answer with a derivation trace.

Run with::

    python examples/case_study_orgchart.py [subsidiaries]
"""

import random
import sys
import time

from repro import Database, optimize, parse_query
from repro.bench import matrix_table, run_matrix
from repro.datalog.validation import validate_query
from repro.engine import DerivationTrace, SemiNaiveEngine

QUERY = parse_query("""
    peer(X, Y) :- together(X, Y).
    peer(X, Y) :- boss(X, X1), peer(X1, Y1), below(Y1, Y).
    ?- peer(emp_0_0, Y).
""")


def build_org(subsidiaries=4, depth=7, fanout=2, seed=2024):
    """Mirrored reporting trees per subsidiary, founders linked."""
    rng = random.Random(seed)
    db = Database()
    for s in range(subsidiaries):
        def name(side, i, s=s):
            return "%s_%d_%d" % (side, s, i)

        # Left tree: boss arcs walk from the query employee downward.
        level = [0]
        counter = 1
        for _d in range(depth):
            next_level = []
            for parent in level:
                for _ in range(fanout):
                    child = counter
                    counter += 1
                    db.add_fact("boss", name("emp", parent),
                                name("emp", child))
                    next_level.append(child)
            level = next_level
        # Right tree, inverted (below walks upward).
        mirror_counter = 1
        mirror_level = [0]
        for _d in range(depth):
            next_level = []
            for parent in mirror_level:
                for _ in range(fanout):
                    child = mirror_counter
                    mirror_counter += 1
                    db.add_fact("below", name("mir", child),
                                name("mir", parent))
                    next_level.append(child)
            mirror_level = next_level
        # Founders who started together: bottom level crossings.
        for emp_leaf, mir_leaf in zip(level, mirror_level):
            if rng.random() < 0.6:
                db.add_fact("together", name("emp", emp_leaf),
                            name("mir", mir_leaf))
    return db


def main():
    subsidiaries = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    started = time.perf_counter()
    db = build_org(subsidiaries=subsidiaries)
    print("generated %d facts in %.2fs"
          % (db.total_facts(), time.perf_counter() - started))

    print()
    print("--- validation report ---")
    print(validate_query(QUERY).render())

    print()
    plan = optimize(QUERY, db)
    print("optimizer chose:", plan.explain())
    result = plan.execute(db)
    print("%d peers found; work=%d, %.3fs"
          % (len(result.answers), result.stats.total_work,
             result.elapsed))

    print()
    rows = run_matrix(
        QUERY, db,
        ["naive", "magic", "classical_counting", "pointer_counting"],
        label="%d subsidiaries" % subsidiaries,
    )
    print(matrix_table(rows, title="strategy matrix"))

    print()
    print("--- why is the first answer a peer? ---")
    trace = DerivationTrace()
    engine = SemiNaiveEngine(QUERY.program, db, trace=trace)
    engine.run()
    goal = QUERY.goal
    answer = sorted(result.answers)[0][0]
    print(trace.explain(goal.key, ("emp_0_0", answer)).render())


if __name__ == "__main__":
    main()
