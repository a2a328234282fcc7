"""Seeded inputs: sorted fact lists, bindings and op schedules.

Everything the program under test receives is built here from the
workload seed.  Two rules keep the counts of a run repeatable:

* fact lists are explicitly sorted before they are loaded (the random
  DAG's is then shuffled by the seed), so insertion order — and with it
  intern ids and column layout — never depends on the iteration order
  of a set or a ``Relation``;
* the seed *permutes*, it does not reshape: op order, binding order,
  the load order of the random DAG and the attachment points of written
  leaves change with the seed, the multiset of operations does not.
  That is what lets ``work_per_op`` be gated at 0.1 % across seeds (see
  README.md, "Determinism").
"""

import random

from repro.data import workloads as W
from repro.data.generators import duplication_dag_db
from repro.engine.database import Database

FIXPOINT_METHODS = (
    "magic", "sup_magic", "classical_counting", "encoded_counting",
    "extended_counting", "reduced_counting",
)
COUNTING_METHODS = ("pointer_counting", "cyclic_counting", "magic_counting")

#: name -> (program text, generator, arguments).  Sizes are frozen: the
#: cheapest applicable strategy takes about 2 ms per op on each.
MATRIX_DBS = {
    "sg_tree": (W.SG_TEXT, W.sg_tree, (2, 7)),
    "sg_cylinder": (W.SG_TEXT, W.sg_cylinder, (8, 28)),
    "sg_chain": (W.SG_TEXT, W.sg_chain, (55,)),
    "sg_cyclic": (W.SG_TEXT, W.sg_cyclic, (12, 500)),
    "multi_rule": (W.MULTI_RULE_TEXT, W.multi_rule_chain, (180,)),
    "shared_vars": (W.SHARED_VARS_TEXT, W.shared_vars_chain, (150,)),
    "mixed_linear": (W.MIXED_LINEAR_TEXT, W.mixed_linear_chain, (40, 180)),
    "right_linear": (W.RIGHT_LINEAR_TEXT, W.right_linear_chain, (220,)),
    "left_linear": (W.LEFT_LINEAR_TEXT, W.left_linear_chain, (780,)),
    "mutual": (W.MUTUAL_TEXT, W.mutual_chain, (80,)),
}

#: The random layered DAG: (levels, width, extra parents, structure
#: seed).  The structure seed is a constant; the run seed orders the
#: load.
DAG_NAME = "dup_dag"
DAG_SHAPE = (14, 16, 1, 1992)

FOREST_FANOUT = 2
FOREST_DEPTH = 5


def sorted_facts(db):
    """Every fact of ``db`` as one explicitly sorted list."""
    facts = [
        (key[0], tuple(row)) for key in db.keys() for row in db.get(key)
    ]
    facts.sort(key=repr)
    return facts


def _shuffled_dag(rng):
    """The fixed random DAG, loaded in a seeded order.

    The seed permutes the load order (and with it intern ids, column
    layout and index order) but not the labels: ``magic``'s work
    follows the string hashes of the constants, so relabelling would
    move ``work_per_op`` by more than its gate.
    """
    levels, width, extra, structure_seed = DAG_SHAPE
    db, source = duplication_dag_db(levels, width, extra, structure_seed)
    facts = [
        (pred, tuple("a" if v == source else v for v in row))
        for pred, row in sorted_facts(db)
    ]
    rng.shuffle(facts)
    return facts


def matrix_databases(seed):
    """``{name: (text, sorted facts)}`` for the one-shot matrices."""
    built = {}
    for name, (text, make, args) in MATRIX_DBS.items():
        db, _source = make(*args)
        built[name] = (text, sorted_facts(db))
    built[DAG_NAME] = (W.SG_TEXT, _shuffled_dag(random.Random(seed)))
    return built


def matrix_cells(methods):
    """``[(db name, method)]`` in a fixed order; cells whose method is
    not in the workload's ``applicable`` set are left out."""
    cells = []
    for name in list(MATRIX_DBS) + [DAG_NAME]:
        # The DAG is acyclic same-generation data: sg_tree's set.
        source = "sg_tree" if name == DAG_NAME else name
        applicable = W.WORKLOADS[source].applicable
        cells.extend((name, m) for m in methods if m in applicable)
    return cells


def pass_blocks(rng, cells, n_blocks, passes_per_block):
    """Blocks of whole passes; each pass is a fresh permutation of the
    cell indices, so every block holds the same multiset of ops."""
    blocks = []
    for _ in range(n_blocks):
        block = []
        for _ in range(passes_per_block):
            order = list(range(cells))
            rng.shuffle(order)
            block.extend(order)
        blocks.append(block)
    return blocks


# -- the serving forest ------------------------------------------------

def forest_facts(trees):
    db, _source = W.sg_forest(trees, FOREST_FANOUT, FOREST_DEPTH)
    return sorted_facts(db)


def forest_bindings(trees, count):
    """``count`` bindings: roots and interior ``up`` nodes, tree by
    tree in level order."""
    interior = FOREST_FANOUT ** FOREST_DEPTH - 1
    bindings = []
    for tree in range(trees):
        bindings.append((W.forest_root(tree),))
        bindings.extend(
            ("t%da%d" % (tree, node),) for node in range(1, interior)
        )
    if len(bindings) < count:
        raise ValueError("forest too small for %d bindings" % count)
    return bindings[:count]


def leaf_batch(rng, tree, sequence, pairs):
    """One write batch: ``pairs`` fresh same-generation leaf pairs under
    seeded parents of ``tree``; returns (sorted facts, next sequence)."""
    first = FOREST_FANOUT ** (FOREST_DEPTH - 1) - 1
    parents = FOREST_FANOUT ** (FOREST_DEPTH - 1)
    facts = []
    for _ in range(pairs):
        parent = first + rng.randrange(parents)
        x = "t%da_w%d" % (tree, sequence)
        y = "t%db_w%d" % (tree, sequence)
        facts.append(("up", ("t%da%d" % (tree, parent), x)))
        facts.append(("flat", (x, y)))
        facts.append(("down", (y, "t%db%d" % (tree, parent))))
        sequence += 1
    facts.sort(key=repr)
    return facts, sequence
