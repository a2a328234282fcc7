"""Synthetic database generators.

The paper reports no datasets (its evaluation is analytic, deferring
measurements to the LDL prototype), so the benchmark workloads follow
the standard deductive-database shapes of Bancilhon & Ramakrishnan [4]
— the comparison framework the paper cites for magic-vs-counting
measurements: full trees, chains, cylinders, random DAGs — plus the
shapes the paper's own arguments single out (shortcut chains where the
classical counting set is quadratic, cyclic graphs where it diverges).

All generators are deterministic: randomized ones take an explicit
``seed``.  Each returns a list of ``(predicate, values)`` fact pairs
ready for :meth:`repro.engine.database.Database.add_facts` (or a
:class:`~repro.engine.database.Database` for the ``*_db`` helpers).
"""

import random

from ..engine.database import Database


def node_name(prefix, index):
    """Stable node naming used across all generators."""
    return "%s%d" % (prefix, index)


def chain(length, pred="arc", prefix="n", start=0):
    """A simple path ``n0 -> n1 -> ... -> n<length>``."""
    return [
        (pred, (node_name(prefix, i + start),
                node_name(prefix, i + start + 1)))
        for i in range(length)
    ]


def cycle(length, pred="arc", prefix="n"):
    """A directed ring of ``length`` nodes."""
    facts = chain(length - 1, pred, prefix)
    facts.append((pred, (node_name(prefix, length - 1),
                         node_name(prefix, 0))))
    return facts


def full_tree(fanout, depth, pred="arc", prefix="t"):
    """A full ``fanout``-ary tree of the given depth.

    Arcs point from parent to child.  Returns ``(facts, root,
    leaves)``; nodes are numbered level order starting at the root.
    """
    facts = []
    root = node_name(prefix, 0)
    level = [0]
    counter = 1
    for _ in range(depth):
        next_level = []
        for parent in level:
            for _child in range(fanout):
                child = counter
                counter += 1
                facts.append(
                    (pred,
                     (node_name(prefix, parent), node_name(prefix, child)))
                )
                next_level.append(child)
        level = next_level
    leaves = [node_name(prefix, i) for i in level]
    return facts, root, leaves


def inverted_tree(fanout, depth, pred="arc", prefix="v"):
    """A full tree with arcs pointing from children to the root.

    Returns ``(facts, root, leaves)``.
    """
    facts, root, leaves = full_tree(fanout, depth, pred, prefix)
    inverted = [(pred, (b, a)) for _p, (a, b) in facts]
    return inverted, root, leaves


def shortcut_chain(length, pred="arc", prefix="s", stride=2):
    """A chain with shortcut arcs ``i -> i + stride``.

    Every node ``k`` is reachable from node 0 at many distinct
    distances (between ``ceil(k/stride)`` and ``k``), so the classical
    counting set holds Θ(n²) ``(node, index)`` tuples while the
    per-node pointer table holds n rows — the §3.4 size gap.
    """
    facts = chain(length, pred, prefix)
    for i in range(0, length - stride + 1):
        facts.append(
            (pred, (node_name(prefix, i), node_name(prefix, i + stride)))
        )
    return facts


def cylinder(width, height, pred="arc", prefix="c"):
    """The Bancilhon-Ramakrishnan cylinder: ``height`` layers of
    ``width`` nodes; node ``(i, j)`` points at ``(i+1, j)`` and
    ``(i+1, (j+1) mod width)``.

    Returns ``(facts, first_layer, last_layer)``.
    """

    def name(i, j):
        return "%s%d_%d" % (prefix, i, j)

    facts = []
    for i in range(height):
        for j in range(width):
            facts.append((pred, (name(i, j), name(i + 1, j))))
            facts.append((pred, (name(i, j), name(i + 1, (j + 1) % width))))
    first = [name(0, j) for j in range(width)]
    last = [name(height, j) for j in range(width)]
    return facts, first, last


def random_dag(nodes, arcs, seed, pred="arc", prefix="d"):
    """A random DAG: ``arcs`` distinct arcs ``i -> j`` with ``i < j``."""
    rng = random.Random(seed)
    chosen = set()
    limit = nodes * (nodes - 1) // 2
    arcs = min(arcs, limit)
    while len(chosen) < arcs:
        i = rng.randrange(nodes - 1)
        j = rng.randrange(i + 1, nodes)
        chosen.add((i, j))
    return [
        (pred, (node_name(prefix, i), node_name(prefix, j)))
        for i, j in sorted(chosen)
    ]


def random_graph(nodes, arcs, seed, pred="arc", prefix="g"):
    """A random directed graph (cycles allowed, no self-loops)."""
    rng = random.Random(seed)
    chosen = set()
    limit = nodes * (nodes - 1)
    arcs = min(arcs, limit)
    while len(chosen) < arcs:
        i = rng.randrange(nodes)
        j = rng.randrange(nodes)
        if i != j:
            chosen.add((i, j))
    return [
        (pred, (node_name(prefix, i), node_name(prefix, j)))
        for i, j in sorted(chosen)
    ]


def chain_with_back_arcs(length, back_arcs, pred="arc", prefix="b"):
    """A chain plus explicit back arcs ``(i, j)`` with ``j <= i``."""
    facts = chain(length, pred, prefix)
    for i, j in back_arcs:
        facts.append(
            (pred, (node_name(prefix, i), node_name(prefix, j)))
        )
    return facts


def sg_tree_db(fanout, depth, flat_pairs=None, up="up", flat="flat",
               down="down"):
    """A same-generation database over two mirrored trees.

    ``up`` arcs descend tree ``A`` from the root (the query constant),
    ``flat`` connects each leaf of ``A`` to the same-position leaf of a
    second tree ``B``, and ``down`` arcs ascend ``B`` from its leaves.
    Answers of ``sg(rootA, Y)`` are the nodes of ``B`` at the root
    generation.

    Returns ``(db, root)``.
    """
    facts_a, root_a, leaves_a = full_tree(fanout, depth, up, "a")
    facts_b, _root_b, leaves_b = full_tree(fanout, depth, "tmp", "b")
    db = Database()
    db.add_facts(facts_a)
    for _pred, (parent, child) in facts_b:
        db.add_fact(down, child, parent)
    if flat_pairs is None:
        flat_pairs = zip(leaves_a, leaves_b)
    for x, y in flat_pairs:
        db.add_fact(flat, x, y)
    return db, root_a


def sg_chain_db(depth, up="up", flat="flat", down="down"):
    """A same-generation database over two chains of ``depth`` arcs.

    Every prefix length has a flat crossing, so answers exist at all
    generations.  Returns ``(db, source)``.
    """
    db = Database()
    db.add_facts(chain(depth, up, "x"))
    db.add_facts(chain(depth, down, "y"))
    for i in range(depth + 1):
        db.add_fact(flat, node_name("x", i), node_name("y", i))
    return db, node_name("x", 0)


def sg_cyclic_db(cycle_length, down_length, up="up", flat="flat",
                 down="down"):
    """Example-5-style cyclic database, scaled.

    The ``up`` relation is a chain feeding a cycle of ``cycle_length``
    nodes; ``flat`` crosses from the cycle entry; ``down`` is a chain
    of ``down_length`` arcs, so answers appear at every generation the
    cycle can produce.  Returns ``(db, source)``.
    """
    db = Database()
    db.add_fact(up, "src", node_name("k", 0))
    for i in range(cycle_length - 1):
        db.add_fact(up, node_name("k", i), node_name("k", i + 1))
    db.add_fact(up, node_name("k", cycle_length - 1), node_name("k", 0))
    db.add_fact(flat, node_name("k", 0), node_name("w", 0))
    for i in range(down_length):
        db.add_fact(down, node_name("w", i), node_name("w", i + 1))
    return db, "src"


def duplication_dag_db(levels, width, extra_parents, seed, up="up",
                       flat="flat", down="down", skip_levels=False):
    """A same-generation database with tunable path duplication.

    The ``up`` graph is a layered DAG: every node of layer ``i+1`` has
    one chain parent in layer ``i`` plus ``extra_parents`` random extra
    parents in layer ``i``.  Higher ``extra_parents`` means more
    distinct source-to-node paths, which is the regime where the
    counting method loses its edge over magic sets [4, 11].

    With ``skip_levels`` an extra parent is drawn from *any* layer
    ``<= i``, so a node is reached by paths of different lengths and
    has no single distance from the source — the data on which the
    counting evaluators must key their answer states by node.

    Returns ``(db, source)``.
    """
    rng = random.Random(seed)
    db = Database()

    def name(side, level, j):
        return "%s%d_%d" % (side, level, j)

    for side, pred, flip in (("u", up, False), ("d", down, True)):
        for level in range(levels):
            for j in range(width):
                parents = {(level, j)}
                for _ in range(extra_parents):
                    above = rng.randrange(level + 1) if skip_levels \
                        else level
                    parents.add((above, rng.randrange(width)))
                for above, parent in parents:
                    a = name(side, above, parent)
                    b = name(side, level + 1, j)
                    if flip:
                        db.add_fact(pred, b, a)
                    else:
                        db.add_fact(pred, a, b)
    # Source fans into layer 0 of the up side.
    for j in range(width):
        db.add_fact(up, "root", name("u", 0, j))
        db.add_fact(down, name("d", 0, j), "sink")
    for j in range(width):
        db.add_fact(flat, name("u", levels, j), name("d", levels, j))
    return db, "root"
