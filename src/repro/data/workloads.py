"""Canonical workloads: the paper's example programs paired with data
generators.

Each :class:`Workload` bundles a query, a database builder and the
strategies that are applicable, so tests and benchmarks iterate over
them uniformly.  The programs are literal transcriptions of the
paper's Examples 1 and 3-6, plus the pure right-/left-linear programs
of Section 5 and a non-linear program exercising the magic-set
fallback.
"""

from ..datalog.parser import parse_query
from . import generators


class Workload:
    """A named query plus a family of databases."""

    __slots__ = ("name", "query", "make_db", "description", "applicable")

    def __init__(self, name, query_text, make_db, description,
                 applicable):
        self.name = name
        self.query = parse_query(query_text)
        #: ``make_db(**params) -> (Database, source_value)``
        self.make_db = make_db
        self.description = description
        #: Strategy names expected to run without NotApplicableError.
        self.applicable = tuple(applicable)

    def __repr__(self):
        return "Workload(%s)" % self.name


SG_TEXT = """
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
?- sg(a, Y).
"""

MULTI_RULE_TEXT = """
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up1(X, X1), sg(X1, Y1), down1(Y1, Y).
sg(X, Y) :- up2(X, X1), sg(X1, Y1), down2(Y1, Y).
?- sg(a, Y).
"""

SHARED_VARS_TEXT = """
p(X, Y) :- flat(X, Y).
p(X, Y) :- up1(X, X1, W), p(X1, Y1), down1(Y1, Y, W).
p(X, Y) :- up2(X, X1), p(X1, Y1), down2(Y1, Y, X).
?- p(a, Y).
"""

MIXED_LINEAR_TEXT = """
p(X, Y) :- flat(X, Y).
p(X, Y) :- up(X, X1), p(X1, Y).
p(X, Y) :- p(X, Y1), down(Y1, Y).
?- p(a, Y).
"""

RIGHT_LINEAR_TEXT = """
reach(X, Y) :- flat(X, Y).
reach(X, Y) :- up(X, X1), reach(X1, Y).
?- reach(a, Y).
"""

LEFT_LINEAR_TEXT = """
desc(X, Y) :- flat(X, Y).
desc(X, Y) :- desc(X, Y1), down(Y1, Y).
?- desc(a, Y).
"""

NONLINEAR_TEXT = """
tc(X, Y) :- arc(X, Y).
tc(X, Y) :- tc(X, Z), tc(Z, Y).
?- tc(a, Y).
"""

MUTUAL_TEXT = """
even(X, Y) :- flat(X, Y).
even(X, Y) :- up(X, X1), odd(X1, Y1), down(Y1, Y).
odd(X, Y) :- up(X, X1), even(X1, Y1), down(Y1, Y).
?- even(a, Y).
"""

_ALL_ACYCLIC = (
    "naive", "magic", "extended_counting", "reduced_counting",
    "pointer_counting", "cyclic_counting", "magic_counting",
    "sup_magic", "parallel",
)


def _rename_source(db, source, target="a"):
    """Rebuild ``db`` with ``source`` renamed to ``target``.

    The example queries hard-code the constant ``a``; generators use
    structured node names, so the source node is renamed.
    """
    from ..engine.database import Database

    renamed = Database()
    for key in db.keys():
        rel = db.get(key)
        for row in rel:
            renamed.relation(key[0], key[1]).add(
                tuple(target if v == source else v for v in row)
            )
    return renamed


def sg_tree(fanout=2, depth=4):
    db, root = generators.sg_tree_db(fanout, depth)
    return _rename_source(db, root), "a"


def sg_chain(depth=16):
    db, source = generators.sg_chain_db(depth)
    return _rename_source(db, source), "a"


def sg_cyclic(cycle_length=4, down_length=24):
    db, source = generators.sg_cyclic_db(cycle_length, down_length)
    return _rename_source(db, source), "a"


def sg_example5():
    """The exact database of Example 5."""
    from ..engine.database import Database

    return Database.from_text("""
        up(a, b). up(b, c). up(c, d). up(d, e). up(e, d). up(b, e).
        flat(e, f).
        down(f, g). down(g, h). down(h, i). down(i, j). down(j, k).
        down(k, l).
    """), "a"


def forest_root(index):
    """Query constant of forest tree ``index``: ``a``, ``a1``, ``a2``…

    Tree 0 keeps the name ``a`` so the workload's hard-coded query
    ``sg(a, Y)?`` works unchanged; the other roots are the natural
    rebinding targets for prepared-query workloads.
    """
    return "a" if index == 0 else "a%d" % index


def sg_forest(trees=4, fanout=2, depth=4):
    """Several disjoint mirrored same-generation trees in one database.

    Each tree is an independent copy of the :func:`sg_tree` shape with
    its own root constant (:func:`forest_root`), so one database serves
    a whole stream of ``sg(c, Y)?`` queries with different ``c`` — the
    repeated-query workload behind experiment S3.
    """
    from ..engine.database import Database

    db = Database()
    for index in range(trees):
        up_facts, up_root, up_leaves = generators.full_tree(
            fanout, depth, "up", "t%da" % index
        )
        down_facts, _down_root, down_leaves = generators.full_tree(
            fanout, depth, "tmp", "t%db" % index
        )
        root = forest_root(index)
        for _pred, (parent, child) in up_facts:
            db.add_fact("up", root if parent == up_root else parent, child)
        for _pred, (parent, child) in down_facts:
            db.add_fact("down", child, parent)
        for x, y in zip(up_leaves, down_leaves):
            db.add_fact("flat", x, y)
    return db, "a"


def forest_bindings(trees=4, queries=16):
    """A repeated-query binding stream cycling over the forest roots."""
    return tuple(
        (forest_root(index % trees),) for index in range(queries)
    )


def poison_forest(db, tree=0):
    """Close an ``up``-cycle in one tree of an :func:`sg_forest` database.

    Adds a single ``up(<leaf>, <root>)`` edge back from the tree's
    deepest layer to its root, so the counting methods fail typed on
    queries rooted in that tree while every other tree stays healthy —
    the controlled-degradation scenario behind the serving-layer
    breaker tests.  Returns the ``(leaf, root)`` edge added.
    """
    root = forest_root(tree)
    up = db.relation("up", 2)
    parents = {parent for parent, _child in up}
    prefix = "t%da" % tree
    leaves = sorted(
        str(child) for _parent, child in up
        if child not in parents and str(child).startswith(prefix)
    )
    if not leaves:
        raise ValueError("tree %d has no up-leaves to poison" % tree)
    db.add_fact("up", leaves[0], root)
    return leaves[0], root


def multi_rule_chain(depth=12):
    """Alternating up1/up2 chains with matching down1/down2 chains."""
    from ..engine.database import Database

    db = Database()
    for i in range(depth):
        pred = "up1" if i % 2 == 0 else "up2"
        db.add_fact(pred, generators.node_name("x", i),
                    generators.node_name("x", i + 1))
    for i in range(depth + 1):
        db.add_fact("flat", generators.node_name("x", i),
                    generators.node_name("y", i))
    for i in range(depth):
        pred = "down1" if i % 2 == 0 else "down2"
        db.add_fact(pred, generators.node_name("y", i + 1),
                    generators.node_name("y", i))
    return _rename_source(db, generators.node_name("x", 0)), "a"


def shared_vars_chain(depth=10):
    """Example-4-shaped data scaled to a chain of alternating rules."""
    from ..engine.database import Database

    db = Database()
    for i in range(depth):
        if i % 2 == 0:
            db.add_fact("up1", generators.node_name("x", i),
                        generators.node_name("x", i + 1), i)
        else:
            db.add_fact("up2", generators.node_name("x", i),
                        generators.node_name("x", i + 1))
    db.add_fact("flat", generators.node_name("x", depth),
                generators.node_name("y", depth))
    for i in range(depth, 0, -1):
        if (i - 1) % 2 == 0:
            db.add_fact("down1", generators.node_name("y", i),
                        generators.node_name("y", i - 1), i - 1)
            # A decoy arc with the wrong shared value: must not fire.
            db.add_fact("down1", generators.node_name("y", i),
                        generators.node_name("z", i - 1), i + 99)
        else:
            db.add_fact("down2", generators.node_name("y", i),
                        generators.node_name("y", i - 1),
                        generators.node_name("x", i - 1))
    return _rename_source(db, generators.node_name("x", 0)), "a"


def example4_db_a():
    from ..engine.database import Database

    return Database.from_text("""
        up1(a, b, 1). flat(b, c). down1(c, d, 2). down1(c, e, 1).
    """), "a"


def example4_db_b():
    from ..engine.database import Database

    return Database.from_text("""
        up2(a, b). flat(b, c). down2(c, d, b). down2(c, e, a).
    """), "a"


def mixed_linear_chain(up_depth=8, down_depth=8):
    from ..engine.database import Database

    db = Database()
    db.add_facts(generators.chain(up_depth, "up", "x"))
    for i in range(up_depth + 1):
        db.add_fact("flat", generators.node_name("x", i),
                    generators.node_name("y", 0))
    db.add_facts(generators.chain(down_depth, "down", "y"))
    return _rename_source(db, generators.node_name("x", 0)), "a"


def right_linear_chain(depth=16):
    from ..engine.database import Database

    db = Database()
    db.add_facts(generators.chain(depth, "up", "x"))
    for i in range(depth + 1):
        db.add_fact("flat", generators.node_name("x", i),
                    generators.node_name("y", i))
    return _rename_source(db, generators.node_name("x", 0)), "a"


def left_linear_chain(depth=16):
    from ..engine.database import Database

    db = Database()
    db.add_fact("flat", "a", generators.node_name("y", 0))
    db.add_facts(generators.chain(depth, "down", "y"))
    return db, "a"


def sg_cylinder(width=4, height=8):
    """Same generation over mirrored Bancilhon-Ramakrishnan cylinders.

    Exponential path counts with uniform path lengths — counting's
    best non-tree case (experiment S1).
    """
    from ..engine.database import Database

    db = Database()
    facts, first, last = generators.cylinder(width, height, "up", "u")
    db.add_facts(facts)
    down_facts, _d_first, d_last = generators.cylinder(
        width, height, "tmp", "d"
    )
    for _pred, (x, y) in down_facts:
        db.add_fact("down", y, x)
    for u_node, d_node in zip(last, d_last):
        db.add_fact("flat", u_node, d_node)
    return _rename_source(db, first[0]), "a"


def nonlinear_graph(nodes=20, arcs=40, seed=7):
    from ..engine.database import Database

    db = Database()
    db.add_facts(generators.random_graph(nodes, arcs, seed, "arc", "g"))
    db.add_fact("arc", "a", generators.node_name("g", 0))
    return db, "a"


def mutual_chain(depth=12):
    db, source = generators.sg_chain_db(depth)
    return _rename_source(db, source), "a"


WORKLOADS = {
    "sg_tree": Workload(
        "sg_tree", SG_TEXT, sg_tree,
        "Example 1 same generation over mirrored full trees",
        _ALL_ACYCLIC + ("classical_counting", "encoded_counting"),
    ),
    "sg_chain": Workload(
        "sg_chain", SG_TEXT, sg_chain,
        "Same generation over two chains with flat crossings",
        _ALL_ACYCLIC + ("classical_counting", "encoded_counting"),
    ),
    "sg_forest": Workload(
        "sg_forest", SG_TEXT, sg_forest,
        "Disjoint mirrored sg trees, one root per repeated query (S3)",
        _ALL_ACYCLIC + ("classical_counting", "encoded_counting"),
    ),
    "sg_cyclic": Workload(
        "sg_cyclic", SG_TEXT, sg_cyclic,
        "Example 5 shape: cyclic up relation",
        ("naive", "magic", "sup_magic", "cyclic_counting",
         "magic_counting", "parallel"),
    ),
    "multi_rule": Workload(
        "multi_rule", MULTI_RULE_TEXT, multi_rule_chain,
        "Example 3: two recursive rules",
        # The [15] integer-encoded method also applies: multiple rules,
        # but no shared variables.
        _ALL_ACYCLIC + ("encoded_counting",),
    ),
    "shared_vars": Workload(
        "shared_vars", SHARED_VARS_TEXT, shared_vars_chain,
        "Example 4: variables shared between left and right parts",
        _ALL_ACYCLIC,
    ),
    "mixed_linear": Workload(
        "mixed_linear", MIXED_LINEAR_TEXT, mixed_linear_chain,
        "Example 6: right-linear + left-linear rules",
        _ALL_ACYCLIC,
    ),
    "right_linear": Workload(
        "right_linear", RIGHT_LINEAR_TEXT, right_linear_chain,
        "Pure right-linear program (Section 5)",
        # Classical counting applies too (one rule, no shared vars);
        # its index is simply never consulted by the empty right part.
        _ALL_ACYCLIC + ("classical_counting", "encoded_counting"),
    ),
    "left_linear": Workload(
        "left_linear", LEFT_LINEAR_TEXT, left_linear_chain,
        "Pure left-linear program (Section 5)",
        _ALL_ACYCLIC,
    ),
    "sg_cylinder": Workload(
        "sg_cylinder", SG_TEXT, sg_cylinder,
        "Same generation over mirrored B-R cylinders (experiment S1)",
        _ALL_ACYCLIC + ("classical_counting", "encoded_counting"),
    ),
    "nonlinear": Workload(
        "nonlinear", NONLINEAR_TEXT, nonlinear_graph,
        "Non-linear transitive closure: magic-set fallback only",
        ("naive", "magic", "sup_magic"),
    ),
    "mutual": Workload(
        "mutual", MUTUAL_TEXT, mutual_chain,
        "Two mutually recursive predicates (even/odd generation)",
        ("naive", "magic", "sup_magic", "extended_counting",
         "reduced_counting", "pointer_counting", "cyclic_counting",
         "magic_counting", "parallel"),
    ),
}


def get_workload(name):
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            "unknown workload %r; available: %s"
            % (name, ", ".join(sorted(WORKLOADS)))
        ) from None
