"""Wavefront evaluation of the node-keyed counting program (§3.4/§4).

The paper's per-node counting program is *weakly stratified*: its
counting rule negates its own predicate,

    c_p(X1, <(R, C, Id)>)  <-  Id : c_p(X, _), ahead(X, X1, C, R),
                               not (ahead(W, X1, _, _), W != X,
                                    not c_p(W, _)).

meaning a node enters the counting set only once **all** of its ahead
predecessors have entered it — so each node receives a single
identifier carrying the full set of predecessor triples.  Theorem 2(1)
states the rewritten program is weakly stratified; this module
implements the corresponding evaluation discipline directly: a
wavefront (Kahn-style) pass over the ahead-arc DAG that fires the rule
for a node exactly when the negated subgoal has become definitively
false.

The result is, by construction, the same model the Bushy-Depth-First
fixpoint computes — and the same table
:class:`~repro.exec.counting_engine.CountingEngine` builds during its
DFS.  ``tests/test_weak_stratification.py`` checks that agreement on
the paper's examples and on random graphs, which is the executable
content of Theorem 2(1) in this reproduction.
"""

from ..graph.dfs import classify_arcs
from .counting_engine import CountingTable


def wavefront_counting_table(classification):
    """Build the per-node counting table by weakly stratified rounds.

    ``classification`` is the DFS arc classification of the reachable
    left graph.  Nodes are admitted in rounds: a node fires when every
    ahead predecessor has already been admitted (the negation in the
    counting rule is then definitively false).  Back arcs never gate
    admission — they are re-attached afterwards, exactly like the
    paper's ``cycle`` rules.

    Returns a :class:`CountingTable`; row ids reflect admission order.
    """
    ahead_preds = classification.ahead_predecessors()
    back_preds = classification.back_predecessors()
    source = classification.source

    # Admission: Kahn topological order over ahead arcs.
    remaining = {
        node: len(arcs) for node, arcs in ahead_preds.items()
    }
    admitted = []
    ready = [source]
    seen = {source}
    out_arcs = {}
    for arc in classification.ahead:
        out_arcs.setdefault(arc.source, []).append(arc)
    while ready:
        # Each pop is one firing of the weakly stratified rule: the
        # node's negated subgoal just became false.
        node = ready.pop(0)
        admitted.append(node)
        for arc in out_arcs.get(node, ()):
            remaining[arc.target] -= 1
            if remaining[arc.target] == 0 and arc.target not in seen:
                seen.add(arc.target)
                ready.append(arc.target)

    if len(admitted) != len(classification.order):
        # Cannot happen: ahead arcs form a DAG (tests assert this).
        raise AssertionError(
            "wavefront did not admit every reachable node"
        )

    # Row ids are admission ranks (the source is admitted first); the
    # in-triples follow the source's sentinel: each admitted node's
    # ahead arcs, then the cycle rules — back arcs join after the
    # counting set is complete.
    rank = {node: i for i, node in enumerate(admitted)}
    ahead = [
        (rank[arc.source], rank[node], arc.label)
        for node in admitted for arc in ahead_preds.get(node, ())
    ]
    back = [
        (rank[arc.source], rank[node], arc.label)
        for node, arcs in back_preds.items() for arc in arcs
    ]
    return CountingTable.from_ranks(admitted, ahead, back)


def tables_equivalent(left, right):
    """Structural equality of two counting tables up to id renaming.

    Ids are local to each construction (DFS discovery order vs
    wavefront admission order); equivalence means: same node set, and
    for every node the same multiset of (rule, shared, predecessor
    *node*) in-triples.
    """
    def normalize(table):
        nodes = list(zip(table.pred, table.values))
        return {
            node: sorted(
                (label, shared, None if prev is None else nodes[prev])
                for label, shared, prev in triples
            )
            for node, triples in zip(nodes, table.triples())
        }

    return normalize(left) == normalize(right)


def weakly_stratified_counting_table(source, successors):
    """Classify arcs from ``source`` and build the wavefront table."""
    return wavefront_counting_table(classify_arcs(source, successors))
