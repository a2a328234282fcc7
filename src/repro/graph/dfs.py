"""Depth-first search arc classification (Tarjan [18], §2 of the paper).

Given a source node and a successor function, :func:`classify_arcs`
partitions the arcs reachable from the source into the four classical
classes:

* *tree* arcs — arcs of the DFS tree;
* *forward* arcs — to a proper descendant that is not a child;
* *cross* arcs — between nodes unrelated by ancestry;
* *back* arcs — to an ancestor (including self-loops).

Tree, forward and cross arcs together form the *ahead* arcs; the graph
restricted to ahead arcs is acyclic, which is what makes the cyclic
counting method's counting set finite (Section 4).

The classification depends on the DFS visit order; the paper notes that
"more than one different partitions are possible".  We fix a
deterministic order (sorted successors) so results are reproducible.

The search runs over integer ids: :func:`explore` expands the graph
one breadth wave at a time (the counting engines answer a wave with one
compiled call per rule) and :func:`classify_ids` replays the DFS over
the adjacency lists it returns.
"""

from collections import namedtuple


class Arc:
    """A labeled arc ``source -> target``."""

    __slots__ = ("source", "target", "label")

    def __init__(self, source, target, label=None):
        self.source = source
        self.target = target
        self.label = label

    def __eq__(self, other):
        return (
            isinstance(other, Arc)
            and other.source == self.source
            and other.target == self.target
            and other.label == self.label
        )

    def __hash__(self):
        return hash((self.source, self.target, self.label))

    def __repr__(self):
        if self.label is None:
            return "Arc(%r -> %r)" % (self.source, self.target)
        return "Arc(%r -> %r : %r)" % (self.source, self.target, self.label)


class ArcClassification:
    """Result of :func:`classify_arcs`."""

    __slots__ = ("source", "tree", "forward", "cross", "back", "order")

    def __init__(self, source, tree, forward, cross, back, order):
        self.source = source
        self.tree = tuple(tree)
        self.forward = tuple(forward)
        self.cross = tuple(cross)
        self.back = tuple(back)
        #: Nodes in DFS discovery order (the reachable node set).
        self.order = tuple(order)

    @property
    def ahead(self):
        """Tree + forward + cross arcs: the acyclic skeleton."""
        return self.tree + self.forward + self.cross

    @property
    def arcs(self):
        return self.ahead + self.back

    @property
    def nodes(self):
        return frozenset(self.order)

    def is_acyclic(self):
        """True if the reachable subgraph contains no back arc."""
        return not self.back

    def ahead_predecessors(self):
        """Map node -> tuple of ahead arcs entering it."""
        preds = {node: [] for node in self.order}
        for arc in self.ahead:
            preds[arc.target].append(arc)
        return {node: tuple(arcs) for node, arcs in preds.items()}

    def back_predecessors(self):
        """Map node -> tuple of back arcs entering it."""
        preds = {}
        for arc in self.back:
            preds.setdefault(arc.target, []).append(arc)
        return {node: tuple(arcs) for node, arcs in preds.items()}

    def recurring(self):
        """The nodes on or below a cycle (§2's *recurring* nodes): those
        reachable from a back-arc target (see :func:`recurring_ids`)."""
        rank = {node: i for i, node in enumerate(self.order)}
        ranked = [(rank[arc.source], rank[arc.target]) for arc in self.arcs]
        flags = recurring_ids(len(rank), ranked, ranked[len(self.ahead):])
        return {node for node, flag in zip(self.order, flags) if flag}

    def __repr__(self):
        return (
            "ArcClassification(%d nodes, %d tree, %d forward, %d cross, "
            "%d back)"
            % (
                len(self.order),
                len(self.tree),
                len(self.forward),
                len(self.cross),
                len(self.back),
            )
        )


def explore(source, expand):
    """The graph reachable from ``source``, as ``(nodes, adjacency)``.

    ``nodes[i]`` is the node with id ``i`` (the source is 0) and
    ``adjacency[i]`` its ``(target id, label)`` pairs sorted by
    ``(repr(target), repr(label))`` — deterministic over mixed types,
    with each text computed once.  ``expand(wave, nodes)`` is called
    once per breadth wave, ``wave`` the list of the wave's nodes: it
    returns, for each of them in order, the list of its ``(target id,
    label)`` pairs, and gives each target it reaches for the first
    time the next id by appending it to ``nodes``.  The expander keeps
    the node -> id map, so a caller that knows the shape of its nodes
    assigns ids without building them (see
    :meth:`repro.exec.counting_engine.CountingEngine._expand`).
    """
    nodes = [source]
    adjacency = []
    target_texts = {}
    label_texts = {}

    def sort_key(arc):
        target_id, label = arc
        target = target_texts.get(target_id)
        if target is None:
            target = target_texts[target_id] = repr(nodes[target_id])
        text = label_texts.get(label)
        if text is None:
            text = label_texts[label] = repr(label)
        return target, text

    while len(adjacency) < len(nodes):
        wave = nodes[len(adjacency):]
        expanded = expand(wave, nodes)
        if len(expanded) != len(wave):
            raise ValueError("expand must answer every node of a wave")
        for arcs in expanded:
            if len(arcs) > 1:
                arcs.sort(key=sort_key)
            adjacency.append(arcs)
    return nodes, adjacency


class IdClassification(
        namedtuple("IdClassification", "nodes tree forward cross back")):
    """Result of :func:`classify_ids`: the classification over ranks.

    A node's *rank* is its DFS discovery position — ``nodes[rank]``,
    the source at 0.  Each arc is a ``(source rank, target rank,
    label)`` tuple, each class in discovery order.
    """

    __slots__ = ()

    @property
    def ahead(self):
        return self.tree + self.forward + self.cross

    @property
    def arcs(self):
        return self.ahead + self.back

    def view(self):
        """The same classification as an :class:`ArcClassification`."""
        nodes = self.nodes

        def arcs(ranked):
            return [Arc(nodes[s], nodes[t], label) for s, t, label in ranked]

        return ArcClassification(
            nodes[0], arcs(self.tree), arcs(self.forward),
            arcs(self.cross), arcs(self.back), nodes,
        )


def classify_ids(nodes, adjacency):
    """Algorithm 2's DFS from id 0 over ``explore``'s adjacency lists:
    integer work only, no node object touched."""
    rank = [-1] * len(nodes)
    rank[0] = 0
    order = [0]
    on_stack = bytearray(len(nodes))
    on_stack[0] = 1
    tree, forward, cross, back = [], [], [], []
    stack = [(0, iter(adjacency[0]))]
    while stack:
        node, edges = stack[-1]
        here = rank[node]
        for target, label in edges:
            there = rank[target]
            if there < 0:
                there = rank[target] = len(order)
                order.append(target)
                tree.append((here, there, label))
                on_stack[target] = 1
                stack.append((target, iter(adjacency[target])))
                break
            if on_stack[target]:
                back.append((here, there, label))
            elif there > here:
                forward.append((here, there, label))
            else:
                cross.append((here, there, label))
        else:
            stack.pop()
            on_stack[node] = 0
    return IdClassification(
        [nodes[i] for i in order], tree, forward, cross, back
    )


def recurring_ids(count, arcs, back):
    """Flags, by id, of the nodes reachable from a back-arc target.

    ``arcs`` and its subset ``back`` are ``(source, target, ...)``
    tuples of a DFS classification over ids ``0 .. count - 1``.  Every
    cycle holds a back arc, and every back-arc target lies on a cycle
    (the tree path down to the arc's source closes it), so these are
    exactly the nodes on or below a cycle — in O(V + E), and O(V)
    without a back arc.
    """
    flags = bytearray(count)
    if not back:
        return flags
    successors = [[] for _ in range(count)]
    for arc in arcs:
        successors[arc[0]].append(arc[1])
    stack = [arc[1] for arc in back]
    while stack:
        node = stack.pop()
        if not flags[node]:
            flags[node] = 1
            stack.extend(successors[node])
    return flags


def classify_arcs(source, successors):
    """Classify all arcs reachable from ``source``.

    ``successors(node)`` must yield ``(target, label)`` pairs; the same
    pair may be yielded once per distinct arc.
    """
    ident = {source: 0}

    def expand(wave, nodes):
        expanded = []
        for node in wave:
            arcs = []
            for target, label in successors(node):
                target_id = ident.get(target)
                if target_id is None:
                    target_id = ident[target] = len(nodes)
                    nodes.append(target)
                arcs.append((target_id, label))
            expanded.append(arcs)
        return expanded

    return classify_ids(*explore(source, expand)).view()


def adjacency_successors(arcs):
    """Build a successor function from an iterable of ``Arc`` objects."""
    adjacency = {}
    for arc in arcs:
        adjacency.setdefault(arc.source, []).append((arc.target, arc.label))

    def successors(node):
        return adjacency.get(node, ())

    return successors
