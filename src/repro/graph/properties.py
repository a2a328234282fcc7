"""Graph properties from Section 2: node classes and cycles.

With respect to a source node ``s``, a node is

* *single* if exactly one path from ``s`` reaches it,
* *multiple* if a finite number greater than one reach it,
* *recurring* if infinitely many paths reach it (i.e. some path from
  ``s`` to the node passes through a cycle).

A graph is a tree iff every node is single and acyclic iff no node is
recurring (equivalently, no back arc under any DFS).
"""

from .dfs import classify_arcs

SINGLE = "single"
MULTIPLE = "multiple"
RECURRING = "recurring"


def _reachable_arcs(classification):
    arcs = {}
    for arc in classification.arcs:
        arcs.setdefault(arc.source, set()).add(arc.target)
    return arcs


def strongly_connected_components(adjacency, nodes=None):
    """SCC ids for a graph given as ``{node: iterable-of-successors}``.

    Returns a dict node -> component id.  Node ordering uses ``repr``
    so heterogeneous node tuples are handled deterministically.
    """
    if nodes is None:
        nodes = set(adjacency)
        for targets in adjacency.values():
            nodes.update(targets)
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    component = {}
    counter = [0]
    comp_counter = [0]

    def visit(start):
        work = [(start, iter(sorted(adjacency.get(start, ()), key=repr)))]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append(
                        (succ,
                         iter(sorted(adjacency.get(succ, ()), key=repr)))
                    )
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = comp_counter[0]
                    if member == node:
                        break
                comp_counter[0] += 1

    for node in sorted(nodes, key=repr):
        if node not in index:
            visit(node)
    return component


def node_classes(source, successors):
    """Classify every node reachable from ``source``.

    Returns a dict node -> SINGLE | MULTIPLE | RECURRING.
    """
    classification = classify_arcs(source, successors)
    nodes = classification.nodes
    adjacency = _reachable_arcs(classification)
    recurring = classification.recurring()
    # Path counting on the remaining acyclic portion, in topological
    # order of ahead arcs (recurring nodes are excluded — their counts
    # are infinite).
    counts = {node: 0 for node in nodes}
    counts[source] = 1
    preds = {}
    for arc in classification.arcs:
        preds.setdefault(arc.target, []).append(arc.source)
    # Topological order over non-recurring nodes: repeated relaxation is
    # fine because the subgraph is acyclic; use DFS discovery order of
    # ahead arcs which is a topological order only for trees, so instead
    # do a Kahn-style pass.
    indegree = {node: 0 for node in nodes if node not in recurring}
    for node in indegree:
        for pred in preds.get(node, ()):
            if pred not in recurring and pred != node:
                indegree[node] += 1
    ready = [n for n, deg in indegree.items() if deg == 0]
    topo = []
    while ready:
        node = ready.pop()
        topo.append(node)
        for succ in adjacency.get(node, ()):
            if succ in indegree and succ != node:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
    for node in topo:
        if node == source:
            continue
        counts[node] = sum(
            counts[pred] for pred in preds.get(node, ())
            if pred not in recurring
        )
    classes = {}
    for node in nodes:
        if node in recurring:
            classes[node] = RECURRING
        elif counts[node] <= 1:
            classes[node] = SINGLE
        else:
            classes[node] = MULTIPLE
    return classes


def is_tree(source, successors):
    """True if every reachable node has exactly one path from source."""
    return all(
        cls == SINGLE for cls in node_classes(source, successors).values()
    )


def is_acyclic(source, successors):
    """True if the reachable subgraph has no cycle."""
    return classify_arcs(source, successors).is_acyclic()


def elementary_cycles(source, successors, limit=10000):
    """Enumerate elementary cycles of the reachable subgraph.

    A cycle is elementary if each node occurs only once.  Uses a simple
    DFS enumeration (adequate for the small graphs in tests and
    benchmarks); stops after ``limit`` cycles.
    """
    classification = classify_arcs(source, successors)
    adjacency = _reachable_arcs(classification)
    nodes = sorted(classification.nodes, key=repr)
    cycles = []
    for start in nodes:
        # Only enumerate cycles whose smallest node (in order) is start,
        # to avoid duplicates.
        start_rank = nodes.index(start)
        path = [start]
        on_path = {start}

        def search(node):
            if len(cycles) >= limit:
                return
            for succ in sorted(adjacency.get(node, ()), key=repr):
                rank = nodes.index(succ)
                if rank < start_rank:
                    continue
                if succ == start:
                    cycles.append(tuple(path))
                    continue
                if succ in on_path:
                    continue
                path.append(succ)
                on_path.add(succ)
                search(succ)
                path.pop()
                on_path.discard(succ)

        search(start)
    return cycles
