"""Query-level evaluation API.

:func:`evaluate_query` runs a query's program bottom-up and filters the
goal relation by the goal's bound arguments.  The result is a
:class:`QueryResult` carrying both full goal tuples and the projection
onto the goal's free positions — the projection is what all the
rewriting executors return, so answers from different methods compare
directly.
"""

from ..datalog.rules import Query
from ..datalog.terms import Constant, Variable, ground_value
from .instrumentation import EvalStats
from .relation import Relation


class QueryResult:
    """Answers of a query plus the statistics of computing them."""

    __slots__ = ("query", "tuples", "answers", "stats")

    def __init__(self, query, tuples, answers, stats):
        self.query = query
        #: Full ground goal tuples matching the bound arguments.
        self.tuples = frozenset(tuples)
        #: Projection of ``tuples`` onto the goal's free positions.
        self.answers = frozenset(answers)
        self.stats = stats

    def __iter__(self):
        return iter(self.answers)

    def __len__(self):
        return len(self.answers)

    def __contains__(self, answer):
        return answer in self.answers

    def sorted(self):
        return sorted(self.answers)

    def __repr__(self):
        return "QueryResult(%d answers)" % len(self.answers)


def _selection(goal):
    """The goal's ground positions with their values, and the position
    groups of every variable it repeats."""
    positions, values, seen = [], [], {}
    for i, arg in enumerate(goal.args):
        if isinstance(arg, Constant):
            positions.append(i)
            values.append(arg.value)
        elif arg.is_ground():
            positions.append(i)
            values.append(ground_value(arg))
        elif isinstance(arg, Variable):
            seen.setdefault(arg.name, []).append(i)
    repeats = [group for group in seen.values() if len(group) > 1]
    return tuple(positions), tuple(values), repeats


def agreeing(rows, repeats):
    """``rows`` whose positions in each group of ``repeats`` (lists of
    row indexes) hold one value."""
    for group in repeats:
        first, rest = group[0], group[1:]
        rows = [
            row for row in rows
            if all(row[i] == row[first] for i in rest)
        ]
    return rows


def goal_filter(goal, rows):
    """Rows of the goal relation the goal matches: its ground arguments'
    values at their positions, and one value wherever it repeats a
    variable (``p(X, X)`` selects the diagonal).

    A relation selects the ground positions counting nothing
    (:meth:`~repro.engine.relation.Relation.select`): one probe when it
    has an index on them, else a scan — a relation read for one goal
    is not worth indexing (:func:`index_goal` indexes one that later
    goals select from).  Any other iterable of rows is scanned.
    """
    positions, values, repeats = _selection(goal)
    if positions:
        key = values[0] if len(positions) == 1 else values
        select = getattr(rows, "select", None)
        if select is not None:
            rows = select(positions, key)
        else:
            rows = [
                row for row in rows
                if all(row[i] == v for i, v in zip(positions, values))
            ]
    return agreeing(rows, repeats)


def index_goal(goal, relation):
    """Build and keep the index :func:`goal_filter` probes for
    ``goal``'s ground positions on ``relation``, an engine-derived
    relation that later goals select from; a database relation (one
    built over the intern pool) or any other stand-in is left as it
    is."""
    positions = _selection(goal)[0]
    if (isinstance(relation, Relation) and relation._pool is None
            and relation.use_indexes
            and 0 < len(positions) < relation.arity):
        relation.ensure_index(positions)


def free_repeats(goal):
    """The repeated variables of ``goal`` as groups of indexes into its
    :func:`project_free` answers — the check a method that answers on
    the free positions directly (the counting evaluators) must still
    apply (see :func:`agreeing`)."""
    free = {}
    for i, arg in enumerate(goal.args):
        if not arg.is_ground():
            free[i] = len(free)
    return [[free[i] for i in group] for group in _selection(goal)[2]]


def project_free(goal, rows):
    """Project rows onto the goal's non-ground positions."""
    free = [i for i, arg in enumerate(goal.args) if not arg.is_ground()]
    return {tuple(row[i] for i in free) for row in rows}


def evaluate_query(query, db, stats=None, max_iterations=None):
    """Evaluate ``query`` over ``db`` with the semi-naive engine."""
    if not isinstance(query, Query):
        raise TypeError("expected a Query")
    from .seminaive import SemiNaiveEngine

    stats = stats if stats is not None else EvalStats()
    engine = SemiNaiveEngine(
        query.program, db, stats=stats, max_iterations=max_iterations
    )
    engine.run()
    goal = query.goal
    relation = engine.relation(goal.key)
    tuples = set(goal_filter(goal, relation))
    answers = project_free(goal, tuples)
    return QueryResult(query, tuples, answers, stats)
