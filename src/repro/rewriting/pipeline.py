"""The unified optimizer (the paper's "unifying framework").

:func:`optimize` inspects a query and picks the strongest applicable
method:

1. if the goal is a base predicate or a non-recursive derived
   predicate, no binding-passing rewriting is needed (``naive`` /
   ``magic`` respectively);
2. if the goal clique is linear and canonicalizable, a counting method
   applies:

   * a mixed-linear clique reduces to a path-free program
     (``reduced_counting`` — Algorithm 3; safe on any data);
   * otherwise, when a database is at hand, the left graph is
     classified: acyclic data uses the §3.4 pointer implementation
     (``pointer_counting``), cyclic data Algorithm 2
     (``cyclic_counting``);
   * with no database to inspect, Algorithm 2 is chosen — it is correct
     for both cases;

3. a non-linear clique whose only recursive rule is the *square*
   transitive-closure shape is first linearized to right-linear form
   (:mod:`repro.rewriting.linearize`, the paper's §6 extension
   direction) and the selection re-runs on the linearized query;
4. anything else (other non-linear recursion, clique without exit
   rules, unbindable recursive calls) falls back to ``magic``, which
   is always applicable.
"""

from ..datalog.rules import Query
from ..errors import NotApplicableError
from .adornment import adorn_query
from .canonical import canonicalize_clique
from .linearity import is_mixed_linear
from .support import goal_clique_of


class OptimizationPlan:
    """A chosen strategy, executable against any database."""

    __slots__ = ("query", "method", "reason", "adorned")

    def __init__(self, query, method, reason, adorned=None):
        self.query = query
        self.method = method
        #: Human-readable justification of the choice.
        self.reason = reason
        self.adorned = adorned

    def execute(self, db, budget=None):
        """Run the plan; returns an
        :class:`~repro.exec.strategies.ExecutionResult`.

        ``budget`` is an optional
        :class:`~repro.engine.guard.ResourceBudget` bounding the run.
        """
        from ..exec.strategies import run_strategy

        return run_strategy(self.method, self.query, db, budget=budget)

    def explain(self):
        return "%s: %s" % (self.method, self.reason)

    def __repr__(self):
        return "OptimizationPlan(%s)" % self.method


def choose_method(query, db=None):
    """Pick the strongest applicable strategy for ``query``.

    Returns ``(method_name, reason, adorned_or_None)``.
    """
    if not isinstance(query, Query):
        raise TypeError("expected a Query")
    program = query.program
    if query.goal.key not in program.head_predicates():
        return ("naive", "goal is a base predicate; direct lookup", None)
    adorned = adorn_query(query)
    try:
        clique, _support = goal_clique_of(adorned)
    except NotApplicableError:
        return (
            "magic",
            "goal predicate is not recursive; magic sets push the "
            "binding through its rules without any counting machinery",
            adorned,
        )
    try:
        canonical = canonicalize_clique(clique, adorned)
    except NotApplicableError as exc:
        return (
            "magic",
            "counting does not apply (%s); magic sets are always "
            "applicable" % exc,
            adorned,
        )
    if is_mixed_linear(canonical):
        return (
            "reduced_counting",
            "mixed-linear clique: Algorithm 3 deletes the path argument "
            "entirely (safe on cyclic data too)",
            adorned,
        )
    if db is not None:
        from ..exec.strategies import classify_left_graph

        classification = classify_left_graph(adorned, db)
        if classification.is_acyclic():
            return (
                "pointer_counting",
                "linear clique over an acyclic left graph: §3.4 pointer "
                "implementation",
                adorned,
            )
        return (
            "cyclic_counting",
            "linear clique with %d back arcs in the left graph: "
            "Algorithm 2" % len(classification.back),
            adorned,
        )
    return (
        "cyclic_counting",
        "linear clique, database not inspected: Algorithm 2 is correct "
        "for acyclic and cyclic data alike",
        adorned,
    )


def optimize(query, db=None, method="auto"):
    """Build an :class:`OptimizationPlan` for ``query``.

    ``method='auto'`` applies the selection policy above; any strategy
    name from :data:`repro.exec.strategies.STRATEGIES` forces that
    method.
    """
    if method != "auto":
        from ..exec.strategies import STRATEGIES

        if method not in STRATEGIES:
            raise ValueError(
                "unknown method %r; available: auto, %s"
                % (method, ", ".join(sorted(STRATEGIES)))
            )
        return OptimizationPlan(query, method, "requested explicitly")
    name, reason, adorned = choose_method(query, db)
    if name == "magic":
        # Last resort before settling for magic: square-rule
        # linearization (the paper's §6 extension direction) may turn a
        # non-linear clique into a counting-treatable one.
        from .linearize import linearize_square_rules

        try:
            linearized = Query(
                query.goal, linearize_square_rules(query.program)
            )
        except NotApplicableError:
            linearized = None
        if linearized is not None:
            lin_name, lin_reason, lin_adorned = choose_method(
                linearized, db
            )
            if lin_name not in ("magic", "naive"):
                return OptimizationPlan(
                    linearized,
                    lin_name,
                    "after square-rule linearization: %s" % lin_reason,
                    lin_adorned,
                )
    return OptimizationPlan(query, name, reason, adorned)
