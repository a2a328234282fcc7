"""The classical counting method [3, 17] (Section 1 of the paper).

The rewriting adds to each magic tuple its *distance* from the query
constant, so the answer phase at level ``I`` only joins with results of
level ``I + 1``.  For the same-generation query ``sg(a, Y)`` it produces
exactly the program of Example 1::

    c_sg(a, 0).
    c_sg(X1, I + 1) :- c_sg(X, I), up(X, X1).
    sg(Y, I)        :- c_sg(X, I), flat(X, Y).
    sg(Y, I)        :- sg(Y1, I + 1), down(Y1, Y).

(arithmetic is emitted in the executable direction: ``J is I + 1`` in
the counting rule and ``I is J - 1, I >= 0`` in the modified rule).

Applicability — the classical limitations the paper removes (§1):

1. one recursive rule per clique, with the same predicate and the same
   adornment in head and body, and a non-empty left part (see
   :func:`refuse_left_linear`);
2. no variables shared between the left and the right part
   (``C_r = ∅``) and no bound head variable in the right part
   (``D_r = ∅``);
3. the left-part relation must be acyclic (checked at *runtime*: the
   executor bounds the index by the number of reachable nodes and
   raises :class:`CountingDivergenceError` on overflow).
"""

from ..datalog.atoms import Atom, Comparison
from ..datalog.rules import Program, Query, Rule
from ..datalog.terms import Compound, Constant, Variable
from ..errors import NotApplicableError
from .adornment import adorn_query
from .canonical import canonicalize_clique, query_constants
from .support import goal_clique_of

#: Prefix of counting predicate names.
COUNT_PREFIX = "c_"


class ClassicalCountingRewriting:
    """Result of :func:`classical_counting_rewrite`."""

    __slots__ = (
        "adorned",
        "query",
        "counting_rules",
        "modified_rules",
        "support_rules",
        "counting_pred",
        "answer_pred",
        "canonical",
    )

    def __init__(self, adorned, query, counting_rules, modified_rules,
                 support_rules, counting_pred, answer_pred, canonical):
        self.adorned = adorned
        self.query = query
        self.counting_rules = tuple(counting_rules)
        self.modified_rules = tuple(modified_rules)
        self.support_rules = tuple(support_rules)
        self.counting_pred = counting_pred
        self.answer_pred = answer_pred
        self.canonical = canonical

    @property
    def program(self):
        return self.query.program


def refuse_left_linear(rule, method):
    """Raise :class:`NotApplicableError` when ``rule`` is left-linear.

    The counting rule of a left-linear rule is a self-loop (same node,
    longer index): the counting set grows without bound whatever the
    data.  The index-based methods presume rules that move the binding,
    so they refuse such a rule statically.
    """
    if rule.is_left_linear_shape():
        raise NotApplicableError(
            "%s counting diverges on left-linear rule %s "
            "(empty left part)" % (method, rule.label)
        )


def check_classical_applicability(canonical):
    """Raise :class:`NotApplicableError` unless the classical method
    applies to this canonical clique (conditions 1-2 above)."""
    if len(canonical.recursive_rules) != 1:
        raise NotApplicableError(
            "classical counting requires exactly one recursive rule, "
            "found %d" % len(canonical.recursive_rules)
        )
    rule = canonical.recursive_rules[0]
    if rule.head_key != rule.rec_key:
        raise NotApplicableError(
            "classical counting requires the recursive call to use the "
            "head predicate with the same adornment (%s vs %s)"
            % (rule.head_key[0], rule.rec_key[0])
        )
    refuse_left_linear(rule, "classical")
    if rule.shared_vars:
        raise NotApplicableError(
            "classical counting forbids variables shared between left "
            "and right part: %s" % list(rule.shared_vars)
        )
    if rule.bound_in_right:
        raise NotApplicableError(
            "classical counting forbids bound head variables in the "
            "right part: %s" % list(rule.bound_in_right)
        )


def classical_counting_rewrite(query):
    """Apply the classical counting rewriting to ``query``."""
    adorned = query if hasattr(query, "origins") else adorn_query(query)
    clique, support_rules = goal_clique_of(adorned)
    canonical = canonicalize_clique(clique, adorned)
    check_classical_applicability(canonical)

    goal = adorned.goal
    goal_pred = goal.pred
    counting_pred = COUNT_PREFIX + goal_pred
    answer_pred = goal_pred
    rule = canonical.recursive_rules[0]
    index_i = Variable("CNT_I")
    index_j = Variable("CNT_J")

    seed = Rule(
        Atom(
            counting_pred,
            tuple(Constant(v) for v in query_constants(goal)) +
            (Constant(0),),
        ),
        (),
        label="c_seed",
    )
    counting_rule = Rule(
        Atom(
            counting_pred,
            tuple(Variable(v) for v in rule.rec_bound_vars) + (index_j,),
        ),
        (
            Atom(
                counting_pred,
                tuple(Variable(v) for v in rule.bound_vars) + (index_i,),
            ),
        )
        + rule.left
        + (
            Comparison(
                "is", index_j, Compound("+", (index_i, Constant(1)))
            ),
        ),
        label="c_%s" % rule.label,
    )
    counting_rules = (seed, counting_rule)

    modified_rules = []
    for exit_rule in canonical.exit_rules:
        modified_rules.append(
            Rule(
                Atom(
                    answer_pred,
                    tuple(Variable(v) for v in exit_rule.free_vars)
                    + (index_i,),
                ),
                (
                    Atom(
                        counting_pred,
                        tuple(Variable(v) for v in exit_rule.bound_vars)
                        + (index_i,),
                    ),
                )
                + exit_rule.body,
                label=exit_rule.label,
            )
        )
    modified_rules.append(
        Rule(
            Atom(
                answer_pred,
                tuple(Variable(v) for v in rule.free_vars) + (index_i,),
            ),
            (
                Atom(
                    answer_pred,
                    tuple(Variable(v) for v in rule.rec_free_vars)
                    + (index_j,),
                ),
                Comparison(
                    "is", index_i, Compound("-", (index_j, Constant(1)))
                ),
                Comparison(">=", index_i, Constant(0)),
            )
            + rule.right,
            label=rule.label,
        )
    )

    free_args = tuple(
        arg for arg in goal.args if not arg.is_ground()
    )
    new_goal = Atom(answer_pred, free_args + (Constant(0),))
    program = Program(
        counting_rules + tuple(modified_rules) + tuple(support_rules)
    )
    return ClassicalCountingRewriting(
        adorned,
        Query(new_goal, program),
        counting_rules,
        modified_rules,
        support_rules,
        (counting_pred, len(rule.bound_vars) + 1),
        (answer_pred, len(free_args) + 1),
        canonical,
    )
