"""The generalized counting method of Saccà & Zaniolo [15].

Before this paper's list/pointer path arguments, [15] handled multiple
recursive rules by *encoding the rule log into an integer*: with ``R``
recursive rules, pushing rule ``i`` maps index ``I`` to ``I * R + i``
and popping recovers ``i = K mod R``, ``I = K div R`` (a leading ``1``
marks the empty log so lengths are preserved).  The paper's §3.4
verdict: "Unfortunately this is not practical because the size of the
number grows exponentially with the number of steps".

We implement the method faithfully — it is the natural third column in
experiment E8, where the encoded integers' bit length is measured
against the list and pointer representations.  Applicability matches
[15]: linear clique over a single predicate, no variables shared
between left and right parts, no bound head variables on the right,
acyclic data (divergence-guarded like classical counting).

The rewritten program for Example 3's two-rule same generation::

    c_sg(a, 1).
    c_sg(X1, K) :- c_sg(X, I), up1(X, X1), K is I * 2 + 0.
    c_sg(X1, K) :- c_sg(X, I), up2(X, X1), K is I * 2 + 1.
    sg(Y, I)    :- c_sg(X, I), flat(X, Y).
    sg(Y, I)    :- sg(Y1, K), K > 1, K mod 2 = 0, I is K // 2,
                   down1(Y1, Y).
    sg(Y, I)    :- sg(Y1, K), K > 1, K mod 2 = 1, I is K // 2,
                   down2(Y1, Y).
    ?- sg(Y, 1).

(the ``mod`` test is expressed with ``//`` arithmetic since the engine
folds integer expressions: ``K - (K // R) * R = i``).
"""

from ..datalog.atoms import Atom, Comparison
from ..datalog.rules import Program, Query, Rule
from ..datalog.terms import Compound, Constant, Variable
from ..errors import NotApplicableError
from .adornment import adorn_query
from .canonical import canonicalize_clique, query_constants
from .counting import refuse_left_linear
from .support import goal_clique_of

ENC_PREFIX = "ce_"


class EncodedCountingRewriting:
    """Result of :func:`encoded_counting_rewrite`."""

    __slots__ = ("adorned", "query", "counting_rules", "modified_rules",
                 "support_rules", "counting_pred", "answer_pred",
                 "canonical", "base")

    def __init__(self, adorned, query, counting_rules, modified_rules,
                 support_rules, counting_pred, answer_pred, canonical,
                 base):
        self.adorned = adorned
        self.query = query
        self.counting_rules = tuple(counting_rules)
        self.modified_rules = tuple(modified_rules)
        self.support_rules = tuple(support_rules)
        self.counting_pred = counting_pred
        self.answer_pred = answer_pred
        self.canonical = canonical
        #: The encoding base (number of recursive rules).
        self.base = base

    @property
    def program(self):
        return self.query.program


def check_encoded_applicability(canonical):
    """[15]'s preconditions: single predicate, no shared variables."""
    keys = {r.head_key for r in canonical.recursive_rules}
    keys |= {r.rec_key for r in canonical.recursive_rules}
    if len(keys) > 1:
        raise NotApplicableError(
            "encoded counting supports a single recursive predicate; "
            "found %s" % sorted(k[0] for k in keys)
        )
    for rule in canonical.recursive_rules:
        refuse_left_linear(rule, "encoded")
        if rule.shared_vars:
            raise NotApplicableError(
                "encoded counting forbids shared variables "
                "(rule %s shares %s)"
                % (rule.label, list(rule.shared_vars))
            )
        if rule.bound_in_right:
            raise NotApplicableError(
                "encoded counting forbids bound head variables in the "
                "right part (rule %s uses %s)"
                % (rule.label, list(rule.bound_in_right))
            )


def encoded_counting_rewrite(query):
    """Apply the [15] integer-encoded counting rewriting to ``query``."""
    adorned = query if hasattr(query, "origins") else adorn_query(query)
    clique, support_rules = goal_clique_of(adorned)
    canonical = canonicalize_clique(clique, adorned)
    check_encoded_applicability(canonical)

    goal = adorned.goal
    counting_pred = ENC_PREFIX + goal.pred
    answer_pred = goal.pred
    base = max(len(canonical.recursive_rules), 2)
    index_i = Variable("ENC_I")
    index_k = Variable("ENC_K")

    counting_rules = [
        Rule(
            Atom(
                counting_pred,
                tuple(Constant(v) for v in query_constants(goal))
                + (Constant(1),),
            ),
            (),
            label="c_seed",
        )
    ]
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
    for digit, rule in enumerate(canonical.recursive_rules):
        # Push: K = I * base + digit.
        counting_rules.append(
            Rule(
                Atom(
                    counting_pred,
                    tuple(Variable(v) for v in rule.rec_bound_vars)
                    + (index_k,),
                ),
                (
                    Atom(
                        counting_pred,
                        tuple(Variable(v) for v in rule.bound_vars)
                        + (index_i,),
                    ),
                )
                + rule.left
                + (
                    Comparison(
                        "is",
                        index_k,
                        Compound(
                            "+",
                            (
                                Compound(
                                    "*", (index_i, Constant(base))
                                ),
                                Constant(digit),
                            ),
                        ),
                    ),
                ),
                label="c_%s" % rule.label,
            )
        )
        # Pop: K > 1, K mod base = digit, I = K // base.
        quotient = Compound("//", (index_k, Constant(base)))
        remainder_test = Comparison(
            "=",
            Compound(
                "-",
                (index_k, Compound("*", (quotient, Constant(base)))),
            ),
            Constant(digit),
        )
        modified_rules.append(
            Rule(
                Atom(
                    answer_pred,
                    tuple(Variable(v) for v in rule.free_vars)
                    + (index_i,),
                ),
                (
                    Atom(
                        answer_pred,
                        tuple(Variable(v) for v in rule.rec_free_vars)
                        + (index_k,),
                    ),
                    Comparison(">", index_k, Constant(1)),
                    remainder_test,
                    Comparison("is", index_i, quotient),
                )
                + rule.right,
                label=rule.label,
            )
        )

    free_args = tuple(arg for arg in goal.args if not arg.is_ground())
    new_goal = Atom(answer_pred, free_args + (Constant(1),))
    program = Program(
        tuple(counting_rules) + tuple(modified_rules)
        + tuple(support_rules)
    )
    bound_width = len(canonical.recursive_rules[0].bound_vars) \
        if canonical.recursive_rules else 0
    return EncodedCountingRewriting(
        adorned,
        Query(new_goal, program),
        counting_rules,
        modified_rules,
        support_rules,
        (counting_pred, bound_width + 1),
        (answer_pred, len(free_args) + 1),
        canonical,
        base,
    )
