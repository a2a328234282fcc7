"""Canonical form of adorned linear rules (Section 2).

The counting rewritings assume rules of the shape::

    exit:      p(X, Y) <- E(B).
    recursive: p(X, Y) <- L(A), q(X1, Y1), R(B).

where ``X``/``Y`` are the bound/free argument lists of ``p`` under its
adornment, ``q`` is mutually recursive with ``p``, ``L`` binds the
recursive call's bound arguments ``X1`` from ``X``, and ``R`` produces
the head's free arguments ``Y`` from the recursive result ``Y1``.  The
paper assumes rules are already in this form ("each rule can be put in
such a form by simple rewriting"); :func:`canonicalize_rule` performs
that rewriting:

* non-variable or repeated arguments in the head and in the recursive
  atom are replaced by fresh variables constrained with ``=``;
* the body is split around the recursive atom; literals are assigned to
  the left part if they are connected to the bound side and do not
  mention the recursive call's free variables, to the right part
  otherwise;
* the safety conditions ``X1 ⊆ X ∪ vars(L)`` and
  ``Y ⊆ vars(L) ∪ Y1 ∪ vars(R)`` are verified.

The sets ``C_r`` (left-part values needed later: variables of ``L``
also occurring in ``R`` *or in the free head arguments*) and ``D_r``
(bound head variables occurring in ``R``) follow §3.3; ``C_r`` is
slightly generalized so that free head variables produced by the left
part are carried on the path argument as well.
"""

from ..datalog.atoms import Comparison
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Variable
from ..errors import NotApplicableError


class CanonicalExitRule:
    """An exit rule ``p(X, Y) <- E(B)`` of a recursive clique."""

    __slots__ = ("rule", "head_key", "bound_vars", "free_vars", "body")

    def __init__(self, rule, head_key, bound_vars, free_vars, body):
        self.rule = rule
        self.head_key = head_key
        self.bound_vars = tuple(bound_vars)
        self.free_vars = tuple(free_vars)
        self.body = tuple(body)

    @property
    def label(self):
        return self.rule.label


class CanonicalRecursiveRule:
    """A linear recursive rule split into left part, call and right part."""

    __slots__ = (
        "rule",
        "head_key",
        "rec_key",
        "bound_vars",
        "free_vars",
        "rec_bound_vars",
        "rec_free_vars",
        "left",
        "rec_atom",
        "right",
        "shared_vars",
        "bound_in_right",
    )

    def __init__(self, rule, head_key, rec_key, bound_vars, free_vars,
                 rec_bound_vars, rec_free_vars, left, rec_atom, right,
                 shared_vars, bound_in_right):
        self.rule = rule
        self.head_key = head_key
        self.rec_key = rec_key
        self.bound_vars = tuple(bound_vars)
        self.free_vars = tuple(free_vars)
        self.rec_bound_vars = tuple(rec_bound_vars)
        self.rec_free_vars = tuple(rec_free_vars)
        #: Left part ``L`` — binds the recursive call from the head.
        self.left = tuple(left)
        self.rec_atom = rec_atom
        #: Right part ``R`` — produces the head's free arguments.
        self.right = tuple(right)
        #: ``C_r``: left-part variables needed by the right part or head.
        self.shared_vars = tuple(shared_vars)
        #: ``D_r``: bound head variables used by the right part.
        self.bound_in_right = tuple(bound_in_right)

    @property
    def label(self):
        return self.rule.label

    def is_right_linear_shape(self):
        """True if the rule needs no path push (Algorithm 1 test).

        The counting rule does not extend the path when the right part
        is empty, head and recursive predicates coincide and the free
        arguments are passed through unchanged.
        """
        return (
            not self.right
            and self.head_key == self.rec_key
            and self.free_vars == self.rec_free_vars
        )

    def is_left_linear_shape(self):
        """True if the rule needs no path pop (Algorithm 1 test)."""
        return (
            not self.left
            and self.head_key == self.rec_key
            and self.bound_vars == self.rec_bound_vars
        )


class CanonicalClique:
    """A recursive clique in canonical form, ready for rewriting."""

    __slots__ = ("clique", "exit_rules", "recursive_rules", "adornments",
                 "state_key")

    def __init__(self, clique, exit_rules, recursive_rules, adornments):
        self.clique = clique
        self.exit_rules = tuple(exit_rules)
        self.recursive_rules = tuple(recursive_rules)
        #: Mapping predicate key -> adornment string.
        self.adornments = dict(adornments)
        #: The coarsest answer-state key the rules allow (the dedicated
        #: evaluators confirm ``"distance"`` on the counting table).
        self.state_key = _state_key(self.recursive_rules)

    def predicates(self):
        return self.clique.predicates

    def rules_by_head(self, key):
        return (
            tuple(r for r in self.exit_rules if r.head_key == key),
            tuple(r for r in self.recursive_rules if r.head_key == key),
        )


def _state_key(rules):
    """What a pop step can tell two counting rows apart by.

    ``"node"``: some right part reads a value the left part or the
    bound head arguments produced (``C_r`` / ``D_r`` non-empty), so a
    state must remember its row.  Otherwise the right parts read the
    answer values alone and rows only differ in *which steps remain*:
    ``"none"`` when every arc-producing rule is right-linear shaped —
    the pop step is the identity and every row unwinds to the source
    (Fact 1); ``"distance"`` when exactly one rule produces arcs — the
    remaining steps are that rule's right part once per level
    (Algorithm 3(i), the classical index), provided each row has one
    distance from the source; several arc rules leave the sequence of
    labels on the path, which only the row knows.
    """
    if any(rule.shared_vars or rule.bound_in_right for rule in rules):
        return "node"
    arc_rules = [rule for rule in rules if not rule.is_left_linear_shape()]
    if all(rule.is_right_linear_shape() for rule in arc_rules):
        return "none"
    return "distance" if len(arc_rules) == 1 else "node"


def _fresh_names(taken, base, count):
    names = []
    index = 0
    for _ in range(count):
        while True:
            name = "%s_%d" % (base, index)
            index += 1
            if name not in taken:
                taken.add(name)
                names.append(name)
                break
    return names


def _normalize_atom_args(atom, adornment, taken, extra_left, extra_right):
    """Ensure every argument of ``atom`` is a distinct variable.

    Non-variable or repeated arguments are replaced with fresh
    variables; for each replacement an ``=`` constraint is appended to
    ``extra_left`` (bound positions — checkable before the recursive
    call) or ``extra_right`` (free positions).
    """
    seen = set()
    new_args = []
    for arg, letter in zip(atom.args, adornment):
        if isinstance(arg, Variable) and arg.name not in seen:
            seen.add(arg.name)
            new_args.append(arg)
            continue
        (fresh_name,) = _fresh_names(taken, "V", 1)
        fresh = Variable(fresh_name)
        constraint = Comparison("=", fresh, arg)
        if letter == "b":
            extra_left.append(constraint)
        else:
            extra_right.append(constraint)
        new_args.append(fresh)
    return atom.with_args(tuple(new_args))


def _literal_vars(lit):
    return lit.variables()


def _split_body(before, after, bound_vars, rec_free_vars):
    """Assign the non-recursive literals to left and right parts.

    Literals textually before the recursive atom stay in the left part
    when possible; literals after it stay in the right part.  A literal
    placed before the call that mentions a recursive-call free variable
    cannot be evaluated during the counting phase and is moved right; a
    literal after the call is left where it is (moving it left would
    change no answers but we keep the author's evaluation order).
    """
    rec_free = set(rec_free_vars)
    left = []
    right = []
    for lit in before:
        if _literal_vars(lit) & rec_free:
            right.append(lit)
        else:
            left.append(lit)
    right.extend(after)
    return tuple(left), tuple(right)


def canonicalize_rule(rule, clique, adornments):
    """Build the :class:`CanonicalRecursiveRule` for ``rule``.

    Raises :class:`NotApplicableError` when the rule cannot be put in
    canonical form (non-linear, or the left part cannot bind the
    recursive call's bound arguments).
    """
    head_key = rule.head.key
    head_adornment = adornments[head_key]
    taken = set(rule.variables())
    extra_left = []
    extra_right = []
    head = _normalize_atom_args(
        rule.head, head_adornment, taken, extra_left, extra_right
    )
    rec_atom_original = clique.recursive_atom(rule)
    rec_key = rec_atom_original.key
    rec_adornment = adornments.get(rec_key)
    if rec_adornment is None:
        raise NotApplicableError(
            "recursive predicate %s/%d has no adornment" % rec_key
        )
    rec_extra_left = []
    rec_extra_right = []
    rec_atom = _normalize_atom_args(
        rec_atom_original, rec_adornment, taken, rec_extra_left,
        rec_extra_right,
    )
    index = rule.body.index(rec_atom_original)
    before = list(rule.body[:index]) + extra_left + rec_extra_left
    after = rec_extra_right + extra_right + list(rule.body[index + 1:])

    bound_vars = [
        a.name for a, letter in zip(head.args, head_adornment)
        if letter == "b"
    ]
    free_vars = [
        a.name for a, letter in zip(head.args, head_adornment)
        if letter == "f"
    ]
    rec_bound_vars = [
        a.name for a, letter in zip(rec_atom.args, rec_adornment)
        if letter == "b"
    ]
    rec_free_vars = [
        a.name for a, letter in zip(rec_atom.args, rec_adornment)
        if letter == "f"
    ]
    left, right = _split_body(before, after, bound_vars, rec_free_vars)

    # Safety: the left part (plus the bound head arguments) must bind
    # the recursive call's bound arguments.
    left_bound = set(bound_vars)
    for lit in left:
        left_bound |= _literal_vars(lit)
    missing = set(rec_bound_vars) - left_bound
    if missing:
        raise NotApplicableError(
            "left part of rule %s cannot bind recursive arguments %s"
            % (rule.label, sorted(missing))
        )
    left_vars = set()
    for lit in left:
        left_vars |= _literal_vars(lit)
    right_vars = set()
    for lit in right:
        right_vars |= _literal_vars(lit)
    needed_later = right_vars | set(free_vars)
    # C_r: values produced during the counting phase that the answer
    # phase will need — left-part variables plus the recursive call's
    # bound arguments (the latter are the target node, so they are
    # recoverable from the counting tuple, but carrying them keeps the
    # program-level rewriting self-contained).
    shared_vars = sorted(
        ((left_vars | set(rec_bound_vars)) - set(bound_vars))
        & needed_later
    )
    bound_in_right = sorted(set(bound_vars) & needed_later)
    canonical = Rule(
        head, tuple(left) + (rec_atom,) + tuple(right), label=rule.label
    )
    return CanonicalRecursiveRule(
        canonical,
        head_key,
        rec_key,
        bound_vars,
        free_vars,
        rec_bound_vars,
        rec_free_vars,
        left,
        rec_atom,
        right,
        shared_vars,
        bound_in_right,
    )


def canonicalize_exit_rule(rule, adornments):
    head_key = rule.head.key
    head_adornment = adornments[head_key]
    taken = set(rule.variables())
    extra_left = []
    extra_right = []
    head = _normalize_atom_args(
        rule.head, head_adornment, taken, extra_left, extra_right
    )
    body = tuple(extra_left) + tuple(rule.body) + tuple(extra_right)
    bound_vars = [
        a.name for a, letter in zip(head.args, head_adornment)
        if letter == "b"
    ]
    free_vars = [
        a.name for a, letter in zip(head.args, head_adornment)
        if letter == "f"
    ]
    canonical = Rule(head, body, label=rule.label)
    return CanonicalExitRule(canonical, head_key, bound_vars, free_vars, body)


def canonicalize_clique(clique, adorned):
    """Canonicalize every rule of a recursive clique.

    ``adorned`` is the :class:`~repro.rewriting.adornment.AdornedQuery`
    providing adornments for the clique's predicates.  Raises
    :class:`NotApplicableError` for non-linear cliques.
    """
    if not clique.is_linear():
        raise NotApplicableError(
            "clique %r contains a non-linear recursive rule"
            % sorted(clique.predicates)
        )
    adornments = {}
    for key in clique.predicates:
        adornment = adorned.adornment_of(key)
        if adornment is None:
            raise NotApplicableError(
                "predicate %s/%d is not adorned" % key
            )
        adornments[key] = adornment
    exit_rules = [
        canonicalize_exit_rule(rule, adornments)
        for rule in clique.exit_rules
    ]
    recursive_rules = [
        canonicalize_rule(rule, clique, adornments)
        for rule in clique.recursive_rules
    ]
    if not exit_rules:
        # Without exit rules the recursion derives nothing; the
        # counting set would still be built, so reject early.
        raise NotApplicableError(
            "clique %r has no exit rule" % sorted(clique.predicates)
        )
    return CanonicalClique(clique, exit_rules, recursive_rules, adornments)


def query_constants(goal):
    """Values of the goal's bound arguments, in position order."""
    values = []
    for arg in goal.args:
        if isinstance(arg, Constant):
            values.append(arg.value)
        elif arg.is_ground():
            from ..datalog.terms import ground_value

            values.append(ground_value(arg))
    return tuple(values)
