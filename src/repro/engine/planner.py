"""Greedy join ordering for rule bodies.

Bottom-up evaluation processes body literals left to right, so the
author's literal order *is* the join order.  The planner reorders each
body with the standard bound-first heuristic:

* a comparison or negation is placed as soon as its variables are
  bound (filters fire early);
* among the positive atoms, the one with the highest fraction of
  bound/constant argument positions is placed next (index lookups
  before scans), ties broken by the original order;
* binding comparisons (``is``/``in``) are placed once their right side
  is bound.

The transformation only permutes a conjunction, so the rule's meaning
is unchanged; safety is preserved because a literal is only placed
when the safety checker's conditions for it hold.  If no literal is
placeable (the rule was unsafe to begin with) the original order is
kept and the engine surfaces the usual safety/evaluation error.

The engine runs every delta pass through :func:`delta_first`; with
``reorder=True`` it also plans the written bodies the initial round
runs (``benchmarks/bench_a1_join_order.py`` measures that).
"""

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.rules import Rule
from ..datalog.terms import CONS, TUPLE, Compound, Variable


def _within(term_or_literal, bound):
    """True if every variable is already bound (no set allocation)."""
    return all(name in bound for name in term_or_literal.iter_variables())


def _placeable(lit, bound):
    if isinstance(lit, Atom):
        return True
    if isinstance(lit, Negation):
        return _within(lit, bound)
    if isinstance(lit, Comparison):
        right_ok = _within(lit.right, bound)
        if lit.op in ("is", "in"):
            left_ok = (
                isinstance(lit.left, Variable)
                or _within(lit.left, bound)
            )
            return right_ok and left_ok
        if lit.op == "=":
            left_free = lit.left.variables() - bound
            right_free = lit.right.variables() - bound
            if not left_free and not right_free:
                return True
            if not right_free and isinstance(lit.left, Variable):
                return True
            if not left_free and isinstance(lit.right, Variable):
                return True
            return False
        return _within(lit, bound)
    return False


def _atom_score(atom, bound):
    """Fraction of argument positions usable as index key."""
    if not atom.args:
        return 1.0
    usable = sum(
        1
        for arg in atom.args
        if arg.is_ground() or _within(arg, bound)
    )
    return usable / len(atom.args)


def reorder_body(rule, bound_head_vars=()):
    """Return ``rule`` with its body permuted bound-first."""
    bound = set(bound_head_vars)
    remaining = list(rule.body)
    ordered = []
    while remaining:
        # Filters first: any non-atom literal that is ready.
        placed = False
        for index, lit in enumerate(remaining):
            if not isinstance(lit, Atom) and _placeable(lit, bound):
                ordered.append(remaining.pop(index))
                if isinstance(lit, Comparison):
                    bound |= lit.variables()
                placed = True
                break
        if placed:
            continue
        # Then the most-bound positive atom.
        best_index = None
        best_score = -1.0
        for index, lit in enumerate(remaining):
            if not isinstance(lit, Atom):
                continue
            score = _atom_score(lit, bound)
            if score > best_score:
                best_score = score
                best_index = index
        if best_index is None:
            # Only unplaceable non-atoms remain: the rule is unsafe;
            # keep the original relative order and let evaluation
            # report it.
            ordered.extend(remaining)
            break
        atom = remaining.pop(best_index)
        ordered.append(atom)
        bound |= atom.variables()
    return Rule(rule.head, tuple(ordered), label=rule.label)


def _is_pattern(term):
    """True unless ``term`` holds a functor the engine evaluates."""
    return not isinstance(term, Compound) or (
        term.functor in (CONS, TUPLE) and all(map(_is_pattern, term.args))
    )


def _keeps_order(rule):
    """An atom argument like ``N + 1`` is a key once literals *written*
    earlier bind ``N`` and matches nothing otherwise: no reordering."""
    return not all(
        _is_pattern(arg) for atom in rule.body_atoms() for arg in atom.args
    )


def delta_position(rule, index):
    """Where body literal ``index`` sits in ``delta_first(rule, index)``."""
    return index if _keeps_order(rule) else 0


def delta_first(rule, index):
    """The semi-naive variant of ``rule`` driven by body literal ``index``:
    that literal — it reads the delta, a round's smallest relation —
    first, the others bound-first from its variables (index probes keyed
    by what the delta binds, not a rescan joined to the delta last).  A
    rule that keeps its order is returned."""
    if _keeps_order(rule):
        return rule
    driver = rule.body[index]
    rest = Rule(rule.head, rule.body[:index] + rule.body[index + 1:])
    body = (driver,) + reorder_body(rest, driver.variables()).body
    return Rule(rule.head, body, label=rule.label)


def reorder_program_rules(rules, bound_head_vars=()):
    """Reorder every rule body in an iterable of rules."""
    return tuple(
        reorder_body(rule, bound_head_vars) for rule in rules
    )
