"""Set-at-a-time rule compilation: the analysis behind the generated
executors.

Evaluating a rule body tuple at a time (:mod:`repro.engine.join`)
re-resolves and re-unifies every atom argument once per candidate row,
paying several Python-level calls and a dict copy per binding.  This
module performs that analysis **once per rule**: each body-literal
position is classified as

* a *key part* — a constant, an already-bound variable, or a structured
  term whose variables are all bound — contributing to the hash-index
  probe key;
* a *write* — the first occurrence of a flat variable, compiled to a
  direct ``slots[i] = row[pos]`` store;
* a *check* — a repeated variable, compiled to an equality test against
  its slot;
* a *matcher* — a structured term such as ``[(r1, C) | L]``, compiled to
  a small closure that decomposes the stored value with full
  unification semantics.

Substitutions become flat slot arrays indexed by position instead of
name-keyed dicts of terms, and candidate rows arrive in batches from
:meth:`Relation.lookup` probes instead of one generator hop per row.
The result of the analysis is a tuple of *step specs* (their layout is
documented in :mod:`repro.engine.codegen`, which generates the code
that runs them); nothing here executes a body.

Equivalence contract
--------------------

A compiled body enumerates **the same results in the same order** as
:func:`repro.engine.join.evaluate_body` — the reference the
differential tests compare against — and updates ``tuples_scanned`` /
``index_*`` / ``facts_*`` counters identically: the work counters are
the paper's currency, so the optimization must not change *what* is
computed, only how fast.

Compilation is total over the language.  A literal the reference
evaluator would raise on (non-ground negation, a comparison over
unbound terms, ``is``/``in`` with an unbound right side, a head
argument that cannot be proven ground) compiles to a step that raises
the same typed :class:`~repro.errors.EvaluationError` *when it is
reached*: ``p(X) :- q(X), Y < 3.`` over an empty ``q`` stays silent.
One shape differs from the reference: ``X = Y`` with both sides
unbound, which the dict evaluator answers by aliasing the variables,
raises — slots hold values, not terms, and
:func:`repro.datalog.safety.check_rule_safety` rejects the rule with
the same message.
"""

from functools import partial

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.terms import (
    ARITH_FUNCTORS,
    CONS,
    TUPLE,
    Compound,
    Constant,
    Variable,
    eval_arith,
)
from ..datalog.unify import resolve
from ..errors import EvaluationError
from .builtins import _ordered
from .codegen import (
    KEY_CONST,
    KEY_EVAL,
    KEY_SLOT,
    OP_CHECK,
    OP_MATCH,
    OP_WRITE,
    generate_answer_loop,
    generate_bound_collector,
    generate_clique_loop,
    generate_collector,
    generate_entry_collector,
    generate_runner,
)
from .planner import delta_first, delta_position

#: Direct implementations of the binary arithmetic functors; ``min`` /
#: ``max`` and any future n-ary forms stay on the generic
#: ``eval_arith`` fold.
_ARITH_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: a // b,
}


# -- term helpers ----------------------------------------------------


def _vars_within(term, names):
    """True if every variable of ``term`` is in ``names`` (no set built)."""
    return all(name in names for name in term.iter_variables())


def _raises(prefix, terms, slot_of, bound, error=EvaluationError):
    """A ``slots -> value`` function that raises when it is called.

    The message is ``prefix`` followed by ``terms`` rendered the way
    the reference evaluator renders them: resolved under the bindings
    made so far (``bound``, the names whose slots are loaded when the
    step is reached).
    """
    loaded = tuple((name, slot_of[name]) for name in bound)

    def fail(slots):
        subst = {name: Constant(slots[i]) for name, i in loaded}
        raise error(prefix + ", ".join(
            repr(resolve(term, subst)) for term in terms
        ))

    return fail


def _compile_eval(term, slot_of):
    """Compile ``term`` (variables all slotted) to ``slots -> value``.

    Mirrors :func:`repro.datalog.terms.ground_value` exactly, including
    the errors it raises, so the compiled path fails the same way the
    reference evaluator's ``resolve`` fold does.
    """
    if isinstance(term, Constant):
        value = term.value
        return lambda slots: value
    if isinstance(term, Variable):
        index = slot_of[term.name]
        return lambda slots: slots[index]
    if isinstance(term, Compound):
        functor = term.functor
        parts = [_compile_eval(arg, slot_of) for arg in term.args]
        if functor == CONS:
            head_fn, tail_fn = parts

            def eval_cons(slots):
                head = head_fn(slots)
                tail = tail_fn(slots)
                if not isinstance(tail, tuple):
                    raise EvaluationError(
                        "list tail is not a list: %r" % (tail,)
                    )
                return (head,) + tail

            return eval_cons
        if functor == TUPLE:
            return lambda slots: tuple(fn(slots) for fn in parts)
        if functor in ARITH_FUNCTORS:
            binop = _ARITH_BINOPS.get(functor)
            if binop is not None and len(parts) == 2:
                a_fn, b_fn = parts

                def eval_binop(slots):
                    # Mirrors eval_arith exactly: both operands are
                    # evaluated first, then checked in order.
                    a = a_fn(slots)
                    b = b_fn(slots)
                    if not isinstance(a, (int, float)):
                        raise EvaluationError(
                            "arithmetic on non-numeric value %r" % (a,)
                        )
                    if not isinstance(b, (int, float)):
                        raise EvaluationError(
                            "arithmetic on non-numeric value %r" % (b,)
                        )
                    return binop(a, b)

                return eval_binop
            return lambda slots: eval_arith(
                functor, [fn(slots) for fn in parts]
            )

        def eval_unknown(_slots):
            raise EvaluationError("unknown functor %r" % functor)

        return eval_unknown
    raise EvaluationError("not a term: %r" % (term,))


def _inline_tree(term, slot_of):
    """``term`` as an expression tree codegen renders as source, or None.

    Trees cover integer constants, slotted variables and the binary
    ``+ - * //`` functors: ``("const", value)``, ``("slot", index)`` and
    ``(functor, left, right)``.  Anything else — floats, lists, tuples,
    ``min`` / ``max`` — stays on its closure alone.
    """
    if isinstance(term, Constant):
        return ("const", term.value) if type(term.value) is int else None
    if isinstance(term, Variable):
        return ("slot", slot_of[term.name])
    if (isinstance(term, Compound) and term.functor in _ARITH_BINOPS
            and len(term.args) == 2):
        left = _inline_tree(term.args[0], slot_of)
        right = _inline_tree(term.args[1], slot_of)
        if left is not None and right is not None:
            return (term.functor, left, right)
    return None


def _inline(build, terms, op, slot_of):
    """The ``(tree, leaves, fallback)`` codegen renders for the closure
    ``build(slot_of)``, or None when a term has no tree.

    ``tree`` is the tree of the single term, or ``(op, left, right)``
    over two; ``leaves`` the slots it reads, ascending.  When every leaf
    holds an ``int`` the rendered tree computes what the closure does —
    the only error it can raise is ``//``'s ``ZeroDivisionError``, which
    the closure raises too.  Otherwise the generated code calls
    ``fallback``, the same closure built over the tuple of leaf values:
    same value, same error text, at the same match.
    """
    trees = [_inline_tree(term, slot_of) for term in terms]
    if any(tree is None for tree in trees):
        return None
    tree = trees[0] if op is None else (op, trees[0], trees[1])
    names = sorted(
        {name for term in terms for name in term.iter_variables()},
        key=slot_of.__getitem__,
    )
    fallback = build({name: i for i, name in enumerate(names)})
    return tree, tuple(slot_of[name] for name in names), fallback


def _test_fn(op, left, right, slot_of):
    """``slots -> bool`` for a comparison over ground ``left`` and
    ``right`` (``==`` is the test ``=`` / ``is`` make of two ground
    sides)."""
    left_fn = _compile_eval(left, slot_of)
    right_fn = _compile_eval(right, slot_of)
    if op == "==":
        return lambda slots: left_fn(slots) == right_fn(slots)
    if op == "!=":
        return lambda slots: left_fn(slots) != right_fn(slots)
    return lambda slots: _ordered(op, left_fn(slots), right_fn(slots))


def _test_step(op, left, right, slot_of):
    """The ``("filter", test, inline)`` step of a ground comparison."""
    return ("filter", _test_fn(op, left, right, slot_of), _inline(
        partial(_test_fn, op, left, right), (left, right), op, slot_of,
    ))


def _compile_match(term, slot_of, live, alloc):
    """Compile pattern ``term`` to ``(value, slots) -> bool``.

    ``live`` is the set of variable names bound at the point the matcher
    runs; names the pattern binds are added to it (pattern positions are
    processed left to right, matching the unification chain of the
    reference evaluator).  Semantics mirror ``unify(pattern,
    Constant(value))``: cons cells decompose non-empty tuples, tuple
    terms decompose width-matched tuples, and anything else — notably
    arithmetic functors, which the unifier never evaluates inside
    patterns — fails.
    """
    if isinstance(term, Constant):
        value = term.value

        def match_const(candidate, _slots):
            return candidate == value

        return match_const
    if isinstance(term, Variable):
        name = term.name
        if name in live:
            index = slot_of[name]

            def match_bound(candidate, slots):
                return candidate == slots[index]

            return match_bound
        live.add(name)
        index = alloc(name)

        def match_bind(candidate, slots):
            slots[index] = candidate
            return True

        return match_bind
    functor = term.functor
    if functor == CONS:
        match_head = _compile_match(term.args[0], slot_of, live, alloc)
        match_tail = _compile_match(term.args[1], slot_of, live, alloc)

        def match_cons(candidate, slots):
            if isinstance(candidate, tuple) and candidate:
                return match_head(candidate[0], slots) and match_tail(
                    candidate[1:], slots
                )
            return False

        return match_cons
    if functor == TUPLE:
        width = len(term.args)
        matchers = [
            _compile_match(arg, slot_of, live, alloc) for arg in term.args
        ]

        def match_tuple(candidate, slots):
            if not isinstance(candidate, tuple) or len(candidate) != width:
                return False
            for matcher, element in zip(matchers, candidate):
                if not matcher(element, slots):
                    return False
            return True

        return match_tuple

    # Arithmetic and unknown functors never match a stored value — the
    # unifier returns None for them without evaluating.
    def match_never(_candidate, _slots):
        return False

    return match_never


# -- literal compilation ---------------------------------------------


def _compile_scan(lit_index, atom, slot_of, bound, alloc):
    """Analyse one positive body atom into a batched index scan step."""
    prefix = frozenset(bound)
    live = set(bound)
    positions = []
    key_parts = []
    ops = []
    for pos, arg in enumerate(atom.args):
        if isinstance(arg, Constant):
            positions.append(pos)
            key_parts.append((KEY_CONST, arg.value))
        elif isinstance(arg, Variable):
            name = arg.name
            if name in prefix:
                positions.append(pos)
                key_parts.append((KEY_SLOT, slot_of[name]))
            elif name in live:
                ops.append((pos, OP_CHECK, slot_of[name]))
            else:
                live.add(name)
                ops.append((pos, OP_WRITE, alloc(name)))
        else:
            if _vars_within(arg, prefix):
                positions.append(pos)
                key_parts.append((KEY_EVAL, _compile_eval(arg, slot_of)))
            else:
                ops.append(
                    (pos, OP_MATCH,
                     _compile_match(arg, slot_of, live, alloc))
                )
    bound |= live
    return ("scan", lit_index, atom, tuple(positions), tuple(key_parts),
            tuple(ops))


def _compile_negation(lit_index, negation, slot_of, bound):
    """Analyse ``not atom`` into a membership test on its relation."""
    atom = negation.atom
    if not all(_vars_within(arg, bound) for arg in atom.args):
        return ("filter", _raises(
            "negated atom %s not ground at evaluation time" % atom.pred,
            (), slot_of, bound,
        ), None)
    fns = tuple(_compile_eval(arg, slot_of) for arg in atom.args)

    def negate_test(slots, resolver):
        relation = resolver(lit_index, atom)
        return tuple(fn(slots) for fn in fns) not in relation

    return ("rfilter", negate_test)


def _compile_comparison(comparison, slot_of, bound, alloc):
    """Analyse a comparison literal into a filter, assign or each step.

    Covers every comparison the reference evaluator handles: tests over
    ground sides, and ``=``/``is``/``in`` binding a fresh flat variable
    or decomposing into a structured pattern.  Comparisons it raises on
    (non-ground ordering operands, unbound right sides of
    ``is``/``in``) become steps raising the same error when reached.
    """
    op = comparison.op
    left, right = comparison.left, comparison.right
    left_ground = _vars_within(left, bound)
    right_ground = _vars_within(right, bound)

    if op in ("<", "<=", ">", ">=", "!="):
        if not (left_ground and right_ground):
            return ("filter", _raises(
                "comparison %s on non-ground terms " % op, (left, right),
                slot_of, bound,
            ), None)
        return _test_step(op, left, right, slot_of)

    if not right_ground:
        if op != "=":
            return ("filter", _raises(
                "right side of %r is not ground: " % op, (right,),
                slot_of, bound,
            ), None)
        if not left_ground:
            free = {
                name for side in (left, right)
                for name in side.iter_variables() if name not in bound
            }
            return ("filter", _raises(
                "'=' cannot bind variables %s" % sorted(free), (),
                slot_of, bound,
            ), None)
        # '=' is symmetric: bind or decompose the right side instead.
        left, right = right, left
        left_ground = False
    right_fn = _compile_eval(right, slot_of)

    if op == "in":
        def members(slots):
            value = right_fn(slots)
            if not isinstance(value, (tuple, frozenset, set)):
                raise EvaluationError(
                    "right side of 'in' is not a collection: %r" % (value,)
                )
            return reversed(list(value))

        if left_ground:
            left_fn = _compile_eval(left, slot_of)

            def member_test(slots):
                candidates = members(slots)
                needle = left_fn(slots)
                return (None for member in candidates if member == needle)

            return ("each", member_test)
        matcher = _compile_match(left, slot_of, bound, alloc)
        return ("each", lambda slots: (
            None for member in members(slots) if matcher(member, slots)
        ))

    if left_ground:
        return _test_step("==", left, right, slot_of)
    if isinstance(left, Variable):
        bound.add(left.name)
        return ("assign", alloc(left.name), right_fn, _inline(
            partial(_compile_eval, right), (right,), None, slot_of,
        ))
    matcher = _compile_match(left, slot_of, bound, alloc)
    return ("filter", lambda slots: matcher(right_fn(slots), slots), None)


# -- compiled bodies -------------------------------------------------


class CompiledBody:
    """A rule body compiled to slot-array evaluation.

    ``slot_of`` maps variable names to slot indexes; names listed in
    ``bound_names`` occupy the first slots in order, so callers can
    preload bindings positionally.  ``bound_after`` is the set of names
    guaranteed ground once the body has been fully matched.

    ``steps`` are the step specs :mod:`repro.engine.codegen` generates
    the body's executors from: the runner behind :meth:`execute`, built
    with the body, and the batched forms (the collectors), built on
    first request and ``None`` for a body whose shape has no batched
    form.  The semi-naive engine inlines the steps into its clique loop
    (:func:`clique_loop`) instead.
    """

    __slots__ = ("body", "bound_names", "slot_of", "nslots", "steps",
                 "bound_after", "_runner", "_batched")

    def __init__(self, body, bound_names, slot_of, steps, bound_after):
        self.body = body
        self.bound_names = bound_names
        self.slot_of = slot_of
        self.nslots = len(slot_of)
        self.steps = tuple(steps)
        self.bound_after = frozenset(bound_after)
        self._runner = generate_runner(self.steps)
        self._batched = {}

    def make_slots(self):
        return [None] * self.nslots

    def loader(self, names):
        """Slot indexes for preloading ``names`` positionally.

        Duplicate names are allowed; the later value wins, matching
        successive writes into a dict substitution.
        """
        return tuple(self.slot_of[name] for name in names)

    def raises(self, prefix, terms=(), error=EvaluationError):
        """A row-spec function raising ``error`` when a match reaches it
        (see :func:`compile_row_spec`)."""
        return _raises(prefix, terms, self.slot_of, self.bound_after, error)

    def execute(self, resolver, slots, stats=None):
        """Yield ``slots`` once per match, mutated in place.

        The same list object is yielded every time — callers must copy
        out what they need before advancing.  Enumeration order equals
        the stack discipline of the reference evaluator exactly.
        """
        return self._runner(resolver, slots, stats)

    def _generated(self, generate, projection, *entry):
        key = (generate, projection) + entry
        try:
            return self._batched[key]
        except KeyError:
            fn = self._batched[key] = generate(
                self.steps, projection, *entry
            )
            return fn

    def collector(self, projection):
        """A generated eager collector for ``projection``, or None.

        ``projection`` is a row spec as produced by
        :func:`compile_row_spec`.  The generated function takes
        ``(resolver, slots, stats)`` and *returns* one flat list of
        every projected result tuple — no generator frames, one call
        per body run.  Enumeration order and counter updates are
        identical to :meth:`execute`; there is no batch-at-a-time
        visibility of in-pass mutations, so only callers that write to
        no scanned relation before the call returns (bound queries)
        may.  Returns None when the shape is not vectorizable; callers
        drive :meth:`execute` instead.
        """
        return self._generated(generate_collector, projection)

    def entry_collector(self, projection, loader):
        """An eager collector taking ``(resolver, values, stats)``.

        Like :meth:`collector` with the slot allocation and the
        positional ``values`` loads folded into the generated code —
        the bound-query fast path.  ``loader`` maps value position ->
        slot index.
        """
        return self._generated(
            generate_entry_collector, projection, self.nslots, loader
        )

    def bound_collector(self, projection, loader, batch=False):
        """An eager collector taking ``(state, values, stats)``.

        The pass-level form: ``state`` (caller-owned, ``state[0]`` the
        resolver) persists each scan's resolved relation and probe
        view across calls — see :meth:`BoundQuery.bind`; with
        ``batch``, ``(state, batch, stats)`` — see
        :meth:`BoundQuery.bind_batch`.
        """
        return self._generated(
            generate_bound_collector, projection, self.nslots, loader,
            batch,
        )


def compile_body(body, bound_names=()):
    """Compile ``body`` given ``bound_names`` pre-bound."""
    slot_of = {}
    for name in bound_names:
        if name not in slot_of:
            slot_of[name] = len(slot_of)
    bound = set(slot_of)

    def alloc(name):
        slot = slot_of.get(name)
        if slot is None:
            slot = len(slot_of)
            slot_of[name] = slot
        return slot

    steps = []
    for index, lit in enumerate(body):
        if isinstance(lit, Atom):
            steps.append(_compile_scan(index, lit, slot_of, bound, alloc))
        elif isinstance(lit, Negation):
            steps.append(_compile_negation(index, lit, slot_of, bound))
        elif isinstance(lit, Comparison):
            steps.append(_compile_comparison(lit, slot_of, bound, alloc))
        else:
            steps.append(("filter", _raises(
                "unknown literal %r" % (lit,), (), slot_of, bound
            ), None))
    return CompiledBody(
        tuple(body), tuple(dict.fromkeys(bound_names)), slot_of, steps,
        bound,
    )


def compile_row_spec(args, compiled, unbound):
    """Row-projection spec for argument terms.

    Each entry is ``("const", value)``, ``("slot", index)``, or
    ``("fn", slots -> value, frozenset(read slot indexes))``.  The spec
    form feeds both :func:`row_spec_fn` (a plain closure) and the code
    generator's batched forms, which substitute slot reads with direct
    row indexing.  An argument that cannot be proven ground after the
    body becomes the ``fn`` entry ``unbound(arg)`` returns — built with
    :meth:`CompiledBody.raises`, so it raises the caller's error when a
    match reaches it, as the reference evaluator does.
    """
    slot_of, bound = compiled.slot_of, compiled.bound_after
    spec = []
    for arg in args:
        if isinstance(arg, Constant):
            spec.append(("const", arg.value))
        elif isinstance(arg, Variable) and arg.name in bound:
            spec.append(("slot", slot_of[arg.name]))
        else:
            names = set(arg.iter_variables())
            fn = (_compile_eval(arg, slot_of) if names <= bound
                  else unbound(arg))
            reads = frozenset(slot_of[name] for name in names & bound)
            spec.append(("fn", fn, reads))
    return tuple(spec)


def row_spec_fn(spec):
    """Build ``slots -> ground value tuple`` from a row spec."""
    if all(entry[0] == "slot" for entry in spec):
        indexes = tuple(entry[1] for entry in spec)

        def project(slots):
            return tuple(slots[i] for i in indexes)

        return project

    def build(slots):
        return tuple(
            entry[1] if entry[0] == "const"
            else (slots[entry[1]] if entry[0] == "slot"
                  else entry[1](slots))
            for entry in spec
        )

    return build


# -- bound queries (counting-engine call shape) ----------------------


class BoundQuery:
    """A body pre-compiled for repeated runs under positional bindings.

    ``in_names`` are preloaded from the ``values`` argument of
    :meth:`run` (duplicates allowed, later wins); each result is the
    projection of a body match onto ``out_names``.  An out name the
    body never binds raises ``ValueError`` when a match reaches it.
    """

    __slots__ = ("body", "in_names", "out_names", "compiled", "_loader",
                 "_out_spec", "_project", "_emit", "_nin")

    def __init__(self, body, in_names, out_names):
        self.body = tuple(body)
        self.in_names = tuple(in_names)
        self.out_names = tuple(out_names)
        compiled = self.compiled = compile_body(self.body, self.in_names)
        self._loader = compiled.loader(self.in_names)
        self._out_spec = compile_row_spec(
            [Variable(name) for name in self.out_names], compiled,
            lambda arg: compiled.raises(
                "variable %s not bound" % arg.name, error=ValueError
            ),
        )
        self._project = row_spec_fn(self._out_spec)
        self._emit = compiled.entry_collector(self._out_spec, self._loader)
        self._nin = len(self._loader)

    def run(self, resolver, values, stats=None):
        """``out_names`` value tuples for each body match.

        Returns an iterable — an eagerly materialized list when the
        body has a generated collector (every consumer drains the
        result without interleaved writes, so eager evaluation is
        observationally identical and skips per-call generator
        frames), a lazy generator otherwise.
        """
        emit = self._emit
        if emit is not None and len(values) == self._nin:
            # Generated entry point: slot allocation and positional
            # loads happen inside.  Guarded on exact length so a
            # short/long values sequence keeps zip's truncation
            # semantics on the slow path below.
            return emit(resolver, values, stats)
        compiled = self.compiled
        slots = compiled.make_slots()
        for slot, value in zip(self._loader, values):
            slots[slot] = value
        collect = compiled.collector(self._out_spec)
        if collect is not None:
            return collect(resolver, slots, stats)
        return map(self._project, compiled.execute(resolver, slots, stats))

    def bind(self, resolver):
        """A callable ``(values, stats=None)`` pinned to ``resolver``.

        The pass-level fast path: each scan's resolved relation and
        hoisted probe view persist *across calls* in a state list
        owned by the returned closure, so a caller issuing thousands
        of one-shot runs (the counting engines' node expansions) pays
        the resolver and ``probe_index`` round-trips once per binding
        instead of once per call.

        The caller contracts that ``resolver`` is a fixed ``(index,
        atom) -> relation`` mapping for the binding's lifetime —
        relations may gain rows (both view kinds are maintained in
        place by ``Relation.add``), but their *identity* must not
        change.  Discard the binding when that stops holding; the
        engines bind per evaluation run, over which it holds by
        construction.  Results and counter updates are identical to
        :meth:`run` with the same resolver.
        """
        emit = self.compiled.bound_collector(self._out_spec, self._loader)
        if emit is None:
            def run(values, stats=None,
                    _run=self.run, _resolver=resolver):
                return _run(_resolver, values, stats)
            return run
        state = [None] * emit._state_size
        state[0] = resolver

        def run(values, stats=None, _emit=emit, _state=state,
                _nin=self._nin, _slow=self.run, _resolver=resolver):
            if len(values) == _nin:
                return _emit(_state, values, stats)
            return _slow(_resolver, values, stats)
        return run

    def loop_entry(self, nvalues):
        """``(steps, projection, nslots, loader, nvalues)``: this body
        as one step rule of :func:`~repro.engine.codegen.
        generate_answer_loop`, its first ``nvalues`` in names read from
        the state's values, the rest from the step's arguments."""
        compiled = self.compiled
        return (compiled.steps, self._out_spec, compiled.nslots,
                tuple(self._loader), nvalues)

    def bind_batch(self, resolver):
        """:meth:`bind` over a batch: ``run(batch, stats=None)`` equals
        ``[list(bind(resolver)(values, stats)) for values in batch]``,
        counter updates included, for bindings holding one value per in
        name — in one compiled call (the counting engines' phase-1
        waves and exit seeds)."""
        emit = self.compiled.bound_collector(
            self._out_spec, self._loader, batch=True
        )
        if emit is None:
            one = self.bind(resolver)

            def run(batch, stats=None):
                return [list(one(values, stats)) for values in batch]
            return run
        state = [None] * emit._state_size
        state[0] = resolver
        return partial(emit, state)


#: Structural (body, in_names, out_names) -> BoundQuery.  The counting
#: engines rebuild their canonical rules on every run, so per-engine
#: caches recompile the same few query shapes over and over; sharing
#: across runs is safe because a BoundQuery is immutable after
#: construction.  Bounded defensively: real programs have few shapes,
#: fuzzed test runs generate many.
_BOUND_QUERY_CACHE = {}
_BOUND_QUERY_LIMIT = 2048


def bound_query(body, in_names, out_names):
    """A shared :class:`BoundQuery`, cached on structural identity."""
    key = (tuple(body), tuple(in_names), tuple(out_names))
    try:
        query = _BOUND_QUERY_CACHE.get(key)
    except TypeError:
        # Unhashable terms (exotic constant values); build uncached.
        return BoundQuery(body, in_names, out_names)
    if query is None:
        if len(_BOUND_QUERY_CACHE) >= _BOUND_QUERY_LIMIT:
            _BOUND_QUERY_CACHE.clear()
        query = BoundQuery(body, in_names, out_names)
        _BOUND_QUERY_CACHE[key] = query
    return query


# -- compiled rules (semi-naive call shape) --------------------------


class CompiledRule:
    """A whole rule compiled for the semi-naive engine.

    ``compiled`` is the body, ``head_spec`` the row spec the clique
    loop projects and ``head`` the same projection as a closure over
    a match; ``premises`` (read only when tracing) holds one such
    closure per positive body atom, in the *written* body order.
    ``delta_at`` (on a :meth:`delta_variant`) is the index of its literal
    reading the delta; ``reads_head``: a literal reading a *full* relation
    reads the head's — else no probe of a pass sees what the pass derives.
    ``skippable``: the delta drives the outermost loop and its probe key
    evaluates nothing, so with no delta rows the pass scans and probes
    nothing — it only counts its firing.
    """

    __slots__ = ("rule", "compiled", "head", "head_spec", "premises",
                 "delta_at", "skippable", "reads_head", "_variants")

    def __init__(self, rule):
        self._build(rule, rule, None)

    def _build(self, rule, written, delta_at):
        self.rule = rule
        compiled = self.compiled = compile_body(rule.body)
        head = rule.head
        self.head_spec = compile_row_spec(
            head.args, compiled,
            lambda arg: compiled.raises(
                "head argument of %s not ground: " % head.pred, (arg,)
            ),
        )
        self.head = row_spec_fn(self.head_spec)
        self.premises = tuple(
            row_spec_fn(compile_row_spec(
                atom.args, compiled,
                lambda arg, atom=atom: compiled.raises(
                    "body atom %s not ground under result substitution"
                    % atom.pred
                ),
            ))
            for atom in written.body_atoms()
        )
        self.delta_at = delta_at
        self.skippable = delta_at == 0 and all(
            kind != KEY_EVAL for kind, _data in compiled.steps[0][4]
        )
        self.reads_head = any(
            getattr(lit, "atom", lit).key == head.key
            for at, lit in enumerate(rule.body)
            if at != delta_at and not isinstance(lit, Comparison)
        )
        self._variants = {}

    def delta_variant(self, index):
        """``delta_first(rule, index)`` compiled — memoized on this
        structurally cached parent, never by the temporary rule's id."""
        variant = self._variants.get(index)
        if variant is None:
            variant = object.__new__(CompiledRule)
            variant._build(delta_first(self.rule, index), self.rule,
                           delta_position(self.rule, index))
            self._variants[index] = variant
        return variant

    def delta_key(self):
        """The predicate key the delta literal of this variant reads."""
        return self.compiled.body[self.delta_at].key

    def loop_entry(self):
        """This rule as one pass of :func:`~repro.engine.codegen.
        generate_clique_loop`."""
        body = self.compiled
        return (body.steps, self.head_spec, self.reads_head,
                self.rule.head.key, self.delta_at,
                None if self.delta_at is None else self.delta_key(),
                self.skippable, body.execute, body.nslots)


#: Structural rule -> CompiledRule, mirroring ``_BOUND_QUERY_CACHE``:
#: the rewritings rebuild structurally equal rule objects on every run,
#: and a CompiledRule only ever gains memoized delta variants (built in
#: the first pass that runs one; a race at worst compiles one twice), so
#: sharing across engines is safe.  Rule equality ignores labels, which is fine
#: — consumers read only structural parts (``rule.head.key``) from the
#: cached instance; labels always come from the caller's own rule
#: object.
_COMPILED_RULE_CACHE = {}
_COMPILED_RULE_LIMIT = 2048


def compiled_rule(rule, factory=None):
    """A shared :class:`CompiledRule`, cached on structural identity.

    Any ``factory`` other than :class:`CompiledRule` itself builds the
    rule and bypasses the cache entirely, in both directions — the way
    to time or inspect a cold compilation.
    """
    if factory is not None and factory is not CompiledRule:
        return factory(rule)
    try:
        cached = _COMPILED_RULE_CACHE.get(rule)
    except TypeError:
        # Unhashable constant values somewhere in the rule.
        return CompiledRule(rule)
    if cached is None:
        if len(_COMPILED_RULE_CACHE) >= _COMPILED_RULE_LIMIT:
            _COMPILED_RULE_CACHE.clear()
        cached = CompiledRule(rule)
        _COMPILED_RULE_CACHE[rule] = cached
    return cached


#: Pass plan -> generated clique loop, and step bodies -> generated
#: answer loop.  A key holds the structurally cached instances a loop
#: is generated from — :class:`CompiledRule` and occurrence per pass,
#: :class:`BoundQuery` and value count per step rule — so equal
#: structure is one key, hashed by identity without walking a term.
#: Labels and, for the answer loop, head keys are arguments of the
#: generated function, never part of it: rule equality ignores labels.
#: A rule the structural caches refuse (their ``TypeError`` fallback)
#: arrives as a fresh instance and misses here too; the bound keeps
#: such misses from piling up.
_LOOP_CACHE = {}
_LOOP_LIMIT = 1024


def _cached_loop(key, generate):
    loop = _LOOP_CACHE.get(key)
    if loop is None:
        if len(_LOOP_CACHE) >= _LOOP_LIMIT:
            _LOOP_CACHE.clear()
        loop = _LOOP_CACHE[key] = generate()
    return loop


def clique_loop(initial, passes):
    """The shared generated semi-naive loop of one clique.

    ``initial`` holds the :class:`CompiledRule` of each rule of the
    first round, ``passes`` a ``(CompiledRule, occurrence)`` pair per
    pass of every later round — its :meth:`~CompiledRule.delta_variant`
    at ``occurrence``, or the rule itself over full relations for None.
    """
    return _cached_loop(("clique", initial, passes), lambda: (
        generate_clique_loop(
            [rule.loop_entry() for rule in initial],
            [(rule if occurrence is None
              else rule.delta_variant(occurrence)).loop_entry()
             for rule, occurrence in passes],
        )
    ))


def answer_loop(steps):
    """The shared generated answer loop of the counting evaluators;
    ``steps`` holds a ``(BoundQuery, nvalues)`` pair per step rule (see
    :meth:`BoundQuery.loop_entry`)."""
    return _cached_loop(("answer", steps), lambda: generate_answer_loop(
        [query.loop_entry(nvalues) for query, nvalues in steps]
    ))
