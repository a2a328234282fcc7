"""The rule executor: specialized Python functions generated per body.

:mod:`repro.engine.compile` analyses a rule body once into a tuple of
*step specs*; this module turns the specs into a *specialized Python
function* per body — nested ``for`` loops with the key expressions,
slot writes and equality checks inlined as straight-line code —
compiled once with :func:`compile` and reused for every evaluation of
the rule.  It is the only executor the engine has: the set of probes,
writes and checks is fully known at compile time, so nothing is left
to interpret per candidate row.

Step specs
----------

Each step is a tuple whose first element names its kind:

* ``("scan", lit_index, atom, positions, key_parts, ops)`` — an index
  probe of the relation ``resolver(lit_index, atom)`` on ``positions``.
  ``key_parts`` holds one ``(KEY_*, data)`` pair per bound position
  (a constant, a slot index, or a ``slots -> value`` function) and
  ``ops`` one ``(pos, OP_*, data)`` triple per open position (write a
  slot, check against a slot, or run a ``(value, slots) -> bool``
  matcher);
* ``("filter", test, inline)`` / ``("rfilter", test)`` — keep the
  candidate when ``test(slots)`` / ``test(slots, resolver)`` is true;
* ``("assign", slot, fn, inline)`` — ``slots[slot] = fn(slots)``;
* ``("each", gen)`` — continue once per item of ``gen(slots)``.

``inline`` is None or the ``(tree, leaves, fallback)`` of an integer
expression (see :func:`repro.engine.compile._inline`): it is rendered
as source — ``I is J - 1, I >= 0`` becomes one subtraction and one
comparison — guarded by ``type(leaf) is int`` on every operand of an
operator, with ``fallback`` over the leaf values (the closure itself,
so the same value and the same error at the same match) for any other
operand type.

Four forms are generated:

* a **runner** — yields the shared slot array once per body match, in
  the enumeration order of :func:`repro.engine.join.evaluate_body`;
* the **batched** forms (the collectors) used by
  :class:`~repro.engine.compile.BoundQuery`: when the last scan's ops
  are writes and checks only and every step after it is a ``filter``
  or ``assign`` with an inline expression, the innermost loop
  collapses into one that projects whole result batches — one list
  per innermost index bucket — with the projection's slot reads
  substituted by direct row indexing, each trailing assign bound as a
  local and each trailing filter as a test;
* the **clique loop** of the semi-naive engine
  (:func:`generate_clique_loop`), one function per pass plan: every
  round of one clique, each pass's body inlined — in the batched shape
  where it has one, slot by slot otherwise — with the relations and
  probe views it reads resolved once for the whole clique, the deltas
  rebound once per round and the counters and per-rule profile in
  locals, flushed once per round;
* the **answer loop** of the counting evaluators
  (:func:`generate_answer_loop`), one function per clique: the
  ``while`` loop over pending answer states with each step rule's right
  part inlined in the batched shape — its probes, its counter bumps
  (into locals, flushed to ``stats`` at every budget check and fault
  point) and the projection straight into the next state — and the
  bound runner as the step of any other body.

Equivalence contract
--------------------

Generated code must be *observably identical* to the reference
evaluator in :mod:`repro.engine.join`: same enumeration order
(``reversed`` over each candidate batch reproduces its stack
discipline), same ``tuples_scanned``/``index_*`` counter updates at
the same points, same visibility of in-pass relation mutations.  The
batch granularity of the clique loop — a pass that reads its head's
relation inserts each innermost bucket's rows before the next probe —
is safe on that last point because
``reversed(bucket)`` already snapshots its start index: rows appended
to a live bucket during its own enumeration are invisible to a
row-at-a-time enumeration too, so draining one bucket's derivations
after the bucket is enumerated (instead of interleaved) cannot change
what any probe sees.

A runner exists for every body.  The batched forms exist only for the
shape described above and are ``None`` otherwise; any other failure to
generate is a bug and raises.  Trailing filters and assigns touch no
relation and no counter, so a batch drained before the next probe
still gives every probe row-at-a-time visibility.
"""

from time import perf_counter

from .relation import EmptyRelation, Relation

#: Per-position op kinds inside a scan step.
OP_WRITE = 0
OP_CHECK = 1
OP_MATCH = 2

#: Probe-key part kinds.
KEY_CONST = 0
KEY_SLOT = 1
KEY_EVAL = 2

#: CPython refuses a code object with more than 20 statically nested
#: blocks.  A generated function opens at most this many loops; a
#: runner hands the steps beyond them to a tail runner, and the batched
#: forms are not generated for such bodies.
_MAX_LOOPS = 16


def _namespace():
    return {"_reversed": reversed, "_len": len, "_getattr": getattr,
            "_none": None, "_type": type, "_int": int, "_list": list,
            "_set": set, "__builtins__": {}}


def _slot(index):
    return "slots[%d]" % index


def _render(tree, read):
    kind = tree[0]
    if kind == "const":
        return "(%r)" % (tree[1],)
    if kind == "slot":
        return read(tree[1])
    return "(%s %s %s)" % (_render(tree[1], read), kind,
                           _render(tree[2], read))


def _guarded(tree, out, under=False):
    """Collect into ``out`` the leaf slots an operator reads whose
    result depends on the operand type: every operand of ``+ - * //``
    and of an ordering.  ``==`` / ``!=`` on plain leaves never raise and
    mean the same for every type."""
    kind = tree[0]
    if kind == "slot":
        if under:
            out.add(tree[1])
    elif kind != "const":
        under = under or kind not in ("==", "!=")
        _guarded(tree[1], out, under)
        _guarded(tree[2], out, under)


def _inline_expr(name, inline, read, ns):
    """Source computing an ``(tree, leaves, fallback)`` inline
    expression (see :func:`repro.engine.compile._inline`): the rendered
    tree when every guarded leaf holds an ``int``, else ``fallback``
    over the leaf values, bound in ``ns`` as ``name``."""
    tree, leaves, fallback = inline
    body = _render(tree, read)
    guarded = set()
    _guarded(tree, guarded)
    if not guarded:
        return body
    ns[name] = fallback
    return "(%s if %s else %s((%s,)))" % (
        body,
        " and ".join("_type(%s) is _int" % read(slot)
                     for slot in sorted(guarded)),
        name,
        ", ".join(read(slot) for slot in leaves),
    )


def _key_expr(i, positions, key_parts, ns):
    """The probe-key expression for scan ``i``.

    Single-position keys are scalars (see :meth:`Relation.lookup`);
    wider keys are tuples in ascending position order.
    """
    if not positions:
        return "None"
    if len(key_parts) == 1:
        kind, data = key_parts[0]
        if kind == KEY_CONST:
            name = "_kc%d" % i
            ns[name] = data
            return name
        if kind == KEY_SLOT:
            return "slots[%d]" % data
        name = "_kf%d" % i
        ns[name] = data
        return "%s(slots)" % name
    if all(kind == KEY_CONST for kind, _ in key_parts):
        name = "_kt%d" % i
        ns[name] = tuple(data for _, data in key_parts)
        return name
    parts = []
    for j, (kind, data) in enumerate(key_parts):
        if kind == KEY_CONST:
            name = "_kc%d_%d" % (i, j)
            ns[name] = data
            parts.append(name)
        elif kind == KEY_SLOT:
            parts.append("slots[%d]" % data)
        else:
            name = "_kf%d_%d" % (i, j)
            ns[name] = data
            parts.append("%s(slots)" % name)
    return "(%s,)" % ", ".join(parts)


def _scan_prologue(i, spec, ns, w, pad, state_alloc=None, local=False,
                   delta=None):
    """Emit the probe + batch-counter lines shared by every scan.

    The relation is resolved lazily on the scan's first invocation and
    cached in a local for the rest of the call: every in-tree resolver
    is a fixed ``(index, atom) -> relation`` mapping for the duration
    of one rule pass (relations mutate in place, their identity does
    not change), so re-resolving per invocation only costs time.  Lazy
    rather than up-front so a scan that is never reached never
    resolves, exactly like the reference evaluator (resolution can
    materialize empty derived relations as a side effect).

    With ``state_alloc`` (the bound form, see
    :func:`generate_bound_collector`) the resolved relation and its
    hoisted probe view persist *across calls* in the caller-owned
    ``state`` list: two slots are allocated per scan, and the per-call
    resolver/`probe_index` round-trips collapse into list loads.  Safe
    for the same reason the per-call hoist is, extended over the
    binding's lifetime: the caller guarantees its resolver is a fixed
    mapping for as long as it uses the binding, and both view kinds
    are maintained in place by ``Relation.add``.

    With ``local`` (the generated loops, see :func:`generate_answer_loop`
    and :func:`generate_clique_loop`) the ``index_probes`` bump goes to
    the function's local ``_ip`` and the batch length,
    ``tuples_scanned`` and ``batch_rows`` alike, to ``_ts``; the caller
    flushes both to ``stats``.

    With ``delta`` — ``(rows, wrapper)``, the names of the round's
    delta set and of its per-round :func:`_delta_relation` — the scan
    reads the delta of the clique loop: a full scan lists the set (an
    absent delta reads as empty, like ``EmptyRelation``), a probe goes
    through the wrapper, which the round builds on first use so every
    probe of that delta shares its indexes, as they share one delta
    relation pass by pass.
    """
    _kind, lit_index, atom, positions, key_parts, _ops = spec
    if delta is not None:
        rows, wrapper = delta
        if not positions:
            w(pad, "_c%d = _list(%s) if %s is not None else ()"
              % (i, rows, rows))
            w(pad, "_ts += _len(_c%d)" % i)
            return
        ns["_E%d" % i] = EmptyRelation(*atom.key)
        ns["_dk%d" % i] = atom.key
        resolve = (
            "if %s is None and %s is not None:" % (wrapper, rows),
            "    %s = _delta_relation(_dk%d, %s)" % (wrapper, i, rows),
            "_rel%d = %s if %s is not None else _E%d"
            % (i, wrapper, wrapper, i),
        )
    else:
        resolve = ("_rel%d = resolver(%d, _atom%d)" % (i, lit_index, i),)

    def count_probe(depth):
        if local:
            w(depth, "_ip += 1")
        else:
            w(depth, "if stats is not None:")
            w(depth + 1, "stats.index_probes += 1")

    ns["_atom%d" % i] = atom
    ns["_pos%d" % i] = tuple(positions)
    key = _key_expr(i, positions, key_parts, ns)
    full_arity = positions and len(positions) == len(atom.args)
    base = None
    if state_alloc is not None:
        base = state_alloc[0]
        state_alloc[0] += 1 if not positions else 2
        w(pad, "_rel%d = state[%d]" % (i, base))
    w(pad, "if _rel%d is None:" % i)
    for line in resolve:
        w(pad + 1, line)
    if base is not None and not positions:
        w(pad + 1, "state[%d] = _rel%d" % (base, i))
    if not positions:
        # Full scan: every probe snapshots the tuple set, exactly like
        # lookup((), None) — no view to hoist.
        w(pad, "_c%d = _rel%d.lookup(_pos%d, None, stats)" % (i, i, i))
    elif full_arity:
        # Full-arity probes are membership tests against the tuple
        # set; hoist the set once, keep lookup's probe accounting.
        w(pad + 1, "_v%d = _getattr(_rel%d, 'probe_set', _none)"
          % (i, i))
        w(pad + 1, "_v%d = _v%d() if _v%d is not None else None"
          % (i, i, i))
        if base is not None:
            w(pad + 1, "state[%d] = _rel%d" % (base, i))
            w(pad + 1, "state[%d] = _v%d" % (base + 1, i))
            w(pad, "else:")
            w(pad + 1, "_v%d = state[%d]" % (i, base + 1))
        w(pad, "if _v%d is None:" % i)
        w(pad + 1, "_c%d = _rel%d.lookup(_pos%d, %s, stats)"
          % (i, i, i, key))
        w(pad, "else:")
        count_probe(pad + 1)
        if len(positions) == 1:
            w(pad + 1, "_t%d = (%s,)" % (i, key))
        else:
            w(pad + 1, "_t%d = %s" % (i, key))
        w(pad + 1, "_c%d = (_t%d,) if _t%d in _v%d else ()"
          % (i, i, i, i))
    else:
        # Partial-arity probes: hoist the index dict once (built with
        # the same index_builds charge lookup's first probe pays) and
        # inline each probe as a dict get plus the probe counter.
        w(pad + 1, "_v%d = _getattr(_rel%d, 'probe_index', _none)"
          % (i, i))
        w(pad + 1, "_v%d = _v%d(_pos%d, stats) "
          "if _v%d is not None else None" % (i, i, i, i))
        if base is not None:
            w(pad + 1, "state[%d] = _rel%d" % (base, i))
            w(pad + 1, "state[%d] = _v%d" % (base + 1, i))
            w(pad, "else:")
            w(pad + 1, "_v%d = state[%d]" % (i, base + 1))
        w(pad, "if _v%d is None:" % i)
        w(pad + 1, "_c%d = _rel%d.lookup(_pos%d, %s, stats)"
          % (i, i, i, key))
        w(pad, "else:")
        count_probe(pad + 1)
        w(pad + 1, "_c%d = _v%d.get(%s, ())" % (i, i, key))
    if local:
        w(pad, "_ts += _len(_c%d)" % i)
    else:
        w(pad, "if stats is not None:")
        w(pad + 1, "_b%d = _len(_c%d)" % (i, i))
        w(pad + 1, "stats.tuples_scanned += _b%d" % i)
        w(pad + 1, "stats.batch_rows += _b%d" % i)


def _scan_loop(i, spec, ns, w, pad, state_alloc=None, local=False,
               delta=None):
    """Emit the row loop with inlined ops; returns the body indent."""
    _scan_prologue(i, spec, ns, w, pad, state_alloc, local, delta)
    w(pad, "for _r%d in _reversed(_c%d):" % (i, i))
    inner = pad + 1
    for j, (pos, kind, data) in enumerate(spec[5]):
        if kind == OP_WRITE:
            w(inner, "slots[%d] = _r%d[%d]" % (data, i, pos))
        elif kind == OP_CHECK:
            w(inner, "if _r%d[%d] != slots[%d]: continue" % (i, pos, data))
        else:
            name = "_m%d_%d" % (i, j)
            ns[name] = data
            w(inner, "if not %s(_r%d[%d], slots): continue"
              % (name, i, pos))
    return inner


def _step(i, step, ns, w, pad, abort, state_alloc=None, local=False,
          delta=None):
    """Emit step ``i``; returns the body indent (deeper iff it loops or
    nests).

    ``abort`` is the statement that skips the current candidate when a
    filter fails — ``continue`` inside a loop, the enclosing function's
    empty return outside one.  With ``abort`` None (a body inlined
    among others, before its first loop) the rest of the body nests
    under the filter's test instead.  ``delta``: see
    :func:`_scan_prologue`.
    """
    kind = step[0]
    if kind == "scan":
        return _scan_loop(i, step, ns, w, pad, state_alloc, local, delta)
    name = "_f%d" % i
    inline = step[-1] if kind in ("filter", "assign") else None
    if kind == "assign":
        if inline is None:
            ns[name] = step[2]
            value = "%s(slots)" % name
        else:
            value = _inline_expr(name, inline, _slot, ns)
        w(pad, "slots[%d] = %s" % (step[1], value))
        return pad
    if inline is not None:
        test = _inline_expr(name, inline, _slot, ns)
    else:
        ns[name] = step[1]
        if kind == "each":
            w(pad, "for _ in %s(slots):" % name)
            return pad + 1
        test = ("%s(slots)" if kind == "filter"
                else "%s(slots, resolver)") % name
    if abort is None:
        w(pad, "if %s:" % test)
        return pad + 1
    w(pad, "if not %s: %s" % (test, abort))
    return pad


#: Source -> code-object cache.  The generated source is fully
#: determined by the body's structural shape (op kinds, slot and
#: position numbers), so distinct rule instances with the same shape
#: share one bytecode compilation; per-instance data (atoms, constants,
#: matchers) arrives through the exec namespace.  Bounded defensively —
#: shapes are few in practice, but fuzzed test runs generate many.
_CODE_CACHE = {}
_CODE_CACHE_LIMIT = 4096


def _compile_fn(lines, ns, tag, scan_indexes=()):
    if scan_indexes:
        lines[1:1] = [
            "    _rel%d = None" % i for i in scan_indexes
        ]
    source = "\n".join(lines)
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()
        code = compile(source, "<repro-codegen:%s>" % tag, "exec")
        _CODE_CACHE[source] = code
    exec(code, ns)
    return ns["_run"]


def generate_runner(steps):
    """The generated runner for ``steps`` — every body has one.

    Yields the (shared, mutated-in-place) slot list once per body
    match.  A body with more loops than one code object may nest
    (``_MAX_LOOPS``) continues in a tail runner, driven over the same
    slot list once per match of the steps before it.
    """
    ns = _namespace()
    lines = []

    def w(depth, text):
        lines.append("    " * depth + text)

    w(0, "def _run(resolver, slots, stats):")
    pad = 1
    scans = []
    for i, step in enumerate(steps):
        if pad > _MAX_LOOPS:
            ns["_tail"] = generate_runner(steps[i:])
            w(pad, "yield from _tail(resolver, slots, stats)")
            break
        if step[0] == "scan":
            scans.append(i)
        pad = _step(i, step, ns, w, pad, "continue" if pad > 1 else "return")
    else:
        w(pad, "yield slots")
    return _compile_fn(lines, ns, "runner", scans)


def _projection_exprs(projection, written, ns, tag=""):
    """Expressions projecting a match, with innermost writes substituted.

    ``written`` maps slot index -> row-index expression for slots the
    innermost scan writes.  Returns None when the projection cannot be
    evaluated without performing those writes (an eval fn reads one of
    them) — callers drive the runner instead.
    """
    exprs = []
    for j, entry in enumerate(projection):
        kind = entry[0]
        if kind == "const":
            name = "_pc%s%d" % (tag, j)
            ns[name] = entry[1]
            exprs.append(name)
        elif kind == "slot":
            index = entry[1]
            exprs.append(written.get(index, "slots[%d]" % index))
        else:  # ("fn", callable, frozenset(read slots))
            _kind, fn, reads = entry
            if not reads.isdisjoint(written):
                return None
            name = "_pf%s%d" % (tag, j)
            ns[name] = fn
            exprs.append("%s(slots)" % name)
    return exprs


def _last_scan(steps, extra_loops=0):
    """The index of the last scan of a body in the batched shape, -1
    for an empty body, None outside the shape (see
    :func:`_generate_batched`); ``extra_loops`` are the loops the
    generated function opens around the body."""
    last = max(
        (i for i, step in enumerate(steps) if step[0] == "scan"),
        default=None,
    )
    if last is None:
        return None if steps else -1
    if any(kind == OP_MATCH for _pos, kind, _data in steps[last][5]):
        return None  # matcher ops mutate slots; cannot substitute
    trailing = steps[last + 1:]
    if any(step[0] not in ("filter", "assign") or step[-1] is None
           for step in trailing):
        return None
    loops = sum(step[0] in ("scan", "each") for step in steps)
    if max(loops + extra_loops, len(trailing)) > _MAX_LOOPS:
        return None
    return last


def _innermost(i, spec, trailing, projection, ns, tag=""):
    """The innermost scan ``i`` of a batched body as ``(conds,
    statements, clauses, tuple expression)``, or None when the
    projection needs the scan's slot writes performed.

    Walks the ops in order, tracking which slots the scan would have
    written so later checks, the ``trailing`` steps and the projection
    read the row directly.  Each trailing step, per candidate row and
    in body order, comes both as a loop statement and as a
    comprehension clause: an assign binds a local (``for _a in
    [expr]`` in a comprehension, which CPython compiles to a plain
    store), a filter drops the row.
    """
    written = {}
    conds = []
    for pos, kind, data in spec[5]:
        if kind == OP_WRITE:
            written[data] = "_r%d[%d]" % (i, pos)
        else:
            rhs = written.get(data, "slots[%d]" % data)
            conds.append("_r%d[%d] == %s" % (i, pos, rhs))

    def read(slot):
        return written.get(slot, "slots[%d]" % slot)

    clauses = []
    statements = []
    for j, step in enumerate(trailing, i + 1):
        expr = _inline_expr("_f%d" % j, step[-1], read, ns)
        if step[0] == "assign":
            local = "_a%d" % step[1]
            clauses.append("for %s in [%s]" % (local, expr))
            statements.append("%s = %s" % (local, expr))
            written[step[1]] = local
        else:
            clauses.append("if %s" % expr)
            statements.append("if not %s: continue" % expr)
    exprs = _projection_exprs(projection, written, ns, tag)
    if exprs is None:
        return None
    return conds, statements, clauses, _tuple_expr(exprs)


def _tuple_expr(exprs):
    return "(%s)" % (
        ", ".join(exprs) + ("," if len(exprs) == 1 else "") if exprs else ""
    )


def _generate_batched(steps, projection, entry=None, bound=False,
                      batch=False):
    """Shared collector generation; None outside the shape.

    Requirements: the last scan's ops are writes and checks only, the
    steps after it are ``filter`` / ``assign`` steps with an inline
    expression, every projection entry is computable without actually
    performing the innermost writes (slot reads are substituted by row
    indexing, assigned slots by comprehension-local names), and the
    body's loops fit one code object.

    ``entry`` — ``(nslots, loader)`` — switches the signature to
    ``(resolver, values, stats)``: the slot list is allocated and the
    positional ``values`` loads are unrolled inside the generated
    function, saving one allocation plus a Python-level zip loop per
    call (the bound-query path runs tens of thousands of one-shot
    calls per evaluation).

    ``bound`` (requires ``entry``) switches to the cross-call form
    ``(state, values, stats)``: ``state[0]`` is the resolver and the
    remaining slots persist each scan's resolved relation and probe
    view between calls.  The generated function carries the state size
    as ``_state_size``.  ``batch`` (requires ``bound``) wraps the body
    in one more loop, over the ``values`` of ``(state, batch, stats)``.
    """
    last = _last_scan(steps, batch)
    if last is None:
        return None
    last_spec = steps[last] if last >= 0 else None

    tag = "collector"
    ns = _namespace()
    lines = []
    state_alloc = [1] if bound else None

    def w(depth, text):
        lines.append("    " * depth + text)

    pad = 1
    if entry is None:
        w(0, "def _run(resolver, slots, stats):")
    else:
        nslots, loader = entry
        if batch:
            w(0, "def _run(state, batch, stats=_none):")
            w(1, "resolver = state[0]")
            w(1, "_res = []")
            w(1, "for values in batch:")
            pad = 2
        elif bound:
            w(0, "def _run(state, values, stats):")
            w(1, "resolver = state[0]")
        else:
            w(0, "def _run(resolver, values, stats):")
        # One list display; a duplicate in_name keeps its later-wins
        # semantics.
        loads = {slot: j for j, slot in enumerate(loader)}
        w(pad, "slots = [%s]" % ", ".join(
            "values[%d]" % loads[slot] if slot in loads else "_none"
            for slot in range(nslots)
        ))

    if last_spec is None:
        exprs = _projection_exprs(projection, {}, ns)
        if exprs is None:
            return None
        rows = "[%s]" % _tuple_expr(exprs)
        if batch:
            w(pad, "_res.append(%s)" % rows)
            w(1, "return _res")
        else:
            w(pad, "return %s" % rows)
        fn = _compile_fn(lines, ns, tag)
        if bound:
            fn._state_size = state_alloc[0]
        return fn

    w(pad, "_out = []")
    if batch:
        # Appended first: a failed filter at the top of the batch loop
        # continues with the next values and leaves this list empty.
        w(pad, "_res.append(_out)")
    scans = []
    for i, step in enumerate(steps[:last]):
        if step[0] == "scan":
            scans.append(i)
        abort = "continue" if pad > 1 else "return _out"
        pad = _step(i, step, ns, w, pad, abort, state_alloc)

    i = last
    scans.append(i)
    inner = _innermost(i, last_spec, steps[last + 1:], projection, ns)
    if inner is None:
        return None
    conds, statements, clauses, tuple_expr = inner
    _scan_prologue(i, last_spec, ns, w, pad, state_alloc)
    if batch:
        # Per binding, buckets are small (a node's out-arcs): a plain
        # loop beats the comprehension's per-call frame.
        w(pad, "for _r%d in _reversed(_c%d):" % (i, i))
        if conds:
            w(pad + 1, "if not (%s): continue" % " and ".join(conds))
        for statement in statements:
            w(pad + 1, statement)
        w(pad + 1, "_out.append(%s)" % tuple_expr)
        w(1, "return _res")
    else:
        comp = " ".join(
            ["%s for _r%d in _reversed(_c%d)" % (tuple_expr, i, i)]
            + ["if %s" % cond for cond in conds] + clauses
        )
        w(pad, "_out += [%s]" % comp)
        w(1, "return _out")
    fn = _compile_fn(lines, ns, tag, () if bound else scans)
    if bound:
        fn._state_size = state_alloc[0]
    return fn


def generate_collector(steps, projection):
    """A generated eager collector, or None outside the vectorizable shape.

    The whole match set materializes into one flat ``list`` that is
    returned — no generator frames at all.  Only callers that drain
    every match without interleaved relation writes (bound queries) may
    use it: it has no batch-at-a-time visibility of in-pass writes.
    """
    return _generate_batched(steps, projection)


def generate_entry_collector(steps, projection, nslots, loader):
    """An eager collector taking ``(resolver, values, stats)`` directly.

    Same semantics as :func:`generate_collector` with the slot
    allocation and positional loads folded into the generated code.
    ``loader`` maps value position -> slot index.
    """
    return _generate_batched(
        steps, projection, entry=(nslots, tuple(loader))
    )


def generate_bound_collector(steps, projection, nslots, loader,
                             batch=False):
    """An eager collector taking ``(state, values, stats)``.

    The pass-level form behind :meth:`BoundQuery.bind`: ``state[0]``
    holds the resolver and the remaining ``_state_size - 1`` slots
    persist each scan's resolved relation and probe view *across
    calls*.  Callers own the state list and must discard it when their
    resolver's ``(index, atom) -> relation`` mapping changes — the
    counting engines bind once per (call site, rule) and evaluate one
    run, over which the mapping is fixed by construction.

    With ``batch`` — the form behind :meth:`BoundQuery.bind_batch` —
    it takes ``(state, batch, stats)`` and returns one result list per
    ``values`` of ``batch``, from one call.
    """
    return _generate_batched(
        steps, projection, entry=(nslots, tuple(loader)),
        bound=True, batch=batch,
    )


#: The generated loops' local counters and the ``stats`` fields each is
#: flushed to: a scan bumps ``tuples_scanned`` and ``batch_rows`` by
#: the same batch length, so one local carries both.
_LOOP_COUNTERS = (
    ("_it", ("iterations",)),
    ("_rf", ("rule_firings",)),
    ("_fd", ("facts_derived",)),
    ("_fu", ("facts_duplicate",)),
    ("_ts", ("tuples_scanned", "batch_rows")),
    ("_ip", ("index_probes",)),
)

_LOOP_LOCALS = " = ".join(local for local, _ in _LOOP_COUNTERS)


def _flush(w, pad):
    for local, fields in _LOOP_COUNTERS:
        for field in fields:
            w(pad, "stats.%s += %s" % (field, local))
    w(pad, "%s = 0" % _LOOP_LOCALS)


def generate_answer_loop(rules):
    """The answer loop of the counting evaluators, one function per
    clique (see :meth:`repro.exec.counting_engine.CountingEngine.
    _answer_loop` for the contract).

    ``rules`` holds one entry per step rule, by index: ``(steps,
    projection, nslots, loader, nvalues)``, where the rule's body
    (``steps``, projecting ``projection``) takes the state's
    ``nvalues`` answer values and then the step's arguments through
    ``loader``.  Nothing else about a rule is baked in — its head key
    and label arrive per call — so one function serves every clique of
    the same bodies (see :func:`repro.engine.compile.answer_loop`).  A body in the batched shape is inlined — the
    probe of each scan, its counter bumps and the projection of each
    match; any other is run through the caller's ``runners[index]``,
    and the function's ``fallback`` attribute lists those indexes.
    Either way a step's rows become new states in the order the body
    yields them, admitted once the body has run to the end, as the
    eager collector of a bound runner would: an error leaves the states
    and counters the runner would.

    The generated function takes ``(pending, seen, groups, goal_key,
    source_key, take, stats, budget, parents, resolver, runners,
    frontier, heads, labels)`` — ``heads[index]`` / ``labels[index]``
    the head key and label of step rule ``index`` — and returns
    ``(answers, frontier)``.  Its counters live
    in locals, flushed to ``stats`` before every ``budget.check`` and
    every ``faults.fire("unwind")`` (once per state pop, both skipped
    as the no-ops they are without a budget and an injector) and when
    the loop ends or raises.
    """
    from . import faults

    ns = _namespace()
    ns["_faults"] = faults
    ns["_fire"] = faults.fire
    lines = []

    def w(depth, text):
        lines.append("    " * depth + text)

    w(0, "def _run(pending, seen, groups, goal_key, source_key, take, "
         "stats, budget, parents, resolver, runners, frontier, heads, "
         "labels):")
    if rules:
        names = ", ".join("_h%d" % index for index in range(len(rules)))
        w(1, "%s, = heads" % names)
        w(1, "%s, = labels" % names.replace("_h", "_l"))
    w(1, "answers = _set()")
    w(1, "_seen_add = seen.add")
    w(1, "_push = pending.append")
    w(1, "_group = groups.get")
    w(1, "%s = 0" % _LOOP_LOCALS)
    w(1, "try:")
    w(2, "while pending:")
    w(3, "if budget is not None or _faults._ACTIVE is not None:")
    _flush(w, 4)
    w(4, "if budget is not None:")
    w(5, "budget.check(stats)")
    w(4, "_fire('unwind', stats)")
    w(3, "_it += 1")
    w(3, "state = take()")
    w(3, "pred, values, key = state")
    w(3, "if key == source_key and pred == goal_key:")
    w(4, "answers.add(values)")
    w(3, "for _ri, _args, _target in _group((key, pred), ()):")
    w(4, "_rf += 1")
    scans = []
    fallback = []
    base = 0
    for index, rule in enumerate(rules):
        pad = 4
        if len(rules) > 1:
            w(4, "%s _ri == %d:" % ("if" if index == 0 else "elif", index))
            pad = 5
        if not _inline_body(rule, base, index, ns, w, pad, scans):
            fallback.append(index)
            w(pad, "for _o in runners[%d](values + _args, stats):" % index)
            _admit(w, pad + 1, index, "_o")
        base += len(rule[0])
    w(3, "_n = _len(pending)")
    w(3, "if _n > frontier:")
    w(4, "frontier = _n")
    w(1, "finally:")
    _flush(w, 2)
    w(1, "return answers, frontier")
    loop = _compile_fn(lines, ns, "answer-loop", scans)
    loop.fallback = tuple(fallback)
    return loop


def _admit(w, depth, index, row):
    """Emit the admission of the new state of ``row`` from step rule
    ``index`` (``_h`` / ``_l``: its head key and label); ``continue``
    skips a state already seen."""
    w(depth, "_new = (_h%d, %s, _target)" % (index, row))
    w(depth, "if _new in seen:")
    w(depth + 1, "_fu += 1")
    w(depth + 1, "continue")
    w(depth, "_seen_add(_new)")
    w(depth, "_fd += 1")
    w(depth, "_push(_new)")
    w(depth, "if parents is not None:")
    w(depth + 1, "parents[_new] = (_l%d, state)" % index)


def _inline_body(rule, base, index, ns, w, pad, scans):
    """Emit the body of step rule ``index`` into the answer loop, with
    the admission of each row it projects; False (emitting nothing)
    outside the batched shape.  Scan ``j`` of the body is step ``base
    + j`` of the loop, so no name is shared between rules."""
    steps, projection, nslots, loader, nvalues = rule
    tag = "r%d_" % index
    # The loop's own blocks: try, while, the step loop and the
    # admission loop.
    last = _last_scan(steps, 4)
    if last is None:
        return False
    if last >= 0:
        inner = _innermost(base + last, steps[last], steps[last + 1:],
                           projection, ns, tag)
        if inner is None:
            return False
    else:
        exprs = _projection_exprs(projection, {}, ns, tag)
        if exprs is None:
            return False
    loads = {slot: j for j, slot in enumerate(loader)}
    w(pad, "slots = [%s]" % ", ".join(
        "_none" if slot not in loads
        else "values[%d]" % loads[slot] if loads[slot] < nvalues
        else "_args[%d]" % (loads[slot] - nvalues)
        for slot in range(nslots)
    ))
    if last < 0:
        # One row, projected in full before it is admitted.
        _admit(w, pad, index, _tuple_expr(exprs))
        return True
    w(pad, "_out = []")
    depth = pad
    for j, step in enumerate(steps[:last]):
        if step[0] == "scan":
            scans.append(base + j)
        depth = _step(base + j, step, ns, w, depth, "continue", local=True)
    conds, statements, _clauses, row = inner
    i = base + last
    scans.append(i)
    _scan_prologue(i, steps[last], ns, w, depth, local=True)
    w(depth, "for _r%d in _reversed(_c%d):" % (i, i))
    if conds:
        w(depth + 1, "if not (%s): continue" % " and ".join(conds))
    for statement in statements:
        w(depth + 1, statement)
    w(depth + 1, "_out.append(%s)" % row)
    w(pad, "for _o in _out:")
    _admit(w, pad + 1, index, "_o")
    return True


#: The blocks a clique loop opens around every body it inlines: its
#: ``try`` and the ``while`` over the rounds.
_CLIQUE_BLOCKS = 2


def generate_clique_loop(initial, passes):
    """The semi-naive loop of one clique, one function per pass plan
    (see :meth:`repro.engine.seminaive.SemiNaiveEngine._evaluate_clique`
    for the contract).

    ``initial`` holds one pass per rule of the naive first round,
    ``passes`` one per pass of every later round, in run order; each is
    ``(steps, head_spec, reads_head, head_key, delta_at, delta_key,
    skippable, runner, nslots)``: the body of a compiled rule or delta
    variant (``delta_at`` the index of its literal reading the delta,
    None for a pass over full relations alone) and its head.  A body
    is inlined — every probe of every scan, the insert of each batch
    into the head's relation and of its new rows into the round's
    delta — or, when its loops would not fit one code object, run
    through ``runner`` (the body's generated runner).  A
    ``skippable`` pass (its delta scan comes first and keys on nothing
    computed) only counts its firing in a round with no delta rows
    for it.

    The generated function takes ``(head, resolver, stats, budget,
    max_iterations, labels, boundary)``: ``head(key, width)`` is the
    head relation, ``resolver(index, atom)`` the full relation a body
    literal reads and ``labels`` the label of every pass, initial ones
    first.  Each relation is resolved on its scan's first reach and
    kept for the rest of the clique, its probe view with it: relations
    only grow in place.  A delta is a ``set`` filled in derivation
    order, rebound once per round.  ``boundary(rounds)`` is the
    engine's round checkpoint (iteration cap, budget, fault hook),
    called before each round when any of them is set.  The counters
    live in locals and are flushed to ``stats`` at the end of each
    round, the per-rule profile with them — ``seconds``, ``calls``
    and ``derived`` per pass — and, when a pass raises, as far as the
    round had got: the counters the failing pass had bumped, the
    profile of the passes before it.
    """
    from . import faults

    ns = _namespace()
    ns["_faults"] = faults
    ns["_pc"] = perf_counter
    ns["_delta_relation"] = _delta_relation
    lines = []

    def w(depth, text):
        lines.append("    " * depth + text)

    # Key h of the clique (a head, or a predicate a delta scan reads)
    # has the locals _A<h> (its relation's insert), _N<h> / _D<h> (the
    # delta this round fills / the last round's) and _W<h> (the probe
    # view over _D<h>, built on first use per round).
    keys = {}
    for entry in tuple(initial) + tuple(passes):
        keys.setdefault(entry[3], len(keys))
    for entry in passes:
        if entry[4] is not None:
            keys.setdefault(entry[5], len(keys))
    indexes = range(len(keys))
    wrapped = sorted({
        keys[entry[5]] for entry in passes if entry[4] is not None
    })
    nrules = len(initial)
    total = nrules + len(passes)

    w(0, "def _run(head, resolver, stats, budget, max_iterations, labels, "
         "boundary):")
    w(1, "%s = 0" % _LOOP_LOCALS)
    w(1, "_done = _recursive = 0")
    for k in range(total):
        w(1, "_s%d = 0.0" % k)
        w(1, "_d%d = 0" % k)
    for h in indexes:
        w(1, "_N%d = _W%d = None" % (h, h))
    w(1, "_note = stats.note_rule")
    w(1, "_guarded = max_iterations is not None or budget is not None")
    w(1, "try:")
    w(2, "if _guarded or _faults._ACTIVE is not None:")
    w(3, "boundary(0)")
    w(2, "_t = _pc()")
    scans = []
    base = 0
    for k, entry in enumerate(initial):
        ns["_hk%d" % k] = entry[3]
        w(2, "_A%d = head(_hk%d, %d).add_trusted"
          % (keys[entry[3]], k, len(entry[1])))
        base = _clique_pass(k, entry, ns, w, 2, scans, base, keys)
        w(2, "_done = %d" % (k + 1))
    w(2, "_it += 1")
    _flush(w, 2)
    for k in range(nrules):
        w(2, "_note(labels[%d], _s%d, _d%d)" % (k, k, k))
    w(2, "_done = 0")
    if passes:
        # Every rule of a later round ran in the first: its head
        # relation and its profile entry exist.
        for k in range(nrules, total):
            w(2, "_P%d = stats.rule_profile[labels[%d]]" % (k, k))
        w(2, "_recursive = 1")
        w(2, "rounds = 1")
        for h in indexes:
            w(2, "_D%d = _N%d" % (h, h))
        w(2, "while %s:" % " or ".join(
            "_D%d is not None" % h for h in indexes))
        w(3, "if _guarded or _faults._ACTIVE is not None:")
        w(4, "boundary(rounds)")
        w(3, "rounds += 1")
        w(3, "_it += 1")
        w(3, "%s = None" % " = ".join(
            ["_N%d" % h for h in indexes] + ["_W%d" % h for h in wrapped]))
        w(3, "_t = _pc()")
        for k, entry in enumerate(passes, nrules):
            base = _clique_pass(k, entry, ns, w, 3, scans, base, keys)
            w(3, "_done = %d" % (k - nrules + 1))
        _flush(w, 3)
        for k in range(nrules, total):
            _flush_profile(w, 3, k)
        w(3, "_done = 0")
        for h in indexes:
            w(3, "_D%d = _N%d" % (h, h))
    w(1, "finally:")
    _flush(w, 2)
    if nrules:
        w(2, "if _done and not _recursive:")
        for k in range(nrules):
            w(3, "if _done > %d:" % k)
            w(4, "_note(labels[%d], _s%d, _d%d)" % (k, k, k))
    if passes:
        w(2, "if _done and _recursive:")
        for k in range(nrules, total):
            w(3, "if _done > %d:" % (k - nrules))
            _flush_profile(w, 4, k)
    return _compile_fn(lines, ns, "clique-loop", scans)


def _delta_relation(key, rows):
    """A probe view over a delta set: a relation holding ``rows`` as its
    tuple set (nothing logged), for a delta scan with a probe key — its
    indexes are built, and counted, like a delta relation's."""
    relation = Relation(*key)
    relation.tuples = rows
    return relation


def _flush_profile(w, pad, k):
    """Emit the flush of pass ``k``'s profile locals into its entry."""
    w(pad, "_P%d['seconds'] += _s%d" % (k, k))
    w(pad, "_P%d['calls'] += 1" % k)
    w(pad, "_P%d['derived'] += _d%d" % (k, k))
    w(pad, "_s%d = 0.0" % k)
    w(pad, "_d%d = 0" % k)


def _insert(w, pad, k, h, batch):
    """Emit the insert of ``batch`` by pass ``k`` into head relation
    ``h`` and of its new rows into the round's delta ``_N<h>``."""
    w(pad, "_new = _A%d(%s)" % (h, batch))
    w(pad, "_fu += _len(%s) - _len(_new)" % batch)
    w(pad, "if _new:")
    w(pad + 1, "_n = _len(_new)")
    w(pad + 1, "_fd += _n")
    w(pad + 1, "_d%d += _n" % k)
    w(pad + 1, "if _N%d is None:" % h)
    w(pad + 2, "_N%d = _set(_new)" % h)
    w(pad + 1, "else:")
    w(pad + 2, "_N%d.update(_new)" % h)


def _clique_pass(k, entry, ns, w, pad, scans, base, keys):
    """Emit pass ``k`` of a clique loop; returns the next free scan
    index (scan ``j`` of the body is ``base + j``)."""
    (steps, head_spec, reads_head, head_key, delta_at, delta_key,
     skippable, runner, nslots) = entry
    h = keys[head_key]
    tag = "p%d_" % k
    delta = None
    if delta_at is not None:
        d = keys[delta_key]
        delta = ("_D%d" % d, "_W%d" % d)
    w(pad, "_rf += 1")
    if skippable:
        w(pad, "if %s is not None:" % delta[0])
        pad += 1
    loops = sum(step[0] in ("scan", "each") for step in steps)
    if loops + _CLIQUE_BLOCKS > _MAX_LOOPS:
        _clique_runner(k, entry, ns, w, pad, h, delta)
    else:
        last = _last_scan(steps, _CLIQUE_BLOCKS)
        inner = None
        if last is not None and last >= 0:
            inner = _innermost(base + last, steps[last], steps[last + 1:],
                               head_spec, ns, tag)
        upto = last if inner is not None else len(steps)
        for j, step in enumerate(steps):
            if step[0] == "scan" and j != delta_at:
                scans.append(base + j)
        if delta_at is not None and steps[delta_at][3]:
            # The delta is rebound every round: so is its probe view.
            w(pad, "_rel%d = None" % (base + delta_at))
        w(pad, "slots = [_none] * %d" % nslots)
        if not reads_head:
            w(pad, "_o = []")
        depth = pad
        in_loop = False
        for j, step in enumerate(steps[:upto]):
            depth = _step(base + j, step, ns, w, depth,
                          "continue" if in_loop else None, local=True,
                          delta=delta if j == delta_at else None)
            in_loop = in_loop or step[0] in ("scan", "each")
        if inner is not None:
            i = base + last
            _scan_prologue(i, steps[last], ns, w, depth, local=True,
                           delta=delta if last == delta_at else None)
            conds, statements, _clauses, row = inner
            out = "_b" if reads_head else "_o"
            if reads_head:
                w(depth, "_b = []")
            w(depth, "for _r%d in _reversed(_c%d):" % (i, i))
            if conds:
                w(depth + 1, "if not (%s): continue" % " and ".join(conds))
            for statement in statements:
                w(depth + 1, statement)
            w(depth + 1, "%s.append(%s)" % (out, row))
            if reads_head:
                w(depth, "if _b:")
                _insert(w, depth + 1, k, h, "_b")
        else:
            row = _tuple_expr(_projection_exprs(head_spec, {}, ns, tag))
            if reads_head:
                w(depth, "_b = [%s]" % row)
                _insert(w, depth, k, h, "_b")
            else:
                w(depth, "_o.append(%s)" % row)
        if not reads_head:
            w(pad, "if _o:")
            _insert(w, pad + 1, k, h, "_o")
    w(pad, "_u = _pc()")
    w(pad, "_s%d += _u - _t" % k)
    w(pad, "_t = _u")
    return base + len(steps)


def _clique_runner(k, entry, ns, w, pad, h, delta):
    """Emit pass ``k`` through its body's runner, for a body too deep to
    inline; a delta pass resolves its delta literal through
    ``_delta_resolver``."""
    (_steps, head_spec, reads_head, _head_key, delta_at, delta_key,
     _skippable, runner, nslots) = entry
    ns["_run%d" % k] = runner
    resolver = "resolver"
    if delta is not None:
        rows, wrapper = delta
        ns["_E%d_" % k] = EmptyRelation(*delta_key)
        ns["_dk%d_" % k] = delta_key
        ns["_delta_resolver"] = _delta_resolver
        w(pad, "if %s is None and %s is not None:" % (wrapper, rows))
        w(pad + 1, "%s = _delta_relation(_dk%d_, %s)" % (wrapper, k, rows))
        w(pad, "_rz = _delta_resolver(resolver, %d, %s if %s is not None "
               "else _E%d_)" % (delta_at, wrapper, wrapper, k))
        resolver = "_rz"
    row = _tuple_expr(_projection_exprs(head_spec, {}, ns, "p%d_" % k))
    if not reads_head:
        w(pad, "_o = []")
    w(pad, "for slots in _run%d(%s, [_none] * %d, stats):"
      % (k, resolver, nslots))
    if reads_head:
        w(pad + 1, "_b = [%s]" % row)
        _insert(w, pad + 1, k, h, "_b")
    else:
        w(pad + 1, "_o.append(%s)" % row)
        w(pad, "if _o:")
        _insert(w, pad + 1, k, h, "_o")


def _delta_resolver(resolver, delta_at, relation):
    """``resolver`` with body literal ``delta_at`` reading ``relation``."""
    def resolve(index, atom):
        return relation if index == delta_at else resolver(index, atom)

    return resolve
