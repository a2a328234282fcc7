"""Shared fixtures: the paper's example programs and databases."""

import gc
import threading

import pytest

from repro import (
    AnswerCache,
    Database,
    PreparedQuery,
    QueryService,
    parse_query,
)
from repro.data.workloads import WORKLOADS, sg_forest
from repro.engine.faults import FaultInjector


@pytest.fixture
def fault_injector():
    """A fresh deterministic FaultInjector, force-uninstalled on teardown.

    Tests arm it (``raise_mid_fixpoint``/``delay_probes``/
    ``corrupt_copies``) and enter it as a context manager; the teardown
    uninstall is a safety net for tests that fail while installed.
    """
    injector = FaultInjector(seed=0)
    yield injector
    injector.uninstall()


@pytest.fixture
def refcount_only():
    """The cycle collector is off for the test: whatever the test
    expects to be freed must be freed by reference counting alone —
    no cycle may keep it alive until some later collection."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class GatedPrepared:
    """A real ``PreparedQuery`` whose ``run`` — the service's worker
    path — can be held on a gate; ``lookup`` and everything else pass
    through to the wrapped form."""

    def __init__(self, prepared, gate=None):
        self._prepared = prepared
        self.gate = gate
        self.started = threading.Event()
        self.runs = 0

    def __getattr__(self, name):
        return getattr(self._prepared, name)

    def run(self, constants, db=None, budget=None, **options):
        self.runs += 1
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(30.0)
        return self._prepared.run(constants, db=db, budget=budget,
                                  **options)


@pytest.fixture
def cached_service():
    """Factory for a one-worker ``QueryService`` over a real cached
    form on ``sg_forest``: ``make(gate=None, trees=3, **options)``
    returns ``(service, prepared, cache, db)``, ``prepared`` being a
    :class:`GatedPrepared`.  The caller drains the service."""

    def make(gate=None, trees=3, **options):
        db, _source = sg_forest(trees=trees, fanout=2, depth=3)
        cache = AnswerCache(capacity=64)
        prepared = GatedPrepared(
            PreparedQuery(WORKLOADS["sg_forest"].query, db,
                          cache=cache),
            gate,
        )
        options.setdefault("workers", 1)
        service = QueryService(prepared, db, **options)
        return service, prepared, cache, db

    return make


@pytest.fixture
def sg_query():
    """Example 1: the same-generation program with query sg(a, Y)."""
    return parse_query("""
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
        ?- sg(a, Y).
    """)


@pytest.fixture
def sg_db():
    """A small acyclic same-generation database."""
    return Database.from_text("""
        up(a, b). up(b, c).
        flat(c, c1). flat(b, b1). flat(z, z1).
        down(c1, d1). down(d1, e1). down(b1, f1).
    """)


@pytest.fixture
def example3_query():
    """Example 3: two recursive rules."""
    return parse_query("""
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up1(X, X1), sg(X1, Y1), down1(Y1, Y).
        sg(X, Y) :- up2(X, X1), sg(X1, Y1), down2(Y1, Y).
        ?- sg(a, Y).
    """)


@pytest.fixture
def example4_query():
    """Example 4: shared variables between left and right parts."""
    return parse_query("""
        p(X, Y) :- flat(X, Y).
        p(X, Y) :- up1(X, X1, W), p(X1, Y1), down1(Y1, Y, W).
        p(X, Y) :- up2(X, X1), p(X1, Y1), down2(Y1, Y, X).
        ?- p(a, Y).
    """)


@pytest.fixture
def example4_db_a():
    return Database.from_text("""
        up1(a, b, 1). flat(b, c). down1(c, d, 2). down1(c, e, 1).
    """)


@pytest.fixture
def example4_db_b():
    return Database.from_text("""
        up2(a, b). flat(b, c). down2(c, d, b). down2(c, e, a).
    """)


@pytest.fixture
def example5_db():
    """The exact cyclic database of Example 5."""
    return Database.from_text("""
        up(a, b). up(b, c). up(c, d). up(d, e). up(e, d). up(b, e).
        flat(e, f).
        down(f, g). down(g, h). down(h, i). down(i, j). down(j, k).
        down(k, l).
    """)


@pytest.fixture
def example6_query():
    """Example 6: a mixed-linear program."""
    return parse_query("""
        p(X, Y) :- flat(X, Y).
        p(X, Y) :- up(X, X1), p(X1, Y).
        p(X, Y) :- p(X, Y1), down(Y1, Y).
        ?- p(a, Y).
    """)


@pytest.fixture
def example6_db():
    return Database.from_text("""
        up(a, b). up(b, c). flat(c, u). flat(b, v).
        down(u, w). down(w, x). down(v, y).
    """)
