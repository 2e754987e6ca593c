"""Difference-logic engine tests against from-scratch oracles.

The oracle here is a plain Bellman-Ford negative-cycle check that shares no
code with the engine: constraints x - y <= k become edges y -> x with weight
k, plus a virtual source reaching every node with weight 0.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from mpfjss import _dl_pure, dl
from mpfjss.dl import AVAILABLE_BACKENDS, DLEngine

BACKENDS = list(AVAILABLE_BACKENDS)


def bellman_ford_feasible(num_vars: int, constraints) -> bool:
    """True iff the difference constraints are satisfiable (no negative cycle).

    ``constraints`` are (xi, yi, k) triples meaning x - y <= k, with variable
    indices where -1 denotes the origin.
    """
    nodes = num_vars + 1  # shift: origin at 0
    dist = [0] * nodes
    edges = [(y + 1, x + 1, k) for (x, y, k) in constraints]
    for _ in range(nodes):
        moved = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                moved = True
        if not moved:
            return True
    return False


def random_system(rng: random.Random, max_vars=20, max_cons=50):
    nv = rng.randint(2, max_vars)
    ncons = rng.randint(1, max_cons)
    cons = []
    for _ in range(ncons):
        x = rng.randrange(-1, nv)
        y = rng.randrange(-1, nv)
        cons.append((x, y, rng.randint(-10, 10)))
    return nv, cons


def build_engine(backend, nv, cons, upto=None):
    eng = DLEngine(backend=backend)
    vars_ = [eng.new_var(i) for i in range(nv)]

    def var(i):
        return eng.zero if i == -1 else vars_[i]

    accepted = []
    for x, y, k in cons[:upto]:
        if eng.assert_upper(var(x), var(y), k) is None:
            accepted.append((x, y, k))
    return eng, vars_, accepted


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_constraint_cycle(backend):
    eng = DLEngine(backend=backend)
    x = eng.new_var("x")
    y = eng.new_var("y")
    assert x.handle == 0 and y.handle == 1
    assert eng.assert_upper(x, y, 3) is None
    conflict = eng.assert_upper(y, x, -5)
    assert conflict is not None
    assert conflict.weight == -2
    ks = sorted(c.k for c in conflict.constraints)
    assert ks == [-5, 3]
    # the failed assert left no trace
    assert eng.num_constraints() == 1
    assert eng.assert_upper(y, x, -3) is None  # boundary cycle of weight 0 is fine


@pytest.mark.parametrize("backend", BACKENDS)
def test_chain_minimal_solution(backend):
    eng = DLEngine(backend=backend)
    vs = [eng.new_var(f"t{i}") for i in range(4)]
    for v in vs:
        assert eng.assert_upper(eng.zero, v, 0) is None
    for a, b in zip(vs, vs[1:]):
        assert eng.assert_upper(a, b, -1) is None
    sol = eng.solution()
    assert [sol[v] for v in vs] == [0, 1, 2, 3]
    assert sol[vs[-1]] + 1 == 4
    assert [eng.lower_bound(v) for v in vs] == [0, 1, 2, 3]


@pytest.mark.parametrize("backend", BACKENDS)
def test_self_constraints(backend):
    eng = DLEngine(backend=backend)
    x = eng.new_var("x")
    assert eng.assert_upper(x, x, 0) is None
    assert eng.assert_upper(x, x, 7) is None
    conflict = eng.assert_upper(x, x, -1)
    assert conflict is not None and conflict.weight == -1
    assert len(conflict.constraints) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_pop_on_empty_trail(backend):
    eng = DLEngine(backend=backend)
    with pytest.raises(IndexError):
        eng.pop()
    eng.push()
    eng.pop()
    with pytest.raises(IndexError):
        eng.pop()


@pytest.mark.parametrize("backend", BACKENDS)
def test_push_assert_contradiction_pop(backend):
    eng = DLEngine(backend=backend)
    x = eng.new_var("x")
    y = eng.new_var("y")
    assert eng.assert_upper(x, y, 2) is None
    eng.push()
    assert eng.assert_upper(y, x, -1) is None
    assert eng.assert_upper(x, y, 1) is None
    eng.pop()
    assert eng.num_constraints() == 1
    assert eng.assert_upper(y, x, -2) is None  # would have been a conflict before the pop


@pytest.mark.parametrize("backend", BACKENDS)
def test_verdicts_match_bellman_ford(backend):
    rng = random.Random(4202)
    for round_ in range(300):
        nv, cons = random_system(rng)
        eng, vars_, accepted = build_engine(backend, nv, cons)
        # accepted set is feasible per oracle, and the model really satisfies it
        assert bellman_ford_feasible(nv, accepted)
        sol = eng.solution()

        def val(i):
            return 0 if i == -1 else sol[vars_[i]]

        for x, y, k in accepted:
            assert val(x) - val(y) <= k


@pytest.mark.parametrize("backend", BACKENDS)
def test_incremental_verdict_equals_oracle_verdict(backend):
    rng = random.Random(99)
    for round_ in range(200):
        nv, cons = random_system(rng, max_vars=8, max_cons=14)
        eng = DLEngine(backend=backend)
        vars_ = [eng.new_var(i) for i in range(nv)]

        def var(i):
            return eng.zero if i == -1 else vars_[i]

        accepted: list[tuple[int, int, int]] = []
        for x, y, k in cons:
            verdict = eng.assert_upper(var(x), var(y), k)
            oracle = bellman_ford_feasible(nv, accepted + [(x, y, k)])
            assert (verdict is None) == oracle
            if verdict is None:
                accepted.append((x, y, k))
            else:
                # witness is a genuinely negative cycle of asserted constraints
                assert verdict.weight < 0
                assert verdict.weight == sum(c.k for c in verdict.constraints)
                pool = accepted + [(x, y, k)]
                for c in verdict.constraints:
                    xi = c.x.handle if c.x.handle >= 0 else -1
                    yi = c.y.handle if c.y.handle >= 0 else -1
                    assert (xi, yi, c.k) in pool
                # closed: every variable is entered as often as it is left
                cycle = verdict.constraints
                assert Counter(c.x for c in cycle) == Counter(c.y for c in cycle)


@pytest.mark.parametrize("backend", BACKENDS)
def test_push_pop_matches_replay(backend):
    rng = random.Random(777)
    for round_ in range(60):
        nv = rng.randint(2, 10)
        eng = DLEngine(backend=backend)
        vars_ = [eng.new_var(i) for i in range(nv)]

        def var(i):
            return eng.zero if i == -1 else vars_[i]

        surviving: list[list[tuple[int, int, int]]] = [[]]
        for _ in range(100):
            act = rng.random()
            if act < 0.25:
                eng.push()
                surviving.append([])
            elif act < 0.4 and eng.level() > 0:
                eng.pop()
                surviving.pop()
            else:
                x = rng.randrange(-1, nv)
                y = rng.randrange(-1, nv)
                k = rng.randint(-10, 10)
                if eng.assert_upper(var(x), var(y), k) is None:
                    surviving[-1].append((x, y, k))
        while eng.level() > 0:
            eng.pop()
            surviving.pop()
        flat = surviving[0]

        replay = DLEngine(backend=backend)
        rvars = [replay.new_var(i) for i in range(nv)]

        def rvar(i):
            return replay.zero if i == -1 else rvars[i]

        for x, y, k in flat:
            assert replay.assert_upper(rvar(x), rvar(y), k) is None

        assert [(c.x.handle, c.y.handle, c.k) for c in eng.constraints()] == [
            (c.x.handle, c.y.handle, c.k) for c in replay.constraints()
        ]
        assert [eng.lower_bound(v) for v in vars_] == [replay.lower_bound(v) for v in rvars]
        left = {v.handle: x for v, x in eng.solution().items()}
        right = {v.handle: x for v, x in replay.solution().items()}
        assert left == right


@pytest.mark.parametrize("backend", BACKENDS)
def test_solution_satisfies_mixed_anchoring(backend):
    eng = DLEngine(backend=backend)
    a = eng.new_var("a")
    b = eng.new_var("b")
    free = eng.new_var("free")
    assert eng.assert_upper(eng.zero, a, 0) is None  # a >= 0
    assert eng.assert_upper(b, a, 4) is None  # b <= a + 4
    assert eng.assert_upper(free, b, -2) is None  # free <= b - 2
    sol = eng.solution()
    assert sol[a] >= 0
    assert sol[b] - sol[a] <= 4
    assert sol[free] - sol[b] <= -2
    assert eng.lower_bound(a) == 0
    assert eng.lower_bound(free) is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_error_contract(backend):
    module = dl._dl_core if backend == "compiled" else _dl_pure
    assert (module.MAX_WEIGHT, module.MAX_EDGES) == (_dl_pure.MAX_WEIGHT, _dl_pure.MAX_EDGES)
    kern = dl.make_kernel(backend)
    a = kern.add_var()
    assert kern.assert_edge(a, 0, -3) == 0  # a >= 3
    assert kern.changed() == [a]  # nothing pushed: every raise so far
    assert kern.assert_edge(0, a, 2) == 1  # a <= 2 closes a negative cycle
    assert kern.conflict() == [0]
    assert kern.changed() == [a]
    kern.push()
    assert kern.changed() == []
    b = kern.add_var()
    assert kern.assert_edge(b, a, -1) == 0  # b >= a + 1
    assert kern.changed() == [b]
    kern.push()
    assert kern.changed() == []
    kern.pop()
    assert kern.changed() == [b]
    # a >= b raises a, then would raise b: rejected, and the raise of a undone
    assert kern.assert_edge(a, b, 0) == 1
    assert kern.changed() == [b]
    nodes, edges, lows = kern.num_vars(), kern.num_edges(), kern.earliest_all()
    for bad in (-1, nodes):
        with pytest.raises(IndexError):
            kern.assert_edge(bad, a, 0)
        with pytest.raises(IndexError):
            kern.assert_edge(a, bad, 0)
        with pytest.raises(IndexError):
            kern.earliest(bad)
    for bad in (-1, edges):
        with pytest.raises(IndexError):
            kern.edge(bad)
    for w in (module.MAX_WEIGHT + 1, -module.MAX_WEIGHT - 1):
        with pytest.raises(OverflowError):
            kern.assert_edge(a, 0, w)
    for w in (-1.5, 2.0, "3", None):
        with pytest.raises(TypeError):
            kern.assert_edge(a, 0, w)
    assert (kern.num_edges(), kern.earliest_all(), kern.changed()) == (edges, lows, [b])
    assert kern.assert_edge(a, a, -1) == 1
    assert kern.conflict() == []
    assert (kern.num_edges(), kern.earliest_all(), kern.changed()) == (edges, lows, [b])
    # a free node, from which no chain of constraints leads to the origin,
    # reads below every bound from the origin, also after a chain of the
    # strongest raises among free nodes
    reach = -module.MAX_WEIGHT * module.MAX_EDGES
    free = [kern.add_var() for _ in range(10)]
    assert kern.earliest(free[0]) < reach
    for x, y in zip(free, free[1:]):
        assert kern.assert_edge(y, x, -module.MAX_WEIGHT) == 0  # y >= x + MAX_WEIGHT
    assert kern.earliest(free[0]) < reach and kern.earliest(free[-1]) < reach
    eng = DLEngine(backend=backend)
    x, y = eng.new_var("x"), eng.new_var("y")
    assert eng.assert_upper(x, y, -module.MAX_WEIGHT) is None  # y >= x + MAX_WEIGHT
    assert eng.lower_bound(y) is None
    assert eng.assert_upper(eng.zero, x, 0) is None  # x >= 0
    assert eng.lower_bound(y) == module.MAX_WEIGHT


@pytest.mark.parametrize("backend", BACKENDS)
def test_conflict_depends_only_on_the_stacked_constraints(backend):
    """A rejected assert names the cycle a fresh kernel replaying the
    surviving constraints names: with every variable bounded from the
    origin, and with no edge touching the origin, so every variable is free."""
    rng = random.Random(4711)
    for anchored in (True, False):
        rejects = 0
        for round_ in range(60):
            nv = rng.randint(2, 10)
            kern = dl.make_kernel(backend)
            nodes = [kern.add_var() for _ in range(nv)]
            # n >= some bound
            bounds = [(n, 0, -rng.randint(0, 5)) for n in nodes] if anchored else []
            for bound in bounds:
                assert kern.assert_edge(*bound) == 0
            first = 0 if anchored else 1
            surviving: list[list[tuple[int, int, int]]] = [bounds]
            for _ in range(120):
                act = rng.random()
                if act < 0.2:
                    kern.push()
                    surviving.append([])
                elif act < 0.35 and kern.level() > 0:
                    kern.pop()
                    surviving.pop()
                else:
                    edge = (rng.randrange(first, nv + 1), rng.randrange(first, nv + 1),
                            rng.randint(-10, 10))
                    if kern.assert_edge(*edge) == 0:
                        surviving[-1].append(edge)
                        continue
                    fresh = dl.make_kernel(backend)
                    for _ in nodes:
                        fresh.add_var()
                    for kept in (e for level in surviving for e in level):
                        assert fresh.assert_edge(*kept) == 0
                    assert fresh.assert_edge(*edge) == 1
                    assert kern.conflict() == fresh.conflict()
                    rejects += 1
        assert rejects > 1000


@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled kernel not built")
def test_backends_agree_step_by_step():
    rng = random.Random(31337)
    for round_ in range(40):
        nv = rng.randint(2, 12)
        engines = [DLEngine(backend=b) for b in BACKENDS]
        vars_ = [[e.new_var(i) for i in range(nv)] for e in engines]
        at_push = [engines[0]._kern.earliest_all()]  # per level, the lows it began with
        for _ in range(120):
            act = rng.random()
            if act < 0.2:
                at_push.append(engines[0]._kern.earliest_all())
                for e in engines:
                    e.push()
            elif act < 0.35 and engines[0].level() > 0:
                at_push.pop()
                for e in engines:
                    e.pop()
            else:
                x = rng.randrange(-1, nv)
                y = rng.randrange(-1, nv)
                k = rng.randint(-10, 10)
                results = []
                for e, vs in zip(engines, vars_):
                    xv = e.zero if x == -1 else vs[x]
                    yv = e.zero if y == -1 else vs[y]
                    c = e.assert_upper(xv, yv, k)
                    results.append(None if c is None else e._kern.conflict())
                assert results[0] == results[1]
            # after every push, pop and assert, so that a bad restore shows where it happened
            earliest = [e._kern.earliest_all() for e in engines]
            assert earliest[0] == earliest[1]
            changed = [e._kern.changed() for e in engines]
            assert changed[0] == changed[1]
            begun = at_push[-1]
            assert set(changed[0]) == {n for n, low in enumerate(earliest[0]) if low != begun[n]}
        lows = [[e.lower_bound(v) for v in vs] for e, vs in zip(engines, vars_)]
        assert lows[0] == lows[1]

