"""The search's trajectory, pinned, and the invariants its shortcuts rely on.

Exhaustive ``decide`` and ``optimize`` runs (no deadline) must take exactly
the recorded number of search steps and return exactly the recorded
schedule.  The pins were taken from the solver that read every earliest
start through the validating ``DLEngine`` facade, one fresh search per
call; a faster search that visits the same nodes in the same order keeps
them, and so does one search reused for every cap on an instance.

The search skips an allocation leaf whose conflict pairs contain those of a
leaf it has already refuted in the same solve, and its order search jumps
back over levels that took no part in a failure.  Each pin therefore has
three step counts:

* the first is taken by ``_PlainSearch``, which backtracks chronologically
  and whose memo never fires, and equals the count pinned before the memo
  existed;
* the second by ``_ChronoSearch``, which keeps the memo but backtracks
  chronologically, and equals the count pinned before backjumping existed;
* the third by the search as shipped.

All three return the same schedule.
"""

import dataclasses
import hashlib
import json
import random
from collections import Counter

import pytest

from mpfjss import GenParams, dl, generate, load_instance
from mpfjss.dl import AVAILABLE_BACKENDS
from mpfjss.schedule import build_schedule, schedule_to_json
from mpfjss.validate import check_schedule
from mpfjss.solver import (
    MEMO_LEAVES,
    SolveTimeout,
    _ProvenOptimal,
    _Search,
    conflict_pairs,
    decide,
)

from conftest import DATA, _EveryInstance, interchangeable, random_tiny_instance

# the 3-job shop of acceptance criterion 8, at other job counts
SHOP = GenParams(op_types=6, machines=4, workers=5, ops_per_job=(2, 4),
                 durations=(2, 6), shift=40)

# (instance, mode, cap, plain steps, memo steps, backjump steps, total
# tardiness, schedule digest); an instance is "example" or (generator, jobs,
# seed, partial_order)
PINNED = [
    ("example", "decide", 0, 0, 0, 0, None, None),
    ("example", "decide", 1, 145, 145, 107, 1, "c11bb8a35b520c9b"),
    ("example", "optimize", 1, 2554, 1447, 1409, 1, "c11bb8a35b520c9b"),
    ("example", "optimize", 3, 3605, 1941, 1941, 1, "c11bb8a35b520c9b"),
    (("shop", 3, 6, 0.0), "decide", 3, 4629, 2156, 2139, None, None),
    (("shop", 3, 6, 0.0), "decide", 4, 1444, 298, 261, 6, "09c9453ba71f6438"),
    (("shop", 3, 6, 0.0), "optimize", 4, 7240, 2199, 2162, 6, "09c9453ba71f6438"),
    (("shop", 3, 5, 0.0), "optimize", 6, 2878, 1202, 1193, 14, "84455d75f04c0725"),
    (("day", 3, 2, 0.0), "decide", 52, 31, 31, 31, 52, "e55e3749abe578af"),
    (("day", 3, 2, 0.0), "optimize", 52, 31, 31, 31, 52, "e55e3749abe578af"),
    (("shop", 5, 8, 0.5), "decide", 6, 2600, 2600, 165, 12, "430a7411b012e420"),
    (("shop", 5, 4, 0.5), "optimize", 28, 319, 319, 319, 8, "25f9a1428eca09d7"),
    (("day", 5, 3, 0.5), "decide", 25, 41, 41, 41, 25, "d7a4e2135e40e51a"),
    (("day", 5, 3, 0.5), "optimize", 25, 41, 41, 41, 25, "d7a4e2135e40e51a"),
    (("shop", 10, 2, 0.0), "decide", 1, 1196, 1196, 214, 2, "0e501a7a6d112d25"),
    (("shop", 10, 2, 0.0), "optimize", 1, 1197, 1197, 215, 1, "5f2a96a708c922b5"),
    (("shop", 10, 3, 0.5), "decide", 5, 155, 155, 155, 13, "4eab8513cb55fd44"),
    (("shop", 10, 3, 0.5), "optimize", 5, 2325, 2325, 2311, 5, "14cf9e76dae2bd4e"),
    (("day", 10, 2, 0.5), "decide", 40, 116, 116, 116, 111, "85f55a707007abc7"),
    (("day", 10, 4, 0.0), "optimize", 63, 79, 79, 79, 66, "6a30113a3a8e1dd7"),
]
PLAIN_PINS = [(k, m, c, plain, t, d) for k, m, c, plain, _, _, t, d in PINNED]
MEMO_PINS = [(k, m, c, memo, t, d) for k, m, c, _, memo, _, t, d in PINNED]
JUMP_PINS = [(k, m, c, jump, t, d) for k, m, c, _, _, jump, t, d in PINNED]


class _ChronoSearch(_Search):
    """The search without backjumping: a failure blames every level above it."""

    def _cycle_levels(self, k, base_edges):
        return (1 << k) - 1


class _PlainSearch(_ChronoSearch):
    """The chronological search with a memo that never fires."""

    def _covered(self, mask):
        return False


class _EveryChrono(_EveryInstance, _ChronoSearch):
    """``_ChronoSearch`` without symmetry breaking."""


class _EveryPlain(_EveryInstance, _PlainSearch):
    """``_PlainSearch`` without symmetry breaking."""


def _instance(key):
    if key == "example":
        return load_instance(DATA / "example.lp")
    kind, jobs, seed, partial = key
    base = SHOP if kind == "shop" else GenParams()
    return generate(dataclasses.replace(base, jobs=(jobs, jobs), partial_order=partial), seed)


def _digest(sched):
    text = json.dumps(schedule_to_json(sched), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(search, cap, optimizing):
    """Run to exhaustion; the schedule ``decide`` or ``optimize`` would return."""
    if not optimizing:
        return search.solve(cap)
    try:
        search.solve(cap, optimizing=True)
    except _ProvenOptimal:
        pass
    return None if search.best is None else build_schedule(search.inst, *search.best)


@pytest.fixture
def backend(request, monkeypatch):
    """The kernel named by the test's parameter, as the one every search takes."""
    monkeypatch.setattr(dl, "default_backend", lambda: request.param)
    return request.param


def _check_pin(search, sched, steps, total, digest):
    assert search._ticks == steps
    if total is None:
        assert sched is None
    else:
        assert (sched.total_tardiness, _digest(sched)) == (total, digest)


@pytest.mark.parametrize("backend", AVAILABLE_BACKENDS, indirect=True)
@pytest.mark.parametrize("key,mode,cap,steps,total,digest", PLAIN_PINS)
def test_search_trajectory_is_pinned(backend, key, mode, cap, steps, total, digest):
    search = _PlainSearch(_instance(key))
    sched = _run(search, cap, mode == "optimize")
    _check_pin(search, sched, steps, total, digest)


@pytest.mark.parametrize("backend", AVAILABLE_BACKENDS, indirect=True)
@pytest.mark.parametrize("key,mode,cap,steps,total,digest", MEMO_PINS)
def test_memo_search_trajectory_is_pinned(backend, key, mode, cap, steps, total, digest):
    search = _ChronoSearch(_instance(key))
    sched = _run(search, cap, mode == "optimize")
    _check_pin(search, sched, steps, total, digest)


@pytest.mark.parametrize("backend", AVAILABLE_BACKENDS, indirect=True)
@pytest.mark.parametrize("key,mode,cap,steps,total,digest", JUMP_PINS)
def test_backjump_search_trajectory_is_pinned(backend, key, mode, cap, steps, total, digest):
    search = _Search(_instance(key))
    sched = _run(search, cap, mode == "optimize")
    _check_pin(search, sched, steps, total, digest)


@pytest.mark.parametrize("backend", AVAILABLE_BACKENDS, indirect=True)
@pytest.mark.parametrize("key", list(dict.fromkeys(row[0] for row in PINNED)),
                         ids=lambda k: k if isinstance(k, str) else "-".join(map(str, k)))
def test_one_search_replays_every_pin(backend, key):
    """Every pinned cap of an instance, forward then backward, on one search."""
    for cls, pins in ((_PlainSearch, PLAIN_PINS), (_ChronoSearch, MEMO_PINS),
                      (_Search, JUMP_PINS)):
        rows = [row[1:] for row in pins if row[0] == key]
        search = cls(_instance(key))
        for mode, cap, steps, total, digest in rows + rows[::-1]:
            sched = _run(search, cap, mode == "optimize")
            _check_pin(search, sched, steps, total, digest)
            assert search.kern.level() == search.base_level


@pytest.mark.parametrize("backend", AVAILABLE_BACKENDS, indirect=True)
def test_search_is_reusable_after_abnormal_exit(backend):
    key = ("shop", 10, 2, 0.0)
    inst = _instance(key)
    search = _Search(inst)
    # a passed deadline strikes at the first clock read, 256 steps into a
    # search of 1668 steps
    with pytest.raises(SolveTimeout):
        search.solve(3, optimizing=True, deadline=0.0)
    assert search._ticks == 256
    assert search.kern.level() == search.base_level
    # the optimum under cap 1 meets the root lower bound
    with pytest.raises(_ProvenOptimal):
        search.solve(1, optimizing=True)
    assert search.kern.level() == search.base_level
    # cap 0 admits no schedule, so no incumbent may survive into it
    for mode, cap in (("decide", 1), ("optimize", 1), ("optimize", 0), ("decide", 0),
                      ("optimize", 3)):
        sched = _run(search, cap, mode == "optimize")
        fresh = _Search(inst)
        want = _run(fresh, cap, mode == "optimize")
        assert search._ticks == fresh._ticks
        assert (sched and _digest(sched)) == (want and _digest(want))
        assert search.kern.level() == search.base_level
    with pytest.raises(ValueError):
        decide(inst, -1, search=search)
    with pytest.raises(ValueError):
        decide(_instance(key), 1, search=search)


class _CheckedSearch(_Search):
    """A search that checks its shortcuts against the facade at every node.

    At every allocation leaf it also checks the leaf's pairs against
    ``conflict_pairs``, less the pairs of two kept tasks; at every leaf
    the memo skips, that the leaf's mask encodes exactly those pairs and
    contains a refuted leaf's mask, and that the pairs contain those of a
    leaf whose order search ran to its end.  At every allocation slot it
    checks that the instances in use form a prefix of each group, and that
    the slot is offered each group's instances in use and the next unused
    one, or a kept task's instance.  At every assert the order search
    rejects, it checks that the ``conflict()`` edges and the rejected edge
    close a cycle of negative weight, and that each of the cycle's levels
    asserted the edge the cycle names.  Every bound ``_raised_bound``
    gives (the base level's, each solve's root state and each order-search
    level's) and every order search's starting state, earliest starts and
    bound, are checked against ones recomputed from the kernel; so are the
    bound at every order node and every leaf, and the earliest starts at
    every pick.  At every pick it also checks that the pair and its
    directions are those a full scan with a key function finds, that the
    heap it was handed is unchanged, and that the heap left holds a key no
    greater than the current one for every pair left.  It gives up after a
    fixed number of steps, so that large random instances stay cheap and
    the test does the same work on every run.
    """

    STEPS = 3000
    nodes = leaves = skips = rejects = 0
    kept_raises = 0  # order searches whose root the kept order raised
    level_base = None  # the kernel level an order search starts from, inside one

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.explored = []  # pair sets whose order search returned None
        self.asserted = {}  # order-search level -> the edge it asserted last

    def _tick(self):
        super()._tick()
        if self._ticks > self.STEPS:
            raise SolveTimeout("step budget spent")

    def _full_ends(self):
        """Each job's latest task end, in job order, from the kernel's earliest starts."""
        done = dict.fromkeys((j.name for j in self.inst.jobs), 0)
        for t in self.all_tasks:
            done[t[0]] = max(done[t[0]], self.kern.earliest(self.node[t]) + self.dur[t])
        return list(done.values())

    def _full_lb(self):
        ends = self._full_ends()
        return sum(max(0, end - j.deadline) for j, end in zip(self.inst.jobs, ends))

    def _check_state(self, low, bound):
        """Earliest starts ``low`` and ``bound`` against the kernel, recomputed in full."""
        assert low == self.kern.earliest_all()
        assert bound == (self._full_lb(), self._full_ends())

    def _raised_bound(self, bound, raised):
        got = super()._raised_bound(bound, raised)
        self._check_state(self.low, got)
        return got

    def _candidates(self, slot):
        (_, op), cls = slot
        want = []
        for caps, indices in self.class_groups.get(cls, ()):
            in_use = [self.load[(cls, i)] > 0 for i in indices]
            assert in_use == sorted(in_use, reverse=True)
            if op in caps:
                want += indices[:sum(in_use) + 1]
        if slot[0] in self.keep:
            want = [self.keep[slot[0]][cls]]
        got = super()._candidates(slot)
        assert sorted(got) == sorted(want)
        return got

    def _leaf_pairs(self):
        self.pairs = super()._leaf_pairs()
        keep = self.keep
        assert self.pairs == {p for p in conflict_pairs(self.inst, self.alloc)
                              if p[0] not in keep or p[1] not in keep}
        self.leaves += 1
        return self.pairs

    def _covered(self, mask):
        assert mask == sum(self.pair_bit[p] for p in self.pairs)
        if not super()._covered(mask):
            return False
        assert any(seen & mask == seen for seen in self.refuted)
        assert any(pairs <= self.pairs for pairs in self.explored)
        self.skips += 1
        return True

    def _order_dfs(self, pairs):
        self._check_state(*self.order_root)
        self.kept_raises += self.order_root[1] != self.base_bound
        self.level_base, self.edge_base = self.kern.level(), self.kern.num_edges()
        try:
            res = super()._order_dfs(pairs)
        finally:
            self.level_base = None
        if res is None:
            self.explored.append(frozenset(pairs))
        return res

    def _assert_before(self, a, b):
        self.tried = (self.node[b], self.node[a], -self.dur[a])
        ok = super()._assert_before(a, b)
        if ok and self.level_base is not None:
            level = self.kern.level() - self.level_base - 1
            eid = self.kern.num_edges() - 1
            assert eid == self.edge_base + level
            assert self.kern.edge(eid) == self.tried
            self.asserted[level] = self.tried
        return ok

    def _cycle_levels(self, k, base_edges):
        kern = self.kern
        assert (k, base_edges) == (kern.level() - self.level_base - 1, self.edge_base)
        ids = kern.conflict()
        assert len(set(ids)) == len(ids) and all(0 <= e < kern.num_edges() for e in ids)
        cycle = [kern.edge(e) for e in ids] + [self.tried]
        assert sum(w for _, _, w in cycle) < 0
        # closed: every node is left as often as it is entered
        assert Counter(u for u, _, _ in cycle) == Counter(v for _, v, _ in cycle)
        mask = super()._cycle_levels(k, base_edges)
        levels = [e - base_edges for e in ids if e >= base_edges]
        assert mask == sum(1 << level for level in levels) and mask < 1 << k
        for level in levels:
            assert kern.edge(base_edges + level) == self.asserted[level]
        self.rejects += 1
        return mask

    def _pick_pair(self, heap, raised, remaining, on_node):
        assert self.low == self.kern.earliest_all()
        node, low = self.node, self.low
        assert remaining == {p: (node[p[0]], node[p[1]]) for p in remaining}
        self.nodes += 1
        before = list(heap)
        pair, dirs, left = super()._pick_pair(heap, raised, remaining, on_node)
        assert heap == before

        def key(pair):
            la, lb = low[node[pair[0]]], low[node[pair[1]]]
            return (la, lb, pair) if la <= lb else (lb, la, pair)

        want = a, b = min(remaining, key=key)
        first = (a, b) if (low[node[a]], a) <= (low[node[b]], b) else (b, a)
        assert (pair, dirs) == (want, [first, first[::-1]])
        # every other pair keeps a key no greater than its current one
        for p in remaining.keys() - {pair}:
            assert any(k[2] == p and k <= key(p) for k in left)
        return pair, dirs, left

    def _promising(self, lb):
        assert self.low == self.kern.earliest_all()
        assert lb == self._full_lb()
        self.nodes += 1
        return super()._promising(lb)

    def _order_leaf(self, total):
        assert self.low == self.kern.earliest_all()
        assert total == self._full_lb()
        return super()._order_leaf(total)


def _random_instances():
    rng = random.Random(2024)
    for _ in range(12):
        yield random_tiny_instance(rng)
    for _ in range(6):
        params = dataclasses.replace(SHOP, jobs=(2, 4), partial_order=rng.choice((0.0, 0.5)))
        yield generate(params, rng.randint(1, 10_000))


def test_search_shortcuts_match_facade_recomputation():
    nodes = leaves = skips = rejects = 0
    for inst in _random_instances():
        serial = sum(inst.duration(op) for j in inst.jobs for op in j.operations)
        for cap, optimizing in ((serial, False), (serial, True), (serial // 4, True)):
            search = _CheckedSearch(inst)
            try:
                _run(search, cap, optimizing)
            except SolveTimeout:
                pass
            nodes += search.nodes
            leaves += search.leaves
            skips += search.skips
            rejects += search.rejects
    # a skipped leaf is checked too, so it counts as one
    assert nodes > 10_000 and leaves > 200 and skips > 0 and rejects > 1000


def test_neighbourhood_step_shortcuts_match_facade_recomputation():
    """The checks above inside neighbourhood steps, whose kept order raises the root."""
    rng = random.Random(2026)
    nodes = kept_raises = 0
    for inst in _random_instances():
        serial = sum(inst.duration(op) for j in inst.jobs for op in j.operations)
        sched = _Search(inst).solve(serial)
        incumbent = ({a.task: a.start for a in sched.assignments},
                     {a.task: dict(a.resources) for a in sched.assignments},
                     sched.total_tardiness)
        names = [j.name for j in inst.jobs]
        for free in ({rng.choice(names)}, set(rng.sample(names, len(names) - 1))):
            search = _CheckedSearch(inst)
            try:
                search.reoptimize(serial, incumbent, free)
            except (_ProvenOptimal, SolveTimeout):
                pass
            nodes += search.nodes
            kept_raises += search.kept_raises
    assert nodes > 10_000 and kept_raises > 100


# -- the leaf memo ----------------------------------------------------------

@pytest.mark.parametrize("symmetry_breaking", [True, False])
def test_memo_changes_no_result(symmetry_breaking):
    rng = random.Random(77)
    memo_steps = plain_steps = groups = 0
    for _ in range(25):
        inst = random_tiny_instance(rng, twin_workers=symmetry_breaking)
        groups += interchangeable(inst)
        serial = sum(inst.duration(op) for j in inst.jobs for op in j.operations)
        for cap in sorted({0, 1, 3, serial // 2, serial}):
            for optimizing in (False, True):
                memo = (_Search if symmetry_breaking else _EveryInstance)(inst)
                plain = (_PlainSearch if symmetry_breaking else _EveryPlain)(inst)
                got = _run(memo, cap, optimizing)
                want = _run(plain, cap, optimizing)
                assert (got and (got.total_tardiness, _digest(got))) == \
                    (want and (want.total_tardiness, _digest(want)))
                assert memo._ticks <= plain._ticks
                memo_steps += memo._ticks
                plain_steps += plain._ticks
    assert memo_steps < plain_steps
    assert not symmetry_breaking or groups >= 0.4 * 25


# -- backjumping ------------------------------------------------------------

@pytest.mark.parametrize("symmetry_breaking", [True, False])
def test_backjumping_changes_no_result(symmetry_breaking):
    rng = random.Random(78)
    jump_steps = chrono_steps = groups = 0
    for _ in range(25):
        inst = random_tiny_instance(rng, twin_workers=symmetry_breaking)
        groups += interchangeable(inst)
        serial = sum(inst.duration(op) for j in inst.jobs for op in j.operations)
        for cap in sorted({0, 1, 3, serial // 2, serial}):
            for optimizing in (False, True):
                jump = (_Search if symmetry_breaking else _EveryInstance)(inst)
                chrono = (_ChronoSearch if symmetry_breaking else _EveryChrono)(inst)
                got = _run(jump, cap, optimizing)
                want = _run(chrono, cap, optimizing)
                assert (got and (got.total_tardiness, _digest(got))) == \
                    (want and (want.total_tardiness, _digest(want)))
                assert jump._ticks <= chrono._ticks
                jump_steps += jump._ticks
                chrono_steps += chrono._ticks
    assert jump_steps < chrono_steps
    assert not symmetry_breaking or groups >= 0.4 * 25


def _step_capped(cls, steps):
    """``cls`` with a search that gives up past ``steps`` steps."""

    class StepCapped(cls):
        def _tick(self):
            super()._tick()
            if self._ticks > steps:
                raise SolveTimeout("step budget spent")

    return StepCapped


def test_backjumping_finds_caps_the_chronological_search_cannot():
    """The 30-job day n30s03 at caps where chronological search stalls.

    Chronological backtracking spends 5000 steps without finding a schedule;
    backjumping finds one within them (in 443 to 703 steps when measured).
    """
    day = generate(GenParams(jobs=(30, 30)), 3)
    jump = _step_capped(_Search, 5000)(day)
    chrono = _step_capped(_ChronoSearch, 5000)(day)
    for cap in (56, 64, 80):
        sched = jump.solve(cap)
        assert sched is not None and check_schedule(day, sched) == []
        assert max(sched.tardiness.values()) <= cap
        with pytest.raises(SolveTimeout):
            chrono.solve(cap)


class _CutMidLeaf(_Search):
    """Times out at the first step past ``cut`` taken inside an order search."""

    cut = None
    in_leaf = False

    def _order_dfs(self, pairs):
        self.in_leaf = True
        try:
            return super()._order_dfs(pairs)
        finally:
            self.in_leaf = False

    def _tick(self):
        super()._tick()
        if self.cut is not None and self.in_leaf and self._ticks > self.cut:
            raise SolveTimeout("cut inside an order search")


@pytest.mark.parametrize("key,mode,cap", [(("shop", 3, 6, 0.0), "optimize", 4),
                                          (("shop", 3, 6, 0.0), "decide", 3),
                                          ("example", "optimize", 3)])
def test_memo_after_a_timeout_mid_leaf(key, mode, cap):
    inst = _instance(key)
    fresh = _Search(inst)
    want = _run(fresh, cap, mode == "optimize")
    for cut in (fresh._ticks // 3, 2 * fresh._ticks // 3):
        search = _CutMidLeaf(inst)
        search.cut = cut
        with pytest.raises(SolveTimeout):
            _run(search, cap, mode == "optimize")
        assert search.refuted  # leaves refuted before the cut
        search.cut = None
        got = _run(search, cap, mode == "optimize")
        assert search._ticks == fresh._ticks
        assert (got and _digest(got)) == (want and _digest(want))


def test_two_neighbourhood_steps_on_one_search_match_fresh_searches():
    day = generate(dataclasses.replace(GenParams(), jobs=(10, 10)), 3)
    cap = sum(day.duration(op) for j in day.jobs for op in j.operations)
    sched = _Search(day).solve(cap)
    incumbent = ({a.task: a.start for a in sched.assignments},
                 {a.task: dict(a.resources) for a in sched.assignments},
                 sched.total_tardiness)
    names = [j.name for j in day.jobs]
    shared = _Search(day)
    for free in (set(names[:3]), set(names[5:8])):
        fresh = _Search(day)
        for search in (shared, fresh):
            try:
                search.reoptimize(cap, incumbent, free)
            except _ProvenOptimal:
                pass
        assert shared.refuted
        assert (shared._ticks, shared.best_t, shared.best) == (fresh._ticks, fresh.best_t,
                                                               fresh.best)


class _RecordingSearch(_PlainSearch):
    """Records every refuted leaf's mask and stops past ``LIMIT`` of them."""

    LIMIT = MEMO_LEAVES + 100

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.masks = []

    def _covered(self, mask):
        self.mask = mask
        return False

    def _order_dfs(self, pairs):
        if len(self.masks) >= self.LIMIT:
            raise SolveTimeout("enough leaves")
        res = super()._order_dfs(pairs)
        if res is None:
            self.masks.append(self.mask)
        return res


def test_memo_keeps_the_latest_leaves_only():
    inst = generate(dataclasses.replace(SHOP, jobs=(4, 4)), 1)
    search = _RecordingSearch(inst)
    with pytest.raises(SolveTimeout):
        search.solve(2)
    assert len(search.masks) == _RecordingSearch.LIMIT
    assert list(search.refuted) == search.masks[-MEMO_LEAVES:]
