"""The search's trajectory, pinned, and the invariants its shortcuts rely on.

Exhaustive ``decide`` and ``optimize`` runs (no deadline) must take exactly
the recorded number of search steps and return exactly the recorded
schedule.  The pins were taken from the solver that read every earliest
start through the validating ``DLEngine`` facade, one fresh search per
call; a faster search that visits the same nodes in the same order keeps
them, and so does one search reused for every cap on an instance.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from mpfjss import GenParams, generate, load_instance
from mpfjss.dl import AVAILABLE_BACKENDS
from mpfjss.schedule import build_schedule, schedule_to_json
from mpfjss.solver import SolveTimeout, _ProvenOptimal, _Search, conflict_pairs, decide

from conftest import DATA, random_tiny_instance

# the 3-job shop of acceptance criterion 8, at other job counts
SHOP = GenParams(op_types=6, machines=4, workers=5, ops_per_job=(2, 4),
                 durations=(2, 6), shift=40)

# (instance, mode, cap, search steps, total tardiness, schedule digest);
# an instance is "example" or (generator, jobs, seed, partial_order)
PINNED = [
    ("example", "decide", 0, 0, None, None),
    ("example", "decide", 1, 145, 1, "c11bb8a35b520c9b"),
    ("example", "optimize", 1, 2554, 1, "c11bb8a35b520c9b"),
    ("example", "optimize", 3, 3605, 1, "c11bb8a35b520c9b"),
    (("shop", 3, 6, 0.0), "decide", 3, 4629, None, None),
    (("shop", 3, 6, 0.0), "decide", 4, 1444, 6, "09c9453ba71f6438"),
    (("shop", 3, 6, 0.0), "optimize", 4, 7240, 6, "09c9453ba71f6438"),
    (("shop", 3, 5, 0.0), "optimize", 6, 2878, 14, "84455d75f04c0725"),
    (("day", 3, 2, 0.0), "decide", 52, 31, 52, "e55e3749abe578af"),
    (("day", 3, 2, 0.0), "optimize", 52, 31, 52, "e55e3749abe578af"),
    (("shop", 5, 8, 0.5), "decide", 6, 2600, 12, "430a7411b012e420"),
    (("shop", 5, 4, 0.5), "optimize", 28, 319, 8, "25f9a1428eca09d7"),
    (("day", 5, 3, 0.5), "decide", 25, 41, 25, "d7a4e2135e40e51a"),
    (("day", 5, 3, 0.5), "optimize", 25, 41, 25, "d7a4e2135e40e51a"),
    (("shop", 10, 2, 0.0), "decide", 1, 1196, 2, "0e501a7a6d112d25"),
    (("shop", 10, 2, 0.0), "optimize", 1, 1197, 1, "5f2a96a708c922b5"),
    (("shop", 10, 3, 0.5), "decide", 5, 155, 13, "4eab8513cb55fd44"),
    (("shop", 10, 3, 0.5), "optimize", 5, 2325, 5, "14cf9e76dae2bd4e"),
    (("day", 10, 2, 0.5), "decide", 40, 116, 111, "85f55a707007abc7"),
    (("day", 10, 4, 0.0), "optimize", 63, 79, 66, "6a30113a3a8e1dd7"),
]


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


def _check_pin(search, sched, steps, total, digest):
    assert search._ticks == steps
    if total is None:
        assert sched is None
    else:
        assert (sched.total_tardiness, _digest(sched)) == (total, digest)


@pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
@pytest.mark.parametrize("key,mode,cap,steps,total,digest", PINNED)
def test_search_trajectory_is_pinned(backend, key, mode, cap, steps, total, digest):
    search = _Search(_instance(key), backend=backend)
    sched = _run(search, cap, mode == "optimize")
    _check_pin(search, sched, steps, total, digest)


@pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
@pytest.mark.parametrize("key", list(dict.fromkeys(row[0] for row in PINNED)),
                         ids=lambda k: k if isinstance(k, str) else "-".join(map(str, k)))
def test_one_search_replays_every_pin(backend, key):
    """Every pinned cap of an instance, forward then backward, on one search."""
    rows = [row[1:] for row in PINNED if row[0] == key]
    search = _Search(_instance(key), backend=backend)
    for mode, cap, steps, total, digest in rows + rows[::-1]:
        sched = _run(search, cap, mode == "optimize")
        _check_pin(search, sched, steps, total, digest)
        assert search.kern.level() == search.base_level


def test_search_is_reusable_after_abnormal_exit():
    key = ("shop", 10, 2, 0.0)
    inst = _instance(key)
    search = _Search(inst)
    # a passed deadline strikes at the first clock read, 256 steps in
    with pytest.raises(SolveTimeout):
        search.solve(1, optimizing=True, deadline=0.0)
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

    It gives up after a fixed number of steps, so that large random
    instances stay cheap and the test does the same work on every run.
    """

    STEPS = 3000
    nodes = leaves = 0

    def _tick(self):
        super()._tick()
        if self._ticks > self.STEPS:
            raise SolveTimeout("step budget spent")

    def _full_lb(self):
        done = {}
        for t in self.all_tasks:
            end = self.eng.lower_bound(self.var[t]) + self.dur[t]
            done[t[0]] = max(done.get(t[0], 0), end)
        return sum(max(0, end - self.due[j]) for j, end in done.items())

    def _order_dfs(self, pairs):
        assert set(pairs) == conflict_pairs(self.inst, self.alloc)
        self.leaves += 1
        return super()._order_dfs(pairs)

    def _pick_pair(self, remaining):
        assert self._lb() == self._full_lb()
        self.nodes += 1
        return super()._pick_pair(remaining)

    def _promising(self):
        assert self._lb() == self._full_lb()
        self.nodes += 1
        return super()._promising()


def _random_instances():
    rng = random.Random(2024)
    for _ in range(12):
        yield random_tiny_instance(rng)
    for _ in range(6):
        params = dataclasses.replace(SHOP, jobs=(2, 4), partial_order=rng.choice((0.0, 0.5)))
        yield generate(params, rng.randint(1, 10_000))


def test_search_shortcuts_match_facade_recomputation():
    nodes = leaves = 0
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
    assert nodes > 10_000 and leaves > 200
