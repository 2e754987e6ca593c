"""The anytime neighbourhood search inside ``optimize``, and its hand-over.

A neighbourhood step re-solves the tasks of a few jobs around the incumbent
on a second search; the exact search keeps running, so these tests check
that a step keeps what it should keep, finds what an exhaustive search of
its neighbourhood finds, and hands over only valid, capped, reproducible
schedules.
"""

import dataclasses
import random

from mpfjss import (
    GenParams,
    StrategyConfig,
    check_schedule,
    decide,
    generate,
    optimize,
    parse_instance,
    serialize_instance,
    solve_with_strategy,
)
from mpfjss import solver
from mpfjss.oracle import brute_force_optimal
from mpfjss.schedule import build_schedule
from mpfjss.solver import SolveTimeout, _ProvenOptimal, _Search

from conftest import _EveryInstance, _LoadOrder, random_tiny_instance


def _incumbent(sched):
    """``(starts, alloc, total)`` of a schedule, as the search holds one."""
    return ({a.task: a.start for a in sched.assignments},
            {a.task: dict(a.resources) for a in sched.assignments},
            sched.total_tardiness)


def _serial(inst):
    return sum(inst.duration(o) for j in inst.jobs for o in j.operations)


def _reoptimize(search, cap, incumbent, free):
    try:
        search.reoptimize(cap, incumbent, free)
    except _ProvenOptimal:
        pass
    return search.best, search.best_t


def test_neighbourhood_without_free_jobs_keeps_the_incumbent():
    rng = random.Random(5)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        cap = _serial(inst)
        start = _incumbent(decide(inst, cap))
        search = _Search(inst)
        best, best_t = _reoptimize(search, cap, start, set())
        assert best_t == start[2]
        assert best == start[:2]
        assert search.kern.level() == search.base_level
        assert (search.keep, search.kept_order, search.step_limit) == ({}, {}, None)
        assert search.class_groups == search._build_groups()


def test_neighbourhood_of_every_job_reaches_the_oracle_optimum(monkeypatch):
    monkeypatch.setattr(solver, "NEIGHBOURHOOD_STEPS", None)
    rng = random.Random(909)
    improved = 0
    for _ in range(15):
        inst = random_tiny_instance(rng)
        cap = _serial(inst)
        want, _ = brute_force_optimal(inst)
        start = _incumbent(decide(inst, cap))
        search = _Search(inst)
        best, best_t = _reoptimize(search, cap, start, {j.name for j in inst.jobs})
        assert best_t == want
        sched = build_schedule(inst, *best)
        assert check_schedule(inst, sched) == []
        assert sched.total_tardiness == want
        assert search.kern.level() == search.base_level
        improved += want < start[2]
    assert improved > 0


class _MostLoadedFirst(_EveryInstance):
    """Tries the busiest instance first, unlike any allocation the solver makes."""

    def _candidates(self, slot):
        return super()._candidates(slot)[::-1]


def test_neighbourhood_keeps_the_other_jobs_in_place():
    day = generate(dataclasses.replace(GenParams(), jobs=(20, 20)), 3)
    cap = _serial(day)
    start = _incumbent(_MostLoadedFirst(day).solve(cap))
    starts, alloc, total = start
    search = _Search(day)
    names = [j.name for j in day.jobs]
    found = 0
    for free in (set(names[:3]), set(names[4:7]), set(names[-3:])):
        best, best_t = _reoptimize(search, cap, start, free)
        assert best_t <= total
        if best_t == total:
            continue
        found += 1
        new_starts, new_alloc = best
        assert check_schedule(day, build_schedule(day, *best)) == []
        kept = {t for t in starts if t[0] not in free}
        assert all(new_alloc[t] == alloc[t] for t in kept)
        for a, b in solver.conflict_pairs(day, alloc):
            if a in kept and b in kept:
                assert (starts[a] < starts[b]) == (new_starts[a] < new_starts[b])
    assert found > 0


class _Crowding(_EveryInstance):
    """Puts each task on the busiest capable instance, the lowest of equals."""

    def _candidates(self, slot):
        load, cls = self.load, slot[1]
        return sorted(super()._candidates(slot), key=lambda i: (-load[(cls, i)], i))


def _with_twins(inst):
    """``inst`` with workers 3 and 4, able to do what workers 1 and 2 can."""
    text = serialize_instance(inst)
    twins = [line.replace("res(w,1,", "res(w,3,").replace("res(w,2,", "res(w,4,")
             for line in text.splitlines() if line.startswith(("res(w,1,", "res(w,2,"))]
    return parse_instance("\n".join([text, *twins]))


def test_neighbourhood_breaks_symmetry_only_among_free_instances(monkeypatch):
    """Exhaustive steps reach the reference's best total, in no more steps.

    Every worker has a twin, and the incumbent crowds the tasks onto the
    lowest instances, so a step often does best to move a free task to the
    idle twin of an instance a kept task uses.  That instance is
    interchangeable with no other; the rest of its group still are, so a
    step with kept tasks skips allocations the reference tries.
    """
    monkeypatch.setattr(solver, "NEIGHBOURHOOD_STEPS", None)
    rng = random.Random(31)
    fewer = 0
    for _ in range(60):
        inst = _with_twins(random_tiny_instance(rng))
        cap = _serial(inst)
        start = _incumbent(_Crowding(inst).solve(cap))
        names = [j.name for j in inst.jobs]
        free = set(rng.sample(names, rng.randint(0, len(names))))
        search, reference = _Search(inst), _EveryInstance(inst)
        _, best_t = _reoptimize(search, cap, start, free)
        _, want = _reoptimize(reference, cap, start, free)
        assert best_t == want
        assert search._ticks <= reference._ticks
        fewer += 0 < len(free) < len(names) and search._ticks < reference._ticks
    assert fewer > 0


class _StepCapped(_Search):
    """Gives up after a fixed number of steps and records every hand-over."""

    STEPS = 4096

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handed = []

    def _tick(self):
        super()._tick()
        if self._ticks > self.STEPS:
            raise SolveTimeout("step budget spent")

    def _neighbourhood_step(self):
        before = self.best_t
        try:
            super()._neighbourhood_step()
        finally:
            if self.best_t != before:
                self.handed.append(build_schedule(self.inst, *self.best))


class _LoadStepCapped(_LoadOrder, _StepCapped):
    """``_StepCapped`` trying instances least loaded first."""


def _capped_optimize(day, cap, seed, cls=_StepCapped):
    """``optimize`` on a step-capped search: its final schedule and hand-overs."""
    search = cls(day)
    res = optimize(day, cap, search=search, seed=seed)
    return res.schedule, search.handed


def test_stalled_day_improves_under_a_step_budget():
    """The seed-42 day at cap 82, where the least-loaded-first order stalls.

    The shipped order proves the root lower bound within the step budget,
    so no neighbourhood step is needed there; the load order's exact search
    alone stays at 213, and only hand-overs improve on it.
    """
    day = generate(dataclasses.replace(GenParams(), jobs=(30, 30)), 42)
    search = _StepCapped(day)
    res = optimize(day, 82, search=search)
    assert res.proven_optimal and not search.handed
    assert res.schedule.total_tardiness == 139 == search.root_lb
    final, handed = _capped_optimize(day, 82, None, _LoadStepCapped)
    assert final.total_tardiness < 213
    assert handed and handed[-1] == final
    for sched in handed:
        assert check_schedule(day, sched) == []
        assert max(sched.tardiness.values()) <= 82
    assert _capped_optimize(day, 82, None, _LoadStepCapped) == (final, handed)


def test_optimize_returns_the_witness_itself(example_instance):
    # the witness is optimal, but only the exhausted search proves it
    report = solve_with_strategy(example_instance, StrategyConfig(strategy="exp"))
    assert report.verdict() == "optimal"
    assert report.total_tardiness > _Search(example_instance).root_lb
    assert report.schedule is report.bound.witness

    inst = parse_instance(
        "op(a,2). op(b,3). needs(a,w). needs(b,w).\n"
        "res(w,1,a). res(w,1,b).\n"
        "job(j,4). recipe(j,a). recipe(j,b). prec(j,a,b).\n"
    )
    report = solve_with_strategy(inst, StrategyConfig(strategy="exp"))
    assert report.verdict() == "optimal"
    assert report.schedule is report.bound.witness

    class _Unsearched(_Search):
        def solve(self, *args, **kwargs):
            raise AssertionError("a witness at the root lower bound needs no search")

    # the serial chain overruns its deadline by exactly the root lower bound
    res = optimize(inst, 1, search=_Unsearched(inst), incumbent=report.schedule)
    assert res.schedule is report.schedule and res.proven_optimal


def test_final_optimize_reuses_the_probes_search(monkeypatch, example_instance):
    built = []
    init = _Search.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Search, "__init__", counted)
    for strategy in ("exp", "inc", "single"):
        built.clear()
        report = solve_with_strategy(example_instance, StrategyConfig(strategy=strategy))
        assert report.verdict() == "optimal"
        assert built == [example_instance]
    built.clear()
    report = solve_with_strategy(example_instance, StrategyConfig(timeout=1e-9))
    assert report.verdict() == "bound-not-found"
    assert built == []


def test_no_seed_means_the_default_seed():
    day = generate(dataclasses.replace(GenParams(), jobs=(30, 30)), 1)
    default = _capped_optimize(day, 120, None)
    assert default[1]
    assert _capped_optimize(day, 120, None) == default
    assert _capped_optimize(day, 120, solver.DEFAULT_SEED) == default
