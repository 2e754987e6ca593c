import dataclasses
import random
import time

import pytest

from mpfjss import dl
from mpfjss.dl import AVAILABLE_BACKENDS
from mpfjss.model import parse_instance
from mpfjss.oracle import brute_force_min_cap, brute_force_optimal
from mpfjss.solver import (
    SolveTimeout,
    UnsolvableInstanceError,
    _Search,
    _same_job_pairs,
    conflict_pairs,
    decide,
    optimize,
    start_times_from_order,
)
from mpfjss.validate import check_schedule, total_tardiness

from conftest import _EveryInstance, interchangeable, random_tiny_instance
from test_cli import OUT_OF_RANGE
from test_model import _chain_text
from test_validator import ALLOC, STARTS_A


def test_example_unsat_at_zero(example_instance):
    assert decide(example_instance, 0) is None


def test_example_sat_at_one(example_instance):
    sched = decide(example_instance, 1)
    assert sched is not None
    assert check_schedule(example_instance, sched) == []
    assert max(sched.tardiness.values()) <= 1
    done = sched.completion()
    assert done["j3"] == 4  # four unit tasks in sequence cannot finish sooner


def test_forced_sequence_overruns_by_one():
    inst = parse_instance(
        "op(a,2). op(b,3). needs(a,w). needs(b,w).\n"
        "res(w,1,a). res(w,1,b).\n"
        "job(j,4). recipe(j,a). recipe(j,b). prec(j,a,b).\n"
    )
    assert decide(inst, 0) is None
    sched = decide(inst, 1)
    assert sched is not None
    assert sched.completion() == {"j": 5}


def test_optimize_example(example_instance):
    res = optimize(example_instance, 1)
    assert res.schedule is not None
    assert res.schedule.total_tardiness == 1
    assert res.proven_optimal
    assert check_schedule(example_instance, res.schedule) == []


def test_optimize_zero_is_instantly_proven():
    inst = parse_instance(
        "op(a,1). needs(a,w). res(w,1,a). res(w,2,a).\n"
        "job(j1,2). recipe(j1,a). job(j2,2). recipe(j2,a).\n"
    )
    res = optimize(inst, 3)
    assert res.schedule.total_tardiness == 0
    assert res.proven_optimal


def test_optimize_unsat_cap_is_proven_empty():
    inst = parse_instance(
        "op(a,2). needs(a,w). res(w,1,a). job(j,0). recipe(j,a)."
    )
    res = optimize(inst, 1)  # duration 2 cannot finish by 0 + 1
    assert res.schedule is None
    assert res.proven_optimal


def test_unsolvable_reported_distinctly():
    # o2 demands a machine but the only machine cannot execute it
    inst = parse_instance(
        "op(o1,1). op(o2,1). needs(o1,w). needs(o2,w). needs(o2,m).\n"
        "res(w,1,o1). res(w,1,o2). res(m,1,o1).\n"
        "job(j,5). recipe(j,o1). recipe(j,o2).\n"
    )
    with pytest.raises(UnsolvableInstanceError):
        decide(inst, 100)
    with pytest.raises(UnsolvableInstanceError):
        optimize(inst, 100)


def test_negative_cap_rejected(example_instance):
    with pytest.raises(ValueError):
        decide(example_instance, -1)


def test_unsat_found_by_search_not_precheck():
    # both chains fight for the single a-capable and b-capable workers;
    # one job inevitably completes at 3, one minute past its window, which
    # the two a-tasks forced onto worker 1 show before any search
    inst = parse_instance(
        "op(a,1). op(b,1). needs(a,w). needs(b,w).\n"
        "res(w,1,a). res(w,2,b).\n"
        "job(j1,1). recipe(j1,a). recipe(j1,b). prec(j1,a,b).\n"
        "job(j2,1). recipe(j2,a). recipe(j2,b). prec(j2,a,b).\n"
    )
    assert _Search(inst).cap_floor == 2
    assert decide(inst, 1) is None
    assert decide(inst, 2) is not None

    # three jobs end on two interchangeable workers, all released at 2 and
    # due at 3: one ends at 4, which no rule of the cap floor sees
    lines = ["op(x,2). op(a,1). needs(x,m). needs(a,w).",
             "res(m,1,x). res(m,2,x). res(m,3,x). res(w,1,a). res(w,2,a)."]
    for i in (1, 2, 3):
        lines.append(f"job(j{i},3). recipe(j{i},x). recipe(j{i},a). prec(j{i},x,a).")
    search = _Search(parse_instance("\n".join(lines)))
    assert search.cap_floor == 0
    assert search.solve(0) is None and search._ticks > 0
    assert search.solve(1) is not None


def test_cap_floor_never_passes_the_least_cap():
    """On tiny instances the cap floor is at most the oracle's least cap.

    The two-task rule raises the floor above the serial and class rules on
    some of them.
    """
    raised = 0
    for twin_workers in (False, True):
        rng = random.Random(5)
        for _ in range(60):
            inst = random_tiny_instance(rng, twin_workers=twin_workers)
            search = _Search(inst)
            assert search.cap_floor <= brute_force_min_cap(inst)
            raised += search.cap_floor > search._work_floor()
    assert raised > 0


def test_cap_floor_of_a_long_chain():
    # the chain's 2000 unit tasks, all on one worker, end no earlier than
    # 2000 with a deadline of 0; a second job's task forced onto that worker
    # pairs with each of them, so the build takes the tails along the whole
    # chain, without recursion; the worker's 2001 tasks end no earlier than 2001
    text = _chain_text(2000)
    assert _Search(parse_instance(text)).cap_floor == 2000
    assert _Search(parse_instance(text + "job(k,0). recipe(k,o1999).\n")).cap_floor == 2001


def test_times_out_of_range_raise_value_error():
    """``start_times_from_order`` makes the search's range check, not the kernel's."""
    inst = parse_instance(OUT_OF_RANGE["long-duration"])
    with pytest.raises(ValueError, match="above the limit"):
        decide(inst, 0)
    alloc = {("j", "a"): {"w": 1}, ("j", "b"): {"w": 1}}
    with pytest.raises(ValueError, match="above the limit"):
        start_times_from_order(inst, alloc, [])


def test_timeout_raises():
    lines = ["op(a,1). op(b,1). op(c,1).", "needs(a,w). needs(b,w). needs(c,w).",
             "res(w,1,a). res(w,1,b). res(w,1,c)."]
    for i in range(1, 9):
        lines.append(f"job(j{i},100). recipe(j{i},a). recipe(j{i},b). recipe(j{i},c).")
        lines.append(f"prec(j{i},a,b). prec(j{i},b,c).")
    inst = parse_instance("\n".join(lines))
    with pytest.raises(SolveTimeout):
        decide(inst, 0, deadline=time.monotonic() - 1.0)


def test_timeout_in_optimize_returns_unproven(example_instance):
    res = optimize(example_instance, 9, deadline=time.monotonic() - 1.0)
    assert not res.proven_optimal


def test_conflict_pairs_example(example_instance):
    pairs = conflict_pairs(example_instance, ALLOC)
    # job 2 may run its two operations in either order
    assert (("j2", "o3"), ("j2", "o4")) in pairs
    # a precedence-ordered pair is never a conflict pair
    assert (("j1", "o1"), ("j1", "o2")) not in pairs
    assert (("j1", "o1"), ("j1", "o4")) not in pairs
    # w1 is shared by job 1 and job 3 under this allocation
    assert (("j1", "o1"), ("j3", "o1")) in pairs
    # disjoint instances, no pair
    assert (("j1", "o1"), ("j2", "o4")) not in pairs
    for a, b in pairs:
        assert a < b


def test_conflict_pairs_disjoint_jobs():
    inst = parse_instance(
        "op(a,1). needs(a,w). res(w,1,a). res(w,2,a).\n"
        "job(j1,2). recipe(j1,a). job(j2,2). recipe(j2,a).\n"
    )
    pairs = conflict_pairs(inst, {("j1", "a"): {"w": 1}, ("j2", "a"): {"w": 2}})
    assert pairs == set()
    shared = conflict_pairs(inst, {("j1", "a"): {"w": 1}, ("j2", "a"): {"w": 1}})
    assert shared == {(("j1", "a"), ("j2", "a"))}


def _closure_pairs(inst):
    """Same-job pairs outside the transitive closure of precedence, pair by pair."""
    out = []
    for j in inst.jobs:
        succ = {}
        for a, b in j.precedence:
            succ.setdefault(a, set()).add(b)
        rel = set()
        for a in succ:
            todo = list(succ[a])
            while todo:
                b = todo.pop()
                if (a, b) not in rel:
                    rel.add((a, b))
                    todo.extend(succ.get(b, ()))
        ops = sorted(j.operations)
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if (a, b) not in rel and (b, a) not in rel:
                    out.append(((j.name, a), (j.name, b)))
    return sorted(out)


def _random_partial_orders(rng):
    """Up to three jobs over up to 14 operations, each ordered by a random DAG."""
    ops = [f"o{i}" for i in range(14)]
    lines = [f"op({o},1). needs({o},w). res(w,1,{o})." for o in ops]
    density = rng.choice((0.0, 0.1, 0.3, 0.6))
    for nj in range(1, rng.randint(1, 3) + 1):
        # a random topological order, unrelated to the name order
        order = rng.sample(ops, rng.randint(1, len(ops)))
        lines.append(f"job(j{nj},5).")
        lines += [f"recipe(j{nj},{o})." for o in order]
        for i, a in enumerate(order):
            for b in order[i + 1:]:
                if rng.random() < density:
                    lines.append(f"prec(j{nj},{a},{b}).")
    return "\n".join(lines)


def test_same_job_pairs_match_the_closure_definition():
    rng = random.Random(11)
    for _ in range(200):
        inst = parse_instance(_random_partial_orders(rng))
        assert _same_job_pairs(inst) == _closure_pairs(inst)


def test_same_job_pairs_of_a_long_chain():
    inst = parse_instance(_chain_text(2000))
    assert _same_job_pairs(inst) == []
    job = inst.jobs[0]
    cyclic = dataclasses.replace(job, precedence=job.precedence | {("o1999", "o0")})
    with pytest.raises(ValueError):
        _same_job_pairs(dataclasses.replace(inst, jobs=(cyclic,)))


def test_start_times_chain():
    inst = parse_instance(
        "op(a,1). op(b,1). needs(a,w). needs(b,w). res(w,1,a). res(w,1,b).\n"
        "job(j,5). recipe(j,a). recipe(j,b).\n"
    )
    alloc = {("j", "a"): {"w": 1}, ("j", "b"): {"w": 1}}
    sched = start_times_from_order(inst, alloc, [(("j", "a"), ("j", "b"))])
    assert sched.start_of(("j", "a")) == 0
    assert sched.start_of(("j", "b")) == 1

    looped = start_times_from_order(
        inst, alloc, [(("j", "a"), ("j", "b")), (("j", "b"), ("j", "a"))]
    )
    assert looped is None


def test_start_times_reproduce_published_solution(example_instance):
    directed = []
    for a, b in conflict_pairs(example_instance, ALLOC):
        if STARTS_A[a] > STARTS_A[b]:
            a, b = b, a
        directed.append((a, b))
    sched = start_times_from_order(example_instance, ALLOC, directed)
    assert sched is not None
    assert check_schedule(example_instance, sched) == []
    assert sched.completion() == {"j1": 3, "j2": 2, "j3": 4}
    assert sched.total_tardiness == 1


def test_decide_threshold_matches_oracle(tiny_factory):
    rng = random.Random(808)
    for _ in range(12):
        inst = tiny_factory(rng)
        threshold = brute_force_min_cap(inst)
        for cap in range(0, threshold + 3):
            sched = decide(inst, cap)
            if cap < threshold:
                assert sched is None
            else:
                assert sched is not None
                assert check_schedule(inst, sched) == []
                assert max(sched.tardiness.values(), default=0) <= cap


def test_optimize_matches_oracle(tiny_factory):
    rng = random.Random(909)
    for _ in range(15):
        inst = tiny_factory(rng)
        serial = sum(inst.duration(o) for j in inst.jobs for o in j.operations)
        want, _ = brute_force_optimal(inst)
        res = optimize(inst, serial)
        assert res.proven_optimal
        assert res.schedule is not None
        assert res.schedule.total_tardiness == want
        assert check_schedule(inst, res.schedule) == []
        assert total_tardiness(inst, res.schedule) == want


def test_optimize_nonincreasing_in_cap(tiny_factory):
    rng = random.Random(321)
    for _ in range(8):
        inst = tiny_factory(rng)
        cap = brute_force_min_cap(inst)
        t_small = optimize(inst, cap).schedule.total_tardiness
        t_large = optimize(inst, cap + 2).schedule.total_tardiness
        assert t_large <= t_small


def test_symmetry_breaking_changes_nothing(tiny_factory):
    rng = random.Random(246)
    groups = 0
    for _ in range(10):
        inst = tiny_factory(rng, twin_workers=True)
        groups += interchangeable(inst)
        unbroken = _EveryInstance(inst)
        for cap in (0, 1, 3):
            a = decide(inst, cap)
            b = decide(inst, cap, search=unbroken)
            assert (a is None) == (b is None)
        cap = brute_force_min_cap(inst) + 1
        ta = optimize(inst, cap).schedule.total_tardiness
        tb = optimize(inst, cap, search=unbroken).schedule.total_tardiness
        assert ta == tb
    assert groups >= 0.4 * 10  # the group rule has groups to act on


def test_solver_backends_agree(monkeypatch, example_instance):
    scheds, results = [], []
    for backend in AVAILABLE_BACKENDS:
        monkeypatch.setattr(dl, "default_backend", lambda: backend)
        scheds.append(decide(example_instance, 1))
        results.append(optimize(example_instance, 3))
    assert all(s == scheds[0] for s in scheds)
    assert all(r == results[0] for r in results)
