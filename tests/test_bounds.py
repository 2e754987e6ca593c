import json
import math
import random

import pytest

from mpfjss.bounds import (
    BoundResult,
    SolveReport,
    StrategyConfig,
    exponential_bound,
    incremental_bound,
    report_to_json,
    single_shot_bound,
    solve_with_strategy,
)
from mpfjss.model import parse_instance
from mpfjss.oracle import brute_force_min_cap
from mpfjss.schedule import schedule_from_json
from mpfjss.solver import UnsolvableInstanceError, decide
from mpfjss.validate import check_schedule

RELAXED = parse_instance(
    "op(a,1). needs(a,w). res(w,1,a). job(j,5). recipe(j,a)."
)

# one ten-minute operation due at 3: minimal cap is its tardiness, 7
OVERDUE = parse_instance(
    "op(a,10). needs(a,w). res(w,1,a). job(j,3). recipe(j,a)."
)


def probe_pairs(result):
    return [(p.bound, p.sat) for p in result.probes]


def test_single_shot_bound(example_instance):
    assert single_shot_bound(example_instance) == 9


def test_single_shot_bound_trivia():
    assert single_shot_bound(parse_instance("")) == 0
    inst = parse_instance(
        "op(a,480). needs(a,w). res(w,1,a). job(j,480). recipe(j,a)."
    )
    assert single_shot_bound(inst) == 480


def test_exponential_on_example(example_instance):
    res = exponential_bound(example_instance)
    assert res.cap == 1
    assert probe_pairs(res) == [(0, False), (1, True)]
    assert res.witness is not None
    assert check_schedule(example_instance, res.witness) == []


def test_exponential_ladder_then_halving():
    # in the last two cases the ladder passes the sum of durations, which
    # clips its last rung
    cases = [
        (OVERDUE, 7, [
            (0, False), (1, False), (2, False), (4, False),
            (8, True), (6, False), (7, True),
        ]),
        (parse_instance(
            "op(a,10). needs(a,w). res(w,1,a). job(j,0). recipe(j,a)."
        ), 10, [
            (0, False), (1, False), (2, False), (4, False), (8, False),
            (10, True), (9, False),
        ]),
        (parse_instance(
            "op(a,5). op(b,6). needs(a,w). needs(b,w). res(w,1,a). res(w,1,b)."
            " job(j,0). recipe(j,a). recipe(j,b). prec(j,a,b)."
        ), 11, [
            (0, False), (1, False), (2, False), (4, False), (8, False),
            (11, True), (9, False), (10, False),
        ]),
    ]
    for inst, cap, pairs in cases:
        res = exponential_bound(inst)
        assert res.cap == cap
        assert probe_pairs(res) == pairs


def test_exponential_zero_feasible():
    res = exponential_bound(RELAXED)
    assert res.cap == 0
    assert probe_pairs(res) == [(0, True)]


def test_incremental_on_example(example_instance):
    by_window = {
        1: [(0, False), (1, True)],
        2: [(0, False), (2, True)],
        20: [(0, False), (20, True)],
    }
    for window, expected in by_window.items():
        res = incremental_bound(example_instance, window)
        assert res.cap == expected[-1][0]
        assert probe_pairs(res) == expected


def test_incremental_zero_feasible():
    res = incremental_bound(RELAXED, 20)
    assert res.cap == 0
    assert probe_pairs(res) == [(0, True)]


def test_incremental_rejects_bad_window(example_instance):
    with pytest.raises(ValueError):
        incremental_bound(example_instance, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(strategy="both")
    with pytest.raises(ValueError):
        StrategyConfig(window=0)
    with pytest.raises(ValueError):
        StrategyConfig(timeout=0.0)


def test_exponential_minimality_random(tiny_factory):
    rng = random.Random(515)
    for _ in range(12):
        inst = tiny_factory(rng)
        res = exponential_bound(inst)
        assert res.cap == brute_force_min_cap(inst)
        assert decide(inst, res.cap) is not None
        if res.cap > 0:
            assert decide(inst, res.cap - 1) is None
            bounds = [p.bound for p in res.probes]
            assert res.cap - 1 in bounds or 0 == res.cap - 1


def test_incremental_bracket_random(tiny_factory):
    rng = random.Random(616)
    for _ in range(10):
        inst = tiny_factory(rng)
        window = rng.randint(1, 4)
        inc = incremental_bound(inst, window)
        exact = brute_force_min_cap(inst)
        want = 0 if exact == 0 else window * math.ceil(exact / window)
        assert inc.cap == want


def test_solve_report_example(example_instance):
    for cfg in (
        StrategyConfig(strategy="exp"),
        StrategyConfig(strategy="single"),
        StrategyConfig(strategy="inc", window=2),
        StrategyConfig(strategy="inc", window=20),
    ):
        report = solve_with_strategy(example_instance, cfg)
        assert report.total_tardiness == 1
        assert report.proven_optimal
        assert report.verdict() == "optimal"
        assert check_schedule(example_instance, report.schedule) == []
    assert solve_with_strategy(
        example_instance, StrategyConfig(strategy="inc", window=2)
    ).bound.cap == 2
    assert solve_with_strategy(
        example_instance, StrategyConfig(strategy="single")
    ).bound.cap == 9


def test_timeout_reports_bound_not_found():
    lines = ["op(a,1). op(b,1). needs(a,w). needs(b,w).",
             "res(w,1,a). res(w,1,b)."]
    for i in range(1, 9):
        lines.append(f"job(j{i},100). recipe(j{i},a). recipe(j{i},b).")
    inst = parse_instance("\n".join(lines))
    report = solve_with_strategy(inst, StrategyConfig(timeout=1e-9))
    assert report.bound.cap is None
    assert report.schedule is None
    assert report.total_tardiness is None
    assert report.verdict() == "bound-not-found"


def test_verdict_mapping():
    found = BoundResult("exp", 3, (), 0.1)
    lost = BoundResult("exp", None, (), 0.1)
    assert SolveReport(lost, None, None, False).verdict() == "bound-not-found"
    assert SolveReport(found, None, None, False).verdict() == "timeout"


def test_unsolvable_propagates():
    inst = parse_instance(
        "op(a,1). needs(a,w). needs(a,m). res(w,1,a).\n"
        "job(j,5). recipe(j,a).\n"
    )
    with pytest.raises(UnsolvableInstanceError):
        solve_with_strategy(inst, StrategyConfig())


def test_report_json(example_instance):
    report = solve_with_strategy(example_instance, StrategyConfig(strategy="exp"))
    data = report_to_json(report)
    assert set(data) == {
        "strategy", "cap", "probes", "search_seconds", "opt_seconds",
        "total_tardiness", "proven_optimal", "verdict", "schedule",
    }
    assert data["strategy"] == "exp"
    assert data["cap"] == 1
    assert [p["verdict"] for p in data["probes"]] == ["UNSAT", "SAT"]
    assert all(p["seconds"] >= 0 for p in data["probes"])
    json.dumps(data)  # must be plain-serializable
    rebuilt = schedule_from_json(data["schedule"])
    assert check_schedule(example_instance, rebuilt) == []


def test_reports_are_reproducible(example_instance):
    runs = [
        solve_with_strategy(example_instance, StrategyConfig(strategy="exp"))
        for _ in range(2)
    ]
    assert runs[0].bound.cap == runs[1].bound.cap
    assert runs[0].total_tardiness == runs[1].total_tardiness
    assert runs[0].schedule == runs[1].schedule
    assert probe_pairs(runs[0].bound) == probe_pairs(runs[1].bound)
