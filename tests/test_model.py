import dataclasses
import random

import pytest

from mpfjss.model import (
    Instance,
    Job,
    Operation,
    ParseError,
    Resource,
    SemanticError,
    instance_from_json,
    instance_to_json,
    loads_instance,
    parse_instance,
    save_instance,
    serialize_instance,
    tasks,
    validate_instance,
)


def test_example_shape(example_instance):
    inst = example_instance
    assert len(inst.operations) == 5
    assert len(inst.resources) == 7
    assert len(inst.jobs) == 3
    assert all(o.duration == 1 for o in inst.operations)
    assert inst.demanded("o1") == frozenset({"w"})
    assert inst.demanded("o4") == frozenset({"w", "m"})
    assert inst.resource_map[("w", 1)].capabilities == frozenset({"o1", "o2"})
    assert inst.capable("m", "o4") == (2, 3)
    assert inst.capable("w", "o3") == (3,)
    assert inst.capable("m", "o1") == ()
    assert inst.job_map["j1"].precedence == frozenset({("o1", "o2"), ("o1", "o4")})
    assert inst.job_map["j2"].precedence == frozenset()
    assert all(j.deadline == 3 for j in inst.jobs)


def test_example_tasks(example_instance):
    got = tasks(example_instance)
    assert len(got) == 9
    assert got == sorted(got)
    assert got[:3] == [("j1", "o1"), ("j1", "o2"), ("j1", "o4")]
    assert ("j3", "o5") in got


def test_empty_text():
    inst = parse_instance("")
    assert inst.operations == ()
    assert inst.resources == ()
    assert inst.demands == {}
    assert inst.jobs == ()
    assert tasks(inst) == []


def test_single_op_job():
    inst = parse_instance("op(a,2). needs(a,w). res(w,1,a). job(j,5). recipe(j,a).")
    assert tasks(inst) == [("j", "a")]
    assert inst.duration("a") == 2


def test_comments_and_fact_packing():
    text = "% header\nop(a,1). op(b,2). % two in one line\n\nop(c,3).% tail comment\n"
    inst = parse_instance(text)
    assert [o.name for o in inst.operations] == ["a", "b", "c"]


def test_duplicate_facts_deduplicate():
    inst = parse_instance("op(a,1).\nop(a,1).\njob(j,2).\njob(j,2).\nrecipe(j,a).\nrecipe(j,a).\nneeds(a,w).\nres(w,1,a).")
    assert len(inst.operations) == 1
    assert len(inst.jobs) == 1
    assert inst.jobs[0].operations == frozenset({"a"})


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("op(a,1). junk", "unparsable"),
        ("nonsense(a,1).", "unknown predicate"),
        ("op(a).", "takes 2 arguments"),
        ("op(a,1,2).", "takes 2 arguments"),
        ("op(A,1).", "invalid operation id"),
        ("op(a,x).", "invalid duration"),
        ("res(w,one,a).", "invalid resource index"),
        ("op(a,1)", "unparsable"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert fragment in str(exc.value)


def test_parse_error_location():
    with pytest.raises(ParseError) as exc:
        parse_instance("op(a,1).\nop(b,1).\nwat(c,1).\n")
    assert exc.value.line == 3
    assert exc.value.column == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("op(a,1). op(a,2).", "redeclared with duration"),
        ("job(j,1). job(j,2).", "redeclared with deadline"),
        ("needs(a,w).", "undeclared operation"),
        ("res(w,1,a).", "undeclared operation"),
        ("op(a,1). recipe(j,a).", "undeclared job"),
        ("job(j,1). recipe(j,a).", "undeclared operation"),
        ("op(a,1). op(b,1). job(j,1). recipe(j,a). prec(j,a,b).", "outside job"),
        ("op(a,1). job(j,1). recipe(j,a). prec(j,a,a).", "cyclic precedence"),
    ],
)
def test_semantic_errors(text, fragment):
    with pytest.raises(SemanticError) as exc:
        parse_instance(text)
    assert fragment in str(exc.value)


def test_two_fact_precedence_cycle():
    text = (
        "op(o1,1). op(o2,1). needs(o1,w). needs(o2,w). res(w,1,o1). res(w,1,o2).\n"
        "job(j1,3). recipe(j1,o1). recipe(j1,o2).\n"
        "prec(j1,o2,o1). prec(j1,o1,o2).\n"
    )
    with pytest.raises(SemanticError) as exc:
        parse_instance(text)
    assert "cyclic precedence in job j1" in str(exc.value)


def _chain_text(n: int) -> str:
    ops = [f"o{i}" for i in range(n)]
    facts = ["job(j,0)."]
    for o in ops:
        facts += [f"op({o},1).", f"needs({o},w).", f"res(w,1,{o}).", f"recipe(j,{o})."]
    facts += [f"prec(j,{a},{b})." for a, b in zip(ops, ops[1:])]
    return "\n".join(facts) + "\n"


def test_long_precedence_chain_loads():
    # a chain far deeper than the interpreter's recursion limit
    n = 2000
    text = _chain_text(n)
    inst = parse_instance(text)
    assert len(inst.jobs[0].precedence) == n - 1
    assert validate_instance(inst) == []
    import json

    assert loads_instance(json.dumps(instance_to_json(inst))) == inst

    closed = text + f"prec(j,o{n - 1},o0).\n"
    with pytest.raises(SemanticError) as exc:
        parse_instance(closed)
    assert "cyclic precedence in job j" in str(exc.value)
    obj = instance_to_json(inst)
    obj["jobs"][0]["precedence"].append([f"o{n - 1}", "o0"])
    with pytest.raises(SemanticError):
        instance_from_json(obj)
    job = dataclasses.replace(inst.jobs[0], precedence=inst.jobs[0].precedence | {(f"o{n - 1}", "o0")})
    rules = {v.rule for v in validate_instance(dataclasses.replace(inst, jobs=(job,)))}
    assert rules == {"precedence-cycle"}


def test_fact_round_trip(example_instance):
    text = serialize_instance(example_instance)
    assert parse_instance(text) == example_instance
    # canonical text is a fixpoint
    assert serialize_instance(parse_instance(text)) == text


def test_json_round_trip(example_instance):
    obj = instance_to_json(example_instance)
    assert instance_from_json(obj) == example_instance
    import json

    assert loads_instance(json.dumps(obj)) == example_instance


def test_loads_sniffs_format(example_instance):
    assert loads_instance(serialize_instance(example_instance)) == example_instance
    with pytest.raises(ParseError):
        loads_instance("{not json")


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        {"operations": [], "resources": [], "demands": []},
        {"operations": [{"id": "a"}], "resources": [], "demands": [], "jobs": []},
    ],
)
def test_bad_json_objects(obj):
    with pytest.raises(SemanticError):
        instance_from_json(obj)


def test_save_load_both_suffixes(example_instance, tmp_path):
    from mpfjss.model import load_instance

    for name in ("inst.lp", "inst.json"):
        path = tmp_path / name
        save_instance(example_instance, path)
        assert load_instance(path) == example_instance


def test_validate_example_clean(example_instance):
    assert validate_instance(example_instance) == []


def test_validate_uncovered_demand(example_instance):
    # demand a machine for o1, which no machine can execute
    demands = dict(example_instance.demands)
    demands["o1"] = frozenset({"w", "m"})
    inst = dataclasses.replace(example_instance, demands=demands)
    violations = validate_instance(inst)
    assert [v.rule for v in violations] == ["demand-uncovered"]
    assert violations[0].entity == ("o1", "m")


def test_validate_unknown_job_op(example_instance):
    jobs = list(example_instance.jobs)
    jobs[0] = dataclasses.replace(jobs[0], operations=jobs[0].operations | {"o9"})
    inst = dataclasses.replace(example_instance, jobs=tuple(jobs))
    violations = validate_instance(inst)
    assert [v.rule for v in violations] == ["job-unknown-op"]
    assert violations[0].entity == ("j1", "o9")


def _mutations(inst: Instance):
    """(rule, mutated instance) pairs, one per validation rule."""
    def repl(**kw):
        return dataclasses.replace(inst, **kw)

    demands = dict(inst.demands)
    yield "operation-duplicate", repl(operations=inst.operations + (Operation("o1", 1),))
    yield "operation-duration", repl(operations=inst.operations + (Operation("zz", 0),))
    yield "resource-duplicate", repl(resources=inst.resources + (Resource("w", 1, frozenset()),))
    yield "resource-index", repl(resources=inst.resources + (Resource("w", 0, frozenset()),))
    yield "capability-unknown-op", repl(resources=inst.resources + (Resource("w", 9, frozenset({"o9"})),))
    yield "demand-unknown-op", repl(demands={**demands, "o9": frozenset({"w"})})
    yield "demand-class-empty", repl(demands={**demands, "o1": frozenset({"w", "ghost"})})
    yield "job-duplicate", repl(jobs=inst.jobs + (inst.jobs[0],))
    yield "deadline-negative", repl(jobs=inst.jobs[1:] + (dataclasses.replace(inst.jobs[0], deadline=-1),))
    yield "job-unknown-op", repl(
        jobs=inst.jobs[1:] + (dataclasses.replace(inst.jobs[0], operations=inst.jobs[0].operations | {"o9"}),)
    )
    yield "demand-missing", repl(demands={o: c for o, c in demands.items() if o != "o3"})
    yield "precedence-outside-job", repl(
        jobs=inst.jobs[1:] + (dataclasses.replace(inst.jobs[0], precedence=frozenset({("o1", "o3")})),)
    )
    yield "precedence-cycle", repl(
        jobs=inst.jobs[1:]
        + (dataclasses.replace(inst.jobs[0], precedence=inst.jobs[0].precedence | {("o2", "o1"), ("o2", "o4")}),)
    )
    yield "demand-uncovered", repl(demands={**demands, "o1": frozenset({"w", "m"})})


def test_every_mutation_is_flagged(example_instance):
    rules = set()
    for rule, mutated in _mutations(example_instance):
        violations = validate_instance(mutated)
        assert violations, rule
        assert rule in {v.rule for v in violations}, rule
        rules.add(rule)
    assert len(rules) == 14


def test_random_mutation_property(example_instance):
    rng = random.Random(1234)
    pool = list(_mutations(example_instance))
    for _ in range(100):
        rule, mutated = rng.choice(pool)
        got = {v.rule for v in validate_instance(mutated)}
        assert rule in got
