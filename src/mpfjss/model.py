"""Instance model and file formats for multi-resource flexible job-shop scheduling.

An instance couples four ingredients: operation types with integer durations,
resource instances grouped into classes (each instance capable of a subset of
operations), per-operation demands naming which classes an operation occupies
while it runs, and jobs given as operation sets with a partial order and a
deadline.  Times are integers (minutes) from the start of the planning horizon.

Two on-disk encodings are supported and carry the same information: a fact
format (``op/2``, ``needs/2``, ``res/3``, ``job/2``, ``recipe/2``, ``prec/3``)
and a JSON mirror.  Parsing is strict about syntax and dangling references;
structural invariants beyond that are reported by :func:`validate_instance` so
that programmatically built instances can be checked too.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property

Task = tuple[str, str]
"""A schedulable unit: ``(job name, operation name)``."""


class InstanceError(Exception):
    """Base class for instance format errors."""


class ParseError(InstanceError):
    """Syntax-level error in a fact file, with a 1-based line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


class SemanticError(InstanceError):
    """A well-formed fact that does not make sense (dangling reference, cycle, clash)."""

    def __init__(self, message: str, fact: str | None = None, line: int | None = None):
        self.fact = fact
        self.line = line
        detail = message
        if fact is not None:
            detail += f" (fact `{fact}`"
            if line is not None:
                detail += f", line {line}"
            detail += ")"
        super().__init__(detail)


@dataclass(frozen=True)
class Operation:
    name: str
    duration: int


@dataclass(frozen=True)
class Resource:
    """One concrete instance of a resource class, e.g. worker 3 or machine 12."""

    cls: str
    index: int
    capabilities: frozenset[str]

    @property
    def key(self) -> tuple[str, int]:
        return (self.cls, self.index)


@dataclass(frozen=True)
class Job:
    name: str
    operations: frozenset[str]
    precedence: frozenset[tuple[str, str]]
    deadline: int


@dataclass(frozen=True)
class Instance:
    """An immutable problem instance.  Safe to share between threads/processes.

    ``operations``, ``resources`` and ``jobs`` are kept in canonical sorted
    order so that structurally equal instances compare equal.
    """

    operations: tuple[Operation, ...]
    resources: tuple[Resource, ...]
    demands: dict[str, frozenset[str]]
    jobs: tuple[Job, ...]

    @cached_property
    def op_map(self) -> dict[str, Operation]:
        return {o.name: o for o in self.operations}

    @cached_property
    def resource_map(self) -> dict[tuple[str, int], Resource]:
        return {r.key: r for r in self.resources}

    @cached_property
    def shared_keys(self) -> dict[tuple, tuple]:
        """One shared copy of each resource key and of each resource tuple.

        Every ``(class, index)`` key maps to itself, and so does every sorted
        tuple of keys that a schedule of this instance has used as a task's
        ``resources``: schedules reuse these copies instead of holding equal
        ones of their own (see :func:`mpfjss.schedule.build_schedule`).  The
        table only grows, by at most one entry per distinct allocation of
        one task; threads that fill it at once can at worst store two equal
        copies, which changes no schedule.
        """
        return {k: k for k in self.resource_map}

    @cached_property
    def job_map(self) -> dict[str, Job]:
        return {j.name: j for j in self.jobs}

    @cached_property
    def classes(self) -> dict[str, tuple[Resource, ...]]:
        by_cls: dict[str, list[Resource]] = {}
        for r in self.resources:
            by_cls.setdefault(r.cls, []).append(r)
        return {c: tuple(sorted(rs, key=lambda r: r.index)) for c, rs in by_cls.items()}

    def duration(self, op: str) -> int:
        return self.op_map[op].duration

    def demanded(self, op: str) -> frozenset[str]:
        return self.demands.get(op, frozenset())

    def capable(self, cls: str, op: str) -> tuple[int, ...]:
        """Indices of class ``cls`` instances able to execute ``op``, ascending."""
        return tuple(r.index for r in self.classes.get(cls, ()) if op in r.capabilities)


def tasks(inst: Instance) -> list[Task]:
    """All (job, operation) pairs of the instance in (job name, op name) order."""
    out: list[Task] = []
    for job in sorted(inst.jobs, key=lambda j: j.name):
        for op in sorted(job.operations):
            out.append((job.name, op))
    return out


# --- fact format -----------------------------------------------------------

_ID_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"\d+\Z")
_FACT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)\s*\.")

_ARITIES = {"op": 2, "needs": 2, "res": 3, "job": 2, "recipe": 2, "prec": 3}


def _check_id(tok: str, what: str, line: int, col: int) -> str:
    if not _ID_RE.match(tok):
        raise ParseError(f"invalid {what} `{tok}` (want [a-z][A-Za-z0-9_]*)", line, col)
    return tok


def _check_int(tok: str, what: str, line: int, col: int) -> int:
    if not _INT_RE.match(tok):
        raise ParseError(f"invalid {what} `{tok}` (want a non-negative integer)", line, col)
    return int(tok)


def parse_instance(text: str) -> Instance:
    """Parse the fact format into an :class:`Instance`.

    Facts are ``name(arg, ...).`` with ``%`` comments; whitespace and blank
    lines are ignored and duplicate facts are deduplicated.  Unknown
    predicates, malformed tokens, dangling references and cyclic precedence
    all raise :class:`ParseError` or :class:`SemanticError`.
    """
    ops: dict[str, int] = {}
    needs: dict[str, set[str]] = {}
    res: dict[tuple[str, int], set[str]] = {}
    job_deadline: dict[str, int] = {}
    recipes: dict[str, set[str]] = {}
    precs: dict[str, set[tuple[str, str]]] = {}
    deferred: list[tuple[str, tuple, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        cut = raw.find("%")
        code = raw[:cut] if cut >= 0 else raw
        pos = 0
        for m in _FACT_RE.finditer(code):
            gap = code[pos:m.start()]
            if gap.strip():
                raise ParseError(f"unparsable text `{gap.strip()}`", lineno, pos + 1)
            pos = m.end()
            name, argstr = m.group(1), m.group(2)
            col = m.start() + 1
            if name not in _ARITIES:
                raise ParseError(f"unknown predicate `{name}`", lineno, col)
            args = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
            if len(args) != _ARITIES[name]:
                raise ParseError(
                    f"`{name}` takes {_ARITIES[name]} arguments, got {len(args)}", lineno, col
                )
            fact = f"{name}({','.join(args)})."
            if name == "op":
                o = _check_id(args[0], "operation id", lineno, col)
                d = _check_int(args[1], "duration", lineno, col)
                if o in ops and ops[o] != d:
                    raise SemanticError(
                        f"operation {o} redeclared with duration {d} (was {ops[o]})", fact, lineno
                    )
                ops[o] = d
            elif name == "needs":
                o = _check_id(args[0], "operation id", lineno, col)
                c = _check_id(args[1], "class id", lineno, col)
                needs.setdefault(o, set()).add(c)
                deferred.append(("needs-op", (o,), fact, lineno))
            elif name == "res":
                c = _check_id(args[0], "class id", lineno, col)
                i = _check_int(args[1], "resource index", lineno, col)
                o = _check_id(args[2], "operation id", lineno, col)
                res.setdefault((c, i), set()).add(o)
                deferred.append(("res-op", (o,), fact, lineno))
            elif name == "job":
                j = _check_id(args[0], "job id", lineno, col)
                d = _check_int(args[1], "deadline", lineno, col)
                if j in job_deadline and job_deadline[j] != d:
                    raise SemanticError(
                        f"job {j} redeclared with deadline {d} (was {job_deadline[j]})", fact, lineno
                    )
                job_deadline[j] = d
            elif name == "recipe":
                j = _check_id(args[0], "job id", lineno, col)
                o = _check_id(args[1], "operation id", lineno, col)
                recipes.setdefault(j, set()).add(o)
                deferred.append(("recipe", (j, o), fact, lineno))
            else:  # prec
                j = _check_id(args[0], "job id", lineno, col)
                a = _check_id(args[1], "operation id", lineno, col)
                b = _check_id(args[2], "operation id", lineno, col)
                precs.setdefault(j, set()).add((a, b))
                deferred.append(("prec", (j, a, b), fact, lineno))
        trailing = code[pos:]
        if trailing.strip():
            raise ParseError(f"unparsable text `{trailing.strip()}`", lineno, pos + 1)

    for kind, payload, fact, lineno in deferred:
        if kind in ("needs-op", "res-op"):
            (o,) = payload
            if o not in ops:
                raise SemanticError(f"reference to undeclared operation {o}", fact, lineno)
        elif kind == "recipe":
            j, o = payload
            if j not in job_deadline:
                raise SemanticError(f"reference to undeclared job {j}", fact, lineno)
            if o not in ops:
                raise SemanticError(f"reference to undeclared operation {o}", fact, lineno)
        else:  # prec
            j, a, b = payload
            if j not in job_deadline:
                raise SemanticError(f"reference to undeclared job {j}", fact, lineno)
            for o in (a, b):
                if o not in recipes.get(j, set()):
                    raise SemanticError(
                        f"precedence references operation {o} outside job {j}'s recipe",
                        fact,
                        lineno,
                    )

    for j, pairs in precs.items():
        cyc = _find_cycle(recipes.get(j, set()), pairs)
        if cyc:
            raise SemanticError(f"cyclic precedence in job {j}: {' -> '.join(cyc)}")

    return _assemble(ops, res, needs, job_deadline, recipes, precs)


def _find_cycle(nodes: set[str], edges: set[tuple[str, str]]) -> list[str] | None:
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in sorted(edges):
        succ.setdefault(a, []).append(b)
    state: dict[str, int] = {}  # 1 while on the path, 2 once finished
    for root in sorted(succ):
        if root in state:
            continue
        # depth-first with an explicit stack, so long chains cannot exhaust
        # the interpreter's recursion limit
        state[root] = 1
        path = [root]
        pending = [iter(succ[root])]
        while pending:
            for m in pending[-1]:
                if state.get(m) == 1:
                    return path[path.index(m):] + [m]
                if m not in state:
                    state[m] = 1
                    path.append(m)
                    pending.append(iter(succ.get(m, ())))
                    break
            else:
                pending.pop()
                state[path.pop()] = 2
    return None


def _assemble(
    ops: dict[str, int],
    res: dict[tuple[str, int], set[str]],
    needs: dict[str, set[str]],
    job_deadline: dict[str, int],
    recipes: dict[str, set[str]],
    precs: dict[str, set[tuple[str, str]]],
) -> Instance:
    operations = tuple(Operation(o, d) for o, d in sorted(ops.items()))
    resources = tuple(
        Resource(c, i, frozenset(caps)) for (c, i), caps in sorted(res.items())
    )
    demands = {o: frozenset(cs) for o, cs in sorted(needs.items())}
    jobs = tuple(
        Job(
            j,
            frozenset(recipes.get(j, set())),
            frozenset(precs.get(j, set())),
            deadline,
        )
        for j, deadline in sorted(job_deadline.items())
    )
    return Instance(operations, resources, demands, jobs)


def serialize_instance(inst: Instance) -> str:
    """Canonical fact-file text: sorted facts, one per line."""
    lines: list[str] = []
    for o in sorted(inst.operations, key=lambda o: o.name):
        lines.append(f"op({o.name},{o.duration}).")
    for o, cs in sorted(inst.demands.items()):
        for c in sorted(cs):
            lines.append(f"needs({o},{c}).")
    for r in sorted(inst.resources, key=lambda r: r.key):
        for o in sorted(r.capabilities):
            lines.append(f"res({r.cls},{r.index},{o}).")
    for j in sorted(inst.jobs, key=lambda j: j.name):
        lines.append(f"job({j.name},{j.deadline}).")
        for o in sorted(j.operations):
            lines.append(f"recipe({j.name},{o}).")
        for a, b in sorted(j.precedence):
            lines.append(f"prec({j.name},{a},{b}).")
    return "\n".join(lines) + "\n"


# --- JSON mirror -----------------------------------------------------------

def instance_to_json(inst: Instance) -> dict:
    return {
        "operations": [
            {"id": o.name, "duration": o.duration}
            for o in sorted(inst.operations, key=lambda o: o.name)
        ],
        "resources": [
            {"class": r.cls, "index": r.index, "capabilities": sorted(r.capabilities)}
            for r in sorted(inst.resources, key=lambda r: r.key)
        ],
        "demands": [
            {"op": o, "classes": sorted(cs)} for o, cs in sorted(inst.demands.items())
        ],
        "jobs": [
            {
                "id": j.name,
                "deadline": j.deadline,
                "operations": sorted(j.operations),
                "precedence": [list(p) for p in sorted(j.precedence)],
            }
            for j in sorted(inst.jobs, key=lambda j: j.name)
        ],
    }


def instance_from_json(obj: dict) -> Instance:
    if not isinstance(obj, dict):
        raise SemanticError("instance JSON must be an object")
    for key in ("operations", "resources", "demands", "jobs"):
        if not isinstance(obj.get(key), list):
            raise SemanticError(f"instance JSON needs a `{key}` array")
    # repeated entries merge, as repeated facts do; a conflicting duration
    # or deadline is an error, as in the fact format
    try:
        ops: dict[str, int] = {}
        for o in obj["operations"]:
            name, d = str(o["id"]), int(o["duration"])
            if ops.setdefault(name, d) != d:
                raise SemanticError(f"operation {name} redeclared with duration {d} (was {ops[name]})")
        res: dict[tuple[str, int], set[str]] = {}
        for r in obj["resources"]:
            key = (str(r["class"]), int(r["index"]))
            res.setdefault(key, set()).update(str(c) for c in r["capabilities"])
        needs: dict[str, set[str]] = {}
        for dm in obj["demands"]:
            needs.setdefault(str(dm["op"]), set()).update(map(str, dm["classes"]))
        job_deadline: dict[str, int] = {}
        recipes: dict[str, set[str]] = {}
        precs: dict[str, set[tuple[str, str]]] = {}
        for j in obj["jobs"]:
            name, d = str(j["id"]), int(j["deadline"])
            if job_deadline.setdefault(name, d) != d:
                raise SemanticError(
                    f"job {name} redeclared with deadline {d} (was {job_deadline[name]})")
            recipes.setdefault(name, set()).update(map(str, j["operations"]))
            precs.setdefault(name, set()).update(
                (str(a), str(b)) for a, b in j.get("precedence", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise SemanticError(f"malformed instance JSON: {exc}") from exc

    for o in set(needs) | {o for caps in res.values() for o in caps}:
        if o not in ops:
            raise SemanticError(f"reference to undeclared operation {o}")
    for j, os_ in recipes.items():
        for o in os_:
            if o not in ops:
                raise SemanticError(f"job {j} references undeclared operation {o}")
    for j, pairs in precs.items():
        for a, b in pairs:
            if a not in recipes[j] or b not in recipes[j]:
                raise SemanticError(f"precedence of job {j} references operation outside its recipe")
        cyc = _find_cycle(recipes[j], pairs)
        if cyc:
            raise SemanticError(f"cyclic precedence in job {j}: {' -> '.join(cyc)}")
    return _assemble(ops, res, needs, job_deadline, recipes, precs)


def loads_instance(text: str) -> Instance:
    """Parse either encoding, sniffing JSON by a leading ``{``."""
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
        return instance_from_json(obj)
    return parse_instance(text)


def load_instance(path) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return loads_instance(fh.read())


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if str(path).endswith(".json"):
            json.dump(instance_to_json(inst), fh, indent=2)
            fh.write("\n")
        else:
            fh.write(serialize_instance(inst))


# --- structural validation -------------------------------------------------

@dataclass(frozen=True)
class InstanceViolation:
    rule: str
    entity: tuple
    message: str


def validate_instance(inst: Instance) -> list[InstanceViolation]:
    """Check structural invariants; an empty list means the instance is well formed.

    This also covers programmatically built instances that never went through
    the parser, so reference checks are repeated here.
    """
    out: list[InstanceViolation] = []
    bad = out.append
    op_names = [o.name for o in inst.operations]
    known_ops = set(op_names)
    seen: set[str] = set()
    for o in inst.operations:
        if o.name in seen:
            bad(InstanceViolation("operation-duplicate", (o.name,), f"operation {o.name} declared twice"))
        seen.add(o.name)
        if o.duration < 1:
            bad(InstanceViolation("operation-duration", (o.name,), f"operation {o.name} has duration {o.duration} < 1"))

    seen_res: set[tuple[str, int]] = set()
    for r in inst.resources:
        if r.key in seen_res:
            bad(InstanceViolation("resource-duplicate", r.key, f"resource {r.cls}{r.index} declared twice"))
        seen_res.add(r.key)
        if r.index < 1:
            bad(InstanceViolation("resource-index", r.key, f"resource index {r.index} is not positive"))
        for o in sorted(r.capabilities):
            if o not in known_ops:
                bad(InstanceViolation("capability-unknown-op", (r.cls, r.index, o), f"resource {r.cls}{r.index} lists unknown operation {o}"))

    declared_classes = {r.cls for r in inst.resources}
    for o, cs in sorted(inst.demands.items()):
        if o not in known_ops:
            bad(InstanceViolation("demand-unknown-op", (o,), f"demand entry for unknown operation {o}"))
        for c in sorted(cs):
            if c not in declared_classes:
                bad(InstanceViolation("demand-class-empty", (o, c), f"operation {o} demands class {c} which has no instances"))

    seen_jobs: set[str] = set()
    for j in inst.jobs:
        if j.name in seen_jobs:
            bad(InstanceViolation("job-duplicate", (j.name,), f"job {j.name} declared twice"))
        seen_jobs.add(j.name)
        if j.deadline < 0:
            bad(InstanceViolation("deadline-negative", (j.name,), f"job {j.name} has negative deadline {j.deadline}"))
        for o in sorted(j.operations):
            if o not in known_ops:
                bad(InstanceViolation("job-unknown-op", (j.name, o), f"job {j.name} uses unknown operation {o}"))
                continue
            if not inst.demands.get(o):
                bad(InstanceViolation("demand-missing", (j.name, o), f"operation {o} of job {j.name} has no demand entry"))
        for a, b in sorted(j.precedence):
            if a not in j.operations or b not in j.operations:
                bad(InstanceViolation("precedence-outside-job", (j.name, a, b), f"precedence ({a},{b}) references operation outside job {j.name}"))
        if _find_cycle(j.operations, set(j.precedence)):
            bad(InstanceViolation("precedence-cycle", (j.name,), f"job {j.name} has cyclic precedence"))

    used_ops = sorted({o for j in inst.jobs for o in j.operations if o in known_ops})
    for o in used_ops:
        for c in sorted(inst.demands.get(o, frozenset())):
            if c in declared_classes and not inst.capable(c, o):
                bad(InstanceViolation("demand-uncovered", (o, c), f"no instance of class {c} can execute {o}"))
    return out
