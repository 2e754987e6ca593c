"""Schedule data model shared by the solver, the validator and the CLI.

A schedule assigns every (job, operation) task a start time and a set of
resource instances.  Per-job completion times are always derived from the
assignments; only the tardiness figures are stored, so a schedule cannot
carry a stale completion map.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .model import Instance, SemanticError, Task

ResourceKey = tuple[str, int]

Allocation = dict[Task, dict[str, int]]
"""Chosen instance index per demanded class, per task."""


@dataclass(frozen=True, slots=True)
class Assignment:
    job: str
    op: str
    start: int
    end: int
    resources: tuple[ResourceKey, ...]

    @property
    def task(self) -> Task:
        return (self.job, self.op)


@dataclass(frozen=True, slots=True)
class Schedule:
    assignments: tuple[Assignment, ...]
    tardiness: dict[str, int]
    total_tardiness: int

    def completion(self) -> dict[str, int]:
        """Per-job completion time: the latest end among the job's tasks."""
        return _completion(self.assignments)

    def start_of(self, task: Task) -> int:
        for a in self.assignments:
            if a.task == task:
                return a.start
        raise KeyError(task)


def _completion(assignments: Iterable[Assignment]) -> dict[str, int]:
    done: dict[str, int] = {}
    for a in assignments:
        done[a.job] = max(done.get(a.job, 0), a.end)
    return done


def build_schedule(inst: Instance, starts: dict[Task, int], alloc: Allocation) -> Schedule:
    """Assemble a :class:`Schedule` with derived ends and tardiness figures.

    Tasks with the same instances share one ``resources`` tuple, built from
    shared keys (:attr:`Instance.shared_keys`), so that many schedules of one
    instance cost little more memory than their start times.
    """
    shared = inst.shared_keys
    assignments = []
    for (job, op), start in sorted(starts.items()):
        chosen = tuple(sorted(alloc.get((job, op), {}).items()))
        resources = shared.get(chosen)
        if resources is None:
            resources = tuple(shared.get(k, k) for k in chosen)
            shared[resources] = resources
        assignments.append(
            Assignment(job, op, start, start + inst.duration(op), resources)
        )
    completion = _completion(assignments)
    tardiness = {
        j.name: max(0, completion.get(j.name, 0) - j.deadline) for j in inst.jobs
    }
    return Schedule(tuple(assignments), tardiness, sum(tardiness.values()))


def schedule_to_json(sched: Schedule) -> dict:
    return {
        "assignments": [
            {
                "job": a.job,
                "op": a.op,
                "start": a.start,
                "end": a.end,
                "resources": [[c, i] for c, i in a.resources],
            }
            for a in sched.assignments
        ],
        "tardiness": dict(sorted(sched.tardiness.items())),
        "total_tardiness": sched.total_tardiness,
    }


def schedule_from_json(obj: dict) -> Schedule:
    try:
        assignments = tuple(
            Assignment(
                str(a["job"]),
                str(a["op"]),
                int(a["start"]),
                int(a["end"]),
                tuple(sorted((str(c), int(i)) for c, i in a["resources"])),
            )
            for a in obj["assignments"]
        )
        tardiness = {str(j): int(t) for j, t in obj["tardiness"].items()}
        total = int(obj["total_tardiness"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SemanticError(f"malformed schedule JSON: {exc}") from exc
    return Schedule(assignments, tardiness, total)
