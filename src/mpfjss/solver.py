"""Complete schedule search under a per-job tardiness cap.

``decide`` answers whether a schedule exists in which every job finishes at
most ``cap`` minutes after its deadline; ``optimize`` minimizes total
tardiness among such schedules by branch and bound.  The search branches on
two kinds of decisions:

* an instance of every demanded resource class for every task, filtered so
  that interchangeable instances (same class, identical capabilities, no
  kept task on them) are introduced in index order, and
* a direction for every conflict pair, i.e. two tasks that may not overlap
  because they belong to the same job or share a chosen instance.

Start times themselves are never enumerated: once every pair is directed,
the difference-constraint system either admits a unique earliest schedule or
proves the directions contradictory.  Both searches are iterative, so deep
instances cannot exhaust the interpreter stack.

A slot tries the instance that leaves the task the most room first, the
least-constraining value (Haralick & Elliott, Artificial Intelligence
1980): the one with the fewest tasks whose interval at the solve's root
earliest starts overlaps the task's, then the least loaded.  The order
decides which schedule ``decide`` returns first and which incumbent a
budgeted ``optimize`` holds, but the candidates are the same, so no verdict
and no proven optimum depends on it.

The cap enters the difference-constraint system only as an upper bound on
each task's start.  A search is therefore built once per instance, with
start bounds and precedence at the kernel's base level, and each cap is
asserted on a pushed level and popped afterwards.  The cap-search strategies
send all their probes to one such search, as multi-shot ASP solving
re-solves one ground program under a changing bound (Gebser et al., TPLP
2019).  The final ``optimize`` of a cap search runs on that search too.
The build also computes a cap floor from three root tests (each job's
total duration, each class's work due by each deadline, and each two
tasks forced onto one instance, with their heads and tails); a cap below
it is answered UNSAT without search.

Depth first, the exact search can spend its whole budget reordering the
first allocation it reaches.  ``optimize`` therefore adds an anytime
neighbourhood search (large-neighbourhood search: Shaw, CP 1998; Pisinger &
Ropke, 2010): when the order search of one allocation has run
``STALL_STEPS`` steps without a new incumbent, a second search of the same
instance keeps every task of all but ``NEIGHBOURHOOD_JOBS`` randomly drawn
jobs where the incumbent put it, re-allocates and re-orders the tasks of the
drawn jobs for at most ``NEIGHBOURHOOD_STEPS`` steps, and hands back any
strictly better schedule as the new incumbent.  The exact search then prunes
harder but still runs to exhaustion, so what it proves stays exact.  Budgets
count steps, not seconds, so runs repeat exactly.

Within one solve the search also remembers which allocations it has
refuted, as an ASP solver keeps the nogoods it learnt.  The order search of
an allocation depends only on its set of conflict pairs, since everything
else in the difference-constraint system is fixed for the solve, and more
pairs only add constraints: every schedule a superset admits is matched,
task by task, by one at least as early under the subset.  So an allocation
whose pairs contain those of one whose order search came back empty can
yield no schedule, nor a strictly better incumbent, and is skipped.  The
memo holds the last ``MEMO_LEAVES`` refuted pair sets as bitmasks;
forgetting older ones only prunes less.

The order search reads the kernel's explanation of every rejected assert,
as a CDCL solver analyses each conflict.  The kernel names the negative
cycle that refutes the assert; the order decisions on that cycle alone rule
out every schedule below them.  When both directions of a pair have failed,
the search jumps back to the deepest decision that took part in either
failure, instead of the previous one (conflict-directed backjumping:
Prosser, Computational Intelligence 1993).  The levels it jumps over hold
no schedule, so it visits the remaining nodes in the same order and finds
the same schedules and incumbents as chronological backtracking, in at
most as many steps.  A lower-bound prune and an optimize-mode leaf depend
on the incumbent, and so on every decision above them; they stay
chronological.  The kernel reads each cycle off the edges that last raised
the earliest starts, which depend only on the constraints asserted and are
restored with them on every pop, so a reused search steps exactly as a
fresh one.

An order-search node costs what its assert changed, as difference-logic
propagation in clingo[DL] touches only what an assert changes.  The kernel
names the nodes whose earliest start an assert raised (``changed()``).
Each level of the order search keeps its total tardiness, the lower bound
that prunes, with each job's latest sink end, and updates them from the
raised sinks alone; a popped level leaves its parent's values as they
were.  The state every order search starts from is computed once per
solve.  Each level also keeps a heap of the pairs left, keyed by their
earliest starts: the next level re-keys only the pairs on raised nodes,
instead of a scan of every remaining pair at every level.
"""

from __future__ import annotations

import random
import time
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import prod
from typing import Collection, Iterable, NamedTuple

from . import dl
from ._dl_pure import MAX_WEIGHT
from .model import Instance, Task, tasks, validate_instance
from .schedule import Allocation, Schedule, build_schedule

STALL_STEPS = 1024  # order-search steps in one allocation without a new incumbent
NEIGHBOURHOOD_STEPS = 2048  # search steps of one neighbourhood step
NEIGHBOURHOOD_JOBS = 3  # jobs re-solved by one neighbourhood step, if there are more
DEFAULT_SEED = 0  # neighbourhood choice when ``optimize`` gets no seed
MEMO_LEAVES = 4096  # refuted allocation leaves one solve remembers; the oldest go first
_Groups = dict[str, list[tuple[frozenset[str], list[int]]]]  # per class: (capabilities, indices)
_Offers = dict[str, list[tuple[str, tuple[int, ...]]]]  # per operation: (class, capable indices)


class UnsolvableInstanceError(Exception):
    """Some task demands a class with no capable instance; no cap helps."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(v.message for v in self.violations)
        super().__init__(f"instance is unsolvable by construction: {detail}")


class SolveTimeout(Exception):
    pass


class OptimizeResult(NamedTuple):
    schedule: Schedule | None
    proven_optimal: bool


class _ProvenOptimal(Exception):
    """Internal: the incumbent matched the root lower bound; stop searching."""


class _StepsSpent(Exception):
    """Internal: a neighbourhood step used up its step budget."""


def _ensure_solvable_structure(inst: Instance) -> None:
    violations = validate_instance(inst)
    if not violations:
        return
    used = {o for j in inst.jobs for o in j.operations}
    blocking = [
        v
        for v in violations
        if v.rule == "demand-uncovered"
        or (v.rule == "demand-class-empty" and v.entity[0] in used)
    ]
    others = [v for v in violations if v not in blocking]
    if others:
        raise ValueError(f"invalid instance: {others[0].message}")
    raise UnsolvableInstanceError(blocking)


def _same_job_pairs(inst: Instance) -> list[tuple[Task, Task]]:
    """Same-job task pairs left unordered by the precedence closure.

    Each operation gets two bitmasks over its job's operations in name
    order, the ones precedence puts before it and the ones after it, built
    along a topological order; the unordered partners of an operation are
    the bits in neither.  Work grows with the precedence edges times the
    masks' words, not with the closure's pairs.
    """
    out = []
    for j in inst.jobs:
        ops = sorted(j.operations)
        pos = {o: i for i, o in enumerate(ops)}
        succ: list[list[int]] = [[] for _ in ops]
        indeg = [0] * len(ops)
        for a, b in j.precedence:
            succ[pos[a]].append(pos[b])
            indeg[pos[b]] += 1
        order = [i for i, d in enumerate(indeg) if d == 0]
        for i in order:  # Kahn's algorithm; the list grows as it is read
            for k in succ[i]:
                indeg[k] -= 1
                if indeg[k] == 0:
                    order.append(k)
        if len(order) < len(ops):
            raise ValueError(f"job `{j.name}`: precedence has a cycle")
        above = [0] * len(ops)
        below = [0] * len(ops)
        for i in order:
            for k in succ[i]:
                above[k] |= above[i] | 1 << i
        for i in reversed(order):
            for k in succ[i]:
                below[i] |= below[k] | 1 << k
        full = (1 << len(ops)) - 1
        for i, a in enumerate(ops):
            free = ~(above[i] | below[i]) & (full >> (i + 1) << (i + 1))
            while free:
                bit = free & -free
                out.append(((j.name, a), (j.name, ops[bit.bit_length() - 1])))
                free ^= bit
    return sorted(out)


def _users(alloc: Allocation) -> dict[tuple[str, int], list[Task]]:
    """The tasks ``alloc`` puts on each instance it uses, by instance key."""
    users: dict[tuple[str, int], list[Task]] = {}
    for task, chosen in alloc.items():
        for key in chosen.items():
            users.setdefault(key, []).append(task)
    return users


def _cross_job_pairs(users: Iterable[list[Task]]) -> set[tuple[Task, Task]]:
    """Task pairs of different jobs that share an instance, given each one's tasks."""
    pairs: set[tuple[Task, Task]] = set()
    for ts in users:
        for i, a in enumerate(ts):
            for b in ts[i + 1:]:
                if a[0] != b[0]:
                    pairs.add((a, b) if a < b else (b, a))
    return pairs


def conflict_pairs(inst: Instance, alloc: Allocation) -> set[tuple[Task, Task]]:
    """Every task pair whose order the solver must decide under ``alloc``."""
    return set(_same_job_pairs(inst)) | _cross_job_pairs(_users(alloc).values())


def _check_horizon(inst: Instance, serial: int) -> None:
    """Raise ``ValueError`` unless ``inst``'s times fit the kernel's weights.

    ``serial`` is the total duration of ``inst``'s tasks.  Every weight a
    search asserts lies within +-(largest deadline plus ``serial``), since
    :meth:`_Search.solve` clips each cap to ``serial``; so does every
    earliest start of a fully ordered schedule.
    """
    horizon = max((j.deadline for j in inst.jobs), default=0) + serial
    if horizon > MAX_WEIGHT:
        raise ValueError(f"largest deadline plus total duration is {horizon}, "
                         f"above the limit {MAX_WEIGHT}")


class _Search:
    """The search over one instance, reused for every cap it is asked about.

    Building it validates ``inst`` and does, once, everything no cap changes:
    it asserts that every start is non-negative and that job precedence
    holds, at the kernel's base level, and fixes the earliest starts, root
    lower bound and release times those imply, the unordered same-job pairs,
    the groups of interchangeable instances, the decision slots and the cap
    floor.  :meth:`solve` refutes a cap below the floor at once, and enters
    any other cap only as per-task latest starts, asserted
    on a pushed kernel level that it pops again however the solve ends.  One
    search thus answers a sequence of caps the way multi-shot ASP solving
    re-solves one ground program under a changing bound.

    The search drives a raw kernel from :func:`dl.make_kernel`, the compiled
    one whenever it is built.
    """

    # Past 30 instance attributes CPython stops sharing a class's dict keys,
    # and every attribute read in the search loops gets slower (about 7% of
    # a small exact solve); slots keep those reads fast.
    __slots__ = (
        # built once per instance; ``reoptimize`` rebuilds ``class_groups`` for one step
        "inst", "all_tasks", "dur", "due", "serial", "kern", "node", "sink_at", "base_level",
        "low", "base_bound", "root_lb", "release", "same_pairs", "class_groups", "slots",
        "cap_floor", "pair_bit", "pair_nodes",
        # a neighbourhood step's pins, and the search that runs those steps
        "keep", "kept_order", "step_limit", "_neighbour",
        # per solve
        "cap", "optimizing", "deadline", "rng", "_ticks", "_stall_mark",
        "best_t", "best", "alloc", "load", "on_key", "refuted", "order_root",
    )

    def __init__(self, inst: Instance):
        _ensure_solvable_structure(inst)
        self.inst = inst

        self.all_tasks = tasks(inst)
        self.dur = {t: inst.duration(t[1]) for t in self.all_tasks}
        self.due = {j.name: j.deadline for j in inst.jobs}
        self.serial = sum(self.dur.values())
        _check_horizon(inst, self.serial)

        # called through the module, so that a wrapper patched onto
        # ``dl.make_kernel`` (the benchmark's tracer) sees this kernel
        self.kern = dl.make_kernel()
        # one kernel node per task; node 0 is the origin
        self.node = {t: self.kern.add_var() for t in self.all_tasks}
        # per kernel node: (job's index, duration, deadline) of a sink, a task
        # with no same-job successor; precedence ends every other task before one
        self.sink_at: list[tuple[int, int, int] | None] = [None] * self.kern.num_vars()
        for j, job in enumerate(inst.jobs):
            for o in job.operations - {a for a, _ in job.precedence}:
                self.sink_at[self.node[(job.name, o)]] = (j, inst.duration(o), job.deadline)
        self._assert_base()
        self.base_level = self.kern.level()
        # earliest starts of every node, refreshed after each successful
        # assert; a cap's latest starts leave them as they are here
        self.low = self.kern.earliest_all()
        self.base_bound = self._raised_bound((0, [0] * len(inst.jobs)), range(self.kern.num_vars()))
        self.root_lb = self.base_bound[0]
        # earliest starts implied by precedence alone, for the packing check
        self.release = self._starts()

        self.same_pairs = _same_job_pairs(inst)
        self.class_groups = self._build_groups()
        # per operation, its demanded classes by name, each with the instances able to run it
        offers = {o: [(c, inst.capable(c, o)) for c in sorted(cs)] for o, cs in inst.demands.items()}
        self.slots = self._build_slots(offers)
        # no cap below it admits a schedule, so :meth:`solve` answers those at once
        self.cap_floor = max(self._work_floor(), self._pair_floor(offers))
        # one bit per conflict pair, given out as leaves meet new pairs, and
        # the pair's kernel nodes, cached with it
        self.pair_bit: dict[tuple[Task, Task], int] = {}
        self.pair_nodes: dict[tuple[Task, Task], tuple[int, int]] = {}

        # set only for a neighbourhood step (see :meth:`reoptimize`): tasks
        # kept on their instances, and their conflict pairs, each to its direction
        self.keep: Allocation = {}
        self.kept_order: dict[tuple[Task, Task], tuple[Task, Task]] = {}
        self.step_limit: int | None = None
        self._neighbour: _Search | None = None  # built at the first stall

    def solve(
        self,
        cap: int,
        *,
        optimizing: bool = False,
        deadline: float | None = None,
        incumbent: tuple[dict[Task, int], Allocation, int] | None = None,
        rng: random.Random | None = None,
    ) -> Schedule | None:
        """Search under per-job cap ``cap``, leaving the base level as built.

        Returns the first schedule found, or None when none exists; when
        ``optimizing`` it returns None and leaves the incumbent in ``best``.
        Raises :class:`SolveTimeout` past ``deadline`` and
        :class:`_ProvenOptimal` when an incumbent meets the root lower bound.

        When optimizing, ``incumbent`` is ``(starts, alloc, total)`` of a
        schedule under ``cap`` to start from: only a strictly better schedule
        replaces it.  With ``rng``, an order search that stalls runs
        neighbourhood steps drawn from it (:meth:`_neighbourhood_step`).

        A cap above the serial length is searched as the serial length: any
        cap from there on admits the same schedules, as no earliest start
        reaches its latest starts.
        """
        self.cap = cap = min(cap, self.serial)
        self.optimizing = optimizing
        self.deadline = deadline
        self.rng = rng
        self._ticks = 0
        self._stall_mark: int | None = None  # step count at the last progress
        self.best_t: int | None = None
        self.best: tuple[dict[Task, int], Allocation] | None = None
        if incumbent is not None:
            starts, alloc, self.best_t = incumbent
            self.best = (starts, alloc)
        self.alloc: dict[Task, dict[str, int]] = {t: {} for t in self.all_tasks}
        self.load = {r.key: 0 for r in self.inst.resources}
        self.on_key: dict[tuple[str, int], list[Task]] = {r.key: [] for r in self.inst.resources}
        # pair masks of the leaves whose order search came back empty
        self.refuted: deque[int] = deque(maxlen=MEMO_LEAVES)
        if cap < self.cap_floor:
            return None
        kern = self.kern
        kern.push()
        try:
            for t in self.all_tasks:
                # start <= latest: a bound from the origin raises no earliest
                # start, so the base ``low`` and ``release`` stay exact
                if kern.assert_edge(0, self.node[t], self.due[t[0]] + cap - self.dur[t]):
                    return None
            for a, b in self.kept_order.values():
                if not self._assert_before(a, b):
                    return None
            # every order search starts here, as the allocation search asserts
            # nothing; since the push, only the kept order raised a start
            self.low = kern.earliest_all()
            self.order_root = (self.low, self._raised_bound(self.base_bound, kern.changed()))
            return self._allocate()
        finally:
            while kern.level() > self.base_level:
                kern.pop()

    def reoptimize(
        self,
        cap: int,
        incumbent: tuple[dict[Task, int], Allocation, int],
        free: set[str],
        *,
        deadline: float | None = None,
    ) -> None:
        """One neighbourhood step: re-solve the jobs in ``free`` around ``incumbent``.

        ``incumbent`` is ``(starts, alloc, total)`` of a schedule under
        ``cap``.  Every task of another job keeps its instances, and every
        pair of such tasks that conflicts keeps its order, asserted with the
        cap; those pairs leave the order search.  The tasks of ``free`` are
        allocated and ordered anew for at most ``NEIGHBOURHOOD_STEPS`` steps.
        Afterwards ``best``/``best_t`` hold a strictly better schedule if one
        was found, else the incumbent.  Each instance a kept task uses has a
        group of its own for the step; the rest stay interchangeable.
        """
        starts, alloc, _ = incumbent
        keep = {t: alloc[t] for t in self.all_tasks if t[0] not in free}
        users = _users(keep)
        pairs = [p for p in self.same_pairs if p[0] in keep and p[1] in keep]
        pairs += sorted(_cross_job_pairs(users.values()))
        self.keep = keep
        self.class_groups = self._build_groups(users.keys())
        # a schedule overlaps no conflicting pair, so the first ends first
        self.kept_order = {(a, b): (a, b) if starts[a] + self.dur[a] <= starts[b] else (b, a)
                           for a, b in pairs}
        self.step_limit = NEIGHBOURHOOD_STEPS
        try:
            self.solve(cap, optimizing=True, deadline=deadline, incumbent=incumbent)
        except _StepsSpent:
            pass
        finally:
            self.keep = {}
            self.kept_order = {}
            self.step_limit = None
            self.class_groups = self._build_groups()

    # -- setup ----------------------------------------------------------

    def _assert_base(self) -> None:
        """Start bounds and precedence, which validation keeps free of cycles."""
        kern = self.kern
        starts_ok = all(kern.assert_edge(self.node[t], 0, 0) == 0  # start >= 0
                        for t in self.all_tasks)
        precedence_ok = all(self._assert_before((j.name, a), (j.name, b))
                            for j in self.inst.jobs for a, b in sorted(j.precedence))
        if not (starts_ok and precedence_ok):
            raise RuntimeError("the kernel rejected the start bounds or precedence")

    def _build_groups(self, fixed: Collection[tuple[str, int]] = frozenset()) -> _Groups:
        """Interchangeable instances: same class and identical capabilities.

        Per class, its groups as ``(capabilities, sorted indices)``.  An
        instance whose key is in ``fixed`` forms a group of its own.
        """
        bykey: dict[tuple[str, tuple[str, ...], tuple[int, ...]], list[int]] = {}
        for r in self.inst.resources:
            own = (r.index,) if r.key in fixed else ()
            bykey.setdefault((r.cls, tuple(sorted(r.capabilities)), own), []).append(r.index)
        groups: _Groups = {}
        for (cls, caps, _), idxs in sorted(bykey.items()):
            groups.setdefault(cls, []).append((frozenset(caps), sorted(idxs)))
        return groups

    def _build_slots(self, offers: _Offers) -> list[tuple[Task, str]]:
        """One decision slot per (task, demanded class), hardest jobs first."""
        branch = {o: prod([len(idxs) or 1 for _, idxs in offer]) for o, offer in offers.items()}

        def key(t: Task) -> tuple:
            return (self.due[t[0]], t[0], branch.get(t[1], 1), t[1])

        slots = []
        for t in sorted(self.all_tasks, key=key):
            for c, _ in offers.get(t[1], ()):
                slots.append((t, c))
        return slots

    def _work_floor(self) -> int:
        """The smallest cap that leaves room for each job's and each class's work.

        A job's tasks run one at a time from time 0, so a job must end no
        earlier than its total duration.  The tasks due by some deadline
        that demand a class share its ``count`` instances until that
        deadline plus the cap: with ``acc`` minutes of such work,
        ``acc > count * (deadline + cap)`` refutes every cap below
        ``ceil((acc - count * deadline) / count)``.
        """
        due, dur = self.due, self.dur
        total = dict.fromkeys(due, 0)
        for t, d in dur.items():
            total[t[0]] += d
        floor = max([0] + [total[j] - due[j] for j in due])
        work: dict[str, list[tuple[int, int]]] = {}
        for t, c in self.slots:
            work.setdefault(c, []).append((due[t[0]], dur[t]))
        for c, items in work.items():
            items.sort()
            count = len(self.inst.classes[c])
            acc = accumulate(d for _, d in items)
            most = max(a - count * by for a, (by, _) in zip(acc, items))
            floor = max(floor, -(-most // count))
        return floor

    def _pair_floor(self, offers: _Offers) -> int:
        """The smallest cap under which any two tasks forced onto one instance fit.

        A task is forced onto an instance when that instance is the only
        one of a demanded class able to run its operation, so two tasks
        forced onto one instance run one after the other.  Each task starts
        no earlier than its release and must leave room for its tail, the
        longest chain of its job's later tasks, before its job's deadline
        plus the cap.  A pair thus refutes every cap below the lesser of
        what its two orders need: the two-task rule with heads and tails
        (Carlier & Pinson, Management Science 1989).  Only pairs whose
        order precedence leaves open count: a fixed order needs no more
        than the per-task latest starts that :meth:`solve` asserts.
        """
        inst, dur, due, rel = self.inst, self.dur, self.due, self.release

        def onto(op: str) -> set[tuple[str, int]]:
            """The instances ``op`` is forced onto."""
            return {(c, idxs[0]) for c, idxs in offers.get(op, ()) if len(idxs) == 1}

        # per instance, its forced tasks by job
        forced: dict[tuple[str, int], dict[str, list[Task]]] = {}
        for j in inst.jobs:
            for o in j.operations:
                for c, idxs in offers.get(o, ()):
                    if len(idxs) == 1:
                        forced.setdefault((c, idxs[0]), {}).setdefault(j.name, []).append((j.name, o))
        pairs = [(a, b) for a, b in self.same_pairs if onto(a[1]) & onto(b[1])]
        for by_job in forced.values():
            groups = list(by_job.values())
            for i, xs in enumerate(groups):
                for ys in groups[i + 1:]:
                    pairs += [(x, y) for x in xs for y in ys]
        if not pairs:
            return 0

        succ: dict[Task, list[Task]] = {}
        for j in inst.jobs:
            for a, b in j.precedence:
                succ.setdefault((j.name, a), []).append((j.name, b))
        # a successor's release exceeds its predecessor's, as durations are >= 1
        tail: dict[Task, int] = {}
        for t in sorted(self.all_tasks, key=rel.__getitem__, reverse=True):
            tail[t] = max((dur[s] + tail[s] for s in succ.get(t, ())), default=0)

        def need(x: Task, y: Task) -> int:
            """The least cap under which ``x`` can run before ``y``."""
            end = rel[x] + dur[x]
            return max(end + tail[x] - due[x[0]],
                       max(rel[y], end) + dur[y] + tail[y] - due[y[0]])

        return max(min(need(x, y), need(y, x)) for x, y in pairs)

    # -- shared machinery -----------------------------------------------

    def _tick(self) -> None:
        self._ticks += 1
        if self._ticks & 255:
            return
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolveTimeout(f"search deadline exceeded after {self._ticks} steps")
        if self.step_limit is not None and self._ticks >= self.step_limit:
            raise _StepsSpent
        mark = self._stall_mark
        if self.rng is not None and mark is not None and self._ticks - mark >= STALL_STEPS:
            self._neighbourhood_step()

    def _neighbourhood_step(self) -> None:
        """Hand the incumbent to :meth:`reoptimize` on a second search.

        The second search is built at the first stall.  ``NEIGHBOURHOOD_JOBS``
        jobs, fewer if the instance has no more than that, are drawn from
        ``rng``; a better schedule becomes the incumbent, even when the step
        ends in a timeout, and one at the root lower bound ends the search.
        """
        self._stall_mark = self._ticks
        if self.best is None:
            return
        if self._neighbour is None:
            self._neighbour = _Search(self.inst)
        nb = self._neighbour
        jobs = [j.name for j in self.inst.jobs]
        free = set(self.rng.sample(jobs, min(NEIGHBOURHOOD_JOBS, len(jobs) - 1)))
        try:
            nb.reoptimize(self.cap, (*self.best, self.best_t), free, deadline=self.deadline)
        finally:
            if nb.best_t < self.best_t:
                self.best, self.best_t = nb.best, nb.best_t

    def _raised_bound(self, bound: tuple[int, list[int]],
                      raised: Iterable[int]) -> tuple[int, list[int]]:
        """``bound`` after asserts that raised the nodes in ``raised``.

        A bound is the total tardiness of the earliest starts in ``self.low``
        (a lower bound in the order search, exact at its leaves) and each
        job's latest sink end; every node raised from ``(0, [0] * jobs)``
        gives the base level's.  Starts only rise, so a job's latest sink end
        is the larger of its old value and its raised sinks' new ends, and
        the total grows by the extra lateness.  Ends are copied on a rise.
        """
        total, ends = bound
        low, sink_at = self.low, self.sink_at
        copied = False
        for n in raised:
            sink = sink_at[n]
            if sink is not None:
                j, d, due = sink
                end = low[n] + d
                old = ends[j]
                if end > old:
                    if not copied:
                        ends = ends.copy()
                        copied = True
                    ends[j] = end
                    if end > due:
                        total += end - (old if old > due else due)
        return total, ends

    def _starts(self) -> dict[Task, int]:
        low = self.low
        return {t: low[n] for t, n in self.node.items()}

    def _assert_before(self, a: Task, b: Task) -> bool:
        """Assert that ``a`` completes before ``b`` starts; False if contradictory."""
        return self.kern.assert_edge(self.node[b], self.node[a], -self.dur[a]) == 0

    # -- allocation search ----------------------------------------------

    def _candidates(self, slot: tuple[Task, str]) -> list[int]:
        """The instances a slot may take, the one that clashes least first.

        A kept task's slot takes its kept instance.  Otherwise each group of
        interchangeable instances offers the ones in use and the next unused
        one.  Those in use form a prefix of the group, as a slot takes one in
        use or the first unused one and allocations are undone last first.
        An instance is in use when its load is positive: durations are >= 1.

        They come by how many of an instance's tasks overlap this one at the
        solve's root earliest starts (``order_root[0]``), fewest first, then
        by load and index.  The root starts include a neighbourhood step's
        kept order, and no cap assert raises them.  An unused instance has
        no task and no load, so the unused ones come first, by index, and
        only instances in use are counted.
        """
        (job, op), cls = slot
        kept = self.keep.get(slot[0])
        if kept is not None:
            return [kept[cls]]
        load = self.load
        unused, used = [], []
        for caps, indices in self.class_groups.get(cls, ()):
            if op in caps:
                for i in indices:
                    if not load[(cls, i)]:
                        unused.append(i)
                        break
                    used.append(i)
        unused.sort()
        if len(used) > 1:
            low, node, dur, on_key = self.order_root[0], self.node, self.dur, self.on_key
            start = low[node[slot[0]]]
            end = start + dur[slot[0]]
            ranked = []  # (tasks that overlap this one, load, index) per instance in use
            for i in used:
                key = (cls, i)
                clash = 0
                for u in on_key[key]:
                    s = low[node[u]]
                    if s < end and start < s + dur[u]:
                        clash += 1
                ranked.append((clash, load[key], i))
            ranked.sort()
            used = [i for _, _, i in ranked]
        return unused + used

    def _apply(self, slot: tuple[Task, str], idx: int) -> None:
        task, cls = slot
        self.alloc[task][cls] = idx
        self.load[(cls, idx)] += self.dur[task]
        self.on_key[(cls, idx)].append(task)

    def _unapply(self, slot: tuple[Task, str], idx: int) -> None:
        task, cls = slot
        del self.alloc[task][cls]
        self.load[(cls, idx)] -= self.dur[task]
        self.on_key[(cls, idx)].pop()

    def _overloaded(self, key: tuple[str, int]) -> bool:
        """Can the tasks put on one instance still be packed sequentially?

        Tasks sorted by latest finish must fit one after another starting
        from the smallest release seen so far; failing that, no ordering
        search below this allocation can succeed.
        """
        tasks_here = self.on_key[key]
        if len(tasks_here) < 2:
            return False
        windows = sorted(
            (self.due[t[0]] + self.cap, self.release[t], self.dur[t])
            for t in tasks_here
        )
        total = 0
        floor = windows[0][1]
        for latest, rel, dur in windows:
            floor = min(floor, rel)
            total += dur
            if floor + total > latest:
                return True
        return False

    def _allocate(self) -> Schedule | None:
        """Iterate over allocations; each complete one runs the order search."""
        slots = self.slots
        frames: list[list] = []  # per open slot: [remaining indices, applied index]
        while True:
            if len(frames) == len(slots):
                res = self._alloc_leaf()
                if res is not None:
                    return res
            else:
                frames.append([self._candidates(slots[len(frames)]), None])
            while frames:
                self._tick()
                remaining, applied = frames[-1]
                slot = slots[len(frames) - 1]
                if applied is not None:
                    self._unapply(slot, applied)
                    frames[-1][1] = None
                if remaining:
                    idx = remaining.pop(0)
                    self._apply(slot, idx)
                    if self._overloaded((slot[1], idx)):
                        self._unapply(slot, idx)
                        continue
                    frames[-1][1] = idx
                    break
                frames.pop()
            else:
                return None

    # -- ordering search -------------------------------------------------

    def _alloc_leaf(self) -> Schedule | None:
        """Order search of a complete allocation, unless a refuted one covers it.

        The order search's outcome depends only on the leaf's conflict pairs:
        the cap level and the kept order are fixed for the solve.  A superset
        of pairs only adds constraints, so each schedule it admits is matched
        by one at least as early under the subset.  A leaf whose pairs
        contain the pairs of a leaf whose order search returned None in this
        solve thus holds no schedule in decide mode and no strictly better
        incumbent in optimize mode, as ``best_t`` only falls; it is skipped.
        Only a search that ran to its end is recorded, never one cut off by
        an exception.  The memo keeps the last ``MEMO_LEAVES`` masks.
        """
        pairs = self._leaf_pairs()
        mask = self._pair_mask(pairs)
        if self._covered(mask):
            return None
        self._stall_mark = self._ticks
        res = self._order_dfs(pairs)
        self._stall_mark = None
        if res is None:
            self.refuted.append(mask)
        return res

    def _leaf_pairs(self) -> set[tuple[Task, Task]]:
        """The conflict pairs of the current allocation left to order."""
        pairs = _cross_job_pairs(self.on_key.values())
        pairs.update(self.same_pairs)
        if self.kept_order:
            pairs.difference_update(self.kept_order)
        return pairs

    def _pair_mask(self, pairs: set[tuple[Task, Task]]) -> int:
        bits = self.pair_bit
        mask = 0
        for p in pairs:
            bit = bits.get(p)
            if bit is None:
                bit = bits[p] = 1 << len(bits)
                self.pair_nodes[p] = (self.node[p[0]], self.node[p[1]])
            mask |= bit
        return mask

    def _covered(self, mask: int) -> bool:
        """Does a refuted leaf's pair set lie inside ``mask``'s?"""
        for seen in self.refuted:
            if seen & mask == seen:
                return True
        return False

    def _pick_pair(self, heap: list, raised: list[int], remaining: dict,
                   on_node: dict) -> tuple[tuple[Task, Task], list, list]:
        """The pair whose earlier task can start first, its directions, and the heap left.

        Ties go to the later of the two earliest starts, then to the pair
        itself; the task with the earlier (start, name) goes first.

        ``remaining`` maps each pair left to its kernel nodes, and
        ``on_node`` each node to the pairs on it.  ``heap``, the level
        above's, holds every remaining pair's key as it was when pushed.
        Earliest starts only rise down the tree, so no key exceeds its
        pair's current one, and only the pairs on the nodes in ``raised``,
        which the last assert raised, can have moved.  A copy of ``heap``
        gets their current keys, and a key that reaches its top out of date,
        or whose pair is gone, is dropped.  So no Python function runs per
        remaining pair, and ``heap`` itself stays as it was for the levels
        that come back to it.
        """
        low = self.low
        heap = heap.copy()
        for n in raised:
            for p in on_node.get(n, ()):
                ab = remaining.get(p)
                if ab is not None:
                    x, y = low[ab[0]], low[ab[1]]
                    heappush(heap, (x, y, p) if x <= y else (y, x, p))
        while True:
            x, y, pair = heappop(heap)
            ab = remaining.get(pair)
            if ab is not None:
                la, lb = low[ab[0]], low[ab[1]]
                if (la, lb) == (x, y) or (lb, la) == (x, y):
                    break
        a, b = pair
        if (la, a) <= (lb, b):
            return pair, [(a, b), (b, a)], heap
        return pair, [(b, a), (a, b)], heap

    def _promising(self, lb: int) -> bool:
        """May a node whose total tardiness is at least ``lb`` beat the incumbent?"""
        if not self.optimizing or self.best_t is None:
            return True
        return lb < self.best_t

    def _cycle_levels(self, k: int, base_edges: int) -> int:
        """The levels whose edges close the cycle that rejected level ``k``'s assert.

        Returned as a bitmask, bit ``i`` for level ``i``.  Level ``i`` of the
        order search asserted edge ``base_edges + i``; lower edge ids belong
        to the base, the cap or the kept order, which no level of this search
        can undo.
        """
        mask = 0
        for e in self.kern.conflict():
            if e >= base_edges:
                mask |= 1 << (e - base_edges)
        return mask

    def _order_dfs(self, pairs: set[tuple[Task, Task]]) -> Schedule | None:
        """Direct every pair of a complete allocation, by conflict-directed backjumping.

        Level ``k`` of the search directs one pair and holds exactly one
        asserted edge, ``base_edges + k``.  Each level keeps a conflict set,
        a bitmask of the lower levels that explain why its directions
        failed.  A direction the kernel rejects adds the levels of the
        negative cycle that ``conflict()`` names, since those decisions alone
        already rule out every schedule below.  When both directions of
        level ``k`` have failed, every schedule that keeps the decisions of
        its conflict set is ruled out, since a schedule orders the pair one
        way or the other.  The search therefore pops back to the deepest
        level ``h`` of that set, leaving the levels between untried because
        their decisions took no part in the failure, and merges the rest of
        the set into ``h``'s.  An empty set refutes the allocation.  This is
        Prosser's conflict-directed backjumping (Computational Intelligence,
        1993).

        A ``_promising`` prune and an optimize-mode leaf blame every level
        below them: both compare with ``best_t``, which depends on every
        decision so far.  Only subtrees that cycles prove empty are skipped,
        and the rest are visited in the same order, so every result and
        incumbent is the one chronological backtracking would find.

        Each level also keeps ``(total, ends)`` after its assert: the total
        tardiness of the earliest starts, which is what ``_promising`` and
        the leaf compare, and each job's latest sink end.
        :meth:`_raised_bound` derives them from the level above, or from
        the solve's ``order_root``, and the nodes the assert raised.  A
        level's values are never changed in place, so popping back to it
        restores them.  So is each level's heap of the pairs left, from
        which :meth:`_pick_pair` picks the next level's pair.
        """
        kern = self.kern
        base = kern.level()
        base_edges = kern.num_edges()
        nodes = self.pair_nodes
        remaining = {p: nodes[p] for p in pairs}
        on_node: dict[int, list[tuple[Task, Task]]] = {}
        for p, (a, b) in remaining.items():
            on_node.setdefault(a, []).append(p)
            on_node.setdefault(b, []).append(p)
        # per level: [pair, directions left, conflict set, bound after its
        # assert, heap of the pairs left after its pick]
        frames: list[list] = []
        low = self.low = self.order_root[0]
        # keys (earlier start, later start, pair), as :meth:`_pick_pair` orders them
        root_heap = [(x, y, p) if (x := low[a]) <= (y := low[b]) else (y, x, p)
                     for p, (a, b) in remaining.items()]
        heapify(root_heap)
        # the deepest level's bound and the nodes its assert raised
        root = bound = self.order_root[1]
        raised: list[int] = []
        while True:
            if len(frames) == len(pairs):
                res = self._order_leaf(bound[0])
                if res is not None:
                    while kern.level() > base:
                        kern.pop()
                    return res
                if not frames:
                    return None
                frames[-1][2] |= (1 << (len(frames) - 1)) - 1
                kern.pop()
            else:
                heap = frames[-1][4] if frames else root_heap
                pair, dirs, heap = self._pick_pair(heap, raised, remaining, on_node)
                del remaining[pair]
                frames.append([pair, dirs, 0, None, heap])
            while True:
                self._tick()
                k = len(frames) - 1
                frame = frames[k]
                dirs = frame[1]
                advanced = False
                while dirs:
                    a, b = dirs.pop(0)
                    kern.push()
                    if not self._assert_before(a, b):
                        frame[2] |= self._cycle_levels(k, base_edges)
                    else:
                        self.low = kern.earliest_all()
                        raised = kern.changed()
                        bound = self._raised_bound(frames[k - 1][3] if k else root, raised)
                        if self._promising(bound[0]):
                            frame[3] = bound
                            advanced = True
                            break
                        frame[2] |= (1 << k) - 1
                    kern.pop()
                if advanced:
                    break
                culprits = frame[2]
                if not culprits:
                    while kern.level() > base:
                        kern.pop()
                    return None
                h = culprits.bit_length() - 1
                for dropped in frames[h + 1:]:
                    remaining[dropped[0]] = nodes[dropped[0]]
                del frames[h + 1:]
                while kern.level() > base + h:
                    kern.pop()
                frames[h][2] |= culprits ^ (1 << h)

    def _order_leaf(self, total: int) -> Schedule | None:
        """A complete order: its schedule when deciding, else a better incumbent.

        ``total`` is the total tardiness of its earliest starts.
        """
        if not self.optimizing:
            return build_schedule(self.inst, self._starts(), self.alloc)
        if self.best_t is None or total < self.best_t:
            self.best_t = total
            self.best = (self._starts(), {t: dict(cs) for t, cs in self.alloc.items()})
            self._stall_mark = self._ticks
            if total <= self.root_lb:
                raise _ProvenOptimal
        return None


def _search_for(inst: Instance, cap: int, search: _Search | None) -> _Search:
    """``search``, or a new search of ``inst``, once ``cap`` and ``search`` pass the checks."""
    if cap < 0:
        raise ValueError(f"tardiness cap must be non-negative, got {cap}")
    if search is None:
        return _Search(inst)
    if search.inst is not inst:
        raise ValueError("search was built for another instance")
    return search


def decide(
    inst: Instance,
    cap: int,
    *,
    deadline: float | None = None,
    search: _Search | None = None,
) -> Schedule | None:
    """A schedule with every job at most ``cap`` minutes late, or None.

    ``deadline`` is an absolute ``time.monotonic`` value; crossing it raises
    :class:`SolveTimeout`.  None is a proof of exhaustion, not a give-up.

    ``search`` is a search already built for ``inst``, as the cap-search
    strategies pass to all their probes: validation and the build are then
    skipped, and only the cap's per-task latest starts are asserted, under
    ``push``/``pop``.  The result is the same as without it.
    """
    return _search_for(inst, cap, search).solve(cap, deadline=deadline)


def optimize(
    inst: Instance,
    cap: int,
    *,
    deadline: float | None = None,
    search: _Search | None = None,
    incumbent: Schedule | None = None,
    seed: int | None = None,
) -> OptimizeResult:
    """Minimal total tardiness among schedules obeying the per-job cap.

    Runs branch and bound to exhaustion unless ``deadline`` strikes first, in
    which case the best incumbent is returned unproven.  Whenever the order
    search of one allocation stalls, a neighbourhood step re-solves the tasks
    of a few jobs drawn with ``random.Random(seed)`` around the incumbent
    (see the module docstring); a seed of None means ``DEFAULT_SEED``, so
    equal calls return equal schedules.  Neighbourhood steps only find
    incumbents sooner: a run to exhaustion returns a proven optimum.

    ``search`` is a search already built for ``inst``, as the cap-search
    strategies pass on from their probes.  ``incumbent`` is a schedule under
    ``cap``, such as the cap search's witness: the search starts from it, it
    is returned itself when nothing better turns up, and when its total
    meets the root lower bound it is returned proven without searching.
    """
    search = _search_for(inst, cap, search)
    start = None
    if incumbent is not None:
        if incumbent.total_tardiness <= search.root_lb:
            return OptimizeResult(incumbent, True)
        start = ({a.task: a.start for a in incumbent.assignments},
                 {a.task: dict(a.resources) for a in incumbent.assignments},
                 incumbent.total_tardiness)
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    proven = True
    try:
        search.solve(cap, optimizing=True, deadline=deadline, incumbent=start, rng=rng)
    except _ProvenOptimal:
        pass
    except SolveTimeout:
        proven = False
    if search.best is None:
        return OptimizeResult(None, proven)
    if start is not None and search.best[0] is start[0]:
        return OptimizeResult(incumbent, proven)
    return OptimizeResult(build_schedule(inst, *search.best), proven)


def start_times_from_order(
    inst: Instance,
    alloc: Allocation,
    before: Iterable[tuple[Task, Task]],
) -> Schedule | None:
    """Earliest schedule for fully directed orderings, or None on a cycle.

    ``before`` lists directed pairs (first task completes before the second
    starts); job precedence is added automatically.  Raises ``ValueError``
    when the instance's times are past the kernel's range, as a search does.
    """
    _check_horizon(inst, sum(inst.duration(o) for j in inst.jobs for o in j.operations))
    eng = dl.DLEngine()
    var = {t: eng.new_var(t) for t in tasks(inst)}
    for v in var.values():
        eng.assert_upper(eng.zero, v, 0)
    edges: list[tuple[Task, Task]] = []
    for j in inst.jobs:
        for a, b in sorted(j.precedence):
            edges.append(((j.name, a), (j.name, b)))
    for a, b in before:
        if a not in var or b not in var:
            raise ValueError(f"unknown task in ordering: {a if a not in var else b}")
        edges.append((a, b))
    for a, b in edges:
        if eng.assert_upper(var[a], var[b], -inst.duration(a[1])) is not None:
            return None
    sol = eng.solution()
    return build_schedule(inst, {t: sol[v] for t, v in var.items()}, alloc)
