"""Complete schedule search under a per-job tardiness cap.

``decide`` answers whether a schedule exists in which every job finishes at
most ``cap`` minutes after its deadline; ``optimize`` minimizes total
tardiness among such schedules by branch and bound.  The search branches on
two kinds of decisions:

* an instance of every demanded resource class for every task, filtered so
  that interchangeable instances (same class, identical capabilities) are
  introduced in index order, and
* a direction for every conflict pair, i.e. two tasks that may not overlap
  because they belong to the same job or share a chosen instance.

Start times themselves are never enumerated: once every pair is directed,
the difference-constraint system either admits a unique earliest schedule or
proves the directions contradictory.  Both searches are iterative, so deep
instances cannot exhaust the interpreter stack.

The cap enters the difference-constraint system only as an upper bound on
each task's start.  A search is therefore built once per instance, with
start bounds and precedence at the kernel's base level, and each cap is
asserted on a pushed level and popped afterwards.  The cap-search strategies
send all their probes to one such search, as multi-shot ASP solving
re-solves one ground program under a changing bound (Gebser et al., TPLP
2019).  The final ``optimize`` of a cap search runs on that search too.

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
"""

from __future__ import annotations

import random
import time
from typing import Iterable, NamedTuple

from .dl import DLEngine
from .model import Instance, Task, tasks, validate_instance
from .schedule import Allocation, Schedule, build_schedule

STALL_STEPS = 1024  # order-search steps in one allocation without a new incumbent
NEIGHBOURHOOD_STEPS = 2048  # search steps of one neighbourhood step
NEIGHBOURHOOD_JOBS = 3  # jobs re-solved by one neighbourhood step, if there are more
DEFAULT_SEED = 0  # neighbourhood choice when ``optimize`` gets no seed


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


def _closure(precedence: Iterable[tuple[str, str]]) -> set[tuple[str, str]]:
    succ: dict[str, set[str]] = {}
    for a, b in precedence:
        succ.setdefault(a, set()).add(b)
    out: set[tuple[str, str]] = set()

    def reach(n: str) -> set[str]:
        seen: set[str] = set()
        todo = list(succ.get(n, ()))
        while todo:
            m = todo.pop()
            if m not in seen:
                seen.add(m)
                todo.extend(succ.get(m, ()))
        return seen

    for a in succ:
        for b in reach(a):
            out.add((a, b))
    return out


def _same_job_pairs(inst: Instance) -> list[tuple[Task, Task]]:
    """Same-job task pairs left unordered by the precedence closure."""
    out = []
    for j in inst.jobs:
        rel = _closure(j.precedence)
        ops = sorted(j.operations)
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if (a, b) not in rel and (b, a) not in rel:
                    out.append(((j.name, a), (j.name, b)))
    return sorted(out)


def _shared_instance_pairs(alloc: Allocation) -> list[tuple[Task, Task]]:
    """Cross-job task pairs that compete for at least one chosen instance."""
    users: dict[tuple[str, int], list[Task]] = {}
    for task in sorted(alloc):
        for cls, idx in alloc[task].items():
            users.setdefault((cls, idx), []).append(task)
    pairs: set[tuple[Task, Task]] = set()
    for ts in users.values():
        for i, a in enumerate(ts):
            for b in ts[i + 1:]:
                if a[0] != b[0]:
                    pairs.add((a, b) if a < b else (b, a))
    return sorted(pairs)


def conflict_pairs(inst: Instance, alloc: Allocation) -> set[tuple[Task, Task]]:
    """Every task pair whose order the solver must decide under ``alloc``."""
    return set(_same_job_pairs(inst)) | set(_shared_instance_pairs(alloc))


def _definitely_unsat(inst: Instance, cap: int) -> bool:
    """Cheap necessary conditions: serial job length and class capacity."""
    for j in inst.jobs:
        if sum(inst.duration(o) for o in j.operations) > j.deadline + cap:
            return True
    work: dict[str, list[tuple[int, int]]] = {}
    for j in inst.jobs:
        window = j.deadline + cap
        for o in j.operations:
            for c in inst.demanded(o):
                work.setdefault(c, []).append((window, inst.duration(o)))
    for c, items in work.items():
        count = len(inst.classes.get(c, ()))
        items.sort()
        acc = 0
        for window, dur in items:
            acc += dur
            # everything due within `window` shares `count` instances
            if acc > count * window:
                return True
    return False


class _Search:
    """The search over one instance, reused for every cap it is asked about.

    Building it validates ``inst`` and does, once, everything no cap changes:
    it asserts that every start is non-negative and that job precedence
    holds, at the kernel's base level, and fixes the earliest starts, root
    lower bound and release times those imply, the unordered same-job pairs,
    the groups of interchangeable instances and the decision slots.  :meth:`solve` then enters a cap only as
    per-task latest starts, asserted on a pushed kernel level that it pops
    again however the solve ends.  One search thus answers a sequence of caps
    the way multi-shot ASP solving re-solves one ground program under a
    changing bound.
    """

    # Past 30 instance attributes CPython stops sharing a class's dict keys,
    # and every attribute read in the search loops gets slower (about 7% of
    # a small exact solve); slots keep those reads fast.
    __slots__ = (
        # built once per instance
        "inst", "sym", "all_tasks", "dur", "due", "eng", "var", "kern", "node",
        "sinks", "base_ok", "base_level", "low", "root_lb", "release",
        "same_pairs", "groups", "class_groups", "group_pos", "slots",
        # a neighbourhood step's pins, and the search that runs those steps
        "keep", "kept_order", "step_limit", "_neighbour",
        # per solve
        "cap", "optimizing", "deadline", "rng", "_ticks", "_stall_mark",
        "best_t", "best", "alloc", "load", "on_key",
    )

    def __init__(
        self,
        inst: Instance,
        *,
        symmetry_breaking: bool = True,
        backend: str | None = None,
    ):
        _ensure_solvable_structure(inst)
        self.inst = inst
        self.sym = symmetry_breaking

        self.all_tasks = tasks(inst)
        self.dur = {t: inst.duration(t[1]) for t in self.all_tasks}
        self.due = {j.name: j.deadline for j in inst.jobs}

        self.eng = DLEngine(backend=backend)
        self.var = {t: self.eng.new_var(t) for t in self.all_tasks}
        # the search talks to the raw kernel, where a variable's node is its
        # handle + 1 and node 0 is the origin
        self.kern = self.eng.kernel
        self.node = {t: v.handle + 1 for t, v in self.var.items()}
        # jobs as (deadline, [(node, duration) of tasks with no same-job
        # successor]): precedence ends every other task before one of these
        self.sinks = []
        for j in inst.jobs:
            preds = {a for a, _ in j.precedence}
            ends = [(self.node[(j.name, o)], inst.duration(o))
                    for o in sorted(j.operations) if o not in preds]
            if ends:
                self.sinks.append((j.deadline, ends))
        self.base_ok = self._assert_base()
        self.base_level = self.kern.level()
        # earliest starts of every node, refreshed after each successful
        # assert; a cap's latest starts leave them as they are here
        self.low = self.kern.earliest_all()
        self.root_lb = self._lb() if self.base_ok else 0
        # earliest starts implied by precedence alone, for the packing check
        self.release = self._starts() if self.base_ok else {}

        self.same_pairs = _same_job_pairs(inst)
        self._build_groups()
        self.slots = self._build_slots()

        # set only for a neighbourhood step (see :meth:`reoptimize`): tasks
        # kept on their instances, and their directed conflict pairs
        self.keep: Allocation = {}
        self.kept_order: list[tuple[Task, Task]] = []
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
        """
        self.cap = cap
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
        for g in self.groups:
            g["cnt"] = [0] * len(g["indices"])
        if not self.base_ok or _definitely_unsat(self.inst, cap):
            return None
        kern = self.kern
        kern.push()
        try:
            for t in self.all_tasks:
                # start <= latest: a bound from the origin raises no earliest
                # start, so the base ``low`` and ``release`` stay exact
                if kern.assert_edge(0, self.node[t], self.due[t[0]] + cap - self.dur[t]):
                    return None
            for a, b in self.kept_order:
                if not self._assert_before(a, b):
                    return None
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
        was found, else the incumbent.  The search must be built without
        symmetry breaking: kept tasks make interchangeable instances differ.
        """
        if self.sym:
            raise ValueError("a neighbourhood search needs symmetry_breaking=False")
        starts, alloc, _ = incumbent
        keep = {t: alloc[t] for t in self.all_tasks if t[0] not in free}
        pairs = [p for p in self.same_pairs if p[0] in keep and p[1] in keep]
        pairs += _shared_instance_pairs(keep)
        dur = self.dur
        self.keep = keep
        # a schedule overlaps no conflicting pair, so the first ends first
        self.kept_order = [(a, b) if starts[a] + dur[a] <= starts[b] else (b, a)
                           for a, b in pairs]
        self.step_limit = NEIGHBOURHOOD_STEPS
        try:
            self.solve(cap, optimizing=True, deadline=deadline, incumbent=incumbent)
        except _StepsSpent:
            pass
        finally:
            self.keep = {}
            self.kept_order = []
            self.step_limit = None

    # -- setup ----------------------------------------------------------

    def _assert_base(self) -> bool:
        """Start bounds and precedence; False if contradictory."""
        kern = self.kern
        for t in self.all_tasks:
            # start >= 0
            if kern.assert_edge(self.node[t], 0, 0):
                return False
        for j in self.inst.jobs:
            for a, b in sorted(j.precedence):
                if not self._assert_before((j.name, a), (j.name, b)):
                    return False
        return True

    def _build_groups(self) -> None:
        """Interchangeable instances: same class and identical capabilities."""
        bykey: dict[tuple[str, tuple[str, ...]], list[int]] = {}
        for r in self.inst.resources:
            bykey.setdefault((r.cls, tuple(sorted(r.capabilities))), []).append(r.index)
        self.groups: list[dict] = []
        self.class_groups: dict[str, list[int]] = {}
        self.group_pos: dict[tuple[str, int], tuple[int, int]] = {}
        for (cls, caps), idxs in sorted(bykey.items()):
            gid = len(self.groups)
            idxs = sorted(idxs)
            self.groups.append({"caps": set(caps), "indices": idxs, "cnt": [0] * len(idxs)})
            self.class_groups.setdefault(cls, []).append(gid)
            for pos, idx in enumerate(idxs):
                self.group_pos[(cls, idx)] = (gid, pos)

    def _build_slots(self) -> list[tuple[Task, str]]:
        """One decision slot per (task, demanded class), hardest jobs first."""

        def key(t: Task) -> tuple:
            branch = 1
            for c in sorted(self.inst.demanded(t[1])):
                branch *= max(1, len(self.inst.capable(c, t[1])))
            return (self.due[t[0]], t[0], branch, t[1])

        slots = []
        for t in sorted(self.all_tasks, key=key):
            for c in sorted(self.inst.demanded(t[1])):
                slots.append((t, c))
        return slots

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
            self._neighbour = _Search(self.inst, symmetry_breaking=False,
                                      backend=self.eng.backend)
        nb = self._neighbour
        jobs = [j.name for j in self.inst.jobs]
        free = set(self.rng.sample(jobs, min(NEIGHBOURHOOD_JOBS, len(jobs) - 1)))
        try:
            nb.reoptimize(self.cap, (*self.best, self.best_t), free, deadline=self.deadline)
        finally:
            if nb.best_t < self.best_t:
                self.best, self.best_t = nb.best, nb.best_t

    def _lb(self) -> int:
        """Total tardiness of the earliest starts in ``self.low``.

        A lower bound inside the order search, the exact total at its leaves.
        """
        low = self.low
        total = 0
        for due, ends in self.sinks:
            late = max(low[n] + d for n, d in ends) - due
            if late > 0:
                total += late
        return total

    def _starts(self) -> dict[Task, int]:
        low = self.low
        return {t: low[n] for t, n in self.node.items()}

    def _assert_before(self, a: Task, b: Task) -> bool:
        """Assert that ``a`` completes before ``b`` starts; False if contradictory."""
        return self.kern.assert_edge(self.node[b], self.node[a], -self.dur[a]) == 0

    # -- allocation search ----------------------------------------------

    def _candidates(self, slot: tuple[Task, str]) -> list[int]:
        (job, op), cls = slot
        if self.sym:
            allowed = []
            for gid in self.class_groups.get(cls, ()):
                g = self.groups[gid]
                if op not in g["caps"]:
                    continue
                open_prefix = sum(1 for c in g["cnt"] if c > 0)
                allowed.extend(g["indices"][: min(open_prefix + 1, len(g["indices"]))])
        else:
            kept = self.keep.get(slot[0])
            if kept is not None:
                return [kept[cls]]
            allowed = list(self.inst.capable(cls, op))
        allowed.sort(key=lambda i: (self.load[(cls, i)], i))
        return allowed

    def _apply(self, slot: tuple[Task, str], idx: int) -> None:
        task, cls = slot
        self.alloc[task][cls] = idx
        self.load[(cls, idx)] += self.dur[task]
        self.on_key[(cls, idx)].append(task)
        gid, pos = self.group_pos[(cls, idx)]
        self.groups[gid]["cnt"][pos] += 1

    def _unapply(self, slot: tuple[Task, str], idx: int) -> None:
        task, cls = slot
        del self.alloc[task][cls]
        self.load[(cls, idx)] -= self.dur[task]
        self.on_key[(cls, idx)].pop()
        gid, pos = self.group_pos[(cls, idx)]
        self.groups[gid]["cnt"][pos] -= 1

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
        pairs = set(self.same_pairs)
        for users in self.on_key.values():
            for i, a in enumerate(users):
                for b in users[i + 1:]:
                    if a[0] != b[0]:
                        pairs.add((a, b) if a < b else (b, a))
        keep = self.keep
        if keep:
            pairs = {p for p in pairs if p[0] not in keep or p[1] not in keep}
        self._stall_mark = self._ticks
        res = self._order_dfs(pairs)
        self._stall_mark = None
        return res

    def _pick_pair(self, remaining: set) -> tuple[tuple[Task, Task], list]:
        """The pair whose earlier task can start first, and its directions.

        Ties go to the later of the two earliest starts, then to the pair
        itself; the task with the earlier (start, name) goes first.
        """
        low, node = self.low, self.node

        def key(pair):
            la, lb = low[node[pair[0]]], low[node[pair[1]]]
            return (la, lb, pair) if la <= lb else (lb, la, pair)

        pair = min(remaining, key=key)
        a, b = pair
        if (low[node[a]], a) <= (low[node[b]], b):
            return pair, [(a, b), (b, a)]
        return pair, [(b, a), (a, b)]

    def _promising(self) -> bool:
        if not self.optimizing or self.best_t is None:
            return True
        return self._lb() < self.best_t

    def _order_dfs(self, pairs: set[tuple[Task, Task]]) -> Schedule | None:
        kern = self.kern
        base = kern.level()
        remaining = set(pairs)
        frames: list[list] = []  # per directed pair: [pair, directions left]
        self.low = kern.earliest_all()
        while True:
            if len(frames) == len(pairs):
                res = self._order_leaf()
                if res is not None:
                    while kern.level() > base:
                        kern.pop()
                    return res
                if not frames:
                    return None
                kern.pop()
            else:
                pair, dirs = self._pick_pair(remaining)
                remaining.discard(pair)
                frames.append([pair, dirs])
            while True:
                self._tick()
                dirs = frames[-1][1]
                advanced = False
                while dirs:
                    a, b = dirs.pop(0)
                    kern.push()
                    if self._assert_before(a, b):
                        self.low = kern.earliest_all()
                        if self._promising():
                            advanced = True
                            break
                    kern.pop()
                if advanced:
                    break
                remaining.add(frames.pop()[0])
                if not frames:
                    return None
                kern.pop()

    def _order_leaf(self) -> Schedule | None:
        if not self.optimizing:
            return build_schedule(self.inst, self._starts(), self.alloc)
        total = self._lb()
        if self.best_t is None or total < self.best_t:
            self.best_t = total
            self.best = (self._starts(), {t: dict(cs) for t, cs in self.alloc.items()})
            self._stall_mark = self._ticks
            if total <= self.root_lb:
                raise _ProvenOptimal
        return None


def decide(
    inst: Instance,
    cap: int,
    *,
    symmetry_breaking: bool = True,
    deadline: float | None = None,
    backend: str | None = None,
    search: _Search | None = None,
) -> Schedule | None:
    """A schedule with every job at most ``cap`` minutes late, or None.

    ``deadline`` is an absolute ``time.monotonic`` value; crossing it raises
    :class:`SolveTimeout`.  None is a proof of exhaustion, not a give-up.

    ``search`` is a search already built for ``inst``, as the cap-search
    strategies pass to all their probes: validation and the build are then
    skipped, the search's own ``symmetry_breaking`` and ``backend`` apply,
    and only the cap's per-task latest starts are asserted, under
    ``push``/``pop``.  The result is the same as without it.
    """
    if cap < 0:
        raise ValueError(f"tardiness cap must be non-negative, got {cap}")
    if search is None:
        search = _Search(inst, symmetry_breaking=symmetry_breaking, backend=backend)
    elif search.inst is not inst:
        raise ValueError("search was built for another instance")
    return search.solve(cap, deadline=deadline)


def optimize(
    inst: Instance,
    cap: int,
    *,
    symmetry_breaking: bool = True,
    deadline: float | None = None,
    backend: str | None = None,
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
    strategies pass on from their probes; its own ``symmetry_breaking`` and
    ``backend`` then apply.  ``incumbent`` is a schedule under ``cap``, such
    as the cap search's witness: the search starts from it, it is returned
    itself when nothing better turns up, and when its total meets the root
    lower bound it is returned proven without searching.
    """
    if cap < 0:
        raise ValueError(f"tardiness cap must be non-negative, got {cap}")
    if search is None:
        search = _Search(inst, symmetry_breaking=symmetry_breaking, backend=backend)
    elif search.inst is not inst:
        raise ValueError("search was built for another instance")
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
    backend: str | None = None,
) -> Schedule | None:
    """Earliest schedule for fully directed orderings, or None on a cycle.

    ``before`` lists directed pairs (first task completes before the second
    starts); job precedence is added automatically.
    """
    eng = DLEngine(backend=backend)
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
