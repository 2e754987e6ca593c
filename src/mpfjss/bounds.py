"""Cap-search strategies layered on the decision solver.

A strategy locates a per-job tardiness cap that admits a schedule, then the
optimizer minimizes total tardiness under that cap.  Three strategies:

  single  no probing; cap is the sum of all durations, always satisfiable
  inc     tumbling window: probe caps 0, w, 2w, ... until the first SAT
  exp     doubling ladder to the first SAT cap, then binary search down
          to the smallest satisfiable cap

The strategies differ only in the order in which they try caps.  Every
probe goes through one probe object, which owns the solve's deadline, the
shared search, the probe log and the last SAT schedule (the witness).  A
probe checks the deadline before it starts and never starts after it; the
timeout that ends a cap search, before a probe or inside one, is caught in
one place and leaves the cap None.

The first probe builds the search, inside its own timing: start bounds and
precedence are asserted once, and each probe asserts only its cap's
per-task latest starts under ``push``/``pop``, as multi-shot ASP solving
re-solves one ground program under a changing bound.  The final
``optimize`` runs on that same search and starts from the witness; only
``single``, which probes nothing, builds a search for ``optimize``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from .model import Instance, tasks
from .schedule import Schedule, schedule_to_json
from .solver import SolveTimeout, _Search, decide, optimize

STRATEGIES = ("single", "inc", "exp")


@dataclass(frozen=True, slots=True)
class Probe:
    """One decision call made during cap search."""

    bound: int
    sat: bool
    seconds: float


@dataclass(frozen=True, slots=True)
class StrategyConfig:
    """How :func:`solve_with_strategy` searches.

    ``window`` is the cap step of ``inc``; ``timeout`` is the wall budget of
    the whole solve in seconds.  ``seed`` chooses the jobs that the anytime
    neighbourhood search inside ``optimize`` re-solves; None means a fixed
    default, so equal configurations give equal reports.
    """

    strategy: str = "exp"
    window: int = 20
    timeout: float = 7200.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if not self.timeout > 0:  # NaN too
            raise ValueError("timeout must be positive")


@dataclass(frozen=True, slots=True)
class BoundResult:
    """Outcome of the cap-search phase.

    cap is None when the timeout hit before any satisfiable cap was seen.
    witness is the schedule returned by the final, satisfiable probe; the
    single strategy probes nothing and carries no witness.
    """

    strategy: str
    cap: int | None
    probes: tuple[Probe, ...]
    search_seconds: float
    opt_seconds: float = 0.0
    witness: Schedule | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class SolveReport:
    bound: BoundResult
    schedule: Schedule | None
    total_tardiness: int | None
    proven_optimal: bool

    def verdict(self) -> str:
        if self.bound.cap is None:
            return "bound-not-found"
        if self.schedule is None:
            return "timeout"
        if self.proven_optimal:
            return "optimal"
        return "incumbent"


def single_shot_bound(inst: Instance) -> int:
    """Sum of durations over all tasks; a serial schedule fits under it."""
    return sum(inst.duration(op) for _, op in tasks(inst))


class _Probes:
    """The probes of one cap search: its deadline, its search and its log."""

    def __init__(self, inst: Instance, deadline: float | None):
        self.inst, self.deadline = inst, deadline
        self.search: _Search | None = None
        self.log: list[Probe] = []
        self.witness: Schedule | None = None

    def sat(self, bound: int) -> bool:
        """Decide ``bound``; raises SolveTimeout once the deadline has passed."""
        t0 = time.monotonic()
        if self.deadline is not None and t0 >= self.deadline:
            raise SolveTimeout("cap search deadline passed")
        if self.search is None:
            self.search = _Search(self.inst)
        sched = decide(self.inst, bound, deadline=self.deadline, search=self.search)
        self.log.append(Probe(bound, sched is not None, time.monotonic() - t0))
        if sched is not None:
            self.witness = sched
        return sched is not None


def _inc(sat, window: int) -> int:
    """The cap order of ``inc``: 0, window, 2*window, ... up to the first SAT."""
    bound = 0
    while not sat(bound):
        bound += window
    return bound


def _exp(sat, ceiling: int) -> int | None:
    """The cap order of ``exp``: a ladder clipped to ``ceiling``, then halving.

    An UNSAT probe at the ceiling ends the ladder with no cap.
    """
    if sat(0):
        return 0
    lo, bound = 0, 1  # lo is UNSAT
    while not sat(bound := min(bound, ceiling)):
        if bound == ceiling:
            return None  # unreachable for structurally valid input
        lo, bound = bound, bound * 2
    hi = bound  # SAT
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sat(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _cap_search(
    inst: Instance,
    strategy: str,
    window: int | None,
    deadline: float | None,
) -> tuple[BoundResult, _Search | None]:
    """The cap search of ``strategy`` and the search its probes built, if any.

    A timeout anywhere in it leaves the cap None.
    """
    t0 = time.monotonic()
    probes = _Probes(inst, deadline)
    try:
        if strategy == "single":
            cap = single_shot_bound(inst)
        elif strategy == "inc":
            cap = _inc(probes.sat, window)
        else:
            cap = _exp(probes.sat, single_shot_bound(inst))
    except SolveTimeout:
        cap = None
    bound = BoundResult(strategy, cap, tuple(probes.log), time.monotonic() - t0,
                        witness=probes.witness)
    return bound, probes.search


def incremental_bound(
    inst: Instance,
    window: int = 20,
    *,
    deadline: float | None = None,
) -> BoundResult:
    """Probe caps 0, window, 2*window, ... and stop at the first SAT."""
    if window < 1:
        raise ValueError("window must be at least 1")
    return _cap_search(inst, "inc", window, deadline)[0]


def exponential_bound(inst: Instance, *, deadline: float | None = None) -> BoundResult:
    """Find the smallest satisfiable cap by doubling, then binary search.

    Probes 0, 1, 2, 4, ... (clipped to the sum of durations, which is
    always satisfiable) until the first SAT, then narrows the bracket
    (last UNSAT, first SAT] by halving.  The log of the returned result
    shows UNSAT at cap-1 whenever cap > 0.
    """
    return _cap_search(inst, "exp", None, deadline)[0]


def solve_with_strategy(inst: Instance, cfg: StrategyConfig) -> SolveReport:
    """Run the configured cap search, then optimize under the found cap.

    Both phases share one wall-clock budget of cfg.timeout seconds.  A
    timeout during cap search yields a bound-not-found report; a timeout
    during optimization yields the best incumbent seen, unproven.  For
    ``inc`` and ``exp`` the optimization reuses the probes' search and starts
    from their witness, which is the report's schedule itself when nothing
    better is found.  ``cfg.seed`` seeds the neighbourhood choice of
    :func:`optimize`.
    """
    deadline = time.monotonic() + cfg.timeout
    bound, search = _cap_search(inst, cfg.strategy, cfg.window, deadline)
    if bound.cap is None:
        return SolveReport(bound, None, None, False)

    t0 = time.monotonic()
    res = optimize(inst, bound.cap, deadline=deadline, search=search,
                   incumbent=bound.witness, seed=cfg.seed)
    bound = dataclasses.replace(bound, opt_seconds=time.monotonic() - t0)
    sched = res.schedule
    total = None if sched is None else sched.total_tardiness
    return SolveReport(bound, sched, total, res.proven_optimal)


def report_to_json(report: SolveReport) -> dict:
    sched = report.schedule
    return {
        "strategy": report.bound.strategy,
        "cap": report.bound.cap,
        "probes": [
            {"bound": p.bound, "verdict": "SAT" if p.sat else "UNSAT",
             "seconds": p.seconds}
            for p in report.bound.probes
        ],
        "search_seconds": report.bound.search_seconds,
        "opt_seconds": report.bound.opt_seconds,
        "total_tardiness": report.total_tardiness,
        "proven_optimal": report.proven_optimal,
        "verdict": report.verdict(),
        "schedule": None if sched is None else schedule_to_json(sched),
    }
