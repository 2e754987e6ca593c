"""Cap-search strategies layered on the decision solver.

A strategy locates a per-job tardiness cap that admits a schedule, then the
optimizer minimizes total tardiness under that cap.  Three strategies:

  single  no probing; cap is the sum of all durations, always satisfiable
  inc     tumbling window: probe caps 0, w, 2w, ... until the first SAT
  exp     doubling ladder to the first SAT cap, then binary search down
          to the smallest satisfiable cap

The probes of one ``inc`` or ``exp`` run share one search, built when the
first probe starts: start bounds and precedence are asserted once, and each
probe asserts only its cap's per-task latest starts under ``push``/``pop``,
as multi-shot ASP solving re-solves one ground program under a changing
bound.  The final ``optimize`` builds a search of its own.
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
    strategy: str = "exp"
    window: int = 20
    timeout: float = 7200.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.timeout <= 0:
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


def _out_of_time(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _prober(inst, deadline, backend):
    """A probe function whose calls share one search, built by the first."""
    search = None

    def probe(bound):
        nonlocal search
        t0 = time.monotonic()
        if search is None:
            search = _Search(inst, backend=backend)
        sched = decide(inst, bound, deadline=deadline, search=search)
        return sched, Probe(bound, sched is not None, time.monotonic() - t0)

    return probe


def incremental_bound(
    inst: Instance,
    window: int = 20,
    *,
    deadline: float | None = None,
    backend: str | None = None,
) -> BoundResult:
    """Probe caps 0, window, 2*window, ... and stop at the first SAT."""
    if window < 1:
        raise ValueError("window must be at least 1")
    t0 = time.monotonic()
    probes: list[Probe] = []
    probe_at = _prober(inst, deadline, backend)
    bound = 0
    cap = None
    witness = None
    while True:
        if _out_of_time(deadline):
            break
        try:
            sched, probe = probe_at(bound)
        except SolveTimeout:
            break
        probes.append(probe)
        if sched is not None:
            cap, witness = bound, sched
            break
        bound += window
    return BoundResult("inc", cap, tuple(probes), time.monotonic() - t0,
                       witness=witness)


def exponential_bound(
    inst: Instance,
    *,
    deadline: float | None = None,
    backend: str | None = None,
) -> BoundResult:
    """Find the smallest satisfiable cap by doubling, then binary search.

    Probes 0, 1, 2, 4, ... (clipped to the sum of durations, which is
    always satisfiable) until the first SAT, then narrows the bracket
    (last UNSAT, first SAT] by halving.  The log of the returned result
    shows UNSAT at cap-1 whenever cap > 0.
    """
    t0 = time.monotonic()
    probes: list[Probe] = []
    ceiling = single_shot_bound(inst)
    witness = None
    probe_at = _prober(inst, deadline, backend)

    def done(cap):
        return BoundResult("exp", cap, tuple(probes),
                           time.monotonic() - t0, witness=witness)

    def ask(bound):
        nonlocal witness
        sched, probe = probe_at(bound)
        probes.append(probe)
        if sched is not None:
            witness = sched
        return sched is not None

    try:
        if _out_of_time(deadline):
            return done(None)
        if ask(0):
            return done(0)
        lo, hi = 0, None  # lo is UNSAT; hi, once set, is SAT
        bound = 1
        while hi is None:
            if _out_of_time(deadline):
                return done(None)
            bound = min(bound, ceiling)
            if ask(bound):
                hi = bound
            elif bound == ceiling:
                return done(None)  # unreachable for structurally valid input
            else:
                lo = bound
                bound *= 2
        while hi - lo > 1:
            if _out_of_time(deadline):
                return done(None)
            mid = (lo + hi) // 2
            if ask(mid):
                hi = mid
            else:
                lo = mid
    except SolveTimeout:
        return done(None)
    return done(hi)


def solve_with_strategy(
    inst: Instance,
    cfg: StrategyConfig,
    *,
    backend: str | None = None,
) -> SolveReport:
    """Run the configured cap search, then optimize under the found cap.

    Both phases share one wall-clock budget of cfg.timeout seconds.  A
    timeout during cap search yields a bound-not-found report; a timeout
    during optimization yields the best incumbent seen, unproven.
    """
    deadline = time.monotonic() + cfg.timeout
    if cfg.strategy == "single":
        t0 = time.monotonic()
        cap = single_shot_bound(inst)
        bound = BoundResult("single", cap, (), time.monotonic() - t0)
    elif cfg.strategy == "inc":
        bound = incremental_bound(inst, cfg.window, deadline=deadline,
                                  backend=backend)
    else:
        bound = exponential_bound(inst, deadline=deadline, backend=backend)

    if bound.cap is None:
        return SolveReport(bound, None, None, False)

    t0 = time.monotonic()
    res = optimize(inst, bound.cap, deadline=deadline, backend=backend)
    bound = dataclasses.replace(bound, opt_seconds=time.monotonic() - t0)
    sched = res.schedule
    if sched is None and bound.witness is not None:
        sched = bound.witness  # timed out before the first leaf; keep the probe's schedule
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
