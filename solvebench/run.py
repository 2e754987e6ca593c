#!/usr/bin/env python3
"""Solve benchmark for mpfjss: end-to-end and per-layer numbers from one harness.

    python3 solvebench/run.py --workload day30 --seed 1 --seconds 30 --trace 0

A workload (``workloads.json``) is a fixed list of generated instances and
strategies, each solved through the public ``solve_with_strategy`` with a
per-solve wall budget.  The loop is closed: one solve at a time, in this
process, with no pool.  A pass runs the whole list; passes repeat until
``--seconds`` have gone by, and every pass runs the correctness gate.  The
instance seeds are fixed so that quality figures and the optimum table stay
comparable between runs; ``--seed`` shuffles the order of each pass and
seeds the kernel throughput loop.

``--trace 0`` prints the end-to-end metrics: ``batch_s`` (median pass
time), ``solve_s_tail`` (the workload's ``tail_pct`` percentile of solve
times, chosen to keep ten samples beyond it in a 30 s run), ``cap_s``
(cap-search seconds per pass), ``gap`` (mean of (T - LB) / T against a
precedence lower bound), ``scheduled_frac``, ``proven_frac``,
``failed_frac``, ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` is a
separate run: half its time runs untraced passes, half runs passes with
every layer boundary wrapped (``tracer.py``), and it prints the per-layer
metrics and the tracing overhead.  Traced passes count their budgets in
search steps rather than wall time, so their counts repeat exactly.

Every line before the last is a readable report; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from prepare import BENCH_DIR, ROOT, instance_specs, prepare, use_source_tree, workloads

SETUP_REPEATS = 7
KERNEL_ROUNDS = 50

END_TO_END = {
    "batch_s": "s",
    "solve_s_tail": "s",
    "cap_s": "s",
    "gap": "ratio",
    "scheduled_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed but left out of the JSON metrics, whose bounds are shares of a
# median: failed_frac is 0 on tiny_exact (scheduled_frac is 1 - failed_frac),
# and on day30 proven_frac rests on one solve that proves about 0.3 s inside
# its budget, so a slow phase of a shared machine turns it to 0.
REPORTED_ONLY = {"proven_frac": "ratio", "failed_frac": "ratio"}
PER_LAYER = {
    "model.load_s": "s",
    "model.validate_calls": "count",
    "model.validate_s": "s",
    "model.capable_calls": "count",
    "model.capable_s": "s",
    "bounds.probes": "count",
    "bounds.sat_ratio": "ratio",
    "bounds.probe_sat_s": "s",
    "bounds.probe_unsat_s": "s",
    "bounds.opt_s": "s",
    "solver.decide_calls": "count",
    "solver.optimize_calls": "count",
    "solver.self_s": "s",
    "dl.engines": "count",
    "dl.assert_upper": "count",
    "dl.conflicts": "count",
    "dl.conflict_ratio": "ratio",
    "dl.lower_bound": "count",
    "dl.push": "count",
    "dl.solution": "count",
    "dl.self_s": "s",
    "kernel.assert_edge": "count",
    "kernel.rejects": "count",
    "kernel.earliest": "count",
    "kernel.self_s": "s",
    "kernel.ops_per_s.pure": "1/s",
    "schedule.build_calls": "count",
    "schedule.build_s": "s",
    "trace.overhead": "ratio",
}


@dataclasses.dataclass
class Outcome:
    """One solve of a pass, judged by the correctness gate."""

    name: str
    strategy: str
    seconds: float
    report: object | None
    error: str | None
    gap: float = 1.0
    failure: tuple[str, str] | None = None  # (reason, detail)
    wrong: bool = False  # a crash or a wrong answer, not a budget outcome


# -- correctness gate ------------------------------------------------------

def precedence_lower_bound(inst) -> int:
    """Sum over jobs of how far the longest precedence chain overruns the deadline."""
    total = 0
    for job in inst.jobs:
        preds: dict[str, list[str]] = {o: [] for o in job.operations}
        for a, b in job.precedence:
            preds[b].append(a)
        finish: dict[str, int] = {}

        def done(op: str) -> int:
            if op not in finish:
                finish[op] = inst.duration(op) + max(map(done, preds[op]), default=0)
            return finish[op]

        total += max(0, max(map(done, job.operations), default=0) - job.deadline)
    return total


def judge(out: Outcome, inst, lb: int, optimum: int | None) -> None:
    """Fill in ``gap`` and ``failure`` for one solve.

    A solve fails when it raised, returned no schedule, returned a schedule
    that ``check_schedule`` rejects or whose totals disagree, has an ``exp``
    cap without an UNSAT probe just below it, or proves an optimum that
    differs from the workload's optimum table.  The table holds the
    unconstrained optimum, so it also makes ``exp`` and ``single`` agree.
    """
    from mpfjss import check_schedule, total_tardiness

    if out.error is not None:
        out.failure, out.wrong = ("raised", out.error), True
        return
    report = out.report
    sched = report.schedule
    if sched is None:
        out.failure = (report.verdict(), "no schedule within the budget")
        return
    t = sched.total_tardiness
    out.gap = 0.0 if t == 0 else (t - lb) / t
    violations = check_schedule(inst, sched)
    recount = total_tardiness(inst, sched)
    cap = report.bound.cap
    if violations:
        v = violations[0]
        out.failure = ("invalid-schedule",
                       f"{len(violations)} violations, first {v.kind}: {v.message}")
    elif not report.total_tardiness == t == recount:
        out.failure = ("total-mismatch",
                       f"report {report.total_tardiness}, schedule {t}, recount {recount}")
    elif out.strategy == "exp" and cap > 0 and not any(
            p.bound == cap - 1 and not p.sat for p in report.bound.probes):
        out.failure = ("cap-unproven", f"exp cap {cap} has no UNSAT probe at {cap - 1}")
    elif optimum is not None and report.proven_optimal and t != optimum:
        out.failure = ("wrong-optimum", f"proved {t}, the table says {optimum}")
    out.wrong = out.failure is not None


# -- passes ----------------------------------------------------------------

def run_pass(jobs, order, solve) -> tuple[float, list[Outcome]]:
    from mpfjss import StrategyConfig

    outcomes = []
    t0 = time.perf_counter()
    for i in order:
        name, strategy, inst, timeout = jobs[i]
        cfg = StrategyConfig(strategy=strategy, timeout=timeout)
        s0 = time.perf_counter()
        report = error = None
        try:
            report = solve(inst, cfg)
        except Exception as exc:  # recorded with its class and counted as failed
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(name, strategy, time.perf_counter() - s0, report, error))
    return time.perf_counter() - t0, outcomes


def run_passes(jobs, rng, seconds, solve, judge_pass, tracer=None) -> list[tuple]:
    """Whole passes until ``seconds`` have gone by, at least one.

    Each pass is ``(batch seconds, outcomes, layer figures)``.  With a
    tracer the wrappers are in place only while the solves run, so the
    gate's own calls stay out of the layer figures.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        layers = None
        if tracer is None:
            batch_s, outcomes = run_pass(jobs, order, solve)
        else:
            tracer.install()
            try:
                batch_s, outcomes = run_pass(jobs, order, tracer.wrap(solve, "solve", span=True))
            finally:
                tracer.uninstall()
            layers = layer_metrics(*tracer.take())
        judge_pass(outcomes)
        passes.append((batch_s, outcomes, layers))
    return passes


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


# -- set-up, kernel throughput, environment --------------------------------

def measure_setup(workload: str) -> list[float]:
    """Set-up seconds of fresh interpreters: import, generate, .lp round trip."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "prepare.py"), workload],
            capture_output=True, text=True, timeout=150, check=True, cwd=ROOT)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def kernel_ops_per_s(backend: str, rounds: int, seed: int) -> float:
    """Engine operations per second on random constraint systems.

    Asserts, pushes and pops through ``DLEngine`` on systems of 10 to 40
    variables; the same seed gives every backend the same work.
    """
    from mpfjss import DLEngine

    rng = random.Random(seed)
    ops = 0
    t0 = time.perf_counter()
    for _ in range(rounds):
        nv = rng.randint(10, 40)
        eng = DLEngine(backend=backend)
        vars_ = [eng.new_var(i) for i in range(nv)]
        for v in vars_:
            eng.assert_upper(eng.zero, v, 0)
        ops += nv
        for _ in range(300):
            act = rng.random()
            if act < 0.2:
                eng.push()
            elif act < 0.35 and eng.level() > 0:
                eng.pop()
            else:
                x, y = rng.sample(range(nv), 2)
                eng.assert_upper(vars_[x], vars_[y], rng.randint(-8, 8))
            ops += 1
    return ops / (time.perf_counter() - t0)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    from mpfjss import AVAILABLE_BACKENDS
    from mpfjss.dl import default_backend

    env = {
        "python": platform.python_version(),
        "backend": default_backend(),
        "available_backends": list(AVAILABLE_BACKENDS),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": name,
        "instance_seeds": spec["seeds"],
        "job_counts": spec["job_counts"],
        "params": spec["params"],
        "strategies": spec["strategies"],
        "budget_s_per_solve": spec["timeout_s"],
        "order_seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    if "compiled" not in AVAILABLE_BACKENDS:
        env["note"] = ("the compiled kernel is not built: setup.py drops the extension "
                       "when Cython is missing, so kernel numbers are pure-only")
    return env


# -- metrics ---------------------------------------------------------------

def end_to_end(spec, passes, setup_times) -> dict[str, float]:
    solves = [o for _, outs, _ in passes for o in outs]
    n = len(solves)
    return {
        "batch_s": statistics.median(b for b, _, _ in passes),
        "solve_s_tail": percentile([o.seconds for o in solves], spec["tail_pct"]),
        "cap_s": statistics.median(
            sum(o.report.bound.search_seconds for o in outs if o.report is not None)
            for _, outs, _ in passes),
        "gap": sum(o.gap for o in solves) / n,
        "scheduled_frac": sum(o.failure is None for o in solves) / n,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "proven_frac": sum(o.report is not None and o.report.verdict() == "optimal"
                           for o in solves) / n,
        "failed_frac": sum(o.failure is not None for o in solves) / n,
    }


def layer_metrics(calls: dict, total: dict, self_time: dict) -> dict[str, float]:
    """Per-pass layer figures from one traced pass of :class:`tracer.Tracer`."""

    def count(key):
        return calls.get(key, 0)

    def secs(key):
        return total.get(key, 0.0)

    def self_s(prefix):
        return sum(v for k, v in self_time.items() if k.startswith(prefix))

    probes = count("bounds.decide")
    asserts = count("dl.assert_upper")
    return {
        "model.validate_calls": count("model.validate_instance"),
        "model.validate_s": secs("model.validate_instance"),
        "model.capable_calls": count("model.capable"),
        "model.capable_s": secs("model.capable"),
        "bounds.probes": probes,
        "bounds.sat_ratio": count("bounds.decide.sat") / probes if probes else 0.0,
        "bounds.probe_sat_s": secs("bounds.decide.sat"),
        "bounds.probe_unsat_s": secs("bounds.decide.unsat"),
        "bounds.opt_s": secs("bounds.optimize"),
        "solver.decide_calls": probes,
        "solver.optimize_calls": count("bounds.optimize"),
        "solver.self_s": (self_time.get("bounds.decide", 0.0)
                          + self_time.get("bounds.optimize", 0.0)),
        "dl.engines": count("dl.__init__"),
        "dl.assert_upper": asserts,
        "dl.conflicts": count("dl.assert_upper.conflict"),
        "dl.conflict_ratio": count("dl.assert_upper.conflict") / asserts if asserts else 0.0,
        "dl.lower_bound": count("dl.lower_bound"),
        "dl.push": count("dl.push"),
        "dl.solution": count("dl.solution"),
        "dl.self_s": self_s("dl."),
        "kernel.assert_edge": count("kernel.assert_edge"),
        "kernel.rejects": count("kernel.assert_edge.reject"),
        "kernel.earliest": count("kernel.earliest"),
        "kernel.self_s": self_s("kernel."),
        "schedule.build_calls": count("schedule.build_schedule"),
        "schedule.build_s": secs("schedule.build_schedule"),
    }


# -- the benchmark ---------------------------------------------------------

def report_solves(passes, lbs, emit) -> None:
    """One row per solve of the first pass, then every failure by reason."""
    for o in sorted(passes[0][1], key=lambda o: (o.name, o.strategy)):
        r = o.report
        row = f"solve {o.name} {o.strategy:<6} {o.seconds:8.3f} s  LB {lbs[o.name]}"
        if r is not None:
            row += (f"  {r.verdict()}  cap {r.bound.cap}  probes {len(r.bound.probes)}"
                    f"  T {r.total_tardiness}  search {r.bound.search_seconds:.3f} s"
                    f"  opt {r.bound.opt_seconds:.3f} s")
        emit(row)
    reasons: dict[str, set[str]] = {}
    for _, outs, _ in passes:
        for o in outs:
            if o.failure is not None:
                reasons.setdefault(o.failure[0], set()).add(
                    f"{o.name}/{o.strategy}: {o.failure[1]}")
    for reason, which in sorted(reasons.items()):
        emit(f"failure {reason}: {'; '.join(sorted(which))}")


def untraced_run(w: Workload) -> tuple[list, dict]:
    from mpfjss import solve_with_strategy

    setup_times = measure_setup(w.name)
    passes = run_passes(w.jobs, w.rng, w.seconds, solve_with_strategy, w.judge_pass)
    report_solves(passes, w.lbs, w.emit)
    figures = end_to_end(w.spec, passes, setup_times)
    batches = [b for b, _, _ in passes]
    n, pct = len(batches) * len(w.jobs), w.spec["tail_pct"]
    notes = {
        "batch_s": f"median of {len(batches)} passes, min {min(batches):.3f}, "
                   f"max {max(batches):.3f}; the tail is in solve_s_tail",
        "solve_s_tail": f"p{pct} of {n} solve times, {n * (100 - pct) / 100:g} beyond it",
        "cap_s": "median over passes of summed BoundResult.search_seconds",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
    }
    for key, unit in {**END_TO_END, **REPORTED_ONLY}.items():
        w.emit(f"metric {key} = {figures[key]:.6g} {unit}  {notes.get(key, '')}".rstrip())
    return passes, {k: {"value": figures[k], "unit": u} for k, u in END_TO_END.items()}


def traced_run(w: Workload) -> tuple[list, dict]:
    from mpfjss import AVAILABLE_BACKENDS, solve_with_strategy

    from tracer import Tracer

    ops = {b: statistics.median(kernel_ops_per_s(b, KERNEL_ROUNDS, w.seed) for _ in range(3))
           for b in AVAILABLE_BACKENDS}
    plain = run_passes(w.jobs, w.rng, w.seconds / 2, solve_with_strategy, w.judge_pass)
    tracer = Tracer(w.spec["trace_clock_step_s"])
    traced = run_passes(w.jobs, w.rng, w.seconds / 2, solve_with_strategy, w.judge_pass,
                        tracer)
    report_solves(plain + traced, w.lbs, w.emit)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{w.name}-seed{w.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in tracer.spans)
    w.emit(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    per_pass = [layers for _, _, layers in traced]
    figures = {k: (statistics.median_low if PER_LAYER[k] == "count" else statistics.median)(
        [p[k] for p in per_pass]) for k in per_pass[0]}
    figures["model.load_s"] = w.load_s
    figures["kernel.ops_per_s.pure"] = ops["pure"]
    plain_batch = statistics.median(b for b, _, _ in plain)
    traced_batch = statistics.median(b for b, _, _ in traced)
    figures["trace.overhead"] = traced_batch / plain_batch
    w.emit(f"overhead traced batch {traced_batch:.3f} s over untraced {plain_batch:.3f} s "
         f"({len(traced)} and {len(plain)} passes); budgets of traced solves count "
         f"search steps, so on budget-bound solves the two do different work")
    for backend, rate in ops.items():
        w.emit(f"kernel ops/s {backend} {rate:,.0f}")
    repeat = all(p[k] == per_pass[0][k] for p in per_pass for k in per_pass[0]
                 if PER_LAYER[k] == "count")
    w.emit(f"counts repeat exactly over {len(per_pass)} traced passes: {repeat}")
    for key, unit in PER_LAYER.items():
        w.emit(f"layer {key} = {figures[key]:.6g} {unit}")
    return plain + traced, {k: {"value": figures[k], "unit": u} for k, u in PER_LAYER.items()}


@dataclasses.dataclass
class Workload:
    """One workload's prepared solve list and the settings of this run."""

    name: str
    spec: dict
    seed: int
    seconds: float
    jobs: list[tuple]
    lbs: dict[str, int]
    load_s: float
    judge_pass: object
    emit: object
    rng: random.Random


def benchmark(name: str, spec: dict, seed: int, seconds: float, trace: bool,
              emit=print) -> dict:
    """Run one workload; report through ``emit`` and return the result object.

    ``failed`` counts solves that raised or answered wrongly.  Solves that
    end their budget without a schedule are a known outcome, not a wrong
    answer: they count in ``failed_frac`` and against ``scheduled_frac``.
    """
    instances, load_s = prepare(spec)
    lbs = {k: precedence_lower_bound(inst) for k, inst in instances.items()}
    optima = spec.get("optima", {})

    def judge_pass(outcomes):
        for o in outcomes:
            judge(o, instances[o.name], lbs[o.name], optima.get(o.name))

    jobs = [(k, strategy, instances[k], spec["timeout_s"])
            for k, _, _ in instance_specs(spec) for strategy in spec["strategies"]]
    w = Workload(name, spec, seed, seconds, jobs, lbs, load_s, judge_pass, emit,
                 random.Random(seed))
    emit("environment " + json.dumps(environment(name, spec, seed, seconds, trace)))
    passes, metrics = traced_run(w) if trace else untraced_run(w)
    solves = [o for _, outs, _ in passes for o in outs]
    wrong = sum(o.wrong for o in solves)
    return {"correct": wrong == 0, "attempted": len(solves), "failed": wrong, "metrics": metrics}


def main(argv=None) -> None:
    specs = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    result = benchmark(args.workload, specs[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
