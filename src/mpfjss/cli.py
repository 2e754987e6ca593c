"""Command line front end: solve, bench, generate, validate.

Exit codes: 0 success, 1 failed validation or generic error, 2 unreadable
or malformed input, 3 instance unsolvable by construction, 4 timeout
before a schedule was found.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .bounds import (
    STRATEGIES,
    StrategyConfig,
    report_to_json,
    solve_with_strategy,
)
from .generate import GenParams, generate, split_day
from .model import InstanceError, load_instance, save_instance
from .schedule import schedule_from_json
from .solver import UnsolvableInstanceError
from .validate import check_schedule

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_UNSOLVABLE = 3
EXIT_TIMEOUT = 4

CSV_COLUMNS = ("instance", "jobs", "strategy", "verdict", "search_s",
               "opt_s", "total_tardiness", "cap")


def _fail(message: str, code: int) -> int:
    print(f"mpfjss: {message}", file=sys.stderr)
    return code


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    try:
        inst = load_instance(args.instance)
    except (OSError, InstanceError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    try:
        cfg = StrategyConfig(strategy=args.strategy, window=args.window,
                             timeout=args.timeout, seed=args.seed)
        report = solve_with_strategy(inst, cfg)
    except UnsolvableInstanceError as exc:
        return _fail(str(exc), EXIT_UNSOLVABLE)
    except ValueError as exc:
        return _fail(str(exc), EXIT_PARSE)
    _emit(json.dumps(report_to_json(report), indent=2) + "\n", args.output)
    if report.verdict() in ("optimal", "incumbent"):
        return EXIT_OK
    return EXIT_TIMEOUT


def cmd_validate(args) -> int:
    try:
        inst = load_instance(args.instance)
    except (OSError, InstanceError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    try:
        sched = schedule_from_json(json.loads(Path(args.schedule).read_text()))
    except (OSError, ValueError, InstanceError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    violations = check_schedule(inst, sched)
    _emit(json.dumps([v.to_json() for v in violations], indent=2) + "\n",
          args.output)
    return EXIT_OK if not violations else EXIT_FAILURE


def cmd_generate(args) -> int:
    if args.days < 1:
        return _fail(f"--days must be positive, got {args.days}", EXIT_PARSE)
    try:
        params = GenParams(
            op_types=args.op_types, machines=args.machines,
            workers=args.workers, jobs=(args.min_jobs, args.max_jobs),
            tight_fraction=args.tight_fraction,
            partial_order=args.partial_order,
        )
    except ValueError as exc:
        return _fail(str(exc), EXIT_PARSE)
    suffix = ".json" if args.format == "json" else ".lp"
    day_width = max(2, len(str(args.days)))
    files = []  # (file name, instance), all made before any is written
    for day in range(1, args.days + 1):
        inst = generate(params, args.seed + day - 1)
        stem = f"day{day:0{day_width}d}"
        files.append((f"{stem}{suffix}", inst))
        if args.split:
            try:
                parts = split_day(inst, args.split)[:-1]
            except ValueError as exc:
                return _fail(f"--split: {exc}", EXIT_PARSE)
            job_width = max(2, len(str(len(inst.jobs))))
            for part in parts:
                files.append((f"{stem}_j{len(part.jobs):0{job_width}d}{suffix}", part))
    outdir = Path(args.output or "instances")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, inst in files:
        save_instance(inst, outdir / name)
    print(f"wrote {len(files)} instance files to {outdir}")
    return EXIT_OK


def _bench_record(work: tuple[str, str, int, float]) -> tuple[dict, str | None]:
    """One bench row, and for an ``error`` row the exception that caused it."""
    path, strategy, window, timeout = work
    record = dict.fromkeys(CSV_COLUMNS)
    record.update(instance=Path(path).stem, jobs=0, strategy=strategy,
                  verdict="error")
    try:
        inst = load_instance(path)
    except (OSError, InstanceError) as exc:
        return record, f"{type(exc).__name__}: {exc}"
    record["jobs"] = len(inst.jobs)
    cfg = StrategyConfig(strategy=strategy, window=window, timeout=timeout)
    try:
        report = solve_with_strategy(inst, cfg)
    except Exception as exc:  # one bad instance must not abort the sweep
        return record, f"{type(exc).__name__}: {exc}"
    record.update(
        verdict=report.verdict(),
        search_s=round(report.bound.search_seconds, 3),
        opt_s=round(report.bound.opt_seconds, 3),
        total_tardiness=report.total_tardiness,
        cap=report.bound.cap,
    )
    return record, None


def cmd_bench(args) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        return _fail(f"{root} is not a directory", EXIT_FAILURE)
    try:  # once, before the sweep; the strategy is one of argparse's choices
        StrategyConfig(window=args.window, timeout=args.timeout)
    except ValueError as exc:
        return _fail(str(exc), EXIT_PARSE)
    if args.jobs < 1:
        return _fail(f"--jobs must be positive, got {args.jobs}", EXIT_PARSE)
    strategies = args.strategy or ["exp"]
    paths = sorted(p for p in root.iterdir() if p.suffix in (".lp", ".json"))
    work = [(str(p), s, args.window, args.timeout) for p in paths for s in strategies]
    if args.jobs > 1 and work:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_bench_record, work))
    else:
        results = [_bench_record(w) for w in work]
    for record, error in results:
        if error is not None:
            print(f"mpfjss: {record['instance']} {record['strategy']}: {error}",
                  file=sys.stderr)
    records = sorted((record for record, _ in results),
                     key=lambda r: (r["jobs"], r["instance"], r["strategy"]))

    if args.format == "json":
        _emit(json.dumps(records, indent=2) + "\n", args.output)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(records)
        _emit(buf.getvalue(), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpfjss",
        description="Schedule multi-resource jobs with partially ordered "
                    "operations; minimize total tardiness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance, print a report")
    solve.add_argument("instance", help="instance file (.lp or .json)")
    solve.add_argument("--strategy", choices=STRATEGIES, default="exp")
    solve.add_argument("--window", type=int, default=20,
                       help="cap step for the inc strategy (minutes)")
    solve.add_argument("--timeout", type=float, default=7200.0,
                       help="wall-clock budget in seconds")
    solve.add_argument("--seed", type=int, default=None,
                       help="seed for the jobs that the optimizer's neighbourhood "
                            "search re-solves (default: a fixed seed, so runs repeat)")
    solve.add_argument("--output", help="write the report here instead of stdout")
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="solve a directory of instances, "
                                         "emit one record per run")
    bench.add_argument("directory")
    bench.add_argument("--strategy", choices=STRATEGIES, action="append",
                       help="may be repeated; default exp")
    bench.add_argument("--window", type=int, default=20)
    bench.add_argument("--timeout", type=float, default=7200.0)
    bench.add_argument("--jobs", type=int, default=1,
                       help="solve this many instances in parallel")
    bench.add_argument("--format", choices=("csv", "json"), default="csv")
    bench.add_argument("--output")
    bench.set_defaults(func=cmd_bench)

    gen = sub.add_parser("generate", help="write synthetic instance files")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--days", type=int, default=10,
                     help="number of day-sized instances")
    gen.add_argument("--split", type=int, default=5,
                     help="also write job prefixes in these steps; 0 disables")
    gen.add_argument("--op-types", type=int, default=50)
    gen.add_argument("--machines", type=int, default=75)
    gen.add_argument("--workers", type=int, default=45)
    gen.add_argument("--min-jobs", type=int, default=30)
    gen.add_argument("--max-jobs", type=int, default=50)
    gen.add_argument("--tight-fraction", type=float, default=0.25,
                     help="share of jobs whose deadline is shorter than "
                          "their serial length")
    gen.add_argument("--partial-order", type=float, default=0.0,
                     help="probability of dropping each ordering pair; "
                          "0 keeps the strict per-job chain")
    gen.add_argument("--format", choices=("lp", "json"), default="lp")
    gen.add_argument("--output", help="target directory (default: instances)")
    gen.set_defaults(func=cmd_generate)

    val = sub.add_parser("validate", help="check a schedule against an instance")
    val.add_argument("instance")
    val.add_argument("schedule", help="schedule JSON file")
    val.add_argument("--output")
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
