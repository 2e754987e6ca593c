#!/usr/bin/env python3
"""Check the ``tiny_exact`` optimum table against the brute-force oracle.

    python3 solvebench/check_optima.py

An entry equal to the benchmark's precedence lower bound is certified
without search, since the solver's schedule for it passed the gate in
``run.py``.  The rest go to the oracle with a budget above its default.  The
oracle takes minutes, so ``run.py`` compares solves with the table instead
and this script is run once, whenever the table or the workload changes.
It prints one line per instance and exits 1 on any disagreement.
"""

from __future__ import annotations

import sys
import time

from prepare import instance_specs, prepare, use_source_tree, workloads
from run import precedence_lower_bound

ORACLE_TASKS = 12
ORACLE_NODES = 40_000_000


def main() -> int:
    use_source_tree()
    from mpfjss import BudgetExceeded, OracleBudget, brute_force_optimal

    spec = workloads()["tiny_exact"]
    instances, _ = prepare(spec)
    checked = mismatched = 0
    for name, _, _ in instance_specs(spec):
        want = spec["optima"][name]
        lb = precedence_lower_bound(instances[name])
        if want == lb:
            checked += 1
            print(f"{name} table {want}  equals the lower bound  ok", flush=True)
            continue
        t0 = time.perf_counter()
        try:
            got, _ = brute_force_optimal(
                instances[name], OracleBudget(max_tasks=ORACLE_TASKS, node_limit=ORACLE_NODES))
        except BudgetExceeded as exc:
            print(f"{name} table {want}  oracle refused: {exc}", flush=True)
            continue
        checked += 1
        mismatched += got != want
        verdict = "ok" if got == want else "MISMATCH"
        print(f"{name} table {want}  oracle {got}  {verdict}  "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    print(f"{checked} of {len(instances)} checked, {mismatched} mismatched")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
