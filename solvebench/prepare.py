"""Set-up step of the solve benchmark: import, generate, ``.lp`` round trip.

Imported, :func:`prepare` builds a workload's instances for ``run.py``.  Run
as a script, ``python3 solvebench/prepare.py <workload>`` times one set-up in
a fresh interpreter, so that the package import is cold, and prints the
seconds as JSON; ``run.py`` starts it several times and reports the median.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def workloads() -> dict:
    with open(BENCH_DIR / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def use_source_tree() -> None:
    """Make ``import mpfjss`` use this checkout's ``src``, or exit with an error."""
    if not (SRC / "mpfjss" / "__init__.py").is_file():
        sys.exit(f"solvebench: no mpfjss sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def instance_specs(spec: dict) -> list[tuple[str, int, int]]:
    """``(name, job count, generator seed)`` for every instance of a workload."""
    return [(f"n{n:02d}s{seed:02d}", n, seed)
            for n in spec["job_counts"] for seed in spec["seeds"]]


def prepare(spec: dict) -> tuple[dict, float]:
    """Generate the workload's instances and round-trip each through ``.lp``.

    Returns the loaded instances by name and the seconds spent in
    ``load_instance``.  A loaded instance that differs from the generated
    one raises, since every later check would then test the wrong input.
    """
    from mpfjss import GenParams, generate, load_instance, save_instance

    overrides = {k: tuple(v) if isinstance(v, list) else v
                 for k, v in spec["params"].items()}
    base = GenParams(**overrides)
    out = {}
    load_s = 0.0
    with tempfile.TemporaryDirectory(prefix=".setup-", dir=BENCH_DIR) as tmp:
        for name, n, seed in instance_specs(spec):
            inst = generate(dataclasses.replace(base, jobs=(n, n)), seed)
            path = Path(tmp) / f"{name}.lp"
            save_instance(inst, path)
            t0 = time.perf_counter()
            loaded = load_instance(path)
            load_s += time.perf_counter() - t0
            if loaded != inst:
                raise RuntimeError(f"{name}: .lp round trip changed the instance")
            out[name] = loaded
    return out, load_s


def main() -> None:
    name = sys.argv[1]
    spec = workloads()[name]
    use_source_tree()
    t0 = time.perf_counter()
    import mpfjss  # noqa: F401  (timed: the import is part of set-up)
    prepare(spec)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
