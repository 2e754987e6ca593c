"""Smoke test of the solve benchmark itself.

    python3 -m pytest -q solvebench/test_smoke.py

Every workload, cut down to one instance size and one seed, runs one pass
untraced and one traced, and must emit every metric ``BENCHMARK.json``
declares, with its unit, and pass the correctness gate.
"""

import json

import pytest

import run
from prepare import ROOT, use_source_tree, workloads

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(workloads()))
def test_reduced_workload_emits_every_metric(name, trace):
    use_source_tree()
    spec = workloads()[name]
    reduced = dict(spec, seeds=spec["seeds"][:1], job_counts=spec["job_counts"][:1])
    lines = []
    result = run.benchmark(name, reduced, seed=1, seconds=0, trace=trace, emit=lines.append)

    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    prefix = "layer" if trace else "metric"
    for key, unit in declared.items():
        assert any(line.startswith(f"{prefix} {key} = ") and f" {unit}" in line for line in lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1) * len(reduced["strategies"])
