"""The layer boundaries that a per-layer tracer wraps from outside the package.

The solve benchmark counts the calls that cross each layer by replacing
module attributes: ``mpfjss.bounds.decide`` and ``mpfjss.bounds.optimize``,
``mpfjss.solver.validate_instance``, ``mpfjss.dl.make_kernel``, and the
``time`` module of ``bounds`` and ``solver``.  The package must look these
names up when it calls them; a caller that binds one at import time would
make its count read 0 without failing anything else.
"""

import collections
import dataclasses
import importlib.util
import pathlib
import types

from mpfjss import (
    GenParams, StrategyConfig, bounds, dl, generate, model, solve_with_strategy, solver,
)

TRACER = pathlib.Path(__file__).parents[1] / "solvebench" / "tracer.py"


def test_layer_boundaries_are_looked_up_when_called(monkeypatch, example_instance):
    counts = collections.Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((bounds, "decide"), (bounds, "optimize"),
                        (solver, "validate_instance"), (dl, "make_kernel")):
        count(owner, name)
    init = solver._Search.__init__

    def built(self, *args, **kwargs):
        counts["search"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(solver._Search, "__init__", built)
    # as under the tracer, only the search's step checks move the clock, by a
    # fixed step, so budgets become fixed amounts of work and the counts
    # below repeat on any machine
    now = [0.0]

    def tick():
        now[0] += 1 / 64
        return now[0]

    monkeypatch.setattr(solver, "time", types.SimpleNamespace(monotonic=tick))
    monkeypatch.setattr(bounds, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    # an order search that has an incumbent hands it to a neighbourhood
    # search at its first step check, so each optimize builds a second search
    monkeypatch.setattr(solver, "STALL_STEPS", 0)

    day = generate(dataclasses.replace(GenParams(), jobs=(10, 10)), 1)
    hard = generate(dataclasses.replace(GenParams(), jobs=(30, 30)), 3)
    runs = [
        (example_instance, StrategyConfig(strategy="exp"), 2),
        (example_instance, StrategyConfig(strategy="inc"), 2),
        (example_instance, StrategyConfig(strategy="single"), 2),
        (day, StrategyConfig(strategy="exp", timeout=0.25), 2),
        (day, StrategyConfig(strategy="inc", timeout=0.25), 2),
        # probes below the cap floor take no step; the first one above it
        # passes this deadline at its first step check
        (hard, StrategyConfig(strategy="exp", timeout=1 / 128), 1),
    ]
    verdicts = set()
    for inst, cfg, searches in runs:
        counts.clear()
        report = solve_with_strategy(inst, cfg)
        verdicts.add(report.verdict())
        # the log leaves out a probe that the deadline cut short
        cut = report.bound.cap is None
        assert counts["decide"] == len(report.bound.probes) + cut
        assert counts["optimize"] == (report.bound.cap is not None)
        assert counts["validate_instance"] == counts["make_kernel"] == counts["search"]
        assert counts["search"] == searches
    assert verdicts == {"optimal", "incumbent", "bound-not-found"}


def test_benchmark_tracer_sees_every_layer(example_instance):
    """The solve benchmark's tracer, installed as its runner installs it.

    Each name the tracer patches must exist, its wrappers must see the
    probes and the kernel calls, and uninstalling must put every original
    back.
    """
    spec = importlib.util.spec_from_file_location("solvebench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    patched = [(bounds, "decide"), (bounds, "optimize"), (bounds, "time"),
               (solver, "validate_instance"), (solver, "build_schedule"), (solver, "time"),
               (dl, "make_kernel"), (model.Instance, "capable")]
    patched += [(dl.DLEngine, name) for name in tracer_mod.DL_METHODS]
    originals = [getattr(owner, name) for owner, name in patched]

    tracer = tracer_mod.Tracer(1 / 64)
    tracer.install()
    try:
        report = solve_with_strategy(example_instance, StrategyConfig(strategy="exp"))
    finally:
        tracer.uninstall()
    calls = tracer.take()[0]

    assert report.verdict() == "optimal"
    assert calls["bounds.decide"] == len(report.bound.probes)
    assert calls.get("kernel.assert_edge", 0) > 0
    assert [getattr(owner, name) for owner, name in patched] == originals
