"""Per-layer tracing for the solve benchmark, installed from outside the program.

The tracer replaces the names the package's own callers resolve with timing
wrappers and puts the originals back on :meth:`Tracer.uninstall`.  Every
wrapped call is a frame on one stack: its duration is added to its key's
total and to the enclosing frame's child time, so a key's self time is its
total minus the wrapped calls made inside it.  Coarse calls (a solve, a
probe, an optimize run, instance validation, schedule building) also become
spans with a parent; hot facade and kernel calls are only aggregated.

A result-dependent tag splits a key further, e.g. ``bounds.decide.sat`` or
``kernel.assert_edge.reject``; an exception tags the call with its class.

While installed, the tracer also gives the package a virtual budget clock.
The search reads ``time.monotonic`` once per 256 steps; each of those reads
advances the clock by a fixed step, and reads elsewhere do not move it.  A
wall budget thus becomes a fixed number of search steps, so traced solves do
the same work on every run, however much the wrappers slow them down, and
their counts repeat exactly.  Each workload sets its step so that a traced
solve that meets its budget makes about as many clock reads as an untraced
one does in the same wall budget; the step is a power-of-two fraction of a
second so that sums of steps and budgets are exact in floating point.
"""

from __future__ import annotations

import time
from collections import defaultdict

DL_METHODS = ("__init__", "new_var", "assert_upper", "push", "pop", "level",
              "num_constraints", "lower_bound", "solution")
KERNEL_METHODS = ("add_var", "num_vars", "num_edges", "edge", "level", "push",
                  "pop", "earliest", "earliest_all", "conflict", "assert_edge")


def _probe_tag(sched) -> str:
    return "unsat" if sched is None else "sat"


def _conflict_tag(conflict) -> str | None:
    return None if conflict is None else "conflict"


def _reject_tag(code) -> str | None:
    return "reject" if code else None


class _TracedKernel:
    """A kernel whose public methods are wrapped; other attributes pass through.

    The kernel class is wrapped per instance rather than patched, because a
    compiled extension type does not accept new attributes.
    """

    def __init__(self, kern, tracer: "Tracer"):
        self._kern = kern
        for name in KERNEL_METHODS:
            tag = _reject_tag if name == "assert_edge" else None
            setattr(self, name, tracer.wrap(getattr(kern, name), f"kernel.{name}", tag=tag))

    def __getattr__(self, name):
        return getattr(self._kern, name)


class _Clock:
    """Stands in for the ``time`` module of one package module."""

    def __init__(self, monotonic):
        self.monotonic = monotonic

    def __getattr__(self, name):
        return getattr(time, name)


class Tracer:
    def __init__(self, clock_step: float):
        self.clock_step = clock_step
        self.now = 0.0
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self._stack: list[list] = []  # per open frame: [child seconds, span id]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, key: str, *, span: bool = False, tag=None):
        calls, total, self_time = self.calls, self.total, self.self_time
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, None]
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append({"id": frame[1], "parent": parent, "name": key})
            stack.append(frame)
            label = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if tag is not None:
                    label = tag(result)
                return result
            except BaseException as exc:
                label = type(exc).__name__
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                calls[key] += 1
                total[key] += dt
                self_time[key] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if label is not None:
                    calls[f"{key}.{label}"] += 1
                    total[f"{key}.{label}"] += dt
                if span:
                    spans[frame[1]].update(start=t0, end=t0 + dt, tag=label)

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, key: str, **how) -> None:
        self._replace(owner, attr, self.wrap(owner.__dict__[attr], key, **how))

    def _tick(self) -> float:
        self.now += self.clock_step
        return self.now

    def install(self) -> None:
        """Wrap every layer boundary of the ``mpfjss`` package."""
        import mpfjss.bounds
        import mpfjss.dl
        import mpfjss.model
        import mpfjss.solver

        self.patch(mpfjss.bounds, "decide", "bounds.decide", span=True, tag=_probe_tag)
        self.patch(mpfjss.bounds, "optimize", "bounds.optimize", span=True)
        self.patch(mpfjss.solver, "validate_instance", "model.validate_instance", span=True)
        self.patch(mpfjss.solver, "build_schedule", "schedule.build_schedule", span=True)
        self.patch(mpfjss.model.Instance, "capable", "model.capable")
        for name in DL_METHODS:
            tag = _conflict_tag if name == "assert_upper" else None
            self.patch(mpfjss.dl.DLEngine, name, f"dl.{name}", tag=tag)

        make_kernel = mpfjss.dl.make_kernel
        self._replace(mpfjss.dl, "make_kernel",
                      lambda backend=None: _TracedKernel(make_kernel(backend), self))
        self._replace(mpfjss.solver, "time", _Clock(self._tick))
        self._replace(mpfjss.bounds, "time", _Clock(lambda: self.now))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def take(self) -> tuple[dict, dict, dict]:
        """Counts, totals and self times since the last take; then reset them."""
        out = (dict(self.calls), dict(self.total), dict(self.self_time))
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        return out
