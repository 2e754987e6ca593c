"""Incremental difference-logic engine.

Constraints have the form ``x - y <= k`` over integer variables; a dedicated
origin variable :attr:`DLEngine.zero` (fixed at 0) lets callers express
absolute bounds, e.g. ``x >= 0`` as ``zero - x <= 0``.  A set of such
constraints is satisfiable exactly when the induced constraint graph has no
negative cycle, which the engine checks incrementally on every assert.

Infeasible asserts are rejected and leave the stored constraint set unchanged,
so the engine is always in a satisfiable state; the offending cycle is
returned as the witness.  :meth:`DLEngine.push` / :meth:`DLEngine.pop` give
chronological backtracking over asserts.

Two interchangeable kernels back the engine: a compiled extension
(``mpfjss._dl_core``) and a pure-Python twin (``mpfjss._dl_pure``) that
behaves the same step for step.  The compiled one is used whenever it is
built, the pure one otherwise; naming one (``make_kernel("pure")``,
``DLEngine("compiled")``) is for tests and kernel benchmarks that compare
the two.

:func:`make_kernel` gives the raw kernel to hot loops that manage their
own variables, such as the solver's search.  Kernel nodes are plain
integers: node 0 is the origin, ``add_var()`` returns each new node (an
engine variable's node is its ``handle + 1``), and
``assert_edge(y, x, k)`` asserts ``x - y <= k`` and returns 0, or 1 on a
conflict.  Only the engine's own methods check that a variable belongs to
the engine; the kernel takes nodes as given.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import _dl_pure

try:
    from . import _dl_core
except ImportError:
    _dl_core = None

AVAILABLE_BACKENDS = ("pure",) if _dl_core is None else ("compiled", "pure")


def default_backend() -> str:
    """The compiled kernel when it is built, else the pure one."""
    return AVAILABLE_BACKENDS[0]


def make_kernel(backend: str | None = None):
    """A raw kernel: `pure`, `compiled`, or None for :func:`default_backend`."""
    name = default_backend() if backend is None else backend
    if name == "pure":
        return _dl_pure.DiffKernel()
    if name == "compiled":
        if _dl_core is None:
            raise RuntimeError("compiled difference-logic kernel is not built")
        return _dl_core.DiffKernel()
    raise ValueError(f"unknown backend `{name}`")


class DLVar(NamedTuple):
    handle: int
    name: object

    def __repr__(self):
        return f"DLVar({self.handle}, {self.name!r})"


class DLConstraint(NamedTuple):
    """The asserted form ``x - y <= k``."""

    x: DLVar
    y: DLVar
    k: int


class DLConflict(NamedTuple):
    """A negative cycle of asserted constraints witnessing infeasibility."""

    constraints: tuple[DLConstraint, ...]
    weight: int


class DLEngine:
    """Incremental satisfiability of difference constraints with backtracking."""

    def __init__(self, backend: str | None = None):
        self._kern = make_kernel(backend)
        self.zero = DLVar(-1, "zero")
        self._vars: list[DLVar] = [self.zero]

    def new_var(self, name: object = None) -> DLVar:
        """Create a variable; handles count up from 0 and stay stable."""
        idx = self._kern.add_var()
        var = DLVar(idx - 1, name)
        self._vars.append(var)
        return var

    def _index(self, var: DLVar) -> int:
        idx = var.handle + 1
        if not (0 <= idx < len(self._vars)) or self._vars[idx] != var:
            raise ValueError(f"{var!r} does not belong to this engine")
        return idx

    def assert_upper(self, x: DLVar, y: DLVar, k: int) -> DLConflict | None:
        """Assert ``x - y <= k``.  None on success, else the witness cycle.

        On a conflict nothing is recorded: the engine still holds exactly the
        constraints it held before the call.
        """
        xi, yi = self._index(x), self._index(y)
        if self._kern.assert_edge(yi, xi, k) == 0:
            return None
        new = DLConstraint(x, y, k)
        cons = [new]
        for eid in self._kern.conflict():
            u, v, w = self._kern.edge(eid)
            cons.append(DLConstraint(self._vars[v], self._vars[u], w))
        return DLConflict(tuple(cons), sum(c.k for c in cons))

    def push(self) -> None:
        self._kern.push()

    def pop(self) -> None:
        self._kern.pop()

    def level(self) -> int:
        return self._kern.level()

    def num_constraints(self) -> int:
        return self._kern.num_edges()

    def constraints(self) -> Iterator[DLConstraint]:
        """Currently asserted constraints in assertion order."""
        for eid in range(self._kern.num_edges()):
            u, v, w = self._kern.edge(eid)
            yield DLConstraint(self._vars[v], self._vars[u], w)

    def lower_bound(self, var: DLVar) -> int | None:
        """Strongest derivable lower bound of ``var`` with ``zero`` at 0."""
        return self._kern.earliest(self._index(var))

    def solution(self) -> dict[DLVar, int]:
        """A satisfying valuation with ``zero`` at 0.

        Every variable with a derivable lower bound against ``zero`` gets its
        minimal value.  Remaining variables take the largest values <= 0 that
        the constraints admit, found by relaxing downwards from 0.
        """
        kern = self._kern
        low = kern.earliest_all()
        if all(x is not None for x in low):
            return {v: low[i] for i, v in enumerate(self._vars) if i > 0}
        vals = [x if x is not None else 0 for x in low]
        floating = sum(1 for x in low if x is None)
        edges = [kern.edge(eid) for eid in range(kern.num_edges())]
        for _ in range(floating + 1):
            moved = False
            for u, v, w in edges:
                bound = vals[u] + w
                if vals[v] > bound:
                    if low[v] is not None:
                        raise RuntimeError("anchored value violated a constraint")
                    vals[v] = bound
                    moved = True
            if not moved:
                break
        else:
            raise RuntimeError("solution relaxation failed to settle")
        return {v: vals[i] for i, v in enumerate(self._vars) if i > 0}
