"""Pure-Python difference-logic kernel.

Maintains a set of constraints ``value(v) - value(u) <= w`` over integer
variables (node 0 is the fixed origin) and answers, incrementally, whether the
set is satisfiable.  Infeasible asserts are rejected: the constraint is not
recorded and the offending negative cycle is kept for inspection, so the
stored set is feasible at all times.

Each variable ``x`` has ``low[x]``, the strongest lower bound derivable for
it when every variable but the origin starts at the floor
``F = -3 * MAX_WEIGHT * MAX_EDGES``; for a variable that a chain of
constraints leads from to the origin, ``low`` is exactly the earliest-start
value in scheduling encodings.  With it goes ``reason[x]``, the edge
``x -> y`` that last raised it, so ``low[x] == low[y] - w`` and following
reasons from ``x`` leads to the origin or to a node still at the floor.
Both are trailed and restored by :meth:`pop`.  :meth:`changed` reads the
trail back to the last push: the nodes whose ``low`` rose since, one entry
per raise, so a caller can update what it derives from ``low`` by what an
assert changed instead of rescanning every node.

An edge ``u -> v`` is checked by raising ``low`` from ``u`` (to
``low[v] - w``) backwards along incoming edges.  The lows are a feasible
valuation, so the new edge closes a negative cycle exactly when this would
strictly raise ``v`` or the origin.  The assert is then rejected and its
raises undone.  The cycle is read off the reasons: the raising edge, then
the reason chain back to ``u``, which the new edge closes.  When the origin
would be raised, ``v``'s reason chain to the origin comes first; if that
chain runs into a node this assert raised, the chain from there to ``u``
closes the cycle on its own.  One pass thus both detects the conflict and
raises the earliest starts.

The floor keeps the two kinds of value apart.  The stored set has no
negative cycle and at most ``MAX_EDGES`` edges of weight within
``+-MAX_WEIGHT``, so the strongest chain behind a value is a simple path of
at most ``MAX_EDGES`` edges:

* a value bounded from the origin is at least ``-MAX_WEIGHT * MAX_EDGES``;
* a value reached from F is at most ``F + MAX_WEIGHT * MAX_EDGES``, that is
  ``-2 * MAX_WEIGHT * MAX_EDGES``.

So ``low[x] >= -MAX_WEIGHT * MAX_EDGES`` exactly when a chain leads from
``x`` to the origin, and a caller reads a lower value as "no bound".  Inside
an assert, even one that is then rejected, a raised value comes through the
new edge once, after ``v``'s simple chain and before a simple path of stored
edges (a stored cycle is never negative, and reaching ``v`` again stops the
pass): a value reached from F stays below ``F + 2 * MAX_WEIGHT * MAX_EDGES
< 0``, so it never raises the origin, and a rejection for the origin always
follows a chain that ends there.  No value computed is below
``F - MAX_WEIGHT``, which is above ``-2**63``, so every value fits a signed
64-bit integer.  An assert reads only the stored edges, ``low`` and
``reason``, and :meth:`pop` restores all three, so a rejected assert names
the cycle that a fresh kernel replaying the stacked constraints names.

The compiled backend, the hand-written C++ in ``_dl_core.cpp``, implements
the same algorithm with the same tie-breaking; the two must be observably
identical.
"""

from __future__ import annotations

from operator import index

MAX_WEIGHT = 1 << 40
MAX_EDGES = 1 << 21
_FLOOR = -3 * MAX_WEIGHT * MAX_EDGES  # every new node's `low`
_NEW_EDGE = -1


class DiffKernel:
    __slots__ = (
        "_src", "_dst", "_w", "_in", "_low", "_reason",
        "_marks", "_lowmarks", "_lowtrail", "_conflict",
    )

    def __init__(self):
        self._src: list[int] = []
        self._dst: list[int] = []
        self._w: list[int] = []
        self._in: list[list[int]] = [[]]
        self._low: list[int] = [0]
        self._reason: list[int] = [_NEW_EDGE]
        self._marks: list[int] = []
        self._lowmarks: list[int] = []
        self._lowtrail: list[tuple[int, int, int]] = []
        self._conflict: list[int] = []

    # --- structure ---------------------------------------------------------

    def add_var(self) -> int:
        self._in.append([])
        self._low.append(_FLOOR)
        self._reason.append(_NEW_EDGE)
        return len(self._low) - 1

    def num_vars(self) -> int:
        return len(self._low)

    def num_edges(self) -> int:
        return len(self._src)

    def edge(self, eid: int) -> tuple[int, int, int]:
        if not 0 <= eid < len(self._src):
            raise IndexError(f"no edge {eid}")
        return (self._src[eid], self._dst[eid], self._w[eid])

    def level(self) -> int:
        return len(self._marks)

    def push(self) -> None:
        self._marks.append(len(self._src))
        self._lowmarks.append(len(self._lowtrail))

    def pop(self) -> None:
        if not self._marks:
            raise IndexError("pop without matching push")
        mark = self._marks.pop()
        for eid in range(len(self._src) - 1, mark - 1, -1):
            self._in[self._dst[eid]].pop()
        del self._src[mark:], self._dst[mark:], self._w[mark:]
        self._undo(self._lowmarks.pop())

    def _undo(self, lowmark: int) -> None:
        """Restore ``low`` and ``reason`` to their values at trail size ``lowmark``."""
        low, reason, trail = self._low, self._reason, self._lowtrail
        for i in range(len(trail) - 1, lowmark - 1, -1):
            node, low[node], reason[node] = trail[i]
        del trail[lowmark:]

    # --- queries -----------------------------------------------------------

    def earliest(self, v: int) -> int:
        """Strongest lower bound of ``v``; below ``-MAX_WEIGHT * MAX_EDGES`` when free."""
        if not 0 <= v < len(self._low):
            raise IndexError(f"unknown variable {v}")
        return self._low[v]

    def earliest_all(self) -> list[int]:
        return list(self._low)

    def changed(self) -> list[int]:
        """Nodes whose ``low`` rose since the last push, one entry per raise.

        Empty right after :meth:`push`; a rejected assert leaves it as it was.
        """
        mark = self._lowmarks[-1] if self._lowmarks else 0
        return [node for node, _, _ in self._lowtrail[mark:]]

    def conflict(self) -> list[int]:
        """Edge ids of the last rejected assert's cycle, excluding the new edge."""
        return list(self._conflict)

    # --- asserting ---------------------------------------------------------

    def assert_edge(self, u: int, v: int, w: int) -> int:
        """Add ``value(v) - value(u) <= w``.  Returns 0, or 1 on a negative cycle.

        On 1 the kernel is unchanged apart from the recorded conflict.
        """
        n = len(self._low)
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"unknown variable in edge ({u}, {v})")
        if type(w) is not int:
            w = index(w)
        if not (-MAX_WEIGHT <= w <= MAX_WEIGHT):
            raise OverflowError(f"weight {w} outside +-{MAX_WEIGHT}")
        if len(self._src) >= MAX_EDGES:
            raise OverflowError(f"more than {MAX_EDGES} constraints")
        if u == v:
            if w < 0:
                self._conflict = []
                return 1
        elif not self._raise(u, v, self._low[v] - w):
            return 1
        eid = len(self._src)
        self._src.append(u)
        self._dst.append(v)
        self._w.append(w)
        self._in[v].append(eid)
        return 0

    def _raise(self, u: int, v: int, cand: int) -> bool:
        """Raise ``low[u]`` to ``cand`` and propagate; False (and rollback) on a cycle."""
        low, reason = self._low, self._reason
        lu = low[u]
        if cand <= lu:
            return True
        if u == 0:
            self._conflict = self._chain(v, ())
            return False
        trail = self._lowtrail
        start = len(trail)
        trail.append((u, lu, reason[u]))
        low[u] = cand
        reason[u] = len(self._src)  # the new edge, once recorded
        todo = [u]
        src, in_, wts = self._src, self._in, self._w
        while todo:
            n = todo.pop()
            ln = low[n]
            for eid in in_[n]:
                t = src[eid]
                cand = ln - wts[eid]
                lt = low[t]
                if cand > lt:
                    if t == v or t == 0:
                        self._conflict = self._cycle(u, v, eid, start)
                        self._undo(start)
                        return False
                    trail.append((t, lt, reason[t]))
                    low[t] = cand
                    reason[t] = eid
                    todo.append(t)
        return True

    def _chain(self, x: int, stops: tuple[int, ...] | set[int]) -> list[int]:
        """Reason edges from ``x`` up to the origin or the first node in ``stops``.

        From a node this assert raised, the reasons lead to ``u`` without
        meeting the origin.
        """
        reason, dst = self._reason, self._dst
        path = []
        while x and x not in stops:
            eid = reason[x]
            path.append(eid)
            x = dst[eid]
        return path

    def _cycle(self, u: int, v: int, eid: int, start: int) -> list[int]:
        """The negative cycle found when edge ``eid`` would raise ``v`` or the origin.

        ``start`` is the trail size before this assert's raises, the first of
        which raised ``u``.  The cycle excludes the new edge ``u -> v``.
        """
        dst = self._dst
        if self._src[eid] == v:
            return [eid] + self._chain(dst[eid], (u,))
        # it would raise the origin: v's reason chain to it comes first
        raised = {node for node, _, _ in self._lowtrail[start:]}
        head = self._chain(v, raised)
        x = dst[head[-1]]
        if x in raised:
            return head + self._chain(x, (u,))
        return head + [eid] + self._chain(dst[eid], (u,))
