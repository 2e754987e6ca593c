"""Pure-Python difference-logic kernel.

Maintains a set of constraints ``value(v) - value(u) <= w`` over integer
variables (node 0 is the fixed origin) and answers, incrementally, whether the
set is satisfiable.  Infeasible asserts are rejected: the constraint is not
recorded and the offending negative cycle is kept for inspection, so the
stored set is feasible at all times.

Each variable ``x`` has ``low[x]``, the strongest lower bound derivable
against the origin, or None when no chain of constraints leads from ``x`` to
the origin; ``low`` is exactly the earliest-start value in scheduling
encodings.  With it goes ``reason[x]``, the edge ``x -> y`` that last raised
it, so ``low[x] == low[y] - w`` and following reasons from ``x`` leads to the
origin.  Both are trailed and restored by :meth:`pop`.  :meth:`changed`
reads the trail back to the last push: the nodes whose ``low`` rose since,
one entry per raise, so a caller can update what it derives from ``low``
by what an assert changed instead of rescanning every node.

An edge ``u -> v`` whose target has a lower bound is checked by raising
``low`` from ``u`` (to ``low[v] - w``) backwards along incoming edges.  The
lows are a feasible valuation of the bounded variables, so the new edge
closes a negative cycle exactly when this would strictly raise ``v`` or the
origin.  The assert is
then rejected and its raises undone.  The cycle is read off the reasons: the
raising edge, then the reason chain back to ``u``, which the new edge closes.
When the origin would be raised, ``v``'s reason chain to the origin comes
first; if that chain runs into a node this assert raised, the chain from
there to ``u`` closes the cycle on its own.  One pass thus both detects the
conflict and raises the earliest starts.

An edge whose target has no lower bound raises nothing.  It is checked
against a feasible valuation ``pi`` of the variables without lower bounds,
by a Dijkstra-like relaxation seeded at the new edge (each node's value only
ever decreases, and reduced costs stay non-negative, so every node is
finalised at most once per assert).  Whatever that relaxation reaches also
has no lower bound, since an edge into a bounded node bounds its source.

The compiled backend, the hand-written C++ in ``_dl_core.cpp``, implements
the same algorithm with the same tie-breaking; the two must be observably
identical.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import index

MAX_WEIGHT = 1 << 40
MAX_EDGES = 1 << 21
_PI_FLOOR = -(1 << 60)
_NEW_EDGE = -1


class DiffKernel:
    __slots__ = (
        "_src", "_dst", "_w", "_out", "_in", "_pi", "_low", "_reason",
        "_marks", "_lowmarks", "_lowtrail", "_conflict",
        "_gamma", "_gstamp", "_fstamp", "_parent", "_stamp",
    )

    def __init__(self):
        self._src: list[int] = []
        self._dst: list[int] = []
        self._w: list[int] = []
        self._out: list[list[int]] = [[]]
        self._in: list[list[int]] = [[]]
        self._pi: list[int] = [0]
        self._low: list[int | None] = [0]
        self._reason: list[int] = [_NEW_EDGE]
        self._marks: list[int] = []
        self._lowmarks: list[int] = []
        self._lowtrail: list[tuple[int, int | None, int]] = []
        self._conflict: list[int] = []
        self._gamma: list[int] = [0]
        self._gstamp: list[int] = [0]
        self._fstamp: list[int] = [0]
        self._parent: list[int] = [0]
        self._stamp = 0

    # --- structure ---------------------------------------------------------

    def add_var(self) -> int:
        self._out.append([])
        self._in.append([])
        self._pi.append(0)
        self._low.append(None)
        self._reason.append(_NEW_EDGE)
        self._gamma.append(0)
        self._gstamp.append(0)
        self._fstamp.append(0)
        self._parent.append(0)
        return len(self._pi) - 1

    def num_vars(self) -> int:
        return len(self._pi)

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
            self._out[self._src[eid]].pop()
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

    def earliest(self, v: int) -> int | None:
        """Strongest lower bound of ``v`` against the origin, or None."""
        if not 0 <= v < len(self._low):
            raise IndexError(f"unknown variable {v}")
        return self._low[v]

    def earliest_all(self) -> list[int | None]:
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
        n = len(self._pi)
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
        elif self._low[v] is not None:
            if not self._raise(u, v, self._low[v] - w):
                return 1
        else:
            pi = self._pi
            slack = pi[u] + w - pi[v]
            if slack < 0 and not self._relax(u, v, slack):
                return 1
        eid = len(self._src)
        self._src.append(u)
        self._dst.append(v)
        self._w.append(w)
        self._out[u].append(eid)
        self._in[v].append(eid)
        return 0

    def _raise(self, u: int, v: int, cand: int) -> bool:
        """Raise ``low[u]`` to ``cand`` and propagate; False (and rollback) on a cycle."""
        low, reason = self._low, self._reason
        lu = low[u]
        if lu is not None and cand <= lu:
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
                if lt is None or cand > lt:
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

    def _relax(self, u: int, v: int, slack: int) -> bool:
        """Lower ``pi`` to absorb the new edge; False (and rollback) on a cycle."""
        self._stamp += 1
        stamp = self._stamp
        pi, out, dst, wts = self._pi, self._out, self._dst, self._w
        gamma, gstamp, fstamp, parent = self._gamma, self._gstamp, self._fstamp, self._parent
        gamma[v] = slack
        gstamp[v] = stamp
        parent[v] = _NEW_EDGE
        heap: list[tuple[int, int]] = [(slack, v)]
        changed: list[tuple[int, int]] = []
        while heap:
            g, s = heappop(heap)
            if fstamp[s] == stamp or gstamp[s] != stamp or gamma[s] != g:
                continue
            lowered = pi[s] + g
            if lowered < _PI_FLOOR:
                for node, old in reversed(changed):
                    pi[node] = old
                raise OverflowError("difference-logic potentials out of range")
            fstamp[s] = stamp
            changed.append((s, pi[s]))
            pi[s] = lowered
            for eid in out[s]:
                t = dst[eid]
                if fstamp[t] == stamp:
                    continue
                cand = pi[s] + wts[eid] - pi[t]
                if cand >= 0:
                    continue
                if t == u:
                    path = [eid]
                    cur = s
                    while cur != v:
                        pe = parent[cur]
                        path.append(pe)
                        cur = self._src[pe]
                    self._conflict = path[::-1]
                    for node, old in reversed(changed):
                        pi[node] = old
                    return False
                if gstamp[t] != stamp or cand < gamma[t]:
                    gamma[t] = cand
                    gstamp[t] = stamp
                    parent[t] = eid
                    heappush(heap, (cand, t))
        return True
