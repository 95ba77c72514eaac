"""Control-flow structure recovery for the source emitter.

The emitter turns a statement-level CFG back into nested Python
``while``/``if`` blocks.  This module provides the graph facts that
drive it: reverse postorder, immediate dominators (iterative
Cooper-Harvey-Kennedy), natural loops merged per header, and immediate
postdominators (the branch-join oracle), all over the dense node
indices of a :class:`~repro.codegen.shape.ProcShape`.

When the CFG does not fit the structured patterns (irreducible flow, a
loop with several distinct non-terminal exit targets, a join reached
twice), the emitter raises :class:`Unstructured` and falls back to a
dispatch-loop rendering of the same procedure — never to a lowering
failure, so control-flow shape alone can't force the reference
interpreter.
"""

from __future__ import annotations


class Unstructured(Exception):
    """The CFG resists structured emission; use the dispatch loop."""


class FlowInfo:
    """Derived control-flow facts over dense node indices."""

    def __init__(self, succ: dict[int, list[int]], entry: int, terminals: set[int]):
        self.succ = succ
        self.entry = entry
        self.terminals = terminals
        self.reachable = self._reach()
        self.rpo = self._rpo()
        self.rpo_pos = {n: i for i, n in enumerate(self.rpo)}
        self.pred: dict[int, list[int]] = {n: [] for n in self.reachable}
        for n in self.reachable:
            for d in succ.get(n, ()):
                if d in self.reachable:
                    self.pred[d].append(n)
        self.idom = _idoms(self.rpo, self.rpo_pos, self.pred, entry)
        self.loops = self._natural_loops()
        self.ipdom = self._ipostdoms()

    # -- basic orders --------------------------------------------------

    def _reach(self) -> set[int]:
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            n = stack.pop()
            for d in self.succ.get(n, ()):
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        return seen

    def _rpo(self) -> list[int]:
        order: list[int] = []
        seen = set()
        # Iterative postorder DFS.
        stack: list[tuple[int, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            node, i = stack[-1]
            succs = self.succ.get(node, ())
            if i < len(succs):
                stack[-1] = (node, i + 1)
                d = succs[i]
                if d not in seen:
                    seen.add(d)
                    stack.append((d, 0))
            else:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    # -- dominance -----------------------------------------------------

    def dominates(self, a: int, b: int) -> bool:
        while b is not None:
            if a == b:
                return True
            b = self.idom.get(b)
        return False

    def _natural_loops(self) -> dict[int, set[int]]:
        """Loop header -> body node set (header included), merged over
        every back edge targeting the header."""
        loops: dict[int, set[int]] = {}
        for n in self.reachable:
            for d in self.succ.get(n, ()):
                if d in self.reachable and self.dominates(d, n):
                    body = loops.setdefault(d, {d})
                    # Walk predecessors from the latch, stopping at the
                    # header.
                    stack = [n]
                    while stack:
                        m = stack.pop()
                        if m in body:
                            continue
                        body.add(m)
                        stack.extend(self.pred.get(m, ()))
        return loops

    # -- postdominance -------------------------------------------------

    def _ipostdoms(self) -> dict[int, int | None]:
        """Immediate postdominator per node, or None when a node cannot
        reach the virtual exit (then joins involving it are invalid)."""
        virtual = -1
        rsucc: dict[int, list[int]] = {n: [] for n in self.reachable}
        rsucc[virtual] = []
        for n in self.reachable:
            if n in self.terminals or not self.succ.get(n):
                rsucc[virtual].append(n)
            for d in self.succ.get(n, ()):
                if d in self.reachable:
                    rsucc.setdefault(d, []).append(n)
        # Postorder over the reversed graph from the virtual root.
        order: list[int] = []
        seen = {virtual}
        stack: list[tuple[int, int]] = [(virtual, 0)]
        while stack:
            node, i = stack[-1]
            succs = rsucc.get(node, ())
            if i < len(succs):
                stack[-1] = (node, i + 1)
                d = succs[i]
                if d not in seen:
                    seen.add(d)
                    stack.append((d, 0))
            else:
                order.append(node)
                stack.pop()
        order.reverse()  # now RPO of the reversed graph
        pos = {n: i for i, n in enumerate(order)}
        # Predecessors in the reversed graph == successors in the CFG,
        # plus terminal -> virtual.
        rpred: dict[int, list[int]] = {n: [] for n in order}
        for n, ds in rsucc.items():
            for d in ds:
                if d in pos:
                    rpred[d].append(n)
        ipdom = _idoms(order, pos, rpred, virtual)
        return {
            n: (None if ipdom.get(n) in (None, virtual) else ipdom.get(n))
            for n in self.reachable
            if n != virtual
        }


def _idoms(
    rpo: list[int],
    rpo_pos: dict[int, int],
    pred: dict[int, list[int]],
    entry: int,
) -> dict[int, int | None]:
    """Iterative immediate-dominator computation (CHK algorithm)."""
    idom: dict[int, int | None] = {entry: entry}
    changed = True
    while changed:
        changed = False
        for n in rpo:
            if n == entry:
                continue
            new = None
            for p in pred.get(n, ()):
                if p not in idom:
                    continue
                if new is None:
                    new = p
                else:
                    new = _intersect(new, p, idom, rpo_pos)
            if new is not None and idom.get(n) != new:
                idom[n] = new
                changed = True
    idom[entry] = None
    return idom


def _intersect(a: int, b: int, idom: dict, rpo_pos: dict) -> int:
    while a != b:
        while rpo_pos[a] > rpo_pos[b]:
            a = idom[a]
        while rpo_pos[b] > rpo_pos[a]:
            b = idom[b]
    return a
