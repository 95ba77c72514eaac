"""Control-flow structure recovery for the source emitter.

The emitter turns a statement-level CFG back into nested Python
``while``/``if`` blocks.  This module provides the graph facts that
drive it, over the dense node indices of a
:class:`~repro.codegen.shape.ProcShape`: reverse postorder, the loops
with their exit targets, and *region* postdominators, the branch-join
oracle.

The loops are not recomputed here.  Node splitting
(:mod:`repro.cfg.reducibility`) makes every CFG reducible before it
gets here, so every cycle enters through a natural-loop header, and
the front end's interval structure (:mod:`repro.intervals`, the
paper's Section 2 HDR tree) already holds each loop's body;
:func:`~repro.codegen.shape.build_shape` maps those bodies onto dense
indices once per procedure.  The emitter works inside one region at a
time: the whole procedure, or one loop body.  A branch joins at its
immediate postdominator *within its region*, computed on a graph in
which

* every edge that leaves the region (a loop exit, an edge to EXIT or
  STOP) is deleted, and
* latches, and nodes left with no in-region successor, feed the
  virtual exit.

At procedure level this is the ordinary postdominator tree.  Every
region's postdominators come from the Cooper–Harvey–Kennedy engine in
:mod:`repro.cfg.dominance`.
"""

from __future__ import annotations

from repro.cfg.dominance import immediate_dominators

#: The virtual exit every region's postdominator tree is rooted at.
_EXIT = -1


def _reverse_postorder(root: int, succ) -> list[int]:
    """Iterative DFS from ``root`` over ``succ(node)``."""
    order: list[int] = []
    seen = {root}
    stack: list[tuple[int, int]] = [(root, 0)]
    while stack:
        node, i = stack[-1]
        succs = succ(node)
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


def _tree(order: list[int], preds, root: int) -> dict[int, int]:
    return immediate_dominators(
        order, {n: i for i, n in enumerate(order)}, preds, root
    )


class FlowInfo:
    """Derived control-flow facts over dense node indices.

    ``loops`` maps each loop header to its body (header included),
    one entry per header however many back edges target it.
    """

    def __init__(
        self,
        succ: dict[int, list[int]],
        entry: int,
        terminals: set[int],
        loops: dict[int, set[int]],
    ):
        self.succ = succ
        self.entry = entry
        self.terminals = terminals
        rpo = _reverse_postorder(entry, lambda n: succ.get(n, ()))
        self.reachable = set(rpo)
        rpo_pos = {n: i for i, n in enumerate(rpo)}
        self.loops = loops
        #: Loop header -> its non-terminal exit targets in reverse
        #: postorder (the exit-code order).
        self.loop_exits = {
            h: sorted(
                {
                    d
                    for n in body
                    for d in succ.get(n, ())
                    if d not in body and d not in terminals
                },
                key=rpo_pos.__getitem__,
            )
            for h, body in loops.items()
        }
        self._pdoms: dict[int | None, dict[int, int | None]] = {}

    def postdominators(self, header: int | None) -> dict[int, int | None]:
        """Immediate postdominators within one region: the loop body of
        ``header``, or the whole procedure for ``None``.

        Maps every node that reaches the region's virtual exit to its
        immediate postdominator, ``None`` standing for the virtual exit
        itself; nodes that cannot reach it are absent.
        """
        cached = self._pdoms.get(header)
        if cached is not None:
            return cached
        nodes = self.reachable if header is None else self.loops[header]
        forward: dict[int, list[int]] = {_EXIT: []}
        reverse: dict[int, list[int]] = {_EXIT: []}
        for n in nodes:
            succs = self.succ.get(n, ())
            kept = [d for d in succs if d in nodes and d != header]
            if not kept or header in succs:
                kept.append(_EXIT)
            forward[n] = kept
            for d in kept:
                reverse.setdefault(d, []).append(n)
        order = _reverse_postorder(_EXIT, lambda n: reverse.get(n, ()))
        ipdom = _tree(order, forward.__getitem__, _EXIT)
        del ipdom[_EXIT]
        result = {n: (None if p == _EXIT else p) for n, p in ipdom.items()}
        self._pdoms[header] = result
        return result

    def join(self, header: int | None, nodes) -> int | None:
        """The nearest common postdominator of ``nodes`` within the
        region of ``header`` (``None``: the virtual exit).  Nodes that
        cannot reach the region's exit impose no constraint."""
        ipdom = self.postdominators(header)
        common: list[int] | None = None
        for n in nodes:
            if n not in ipdom:
                continue
            chain = []
            while n is not None:
                chain.append(n)
                n = ipdom[n]
            if common is None:
                common = chain
            else:
                on_chain = set(chain)
                common = [m for m in common if m in on_chain]
        return common[0] if common else None
