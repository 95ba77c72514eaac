"""Dominators and postdominators.

Implements the iterative algorithm of Cooper, Harvey and Kennedy
("A Simple, Fast Dominance Algorithm") over reverse postorder.  The
same engine computes postdominators by walking the reversed graph from
the exit node.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import AnalysisError
from repro.cfg.dfs import depth_first_search
from repro.cfg.graph import ControlFlowGraph


def immediate_dominators(
    nodes: list[int],
    rpo_index: dict[int, int],
    preds: Callable[[int], list[int]],
    root: int,
) -> dict[int, int]:
    """Generic CHK iteration; ``nodes`` must be in reverse postorder.

    Works on any graph given as a node order and a predecessor
    function: pass the reversed graph's order and successor function
    for postdominators.  The root maps to itself; nodes no predecessor
    chain connects to the root are left out.
    """
    idom: dict[int, int] = {root: root}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rpo_index[a] > rpo_index[b]:
                a = idom[a]
            while rpo_index[b] > rpo_index[a]:
                b = idom[b]
        return a

    pred_lists = [(node, preds(node)) for node in nodes if node != root]
    changed = True
    while changed:
        changed = False
        for node, node_preds in pred_lists:
            candidates = [p for p in node_preds if p in idom]
            if not candidates:
                continue
            new_idom = candidates[0]
            for pred in candidates[1:]:
                new_idom = intersect(new_idom, pred)
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    return idom


def dominator_tree(cfg: ControlFlowGraph, dfs=None) -> dict[int, int]:
    """Immediate dominators keyed by node; the entry maps to itself.

    Only nodes reachable from the entry appear in the result.  Pass a
    precomputed entry-rooted ``DFSResult`` as ``dfs`` to reuse its
    traversal instead of running a fresh one.
    """
    if dfs is None:
        dfs = depth_first_search(cfg, cfg.entry)
    order = dfs.reverse_postorder()
    rpo_index = {node: i for i, node in enumerate(order)}
    return immediate_dominators(order, rpo_index, cfg.predecessors, cfg.entry)


def postdominator_tree(cfg: ControlFlowGraph) -> dict[int, int]:
    """Immediate postdominators keyed by node; exit maps to itself.

    Raises AnalysisError when some node cannot reach the exit (the
    paper assumes terminating programs, and control dependence is
    undefined otherwise).
    """
    # DFS over the reversed graph from the exit.
    visited: set[int] = set()
    postorder: list[int] = []
    stack: list[tuple[int, list[int], int]] = [
        (cfg.exit, cfg.predecessors(cfg.exit), 0)
    ]
    visited.add(cfg.exit)
    while stack:
        node, preds, index = stack.pop()
        advanced = False
        while index < len(preds):
            nxt = preds[index]
            index += 1
            if nxt not in visited:
                visited.add(nxt)
                stack.append((node, preds, index))
                stack.append((nxt, cfg.predecessors(nxt), 0))
                advanced = True
                break
        if not advanced and index >= len(preds):
            postorder.append(node)
    unreachable = set(cfg.nodes) - visited
    if unreachable:
        raise AnalysisError(
            "nodes cannot reach the exit (nonterminating control flow): "
            f"{sorted(unreachable)}"
        )
    order = list(reversed(postorder))
    rpo_index = {node: i for i, node in enumerate(order)}
    return immediate_dominators(order, rpo_index, cfg.successors, cfg.exit)


def dominance_frontier(
    cfg: ControlFlowGraph, idom: dict[int, int]
) -> dict[int, set[int]]:
    """Dominance frontiers (Cytron et al.) for the given idom tree."""
    frontier: dict[int, set[int]] = {node: set() for node in idom}
    for node in idom:
        preds = [p for p in cfg.predecessors(node) if p in idom]
        if len(preds) < 2:
            continue
        for pred in preds:
            runner = pred
            while runner != idom[node]:
                frontier[runner].add(node)
                runner = idom[runner]
    return frontier


def dominates(idom: dict[int, int], a: int, b: int, root: int) -> bool:
    """True when ``a`` dominates ``b`` under the given idom map."""
    node = b
    while True:
        if node == a:
            return True
        if node == root or node not in idom:
            return False
        parent = idom[node]
        if parent == node:
            return node == a
        node = parent


def dominator_depths(idom: dict[int, int], root: int) -> dict[int, int]:
    """Depth of every node in the dominator tree (root depth 0)."""
    depths: dict[int, int] = {root: 0}

    def depth(node: int) -> int:
        if node in depths:
            return depths[node]
        chain = []
        cursor = node
        while cursor not in depths:
            chain.append(cursor)
            parent = idom[cursor]
            if parent == cursor:
                raise AnalysisError(f"node {cursor} is a non-root idom fixpoint")
            cursor = parent
        base = depths[cursor]
        for i, item in enumerate(reversed(chain), start=1):
            depths[item] = base + i
        return depths[node]

    for node in idom:
        depth(node)
    return depths
