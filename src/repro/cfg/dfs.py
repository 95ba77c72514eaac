"""Depth-first search over control flow graphs.

Provides the depth-first spanning tree, preorder/postorder numbering
and reverse postorder that the dominator and interval analyses build
on.  Edge classification follows the dragon book: *tree*, *back*
(destination is a spanning-tree ancestor of the source, including
self-loops), *forward* (descendant) and *cross*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.graph import CFGEdge, ControlFlowGraph


@dataclass
class DFSResult:
    """Outcome of one depth-first traversal from ``root``."""

    root: int
    preorder: dict[int, int] = field(default_factory=dict)
    postorder: dict[int, int] = field(default_factory=dict)
    parent: dict[int, int | None] = field(default_factory=dict)
    tree_edges: list[CFGEdge] = field(default_factory=list)
    back_edges: list[CFGEdge] = field(default_factory=list)
    forward_edges: list[CFGEdge] = field(default_factory=list)
    cross_edges: list[CFGEdge] = field(default_factory=list)

    def reverse_postorder(self) -> list[int]:
        """Visited nodes sorted by decreasing postorder number."""
        return sorted(self.postorder, key=lambda n: -self.postorder[n])

    def is_ancestor(self, a: int, b: int) -> bool:
        """True when ``a`` is an ancestor of ``b`` in the spanning tree
        (every node is an ancestor of itself)."""
        return (
            self.preorder[a] <= self.preorder[b]
            and self.postorder[a] >= self.postorder[b]
        )


def depth_first_search(cfg: ControlFlowGraph, root: int | None = None) -> DFSResult:
    """Iterative DFS from ``root`` (default: the CFG entry).

    Edges are explored in insertion order, so the traversal — and the
    resulting spanning tree — is deterministic.
    """
    start = cfg.entry if root is None else root
    result = DFSResult(root=start)
    preorder = result.preorder
    postorder = result.postorder
    parent = result.parent
    parent[start] = None
    # Stack holds (node, out-edges, next index); emulate recursion.
    preorder[start] = 0
    stack: list[tuple[int, list[CFGEdge], int]] = [(start, cfg.out_edges(start), 0)]
    while stack:
        node, edges, index = stack.pop()
        advanced = False
        while index < len(edges):
            edge = edges[index]
            index += 1
            target = edge.dst
            if target not in preorder:
                parent[target] = node
                result.tree_edges.append(edge)
                preorder[target] = len(preorder)
                stack.append((node, edges, index))
                stack.append((target, cfg.out_edges(target), 0))
                advanced = True
                break
            if target not in postorder:
                # Target is on the current DFS stack: a back edge.
                result.back_edges.append(edge)
            elif preorder[target] > preorder[node]:
                result.forward_edges.append(edge)
            else:
                result.cross_edges.append(edge)
        if not advanced:
            postorder[node] = len(postorder)
    return result
