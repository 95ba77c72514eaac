"""Reducibility testing and node splitting.

A CFG is reducible iff removing every edge ``(u, v)`` whose target
dominates its source (the natural-loop back edges) leaves an acyclic
graph.  ``split_nodes`` applies the standard node-splitting
transformation to make an irreducible graph reducible: it repeatedly
clones a multi-predecessor node inside an irreducible region, once per
incoming edge, until the test passes.
"""

from __future__ import annotations

from repro.errors import CFGError, IrreducibleError
from repro.cfg.dfs import depth_first_search
from repro.cfg.dominance import dominates, dominator_tree
from repro.cfg.graph import CFGEdge, ControlFlowGraph

#: Safety bound on node-splitting growth: node splitting can be
#: exponential in the worst case, so refuse to grow a graph beyond
#: this multiple of its original size.
_MAX_GROWTH = 16


def back_edges(cfg: ControlFlowGraph) -> list[CFGEdge]:
    """Edges (u, v) with v dominating u — the natural-loop back edges."""
    idom = dominator_tree(cfg)
    return [
        edge
        for edge in cfg.edges
        if edge.src in idom
        and edge.dst in idom
        and dominates(idom, edge.dst, edge.src, cfg.entry)
    ]


def forward_cycle(cfg: ControlFlowGraph) -> list[int] | None:
    """A cycle avoiding the natural back edges, or None when acyclic.

    The graph is reducible exactly when this returns None.
    """
    removed = {id(edge) for edge in back_edges(cfg)}
    color: dict[int, int] = {}  # 0 white (absent), 1 gray, 2 black
    parent: dict[int, int] = {}

    for start in cfg.nodes:
        if color.get(start):
            continue
        stack: list[tuple[int, list[int], int]] = [
            (start, _forward_successors(cfg, start, removed), 0)
        ]
        color[start] = 1
        while stack:
            node, succs, index = stack.pop()
            advanced = False
            while index < len(succs):
                nxt = succs[index]
                index += 1
                state = color.get(nxt, 0)
                if state == 0:
                    parent[nxt] = node
                    color[nxt] = 1
                    stack.append((node, succs, index))
                    stack.append((nxt, _forward_successors(cfg, nxt, removed), 0))
                    advanced = True
                    break
                if state == 1:
                    # Found a cycle: reconstruct it from the parent chain.
                    cycle = [node]
                    cursor = node
                    while cursor != nxt:
                        cursor = parent[cursor]
                        cycle.append(cursor)
                    cycle.reverse()
                    return cycle
            if not advanced and index >= len(succs):
                color[node] = 2
    return None


def _forward_successors(
    cfg: ControlFlowGraph, node: int, removed: set[int]
) -> list[int]:
    return [e.dst for e in cfg.out_edges(node) if id(e) not in removed]


def reducible_back_edges(cfg: ControlFlowGraph) -> list[CFGEdge] | None:
    """The natural-loop back edges, in edge order, or None when the CFG
    is irreducible — on a fully reachable CFG, from one DFS and at most
    one dominator tree.

    When every node is reachable this uses the single-DFS test: the
    graph is reducible iff every retreating edge's target dominates
    its source.  (Removing the retreating edges of any DFS leaves a
    DAG, so a forward cycle must contain a retreating non-back edge;
    conversely such an edge plus its spanning-tree path *is* a forward
    cycle, because tree edges are never back edges.)  A back edge's
    target is an ancestor of its source in every DFS tree, so on a
    reducible graph the retreating edges are exactly the back edges.
    With unreachable nodes retreating edges are undefined, so fall
    back to the explicit cycle search.
    """
    dfs = depth_first_search(cfg, cfg.entry)
    if len(dfs.preorder) != len(cfg.nodes):
        return None if forward_cycle(cfg) is not None else back_edges(cfg)
    if not dfs.back_edges:
        return []
    idom = dominator_tree(cfg, dfs=dfs)
    if not all(
        dominates(idom, edge.dst, edge.src, cfg.entry)
        for edge in dfs.back_edges
    ):
        return None
    retreating = {id(edge) for edge in dfs.back_edges}
    return [edge for edge in cfg.edges if id(edge) in retreating]


def is_reducible(cfg: ControlFlowGraph) -> bool:
    """True when the CFG is reducible (see :func:`reducible_back_edges`)."""
    return reducible_back_edges(cfg) is not None


def split_nodes(cfg: ControlFlowGraph, max_growth: int = _MAX_GROWTH) -> int:
    """Make ``cfg`` reducible in place via node splitting.

    Returns the number of nodes that were cloned.  Raises
    IrreducibleError when the graph would grow beyond
    ``max_growth × original size`` (pathological irreducibility).
    """
    original_size = len(cfg)
    splits = 0
    while True:
        cycle = forward_cycle(cfg)
        if cycle is None:
            return splits
        if len(cfg) > max_growth * original_size:
            raise IrreducibleError(
                f"node splitting exceeded growth bound on {cfg.name or 'cfg'}"
            )
        victim = _pick_split_victim(cfg, cycle)
        _split_one(cfg, victim)
        splits += 1


def _pick_split_victim(cfg: ControlFlowGraph, cycle: list[int]) -> int:
    """Choose the cycle node with ≥2 preds and the fewest incident edges."""
    candidates = [n for n in cycle if len(cfg.in_edges(n)) >= 2 and n != cfg.entry]
    if not candidates:
        raise CFGError("irreducible cycle without a splittable node")
    return min(
        candidates, key=lambda n: (len(cfg.in_edges(n)), len(cfg.out_edges(n)), n)
    )


def _split_one(cfg: ControlFlowGraph, node_id: int) -> None:
    """Clone ``node_id`` so each incoming edge gets a private copy.

    The original node keeps its first incoming edge; each remaining
    incoming edge is redirected to a fresh clone that replicates all
    outgoing edges.
    """
    incoming = cfg.in_edges(node_id)
    template = cfg.nodes[node_id]
    for edge in incoming[1:]:
        clone = cfg.add_node(
            template.kind,
            type=template.type,
            stmt=template.stmt,
            cond=template.cond,
            trip_var=template.trip_var,
            line=template.line,
            text=template.text,
        )
        for out_edge in cfg.out_edges(node_id):
            dst = out_edge.dst if out_edge.dst != node_id else clone.id
            cfg.add_edge(clone.id, dst, out_edge.label)
        cfg.remove_edge(edge)
        cfg.add_edge(edge.src, clone.id, edge.label)
