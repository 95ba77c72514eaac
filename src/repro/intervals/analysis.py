"""Natural-loop interval analysis.

For a reducible CFG the Tarjan intervals coincide with the natural
loops: every back edge ``(u, h)`` (target dominates source) defines a
loop with header ``h``; back edges sharing a header define one loop.
The paper's outermost interval — the one containing ``n_first`` — is
modelled as a pseudo-loop headed by the CFG entry that contains every
node.

The resulting :class:`IntervalStructure` exposes the paper's mappings:

* ``HDR(n)``        — header of the innermost interval containing n;
* ``HDR_PARENT(h)`` — header of the immediately enclosing interval
  (0 for the outermost interval, matching the paper's convention);
* ``HDR_LCA(h1, h2)`` — least common ancestor in the header tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AnalysisError, IrreducibleError
from repro.cfg.graph import CFGEdge, ControlFlowGraph
from repro.cfg.reducibility import reducible_back_edges


@dataclass
class IntervalStructure:
    """The interval (loop-nesting) structure of one CFG."""

    cfg: ControlFlowGraph
    #: Innermost interval header for every node (HDR).  The entry node
    #: heads the outermost interval and maps to itself.
    hdr: dict[int, int] = field(default_factory=dict)
    #: Immediate enclosing interval header for every header
    #: (HDR_PARENT); the outermost header maps to 0.
    hdr_parent: dict[int, int] = field(default_factory=dict)
    #: Members of each interval, including subinterval nodes and the
    #: header itself.
    members: dict[int, set[int]] = field(default_factory=dict)
    #: Back edges grouped by header.
    loop_back_edges: dict[int, list[CFGEdge]] = field(default_factory=dict)
    #: Real edges leaving each interval, by header, in CFG edge order
    #: (empty for the outermost one).
    loop_exits: dict[int, list[CFGEdge]] = field(default_factory=dict)
    _depth: dict[int, int] = field(default_factory=dict, repr=False)

    @property
    def root(self) -> int:
        """Header of the outermost interval (the CFG entry)."""
        return self.cfg.entry

    @property
    def headers(self) -> list[int]:
        """All interval headers, outermost first (by depth, then id)."""
        return sorted(self.hdr_parent, key=lambda h: (self._depth[h], h))

    @property
    def loop_headers(self) -> list[int]:
        """Headers of real loops (the outermost pseudo-interval excluded)."""
        return [h for h in self.headers if h != self.root]

    def hdr_of(self, node: int) -> int:
        """HDR(n): the header of the innermost interval containing n.

        Following the paper, a header node belongs to its own interval:
        ``hdr_of(h) == h`` for every header ``h``.
        """
        return self.hdr[node]

    def parent_of(self, header: int) -> int:
        """HDR_PARENT(h); 0 for the outermost interval."""
        return self.hdr_parent[header]

    def depth_of(self, header: int) -> int:
        """Nesting depth of an interval (outermost = 0)."""
        return self._depth[header]

    def lca(self, h1: int, h2: int) -> int:
        """HDR_LCA(h1, h2) in the header tree."""
        if h1 not in self._depth or h2 not in self._depth:
            raise AnalysisError(f"lca: {h1} or {h2} is not an interval header")
        a, b = h1, h2
        while self._depth[a] > self._depth[b]:
            a = self.hdr_parent[a]
        while self._depth[b] > self._depth[a]:
            b = self.hdr_parent[b]
        while a != b:
            a = self.hdr_parent[a]
            b = self.hdr_parent[b]
        return a

    def contains(self, header: int, node: int) -> bool:
        """True when ``node`` is inside the interval headed by ``header``
        (directly or in a nested subinterval)."""
        return node in self.members[header]

    def enclosing_headers(self, node: int) -> list[int]:
        """Headers of all intervals containing ``node``, innermost first."""
        chain = []
        header = self.hdr[node]
        while header != 0:
            chain.append(header)
            header = self.hdr_parent[header]
        return chain

    def exit_edges(self, header: int) -> list[CFGEdge]:
        """Real edges leaving the interval headed by ``header``."""
        return list(self.loop_exits[header])

    def entry_edges(self, header: int) -> list[CFGEdge]:
        """Real edges entering the interval from outside (to the header)."""
        body = self.members[header]
        return [
            edge
            for edge in self.cfg.edges
            if edge.dst == header and edge.src not in body and not edge.is_pseudo
        ]


def _natural_loop(
    cfg: ControlFlowGraph, header: int, sources: list[int]
) -> set[int]:
    """Nodes of the natural loop of ``header`` with back-edge sources."""
    loop = {header}
    stack = [s for s in sources if s != header]
    while stack:
        node = stack.pop()
        if node in loop:
            continue
        loop.add(node)
        stack.extend(p for p in cfg.predecessors(node) if p not in loop)
    return loop


def compute_intervals(cfg: ControlFlowGraph) -> IntervalStructure:
    """Compute the interval structure of a reducible CFG.

    Raises IrreducibleError when the graph is irreducible — callers
    should run :func:`repro.cfg.split_nodes` first.
    """
    backs = reducible_back_edges(cfg)
    if backs is None:
        raise IrreducibleError(
            f"{cfg.name or 'cfg'} is irreducible; apply node splitting first"
        )
    structure = IntervalStructure(cfg=cfg)

    grouped: dict[int, list[CFGEdge]] = {}
    for edge in backs:
        grouped.setdefault(edge.dst, []).append(edge)

    loops: dict[int, set[int]] = {
        header: _natural_loop(cfg, header, [e.src for e in edges])
        for header, edges in grouped.items()
    }
    # The outermost pseudo-interval spans the whole procedure.
    root = cfg.entry
    if root in loops:
        raise AnalysisError("the CFG entry node may not be a loop header")
    loops[root] = set(cfg.nodes)
    grouped.setdefault(root, [])

    # Nesting: parent of header h = header of the smallest other loop
    # that contains h.  Reducibility guarantees loops nest properly.
    by_size = sorted(loops, key=lambda h: len(loops[h]))
    for header in loops:
        parent = 0
        best_size = None
        for other in by_size:
            if other == header:
                continue
            if header in loops[other]:
                if best_size is None or len(loops[other]) < best_size:
                    parent = other
                    best_size = len(loops[other])
                    break  # by_size is sorted: first hit is smallest
        structure.hdr_parent[header] = parent

    # Depths from the parent chains.
    def depth(header: int) -> int:
        if header in structure._depth:
            return structure._depth[header]
        parent = structure.hdr_parent[header]
        value = 0 if parent == 0 else depth(parent) + 1
        structure._depth[header] = value
        return value

    for header in loops:
        depth(header)

    # HDR(n): innermost (deepest) loop containing n.
    for node in cfg.nodes:
        best = root
        for header, body in loops.items():
            if node in body and structure._depth[header] > structure._depth[best]:
                best = header
        structure.hdr[node] = best
    # A header belongs to its own interval.
    for header in loops:
        structure.hdr[header] = header

    structure.members = loops
    structure.loop_back_edges = grouped
    # An edge leaves each interval on its source's header chain up to
    # the first one that also holds its target; the CFG is not changed
    # after this (the ECFG is built on a copy).
    exits: dict[int, list[CFGEdge]] = {header: [] for header in loops}
    for edge in cfg.edges:
        if edge.is_pseudo:
            continue
        header = structure.hdr[edge.src]
        while header != root and edge.dst not in loops[header]:
            exits[header].append(edge)
            header = structure.hdr_parent[header]
    structure.loop_exits = exits
    return structure
