"""Ball–Larus acyclic-path numbering over the back-edge-split CFG.

The counter plans of Section 3 measure *edges*; a path plan measures
which *acyclic paths* execute, following Ball and Larus: remove the
natural back edges (the intervals' ``loop_back_edges`` — edges
whose target dominates their source), add a dummy edge ``ENTRY → h``
for every loop header ``h`` and a dummy edge ``u → EXIT`` for every
back edge ``u → h``, and number the paths of the resulting DAG with
the ``NumPaths`` recurrence::

    NumPaths(v) = 1                      if v is a sink (EXIT, STOP)
    NumPaths(v) = Σ_i NumPaths(w_i)      over ordered out-edges v → w_i

The i-th out-edge carries the increment ``Σ_{j<i} NumPaths(w_j)``
(the first ordered edge always carries 0), so summing increments
along any DAG path yields a distinct id in ``[0, NumPaths(entry))``
and every id decodes back to exactly one path.

At run time a per-invocation register ``r`` starts at 0, every
non-zero increment adds to it, and two kinds of *flush* record a
finished path:

* taking back edge ``u → h``: ``paths[r + bump_add] += 1; r = reset``
  where ``bump_add``/``reset`` are the increments of the dummy
  ``u → EXIT`` / ``ENTRY → h`` edges;
* reaching EXIT (or halting at a STOP sink): ``paths[r] += 1``.

The plan is a pure artifact — it stores increments, flush constants
and decode tables, pickles through the artifact cache next to counter
plans, and is fingerprintable for backend variant caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.cfg.graph import ControlFlowGraph
from repro.errors import ProfilingError
from repro.intervals.analysis import IntervalStructure

#: Width guard: a procedure whose DAG has more acyclic paths than this
#: cannot be path-profiled (a real deployment keeps ``r`` in a machine
#: word; we keep ids decodable and tables auditable).
DEFAULT_MAX_PATHS = 1 << 31

#: Path tables are only materialized in full below this many paths
#: (decoding single executed ids never needs the full table).
ENUMERATION_LIMIT = 1 << 16


class PathOverflowError(ProfilingError):
    """A procedure exceeds the path-register width guard."""


# Decode-table entry kinds (see ProcPathPlan.choices).
_KIND_EDGE = 0  # a real CFG edge (src, label) -> dst
_KIND_ENTRY_DUMMY = 1  # dummy ENTRY -> header: the path starts at h
_KIND_EXIT_DUMMY = 2  # dummy u -> EXIT: the path ends taking back edge


class DecodedPath(NamedTuple):
    """One acyclic path regenerated from its id."""

    path_id: int
    #: First real node on the path: the procedure entry, or a loop
    #: header when the path begins with a dummy ``ENTRY → h`` edge.
    start: int
    #: Real nodes in execution order.  A path ending on a back edge
    #: ``u → h`` stops at ``u`` — node ``h`` belongs to the next path.
    nodes: tuple[int, ...]
    #: Real CFG edges traversed, *including* the ending back edge.
    edges: tuple[tuple[int, str], ...]
    #: "exit" | "backedge" | "stop"
    end: str
    #: The ``(src, label)`` of the ending back edge, if any.
    back_edge: tuple[int, str] | None


@dataclass
class ProcPathPlan:
    """The Ball–Larus path-numbering artifact for one procedure."""

    proc: str
    entry: int
    exit: int
    num_paths: int
    #: Register increment per real non-back DAG edge (zeros included,
    #: so audits can see the whole DAG; runtimes skip zero entries).
    increments: dict[tuple[int, str], int]
    #: Back edge ``(u, label)`` → ``(bump_add, reset)`` flush constants.
    flushes: dict[tuple[int, str], tuple[int, int]]
    #: ``(src, label) → dst`` for every real CFG edge (back edges too).
    edge_dst: dict[tuple[int, str], int]
    #: DAG sinks other than EXIT (STOP nodes): a register arriving
    #: here holds a complete path id.
    stop_sinks: frozenset[int]
    #: Ordered decode table: ``node → ((inc, kind, data), ...)`` with
    #: increments ascending.  ``data`` is ``(src, label, dst)`` for
    #: real edges, the header id for entry dummies, and the back-edge
    #: ``(src, label)`` for exit dummies.
    choices: dict[int, tuple[tuple[int, int, tuple], ...]]
    _paths_cache: tuple[DecodedPath, ...] | None = field(
        default=None, repr=False, compare=False
    )

    # -- static shape ----------------------------------------------------

    @property
    def kind(self) -> str:
        return "paths"

    @property
    def n_sites(self) -> int:
        """Static instrumentation sites: non-zero increments, back-edge
        flushes (each one bump + one reset) and the EXIT flush."""
        nonzero = sum(1 for inc in self.increments.values() if inc)
        return nonzero + 2 * len(self.flushes) + 1

    # -- decoding --------------------------------------------------------

    def decode(self, path_id: int) -> DecodedPath:
        """Regenerate the unique acyclic path with the given id."""
        if not 0 <= path_id < self.num_paths:
            raise ProfilingError(
                f"{self.proc}: path id {path_id} outside [0, {self.num_paths})"
            )
        remaining = path_id
        current = self.entry
        start = self.entry
        nodes: list[int] = []
        edges: list[tuple[int, str]] = []
        while True:
            options = self.choices.get(current, ())
            if not options:
                break  # sink: EXIT or STOP
            # Choose the last option whose increment fits; increments
            # ascend, so scan from the right (out-degrees are tiny).
            chosen = None
            for option in reversed(options):
                if option[0] <= remaining:
                    chosen = option
                    break
            if chosen is None:  # pragma: no cover - numbering invariant
                raise ProfilingError(
                    f"{self.proc}: path id {path_id} undecodable at node "
                    f"{current}"
                )
            inc, kind, data = chosen
            remaining -= inc
            if kind == _KIND_ENTRY_DUMMY:
                # Only ever the first step: the path starts at the header.
                current = data
                start = data
            elif kind == _KIND_EXIT_DUMMY:
                nodes.append(current)
                edges.append(data)
                if remaining:  # pragma: no cover - numbering invariant
                    raise ProfilingError(
                        f"{self.proc}: residue {remaining} decoding path "
                        f"{path_id}"
                    )
                return DecodedPath(
                    path_id, start, tuple(nodes), tuple(edges), "backedge", data
                )
            else:
                src, label, dst = data
                nodes.append(src)
                edges.append((src, label))
                current = dst
        nodes.append(current)
        if remaining:  # pragma: no cover - numbering invariant
            raise ProfilingError(
                f"{self.proc}: residue {remaining} decoding path {path_id}"
            )
        end = "exit" if current == self.exit else "stop"
        return DecodedPath(path_id, start, tuple(nodes), tuple(edges), end, None)

    def decode_partial(self, node: int, register: int) -> DecodedPath:
        """The executed *prefix* of a suspended frame.

        Ball–Larus ids have the prefix property: a register value ``r``
        at node ``v`` is the id of the full path "prefix then always
        first choice", so decoding ``r`` and truncating at ``v``
        regenerates exactly the executed prefix.
        """
        full = self.decode(register)
        if node not in full.nodes:
            raise ProfilingError(
                f"{self.proc}: register {register} is not a path prefix "
                f"ending at node {node}"
            )
        cut = full.nodes.index(node)
        return DecodedPath(
            register,
            full.start,
            full.nodes[: cut + 1],
            full.edges[:cut],
            "partial",
            None,
        )

    def enumerate_paths(
        self, limit: int = ENUMERATION_LIMIT
    ) -> tuple[DecodedPath, ...]:
        """The full path table (memoized); guarded by ``limit``."""
        if self._paths_cache is not None:
            return self._paths_cache
        if self.num_paths > limit:
            raise PathOverflowError(
                f"{self.proc}: {self.num_paths} paths exceed the "
                f"enumeration limit {limit}"
            )
        table = tuple(self.decode(i) for i in range(self.num_paths))
        self._paths_cache = table
        return table

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_paths_cache"] = None  # tables rebuild on demand
        return state


@dataclass
class ProgramPathPlan:
    """Per-procedure path plans for a whole program."""

    plans: dict[str, ProcPathPlan]
    _fingerprint_cache: tuple | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def kind(self) -> str:
        return "paths"

    @property
    def total_paths(self) -> int:
        return sum(plan.num_paths for plan in self.plans.values())

    @property
    def n_sites(self) -> int:
        return sum(plan.n_sites for plan in self.plans.values())

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_fingerprint_cache"] = None
        return state


def _ordered_dag_edges(
    cfg: ControlFlowGraph,
    backs: dict[tuple[int, str], int],
) -> tuple[dict[int, list[tuple[int, tuple]]], list[int]]:
    """The split DAG: per-node ordered (kind, data) choice skeletons
    plus the loop headers in first-appearance order."""
    headers: list[int] = []
    seen_headers: set[int] = set()
    for edge in cfg.edges:
        if (edge.src, edge.label) in backs and edge.dst not in seen_headers:
            seen_headers.add(edge.dst)
            headers.append(edge.dst)

    out: dict[int, list[tuple[int, tuple]]] = {n: [] for n in cfg.nodes}
    for node_id in cfg.nodes:
        for edge in cfg.out_edges(node_id):
            if edge.is_pseudo:
                continue
            if (edge.src, edge.label) in backs:
                continue
            out[node_id].append((_KIND_EDGE, (edge.src, edge.label, edge.dst)))
        # Dummy u -> EXIT edges, one per back edge out of this node, in
        # CFG edge order (kept after the real edges so the common
        # fall-through choice stays increment-free).
        for edge in cfg.out_edges(node_id):
            if (edge.src, edge.label) in backs:
                out[node_id].append((_KIND_EXIT_DUMMY, (edge.src, edge.label)))
    # Dummy ENTRY -> h edges, one per distinct header.
    for header in headers:
        out[cfg.entry].append((_KIND_ENTRY_DUMMY, header))
    return out, headers


def _reverse_topological(
    cfg: ControlFlowGraph,
    out: dict[int, list[tuple[int, tuple]]],
) -> list[int]:
    """DAG nodes in reverse topological order (iterative DFS postorder)."""
    order: list[int] = []
    state: dict[int, int] = {}  # 1 = on stack, 2 = done
    stack: list[tuple[int, Iterator]] = []

    def successors(node: int) -> Iterator[int]:
        for kind, data in out[node]:
            if kind == _KIND_EDGE:
                yield data[2]
            elif kind == _KIND_ENTRY_DUMMY:
                yield data
            # exit dummies lead out of the DAG; no successor to visit

    for root in cfg.nodes:
        if state.get(root):
            continue
        stack.append((root, successors(root)))
        state[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                mark = state.get(succ)
                if mark == 1:
                    raise ProfilingError(
                        f"{cfg.name}: cycle through node {succ} after "
                        "back-edge removal (irreducible CFG?)"
                    )
                if mark is None:
                    state[succ] = 1
                    stack.append((succ, successors(succ)))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                state[node] = 2
                order.append(node)
    return order


def build_proc_path_plan(
    intervals: IntervalStructure, *, max_paths: int = DEFAULT_MAX_PATHS
) -> ProcPathPlan:
    """Number the acyclic paths of ``intervals.cfg``."""
    cfg = intervals.cfg
    loop_backs = {e for es in intervals.loop_back_edges.values() for e in es}
    # In CFG edge order, which the ``flushes`` table inherits.
    backs: dict[tuple[int, str], int] = {
        (e.src, e.label): e.dst for e in cfg.edges if e in loop_backs
    }
    out, _headers = _ordered_dag_edges(cfg, backs)
    order = _reverse_topological(cfg, out)

    num_paths: dict[int, int] = {}
    for node in order:  # reverse topological: successors first
        options = out[node]
        if not options:
            num_paths[node] = 1
            continue
        total = 0
        for kind, data in options:
            if kind == _KIND_EDGE:
                total += num_paths[data[2]]
            elif kind == _KIND_ENTRY_DUMMY:
                total += num_paths[data]
            else:  # exit dummy: one way to leave
                total += 1
        if total > max_paths:
            raise PathOverflowError(
                f"{cfg.name}: node {node} roots {total} acyclic paths "
                f"(limit {max_paths})"
            )
        num_paths[node] = total

    increments: dict[tuple[int, str], int] = {}
    choices: dict[int, tuple[tuple[int, int, tuple], ...]] = {}
    bump_adds: dict[tuple[int, str], int] = {}
    entry_resets: dict[int, int] = {}
    for node in cfg.nodes:
        options = out[node]
        if not options:
            continue
        prefix = 0
        decoded: list[tuple[int, int, tuple]] = []
        for kind, data in options:
            decoded.append((prefix, kind, data))
            if kind == _KIND_EDGE:
                increments[(data[0], data[1])] = prefix
                prefix += num_paths[data[2]]
            elif kind == _KIND_ENTRY_DUMMY:
                entry_resets[data] = prefix
                prefix += num_paths[data]
            else:
                bump_adds[data] = prefix
                prefix += 1
        choices[node] = tuple(decoded)

    flushes = {
        (src, label): (bump_adds[(src, label)], entry_resets[backs[(src, label)]])
        for (src, label) in backs
    }
    edge_dst = {
        (e.src, e.label): e.dst for e in cfg.edges if not e.is_pseudo
    }
    stop_sinks = frozenset(
        node
        for node in cfg.nodes
        if not out[node] and node != cfg.exit
    )
    return ProcPathPlan(
        proc=cfg.name,
        entry=cfg.entry,
        exit=cfg.exit,
        num_paths=num_paths.get(cfg.entry, 1),
        increments=increments,
        flushes=flushes,
        edge_dst=edge_dst,
        stop_sinks=stop_sinks,
        choices=choices,
    )


def path_program_plan(program, *, max_paths: int = DEFAULT_MAX_PATHS) -> ProgramPathPlan:
    """Build the path plan for every procedure of a compiled program."""
    return ProgramPathPlan(
        plans={
            name: build_proc_path_plan(
                program.ecfgs[name].intervals, max_paths=max_paths
            )
            for name in program.cfgs
        }
    )


def path_plan_fingerprint(plan: ProgramPathPlan) -> tuple:
    """Content fingerprint for backend variant caching (memoized)."""
    cached = plan._fingerprint_cache
    if cached is not None:
        return cached
    per_proc = tuple(
        (
            name,
            proc.entry,
            proc.exit,
            proc.num_paths,
            tuple(sorted(proc.increments.items())),
            tuple(sorted(proc.flushes.items())),
        )
        for name, proc in sorted(plan.plans.items())
    )
    fingerprint = ("paths", per_proc)
    plan._fingerprint_cache = fingerprint
    return fingerprint
