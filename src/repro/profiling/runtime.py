"""Runtime execution of counter plans, as interpreter hooks.

``PlanExecutor`` maintains the counter variables of a
:class:`ProgramPlan` during interpretation and reports how many
counter-update operations it performed (the interpreter charges each
one ``counter_update`` cycles).  ``LoopMomentRecorder`` optionally
accumulates per-entry squared iteration counts for the profile-based
loop-variance model of Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ecfg import ExtendedCFG
from repro.interp.machine import ExecutionHooks
from repro.profiling.placement import ProgramPlan


class PlanExecutor(ExecutionHooks):
    """Executes the counter updates a plan prescribes."""

    plan_driven = True

    def __init__(self, plan: ProgramPlan):
        self.plan = plan
        self.counters: dict[str, list[float]] = {
            name: [0.0] * p.id_space for name, p in plan.plans.items()
        }
        self.updates = 0

    def on_node(self, proc: str, node_id: int, trip: int | None = None) -> int:
        plan = self.plan.plans.get(proc)
        if plan is None:
            return 0
        ops = 0
        counters = self.counters[proc]
        cid = plan.node_counters.get(node_id)
        if cid is not None:
            counters[cid] += 1.0
            ops += 1
        if trip is not None:
            for cid, offset in plan.batch_counters.get(node_id, ()):
                counters[cid] += trip + offset
                ops += 1
        self.updates += ops
        return ops

    def on_edge(self, proc: str, src: int, label: str) -> int:
        plan = self.plan.plans.get(proc)
        if plan is None:
            return 0
        cid = plan.edge_counters.get((src, label))
        if cid is None:
            return 0
        self.counters[proc][cid] += 1.0
        self.updates += 1
        return 1

    def counter_values(self, proc: str) -> dict[int, float]:
        return dict(enumerate(self.counters[proc]))

    def reset(self) -> None:
        for name, plan in self.plan.plans.items():
            self.counters[name] = [0.0] * plan.id_space


@dataclass
class _LoopState:
    current: float = 0.0


class LoopMomentRecorder(ExecutionHooks):
    """Records Σ(iterations per entry)² for every loop.

    Iterations are counted as header executions; a loop entry's count
    finalizes when one of the loop's exit edges is taken.  An entry a
    STOP interrupts (say, in a callee of the loop's body) takes no exit
    edge: :meth:`finalize_run` finalizes it at run end, so every run
    adds one entry per execution of the loop's preheader.  Chain this
    recorder with a PlanExecutor via :class:`HookChain`.

    Limitation: per-loop state is global, so recursion *through an
    active loop* would interleave counts; the paper's framework does
    not model recursion either.
    """

    def __init__(self, ecfgs: dict[str, ExtendedCFG]):
        self.sumsq: dict[str, dict[int, float]] = {}
        self.entries: dict[str, dict[int, float]] = {}
        self._headers: dict[str, set[int]] = {}
        self._exit_edges: dict[str, dict[tuple[int, str], list[int]]] = {}
        self._state: dict[str, dict[int, _LoopState]] = {}
        for name, ecfg in ecfgs.items():
            headers = set(ecfg.preheader_of)
            self._headers[name] = headers
            self.sumsq[name] = {h: 0.0 for h in headers}
            self.entries[name] = {h: 0.0 for h in headers}
            self._state[name] = {h: _LoopState() for h in headers}
            exits: dict[tuple[int, str], list[int]] = {}
            for header in headers:
                for edge in ecfg.intervals.exit_edges(header):
                    exits.setdefault((edge.src, edge.label), []).append(header)
            self._exit_edges[name] = exits

    def on_node(self, proc: str, node_id: int, trip: int | None = None) -> int:
        headers = self._headers.get(proc)
        if headers and node_id in headers:
            self._state[proc][node_id].current += 1.0
        return 0

    def on_edge(self, proc: str, src: int, label: str) -> int:
        exits = self._exit_edges.get(proc)
        if not exits:
            return 0
        for header in exits.get((src, label), ()):
            self._finalize(proc, header)
        return 0

    def finalize_run(self) -> None:
        """Finalize the entries a STOP left live; call after each run."""
        for proc, states in self._state.items():
            for header, state in states.items():
                if state.current:
                    self._finalize(proc, header)

    def _finalize(self, proc: str, header: int) -> None:
        state = self._state[proc][header]
        self.sumsq[proc][header] += state.current * state.current
        self.entries[proc][header] += 1.0
        state.current = 0.0


class HookChain(ExecutionHooks):
    """Fans interpreter events out to several hooks; sums their ops."""

    def __init__(self, *hooks: ExecutionHooks):
        self.hooks = hooks

    def on_node(self, proc: str, node_id: int, trip: int | None = None) -> int:
        return sum(h.on_node(proc, node_id, trip) for h in self.hooks)

    def on_edge(self, proc: str, src: int, label: str) -> int:
        return sum(h.on_edge(proc, src, label) for h in self.hooks)
