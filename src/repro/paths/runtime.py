"""Run-time execution of a path plan on the reference interpreter.

:class:`PathExecutor` is the path-profiling sibling of
:class:`repro.profiling.runtime.PlanExecutor`: it implements the
interpreter's hook protocol and maintains one *frame* per live
procedure invocation, each holding the Ball–Larus path register.

Event costs follow the counter-update accounting of Section 3.3 so
path and counter instrumentation are comparable in the same currency:

* a non-zero edge increment ``r += k`` is **1** update;
* a back-edge flush ``paths[r + b] += 1; r = reset`` is **2** updates;
* the EXIT flush ``paths[r] += 1`` is **1** update;
* recording the register of a frame unwound by STOP costs **0** —
  the program is over, nothing executes.

The fused codegen backend (`repro.codegen`) bypasses
these hooks entirely and write the same state — ``path_counts``,
``partials``, ``updates`` — directly, which the conformance suite
compares bit-for-bit.
"""

from __future__ import annotations

from repro.interp.machine import ExecutionHooks
from repro.paths.numbering import ProgramPathPlan


class PathExecutor(ExecutionHooks):
    """Executes a program path plan's register updates during a run."""

    plan_driven = True

    def __init__(self, plan: ProgramPathPlan):
        self.plan = plan
        #: proc -> {path id -> accumulated count}; sparse, floats to
        #: match the counter arrays (integer-valued, exact < 2**53).
        self.path_counts: dict[str, dict[int, float]] = {
            name: {} for name in plan.plans
        }
        #: ``(proc, node, register)`` prefixes of frames that were
        #: suspended in a procedure call when STOP unwound them,
        #: innermost first.
        self.partials: list[tuple[str, int, int]] = []
        #: Total register updates performed (the Table-1 cost metric).
        self.updates: int = 0
        # Live frames, outermost first: [proc, current node, register].
        self._frames: list[list] = []

    # -- interpreter hook protocol --------------------------------------

    def on_node(self, proc: str, node: int, trip: float | None) -> int:
        plan = self.plan.plans[proc]
        if node == plan.entry:
            self._frames.append([proc, node, 0])
            return 0
        if node == plan.exit:
            frame = self._frames.pop()
            counts = self.path_counts[proc]
            register = frame[2]
            counts[register] = counts.get(register, 0.0) + 1.0
            self.updates += 1
            return 1
        return 0

    def on_edge(self, proc: str, src: int, label: str) -> int:
        plan = self.plan.plans[proc]
        frame = self._frames[-1]
        frame[1] = plan.edge_dst[(src, label)]
        flush = plan.flushes.get((src, label))
        if flush is not None:
            bump_add, reset = flush
            counts = self.path_counts[proc]
            key = frame[2] + bump_add
            counts[key] = counts.get(key, 0.0) + 1.0
            frame[2] = reset
            self.updates += 2
            return 2
        inc = plan.increments.get((src, label), 0)
        if inc:
            frame[2] += inc
            self.updates += 1
            return 1
        return 0

    # -- end of run ------------------------------------------------------

    def finalize_run(self) -> None:
        """Settle frames left live by a STOP halt (no-op after a normal
        EXIT-terminated run).  The innermost frame sits on a DAG sink,
        so its register is a complete path id; outer frames were
        suspended mid-call and are recorded as partial-path prefixes."""
        for proc, current, register in reversed(self._frames):
            plan = self.plan.plans[proc]
            if current in plan.stop_sinks or current == plan.exit:
                counts = self.path_counts[proc]
                counts[register] = counts.get(register, 0.0) + 1.0
            else:
                self.partials.append((proc, current, register))
        self._frames.clear()

    def abandon_run(self) -> None:
        """Drop frames after an error run (mirrors counter behavior:
        state accumulated before the error stays, nothing is settled)."""
        self._frames.clear()
