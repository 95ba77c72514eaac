"""The codegen execution backend: CFGs lowered to Python source.

A :class:`CodegenBackend` owns one program's emitted form.  Each
*variant* — one machine model's cost constants and one counter plan's
slot table folded into the text — is emitted lazily, the first time a
run or an introspection call asks for it, by
:func:`repro.codegen.emit.emit_module`, compiled with :func:`compile`,
``exec``'d into a namespace from
:func:`repro.codegen.runtime.make_namespace`, and cached by
``(plan fingerprint, model)``.  A variant the lowering rejects is
memoized too, so it is attempted once.

Runs are bit-identical to the reference interpreter: same outputs,
same error messages from the same program states, same float
accumulation order for ``total_cost``/``counter_cost``, and identical
counts/counter values.  Ground-truth node/edge counts are kept by the
plan-free variant alone, as the reference records them on plan-free
runs alone; a profiled variant carries only the program and the
plan's own counter or path-register updates.  Counter bumps write
*directly* into the
:class:`~repro.profiling.runtime.PlanExecutor`'s live arrays (the
reference updates them per event too), so only ``updates`` needs a
deferred flush.  A CodegenBackend is not reentrant: emitted functions
write backend-owned boxes.
"""

from __future__ import annotations

import hashlib
import sys
import time

from repro.costs.estimate import cost_tables
from repro.errors import InterpreterError
from repro.interp.intrinsics import IntrinsicRuntime
from repro.interp.machine import RunResult, _ProgramHalt
from repro.obs import metrics, span
from repro.paths.numbering import path_plan_fingerprint
from repro.paths.runtime import PathExecutor
from repro.profiling.runtime import PlanExecutor

from repro.codegen.emit import EmitMeta, emit_module
from repro.codegen.plans import lower_counter_plan, plan_fingerprint
from repro.codegen.runtime import make_namespace
from repro.codegen.shape import (
    LoweringError,
    ProcShape,
    UnsupportedHooksError,
    build_shape,
)


class _Variant:
    """One emitted + compiled module."""

    __slots__ = ("source", "meta", "main", "model")

    def __init__(self, source, meta, main, model):
        self.source = source
        self.meta = meta
        self.main = main
        self.model = model


class CodegenBackend:
    """Source-emitting execution engine for one checked program."""

    def __init__(
        self, checked, cfgs, intervals, *, mutation: str | None = None
    ):
        self.checked = checked
        self.cfgs = cfgs
        #: Procedure -> the front end's
        #: :class:`~repro.intervals.IntervalStructure` of its CFG: the
        #: loops the emitter structures its ``while`` blocks around.
        self.intervals = intervals
        #: Test seam for the mutation-kill suite: every variant this
        #: backend emits carries the named deliberate miscompile.
        self.mutation = mutation
        self._reset_compiled()

    def _reset_compiled(self) -> None:
        self._shapes: dict[str, ProcShape] | None = None
        self._variants: dict[tuple, _Variant] = {}
        #: ``(plan, model, variant)`` of the last variant looked up:
        #: the same plan and model objects skip the content key.
        self._last: tuple | None = None
        #: Variant key -> (model, LoweringError) for rejected variants.
        self._rejected: dict[tuple, tuple] = {}
        self._lower_error: LoweringError | None = None
        # Mutable run-state boxes, captured by the emitted modules'
        # namespaces (identity must stay stable across variants).
        self._steps = [0]
        self._cost = [0.0]
        self._ops_box = [0]
        self._ccost_box = [0.0]
        self._depth_box = [0]
        self._max_depth_box = [0]
        self._max_steps_box = [0]
        self._intr = [None]
        self._outputs: list[str] = []
        self._main_vars_box: list[dict] = [{}]
        self._slots_list: list = []
        self._path_slots_list: list = []
        self._partials_box: list = [None]
        self._node_hits: dict[str, list[int]] = {}
        self._edge_hits: dict[str, list[int]] = {}
        self._call_boxes: dict[str, list[int]] = {}

    def _dchk(self, name: str) -> None:
        """The reference's call-depth check, before argument binding."""
        if self._depth_box[0] >= self._max_depth_box[0]:
            raise InterpreterError(
                f"call depth limit reached invoking {name}"
            )

    # -- pickling: ship the shell, re-emit on demand ------------------

    def __getstate__(self):
        return {
            "checked": self.checked,
            "cfgs": self.cfgs,
            "intervals": self.intervals,
        }

    def __setstate__(self, state):
        self.checked = state["checked"]
        self.cfgs = state["cfgs"]
        self.intervals = state["intervals"]
        self.mutation = None
        self._reset_compiled()

    # -- lowering ------------------------------------------------------

    def ensure_lowered(self) -> None:
        """Build the per-procedure shapes and hit arrays if not done
        yet; raises LoweringError (memoized) when the program cannot be
        lowered.  Emits nothing: each variant is emitted on first use."""
        if self._shapes is not None:
            return
        if self._lower_error is not None:
            # A fresh traceback per raise: re-raising an instance
            # otherwise grows its traceback chain every time.
            raise self._lower_error.with_traceback(None)
        try:
            shapes: dict[str, ProcShape] = {}
            for index, (name, cfg) in enumerate(self.cfgs.items()):
                shapes[name] = build_shape(
                    self.checked, name, cfg, index, self.intervals[name]
                )
        except LoweringError as exc:
            self._lower_error = exc
            _emits().inc(outcome="fallback")
            raise
        self._node_hits = {
            name: [0] * len(s.node_ids) for name, s in shapes.items()
        }
        self._edge_hits = {
            name: [0] * len(s.edge_keys) for name, s in shapes.items()
        }
        self._call_boxes = {name: [0] for name in shapes}
        self._slots_list[:] = [None] * len(shapes)
        self._path_slots_list[:] = [None] * len(shapes)
        self._shapes = shapes

    def _emit_variant(self, key, plan, model) -> _Variant:
        started = time.perf_counter()
        with span("compile.codegen") as codegen_span:
            plan_tables = None
            path_tables = None
            if plan is not None:
                if getattr(plan, "kind", None) == "paths":
                    path_tables = dict(plan.plans)
                else:
                    plan_tables = {
                        name: lower_counter_plan(p)
                        for name, p in plan.plans.items()
                    }
            costs = None
            cu = None
            if model is not None:
                costs = {
                    name: {nid: nc.local for nid, nc in table.items()}
                    for name, table in cost_tables(
                        self.checked, self.cfgs, model
                    ).tables.items()
                }
                cu = model.counter_update
            source, meta = emit_module(
                self.checked,
                self.cfgs,
                self._shapes,
                plan_tables=plan_tables,
                path_tables=path_tables,
                costs=costs,
                cu=cu,
                mutation=self.mutation,
            )
            fingerprint = _fingerprint(source)
            try:
                code = compile(
                    source, f"<codegen:{fingerprint[:12]}>", "exec"
                )
            except (SyntaxError, RecursionError) as exc:
                # Python's own nesting limits (20 statically nested
                # loops, 100 indentation levels) reject valid programs.
                raise LoweringError(
                    f"emitted source does not compile: {exc}"
                ) from None
            ns = make_namespace(self)
            exec(code, ns)
            main = ns[f"P_{self.checked.unit.main.name}"]
            codegen_span.set_attr(
                procedures=len(self.cfgs),
                lines=source.count("\n"),
                profiled=plan is not None,
                costed=model is not None,
            )
        variant = _Variant(source, meta, main, model)
        self._variants[key] = variant
        _emits().inc(outcome="ok")
        metrics.histogram(
            "repro_codegen_emit_seconds",
            "Codegen-backend emission latency in seconds.",
        ).observe(time.perf_counter() - started)
        return variant

    def _variant(self, plan, model) -> _Variant:
        """The compiled variant for ``(plan, model)``, emitted on first
        use; a rejected variant re-raises its memoized LoweringError."""
        last = self._last
        if last is not None and last[0] is plan and last[1] is model:
            return last[2]
        self.ensure_lowered()
        key = (
            _plan_key(plan),
            id(model) if model is not None else None,
        )
        # The strong model references held by variants and rejections
        # keep id(model) stable for their lifetime.
        variant = self._variants.get(key)
        if variant is None or (
            model is not None and variant.model is not model
        ):
            rejected = self._rejected.get(key)
            if rejected is not None and rejected[0] is model:
                raise rejected[1].with_traceback(None)
            try:
                variant = self._emit_variant(key, plan, model)
            except LoweringError as exc:
                self._rejected[key] = (model, exc)
                _emits().inc(outcome="fallback")
                raise
        self._last = (plan, model, variant)
        return variant

    # -- introspection (tests, --dump-source, REP4xx audit) ------------

    def emitted_source(self, plan=None, model=None) -> str:
        return self._variant(plan, model).source

    def emit_meta(self, plan=None, model=None) -> EmitMeta:
        return self._variant(plan, model).meta

    # -- execution -----------------------------------------------------

    def run(
        self,
        *,
        model=None,
        hooks=None,
        seed: int = 0,
        inputs: tuple[float, ...] = (),
        max_steps: int = 10_000_000,
        max_depth: int = 200,
    ) -> RunResult:
        """Execute the main PROGRAM unit once (reference-identical)."""
        executor: PlanExecutor | None
        path_executor: PathExecutor | None = None
        if hooks is None:
            executor = None
        elif type(hooks) is PlanExecutor:
            # Exact type: a subclass could override the hook methods,
            # which emitted counter bumps would silently not replicate.
            executor = hooks
        elif type(hooks) is PathExecutor:
            executor = None
            path_executor = hooks
        else:
            raise UnsupportedHooksError(
                f"codegen backend only supports PlanExecutor or "
                f"PathExecutor hooks, not {type(hooks).__name__}"
            )
        active_plan = None
        if executor is not None:
            active_plan = executor.plan
        elif path_executor is not None:
            active_plan = path_executor.plan
        variant = self._variant(active_plan, model)
        # Only the plan-free variant keeps ground-truth hit counts.
        counted = active_plan is None

        for name in self._shapes:
            self._call_boxes[name][0] = 0
            if counted:
                hits = self._node_hits[name]
                hits[:] = [0] * len(hits)
                hits = self._edge_hits[name]
                hits[:] = [0] * len(hits)
        slots = self._slots_list
        for i in range(len(slots)):
            slots[i] = None
        if executor is not None:
            for name, shape in self._shapes.items():
                arr = executor.counters.get(name)
                if arr is not None:
                    slots[shape.index] = arr
        pslots = self._path_slots_list
        for i in range(len(pslots)):
            pslots[i] = None
        self._partials_box[0] = None
        if path_executor is not None:
            # Emitted path bumps write the executor's live per-proc
            # dicts (like the reference on_edge flushes); partials
            # append straight onto its list as _HALT unwinds.
            for name, shape in self._shapes.items():
                counts = path_executor.path_counts.get(name)
                if counts is not None:
                    pslots[shape.index] = counts
            self._partials_box[0] = path_executor.partials
        self._steps[0] = 0
        del self._outputs[:]
        self._cost[0] = 0.0
        self._ops_box[0] = 0
        self._ccost_box[0] = 0.0
        self._intr[0] = IntrinsicRuntime(seed=seed, inputs=inputs)
        self._depth_box[0] = 0
        self._max_steps_box[0] = max_steps
        self._max_depth_box[0] = max_depth
        self._main_vars_box[0] = {}

        halted = "end"
        # Each emitted call frame costs a bounded number of Python
        # frames; make sure our own max_depth limit fires first.
        needed = max_depth * 40 + 200
        old_limit = sys.getrecursionlimit()
        if old_limit < needed:
            sys.setrecursionlimit(needed)
        try:
            try:
                variant.main()
            except _ProgramHalt:
                halted = "stop"
        finally:
            if old_limit < needed:
                sys.setrecursionlimit(old_limit)
            # Counter arrays are the executor's own (live writes, like
            # the reference); only the update tally needs a flush, and
            # a run that raises must still record the events so far.
            if executor is not None:
                executor.updates += self._ops_box[0]
            if path_executor is not None:
                path_executor.updates += self._ops_box[0]
                self._partials_box[0] = None

        result = RunResult()
        result.halted = halted
        result.steps = self._steps[0]
        result.outputs = list(self._outputs)
        result.total_cost = self._cost[0]
        result.counter_ops = self._ops_box[0]
        result.counter_cost = self._ccost_box[0]
        for name, shape in self._shapes.items():
            calls = self._call_boxes[name][0]
            result.call_counts[name] = calls
            if not counted:
                continue
            # A procedure that was never entered has all-zero hit
            # arrays; skip the filtering scans outright.
            if calls:
                result.node_counts[name] = {
                    nid: hits
                    for nid, hits in zip(
                        shape.node_ids, self._node_hits[name]
                    )
                    if hits
                }
                result.edge_counts[name] = {
                    key: hits
                    for key, hits in zip(
                        shape.edge_keys, self._edge_hits[name]
                    )
                    if hits
                }
            else:
                result.node_counts[name] = {}
                result.edge_counts[name] = {}
        if halted in ("end", "stop"):
            result.main_vars.update(self._main_vars_box[0])
        return result


def _plan_key(plan):
    """A variant cache key fragment for a counter or path plan."""
    if plan is None:
        return None
    if getattr(plan, "kind", None) == "paths":
        # path_plan_fingerprint tuples start with "paths": no collision
        # with counter-plan fingerprints in the variant cache.
        return path_plan_fingerprint(plan)
    return plan_fingerprint(plan)


def _emits():
    return metrics.counter(
        "repro_codegen_emits_total",
        "Codegen-backend emission passes.",
        labels=("outcome",),
    )


def _fingerprint(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def codegen_backend_for(program) -> CodegenBackend:
    """The (cached) codegen backend of a CompiledProgram.

    The backend rides along as a ``_codegen`` attribute so the
    content-hash artifact cache persists its shell — the checked
    program, CFGs and interval structures, never emitted code — with
    the program.
    """
    backend = getattr(program, "_codegen", None)
    if backend is None or backend.checked is not program.checked:
        backend = CodegenBackend(
            program.checked,
            program.cfgs,
            {name: ecfg.intervals for name, ecfg in program.ecfgs.items()},
        )
        program._codegen = backend
    return backend
