"""The CFG interpreter.

Executes a checked program over its per-procedure control flow graphs
with Fortran semantics.  Optionally charges the static COST(u) of every
executed node (making analytical TIME estimates exactly checkable), and
invokes profiling hooks on node/edge events.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.errors import InterpreterError, InterpreterLimitError
from repro.lang import ast
from repro.lang.symbols import INTRINSICS, CheckedProgram
from repro.cfg.graph import (
    LABEL_FALSE,
    LABEL_TRUE,
    LABEL_UNCOND,
    ControlFlowGraph,
    StmtKind,
)
from repro.costs.estimate import CostEstimator
from repro.costs.model import MachineModel
from repro.interp.intrinsics import IntrinsicRuntime
from repro.interp.values import Cell, ElementRef, FortranArray
from repro.intervals import IntervalStructure


class ExecutionHooks:
    """Profiling hook interface; the base class is a no-op.

    Hook methods return the number of counter-update operations they
    performed; the interpreter charges ``counter_update`` cycles each.
    """

    #: True for the hooks that execute a counter or path plan
    #: (:class:`~repro.profiling.PlanExecutor`,
    #: :class:`~repro.paths.PathExecutor`): the profile comes from the
    #: plan, so their runs record no ground-truth node/edge counts.
    plan_driven = False

    def on_node(self, proc: str, node_id: int, trip: int | None = None) -> int:
        return 0

    def on_edge(self, proc: str, src: int, label: str) -> int:
        return 0


@dataclass
class RunResult:
    """Everything observable about one program execution."""

    outputs: list[str] = field(default_factory=list)
    total_cost: float = 0.0
    counter_ops: int = 0
    counter_cost: float = 0.0
    steps: int = 0
    #: Ground-truth per-procedure counts: node id -> executions.  Only
    #: plan-free runs record them (no hooks, or hooks that are not
    #: ``plan_driven``); a run driven by a counter or path plan leaves
    #: this empty, on every engine.
    node_counts: dict[str, dict[int, int]] = field(default_factory=dict)
    #: Ground-truth per-procedure counts: (src, label) -> times taken.
    #: Recorded on plan-free runs only, like ``node_counts``.
    edge_counts: dict[str, dict[tuple[int, str], int]] = field(
        default_factory=dict
    )
    #: Procedure name -> number of invocations.
    call_counts: dict[str, int] = field(default_factory=dict)
    halted: str = "end"  # "end" or "stop"
    #: Snapshot of the main program's scalar variables at termination.
    main_vars: dict[str, object] = field(default_factory=dict)

    @property
    def cost_with_profiling(self) -> float:
        """Program cost including counter-update work."""
        return self.total_cost + self.counter_cost


class _ProgramHalt(Exception):
    """Internal signal raised by a STOP statement."""


class _Frame:
    __slots__ = ("proc", "cfg", "env", "trips")

    def __init__(self, proc: ast.Procedure, cfg: ControlFlowGraph):
        self.proc = proc
        self.cfg = cfg
        self.env: dict[str, Cell | ElementRef | FortranArray] = {}
        self.trips: dict[str, list] = {}


class Interpreter:
    """Executes a program; see the package docstring for its roles.

    ``intervals`` maps each procedure to the front end's
    :class:`~repro.intervals.IntervalStructure` of its CFG.

    Every executed node counts one step, and ``steps`` is exact, but
    ``max_steps`` is a bound, not a stopping point.  The budget is
    checked only when a loop back edge (``loop_back_edges``) is taken,
    after that edge's hooks; before a user-procedure call; and at a
    procedure's exit (after the EXIT node's hooks) or a STOP.  A run
    past its budget therefore raises :class:`InterpreterLimitError`
    within one acyclic stretch of a single procedure activation, and a
    node's own error later in that stretch (a division by zero, say)
    wins over the limit error.  A run that finishes never took more
    than ``max_steps`` steps.  The codegen backend checks at the same
    places, so both engines raise the same error in the same state.
    """

    def __init__(
        self,
        checked: CheckedProgram,
        cfgs: dict[str, ControlFlowGraph],
        intervals: dict[str, IntervalStructure],
        *,
        model: MachineModel | None = None,
        hooks: ExecutionHooks | None = None,
        seed: int = 0,
        inputs: tuple[float, ...] = (),
        max_steps: int = 10_000_000,
        max_depth: int = 200,
    ):
        self.checked = checked
        self.cfgs = cfgs
        self.model = model
        self.hooks = hooks or ExecutionHooks()
        self.intrinsics = IntrinsicRuntime(seed=seed, inputs=inputs)
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.record_counts = not self.hooks.plan_driven
        self._costs: dict[str, dict[int, float]] = {}
        if model is not None:
            estimator = CostEstimator(checked, model)
            for name, cfg in cfgs.items():
                self._costs[name] = {
                    nid: nc.local
                    for nid, nc in estimator.cfg_costs(cfg, name).items()
                }
        # Per-procedure (node, label) -> successor dispatch tables:
        # the hot path must not scan edge lists.
        self._dispatch: dict[str, dict[tuple[int, str], int]] = {
            name: {
                (edge.src, edge.label): edge.dst for edge in cfg.edges
            }
            for name, cfg in cfgs.items()
        }
        # Per-procedure loop back edges as (src, label): taking one is
        # one of the three places the step budget is checked.
        self._back: dict[str, frozenset[tuple[int, str]]] = {
            name: frozenset(
                (edge.src, edge.label)
                for edges in intervals[name].loop_back_edges.values()
                for edge in edges
            )
            for name in cfgs
        }

    # -- public API ------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the main PROGRAM unit once."""
        # Each interpreted call frame costs a bounded number of Python
        # frames; make sure our own max_depth limit fires first.
        needed = self.max_depth * 40 + 200
        old_limit = sys.getrecursionlimit()
        if old_limit < needed:
            sys.setrecursionlimit(needed)
        try:
            return self._run()
        finally:
            if old_limit < needed:
                sys.setrecursionlimit(old_limit)

    def _run(self) -> RunResult:
        result = RunResult()
        for name in self.cfgs:
            if self.record_counts:
                result.node_counts[name] = {}
                result.edge_counts[name] = {}
            result.call_counts[name] = 0
        main = self.checked.unit.main
        self._result = result
        self._depth = 0
        main_frame = _Frame(main, self.cfgs[main.name])
        self._init_locals(main_frame)
        try:
            self._exec_frame(main_frame)
        except _ProgramHalt:
            result.halted = "stop"
        for name, value in main_frame.env.items():
            if isinstance(value, (Cell, ElementRef)):
                result.main_vars[name] = value.value
        return result

    # -- frames and procedures ---------------------------------------------

    def _init_locals(self, frame: _Frame) -> None:
        table = self.checked.tables[frame.proc.name]
        for name, info in table.variables.items():
            if info.is_param:
                continue  # bound by the caller
            if info.is_array:
                frame.env[name] = FortranArray(name, info.type, info.dims)
            else:
                frame.env[name] = Cell(info.type)

    def _invoke(self, name: str, arg_exprs: list[ast.Expr], caller: _Frame):
        """Run procedure ``name``; returns its result Cell value for
        FUNCTIONs, None for SUBROUTINEs."""
        if self._result.steps > self.max_steps:
            raise self._limit_error()
        proc = self.checked.unit.procedures[name]
        cfg = self.cfgs[name]
        table = self.checked.tables[name]
        if self._depth >= self.max_depth:
            raise InterpreterError(f"call depth limit reached invoking {name}")
        frame = _Frame(proc, cfg)
        for param, actual in zip(proc.params, arg_exprs):
            info = table.lookup(param)
            frame.env[param] = self._bind_argument(info, actual, caller, name)
        self._init_locals(frame)
        self._depth += 1
        try:
            self._exec_frame(frame)
        finally:
            self._depth -= 1
        if proc.kind is ast.ProcKind.FUNCTION:
            return frame.env[proc.name].value
        return None

    def _bind_argument(self, info, actual: ast.Expr, caller: _Frame, callee: str):
        """Fortran by-reference binding of one actual argument."""
        caller_constants = self.checked.tables[caller.proc.name].constants
        if isinstance(actual, ast.VarRef) and actual.name not in caller_constants:
            slot = self._lookup(caller, actual.name, actual.line)
            if isinstance(slot, FortranArray):
                if not info.is_array:
                    raise InterpreterError(
                        f"{callee}: array passed for scalar param {info.name}",
                        actual.line,
                    )
                return slot
            if info.is_array:
                raise InterpreterError(
                    f"{callee}: scalar passed for array param {info.name}",
                    actual.line,
                )
            return slot  # shared Cell: by reference
        if info.is_array:
            raise InterpreterError(
                f"{callee}: expression passed for array param {info.name}",
                actual.line,
            )
        # `A(2)` parses as FuncCall when A is an array; both spellings
        # of an element reference bind by reference.
        element = None
        if isinstance(actual, ast.ArrayRef):
            element = (actual.name, actual.indices)
        elif isinstance(actual, ast.FuncCall) and isinstance(
            caller.env.get(actual.name), FortranArray
        ):
            element = (actual.name, actual.args)
        if element is not None:
            name, index_exprs = element
            array = self._lookup_array(caller, name, actual.line)
            indices = tuple(
                int(self._eval(i, caller)) for i in index_exprs
            )
            array.get(indices, actual.line)  # bounds check now
            return ElementRef(array, indices)
        value = self._eval(actual, caller)
        cell = Cell(info.type)
        cell.set(value, actual.line)
        return cell

    # -- node execution ------------------------------------------------------

    def _exec_frame(self, frame: _Frame) -> None:
        result = self._result
        name = frame.proc.name
        result.call_counts[name] += 1
        costs = self._costs.get(name)
        record_counts = self.record_counts
        node_counts = result.node_counts.get(name)
        edge_counts = result.edge_counts.get(name)
        cfg = frame.cfg
        nodes = cfg.nodes
        dispatch = self._dispatch[name]
        back = self._back[name]
        max_steps = self.max_steps
        node_id = cfg.entry
        counter_cost = (
            self.model.counter_update if self.model is not None else 0.0
        )
        while True:
            result.steps += 1
            if record_counts:
                node_counts[node_id] = node_counts.get(node_id, 0) + 1
            if costs is not None:
                result.total_cost += costs[node_id]
            node = nodes[node_id]
            label, trip = self._exec_node(node, frame)
            ops = self.hooks.on_node(name, node_id, trip)
            if ops:
                result.counter_ops += ops
                result.counter_cost += ops * counter_cost
            if label is None:  # reached the exit node
                if result.steps > max_steps:
                    raise self._limit_error()
                return
            key = (node_id, label)
            if record_counts:
                edge_counts[key] = edge_counts.get(key, 0) + 1
            ops = self.hooks.on_edge(name, node_id, label)
            if ops:
                result.counter_ops += ops
                result.counter_cost += ops * counter_cost
            if result.steps > max_steps and key in back:
                raise self._limit_error()
            node_id = dispatch[key]

    def _limit_error(self) -> InterpreterLimitError:
        return InterpreterLimitError(
            f"exceeded {self.max_steps} node executions"
        )

    def _exec_node(
        self, node, frame: _Frame
    ) -> tuple[str | None, int | None]:
        """Execute one node; returns (outgoing label, DO trip or None)."""
        kind = node.kind
        if kind in (StmtKind.ENTRY, StmtKind.NOOP):
            return LABEL_UNCOND, None
        if kind is StmtKind.EXIT:
            return None, None
        if kind is StmtKind.ASSIGN:
            self._exec_assign(node.stmt, frame)
            return LABEL_UNCOND, None
        if kind in (StmtKind.IF, StmtKind.WHILE_TEST):
            value = self._eval(node.cond, frame)
            if not isinstance(value, bool):
                raise InterpreterError(
                    "IF condition is not LOGICAL", node.line
                )
            return (LABEL_TRUE if value else LABEL_FALSE), None
        if kind is StmtKind.AIF:
            value = self._eval(node.cond, frame)
            if isinstance(value, bool):
                raise InterpreterError(
                    "arithmetic IF on a LOGICAL value", node.line
                )
            if value < 0:
                return "LT", None
            if value == 0:
                return "EQ", None
            return "GT", None
        if kind is StmtKind.CGOTO:
            selector = self._eval(node.cond, frame)
            k = int(selector)
            n_targets = len(node.stmt.targets)
            if 1 <= k <= n_targets:
                return f"C{k}", None
            return LABEL_UNCOND, None
        if kind is StmtKind.CALL:
            stmt = node.stmt
            self._invoke(stmt.name, stmt.args, frame)
            return LABEL_UNCOND, None
        if kind is StmtKind.PRINT:
            stmt = node.stmt
            rendered = " ".join(
                _format_value(self._eval(item, frame)) for item in stmt.items
            )
            self._result.outputs.append(rendered)
            return LABEL_UNCOND, None
        if kind is StmtKind.STOP:
            if self._result.steps > self.max_steps:
                raise self._limit_error()
            raise _ProgramHalt()
        if kind is StmtKind.DO_INIT:
            trip = self._exec_do_init(node, frame)
            return LABEL_UNCOND, trip
        if kind is StmtKind.DO_TEST:
            remaining = frame.trips[node.trip_var][0]
            return (LABEL_TRUE if remaining > 0 else LABEL_FALSE), None
        if kind is StmtKind.DO_INCR:
            slot = frame.trips[node.trip_var]
            stmt = node.stmt
            var = self._lookup(frame, stmt.var, node.line)
            var.set(var.value + slot[1], node.line)
            slot[0] -= 1
            return LABEL_UNCOND, None
        raise InterpreterError(
            f"cannot execute node kind {kind}", node.line
        )  # pragma: no cover

    def _exec_assign(self, stmt: ast.Assign, frame: _Frame) -> None:
        value = self._eval(stmt.value, frame)
        if isinstance(stmt.target, ast.VarRef):
            self._lookup(frame, stmt.target.name, stmt.line).set(value, stmt.line)
        else:
            array = self._lookup_array(frame, stmt.target.name, stmt.line)
            indices = tuple(
                int(self._eval(i, frame)) for i in stmt.target.indices
            )
            array.set(indices, value, stmt.line)

    def _exec_do_init(self, node, frame: _Frame) -> int:
        stmt = node.stmt
        start = self._eval(stmt.start, frame)
        stop = self._eval(stmt.stop, frame)
        step = self._eval(stmt.step, frame) if stmt.step is not None else 1
        if step == 0:
            raise InterpreterError("DO loop with zero step", node.line)
        var = self._lookup(frame, stmt.var, node.line)
        var.set(start, node.line)
        span = stop - start + step
        if isinstance(span, int) and isinstance(step, int):
            trip = _trunc_div(span, step)
        else:
            trip = int(span / step)
        trip = max(0, trip)
        frame.trips[node.trip_var] = [trip, step]
        return trip

    # -- expressions -----------------------------------------------------

    def _eval(self, expr: ast.Expr, frame: _Frame):
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.RealLit):
            return expr.value
        if isinstance(expr, ast.LogicalLit):
            return expr.value
        if isinstance(expr, ast.StringLit):
            return expr.value
        if isinstance(expr, ast.VarRef):
            table = self.checked.tables[frame.proc.name]
            if expr.name in table.constants:
                return table.constants[expr.name]
            return self._lookup(frame, expr.name, expr.line).value
        if isinstance(expr, ast.ArrayRef):
            array = self._lookup_array(frame, expr.name, expr.line)
            indices = tuple(int(self._eval(i, frame)) for i in expr.indices)
            return array.get(indices, expr.line)
        if isinstance(expr, ast.FuncCall):
            return self._eval_call(expr, frame)
        if isinstance(expr, ast.Unary):
            value = self._eval(expr.operand, frame)
            if expr.op is ast.UnOp.NEG:
                return -value
            if expr.op is ast.UnOp.POS:
                return value
            if not isinstance(value, bool):
                raise InterpreterError(".NOT. of non-LOGICAL", expr.line)
            return not value
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, frame)
        raise InterpreterError(f"cannot evaluate {expr!r}", expr.line)

    def _eval_call(self, expr: ast.FuncCall, frame: _Frame):
        slot = frame.env.get(expr.name)
        if isinstance(slot, FortranArray):
            indices = tuple(int(self._eval(i, frame)) for i in expr.args)
            return slot.get(indices, expr.line)
        if expr.name in INTRINSICS and expr.name not in self.checked.unit.procedures:
            args = [self._eval(a, frame) for a in expr.args]
            return self.intrinsics.call(expr.name, args, expr.line)
        return self._invoke(expr.name, list(expr.args), frame)

    def _eval_binary(self, expr: ast.Binary, frame: _Frame):
        op = expr.op
        if op is ast.BinOp.AND:
            left = self._eval(expr.left, frame)
            if not isinstance(left, bool):
                raise InterpreterError(".AND. of non-LOGICAL", expr.line)
            if not left:
                return False
            right = self._eval(expr.right, frame)
            if not isinstance(right, bool):
                raise InterpreterError(".AND. of non-LOGICAL", expr.line)
            return right
        if op is ast.BinOp.OR:
            left = self._eval(expr.left, frame)
            if not isinstance(left, bool):
                raise InterpreterError(".OR. of non-LOGICAL", expr.line)
            if left:
                return True
            right = self._eval(expr.right, frame)
            if not isinstance(right, bool):
                raise InterpreterError(".OR. of non-LOGICAL", expr.line)
            return right
        left = self._eval(expr.left, frame)
        right = self._eval(expr.right, frame)
        if op is ast.BinOp.ADD:
            return left + right
        if op is ast.BinOp.SUB:
            return left - right
        if op is ast.BinOp.MUL:
            return left * right
        if op is ast.BinOp.DIV:
            if right == 0:
                raise InterpreterError("division by zero", expr.line)
            if isinstance(left, int) and isinstance(right, int):
                return _trunc_div(left, right)
            return left / right
        if op is ast.BinOp.POW:
            return _fortran_pow(left, right, expr.line)
        if op is ast.BinOp.LT:
            return left < right
        if op is ast.BinOp.LE:
            return left <= right
        if op is ast.BinOp.GT:
            return left > right
        if op is ast.BinOp.GE:
            return left >= right
        if op is ast.BinOp.EQ:
            return left == right
        if op is ast.BinOp.NE:
            return left != right
        raise InterpreterError(f"unknown operator {op}", expr.line)

    # -- environment -----------------------------------------------------

    def _lookup(self, frame: _Frame, name: str, line: int | None):
        slot = frame.env.get(name)
        if slot is None:
            # Implicitly declared scalar touched for the first time.
            table = self.checked.tables[frame.proc.name]
            info = table.ensure_scalar(name, line)
            slot = Cell(info.type)
            frame.env[name] = slot
        if isinstance(slot, FortranArray):
            return slot
        return slot

    def _lookup_array(self, frame: _Frame, name: str, line) -> FortranArray:
        slot = frame.env.get(name)
        if not isinstance(slot, FortranArray):
            raise InterpreterError(f"{name} is not an array", line)
        return slot


def _trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (Fortran semantics)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _fortran_pow(base, exponent, line):
    if isinstance(base, int) and isinstance(exponent, int):
        if exponent >= 0:
            return base**exponent
        if base == 0:
            raise InterpreterError("0 ** negative exponent", line)
        # Fortran integer power with negative exponent truncates to 0
        # (except for |base| == 1).
        if base == 1:
            return 1
        if base == -1:
            return -1 if exponent % 2 else 1
        return 0
    if base == 0 and exponent < 0:
        raise InterpreterError("0.0 ** negative exponent", line)
    if base < 0 and not float(exponent).is_integer():
        raise InterpreterError("negative base with real exponent", line)
    return float(base) ** float(exponent)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return f"{value:.6G}"
    return str(value)
