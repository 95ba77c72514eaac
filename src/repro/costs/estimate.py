"""Static COST(u) estimation for CFG nodes.

COST(u) is the *local* execution time of node u on the target machine:
it excludes the time spent in called procedures, which the
interprocedural analysis adds later via the paper's rule 2
(``COST(call) = TIME(START_callee)``).  To support that rule, the
estimator also reports the user procedures each node invokes
(a CALL statement, or user FUNCTIONs inside expressions).

The same estimator doubles as the interpreter's dynamic cost charger:
the interpreter charges exactly ``node_cost(u)`` cycles per execution
of u, which makes the analytical identity

    TIME(START) × runs  ==  total interpreted cost

hold exactly — the key cross-validation invariant of this repo.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.lang import ast
from repro.lang.symbols import INTRINSICS, CheckedProgram, SymbolTable
from repro.cfg.graph import CFGNode, ControlFlowGraph, StmtKind
from repro.costs.model import MachineModel


def expr_type(
    expr: ast.Expr, table: SymbolTable, checked: CheckedProgram
) -> ast.Type:
    """The static type of an expression (INTEGER / REAL / LOGICAL)."""
    if isinstance(expr, ast.IntLit):
        return ast.Type.INTEGER
    if isinstance(expr, ast.RealLit):
        return ast.Type.REAL
    if isinstance(expr, (ast.LogicalLit,)):
        return ast.Type.LOGICAL
    if isinstance(expr, ast.StringLit):
        return ast.Type.INTEGER  # strings only appear in PRINT
    if isinstance(expr, ast.VarRef):
        if expr.name in table.constants:
            value = table.constants[expr.name]
            return ast.Type.INTEGER if isinstance(value, int) else ast.Type.REAL
        info = table.lookup(expr.name)
        if info is None:
            from repro.lang.symbols import implicit_type

            return implicit_type(expr.name)
        return info.type
    if isinstance(expr, ast.ArrayRef):
        info = table.lookup(expr.name)
        return info.type if info else ast.Type.REAL
    if isinstance(expr, ast.FuncCall):
        info = table.lookup(expr.name)
        if info is not None and info.is_array:
            return info.type
        if expr.name in INTRINSICS:
            result = INTRINSICS[expr.name][2]
            if result == "integer":
                return ast.Type.INTEGER
            if result == "real":
                return ast.Type.REAL
            # "match": promoted type of the arguments.
            arg_types = [expr_type(a, table, checked) for a in expr.args]
            if all(t is ast.Type.INTEGER for t in arg_types):
                return ast.Type.INTEGER
            return ast.Type.REAL
        callee = checked.unit.procedures.get(expr.name)
        if callee is not None and callee.return_type is not None:
            return callee.return_type
        return ast.Type.REAL
    if isinstance(expr, ast.Unary):
        if expr.op is ast.UnOp.NOT:
            return ast.Type.LOGICAL
        return expr_type(expr.operand, table, checked)
    if isinstance(expr, ast.Binary):
        if expr.op.is_comparison or expr.op.is_logical:
            return ast.Type.LOGICAL
        left = expr_type(expr.left, table, checked)
        right = expr_type(expr.right, table, checked)
        if left is ast.Type.INTEGER and right is ast.Type.INTEGER:
            return ast.Type.INTEGER
        return ast.Type.REAL
    raise AnalysisError(f"cannot type expression {expr!r}")


@dataclass
class NodeCost:
    """Static cost summary of one CFG node."""

    local: float
    #: User procedures this node calls (with multiplicity): the
    #: interprocedural pass adds TIME(START_callee) per entry.
    calls: list[str]


class CostEstimator:
    """Assigns COST(u) to CFG nodes for a given machine model."""

    def __init__(self, checked: CheckedProgram, model: MachineModel):
        self.checked = checked
        self.model = model

    # -- expressions -----------------------------------------------------

    def expr_cost(self, expr: ast.Expr, table: SymbolTable) -> NodeCost:
        model = self.model
        if isinstance(expr, (ast.IntLit, ast.RealLit, ast.LogicalLit, ast.StringLit)):
            return NodeCost(model.const, [])
        if isinstance(expr, ast.VarRef):
            if expr.name in table.constants:
                return NodeCost(model.const, [])
            return NodeCost(model.load, [])
        if isinstance(expr, ast.ArrayRef):
            cost = model.load + model.array_index * len(expr.indices)
            calls: list[str] = []
            for index in expr.indices:
                sub = self.expr_cost(index, table)
                cost += sub.local
                calls += sub.calls
            return NodeCost(cost, calls)
        if isinstance(expr, ast.FuncCall):
            info = table.lookup(expr.name)
            if info is not None and info.is_array:
                # Really an array reference.
                ref = ast.ArrayRef(expr.line, expr.name, expr.args)
                return self.expr_cost(ref, table)
            cost = 0.0
            calls = []
            for arg in expr.args:
                sub = self.expr_cost(arg, table)
                cost += sub.local
                calls += sub.calls
            if expr.name in INTRINSICS:
                cost += model.intrinsic(expr.name)
            else:
                cost += model.call_overhead
                calls.append(expr.name)
            return NodeCost(cost, calls)
        if isinstance(expr, ast.Unary):
            sub = self.expr_cost(expr.operand, table)
            if expr.op is ast.UnOp.NOT:
                op_cost = model.logical
            elif expr.op is ast.UnOp.POS:
                op_cost = 0.0
            else:
                operand_type = expr_type(expr.operand, table, self.checked)
                op_cost = (
                    model.int_add
                    if operand_type is ast.Type.INTEGER
                    else model.fp_add
                )
            return NodeCost(sub.local + op_cost, sub.calls)
        if isinstance(expr, ast.Binary):
            left = self.expr_cost(expr.left, table)
            right = self.expr_cost(expr.right, table)
            op_cost = self._binop_cost(expr, table)
            return NodeCost(
                left.local + right.local + op_cost, left.calls + right.calls
            )
        raise AnalysisError(f"cannot cost expression {expr!r}")

    def _binop_cost(self, expr: ast.Binary, table: SymbolTable) -> float:
        model = self.model
        op = expr.op
        if op.is_comparison:
            return model.compare
        if op.is_logical:
            return model.logical
        if op is ast.BinOp.POW:
            return model.power
        result = expr_type(expr, table, self.checked)
        is_int = result is ast.Type.INTEGER
        if op in (ast.BinOp.ADD, ast.BinOp.SUB):
            return model.int_add if is_int else model.fp_add
        if op is ast.BinOp.MUL:
            return model.int_mul if is_int else model.fp_mul
        return model.int_div if is_int else model.fp_div

    # -- nodes -------------------------------------------------------------

    def node_cost(self, node: CFGNode, proc_name: str) -> NodeCost:
        """COST(u) for one CFG node, plus its call sites."""
        model = self.model
        table = self.checked.tables[proc_name]
        kind = node.kind
        if kind in _ZERO_COST_KINDS:
            return NodeCost(0.0, [])
        if kind is StmtKind.ASSIGN:
            stmt = node.stmt
            assert isinstance(stmt, ast.Assign)
            value = self.expr_cost(stmt.value, table)
            cost = value.local + model.store
            calls = list(value.calls)
            if isinstance(stmt.target, ast.ArrayRef):
                cost += model.array_index * len(stmt.target.indices)
                for index in stmt.target.indices:
                    sub = self.expr_cost(index, table)
                    cost += sub.local
                    calls += sub.calls
            return NodeCost(cost, calls)
        if kind in (StmtKind.IF, StmtKind.WHILE_TEST):
            cond = self.expr_cost(node.cond, table)
            return NodeCost(cond.local + model.branch, cond.calls)
        if kind is StmtKind.CGOTO:
            sel = self.expr_cost(node.cond, table)
            return NodeCost(sel.local + model.branch, sel.calls)
        if kind is StmtKind.AIF:
            value = self.expr_cost(node.cond, table)
            # Sign dispatch: two compares plus the branch.
            return NodeCost(
                value.local + 2 * model.compare + model.branch, value.calls
            )
        if kind is StmtKind.CALL:
            stmt = node.stmt
            assert isinstance(stmt, ast.CallStmt)
            cost = model.call_overhead
            calls = [stmt.name]
            for arg in stmt.args:
                if isinstance(arg, ast.VarRef):
                    continue  # by-reference: no evaluation
                sub = self.expr_cost(arg, table)
                cost += sub.local
                calls += sub.calls
            return NodeCost(cost, calls)
        if kind is StmtKind.PRINT:
            stmt = node.stmt
            assert isinstance(stmt, ast.PrintStmt)
            cost = model.print_item * max(1, len(stmt.items))
            calls = []
            for item in stmt.items:
                sub = self.expr_cost(item, table)
                cost += sub.local
                calls += sub.calls
            return NodeCost(cost, calls)
        if kind is StmtKind.DO_INIT:
            stmt = node.stmt
            assert isinstance(stmt, ast.DoLoop)
            cost = 2 * model.store + model.int_add + model.int_div
            calls = []
            exprs = [stmt.start, stmt.stop] + (
                [stmt.step] if stmt.step is not None else []
            )
            for expr in exprs:
                sub = self.expr_cost(expr, table)
                cost += sub.local
                calls += sub.calls
            return NodeCost(cost, calls)
        if kind is StmtKind.DO_TEST:
            return NodeCost(model.compare + model.branch, [])
        if kind is StmtKind.DO_INCR:
            return NodeCost(2 * model.int_add + model.store, [])
        if kind is StmtKind.STOP:
            return NodeCost(0.0, [])
        raise AnalysisError(f"no cost rule for node kind {kind}")

    def cfg_costs(
        self, cfg: ControlFlowGraph, proc_name: str
    ) -> dict[int, NodeCost]:
        """COST(u) for every node of one procedure's CFG."""
        return {
            node.id: self.node_cost(node, proc_name) for node in cfg
        }


_ZERO_COST_KINDS = frozenset(
    {
        StmtKind.ENTRY,
        StmtKind.EXIT,
        StmtKind.NOOP,
        StmtKind.START,
        StmtKind.STOP_NODE,
        StmtKind.PREHEADER,
        StmtKind.POSTEXIT,
    }
)


@dataclass(frozen=True, eq=False)
class CostTables:
    """Every procedure's :meth:`CostEstimator.cfg_costs` table for one
    program's CFGs under one machine model — a drop-in ``estimator=``
    for :func:`repro.analysis.analyze_program` over those CFGs."""

    model: MachineModel
    cfgs: dict[str, ControlFlowGraph]
    tables: dict[str, dict[int, NodeCost]]

    def cfg_costs(
        self, cfg: ControlFlowGraph, proc_name: str
    ) -> dict[int, NodeCost]:
        return self.tables[proc_name]


#: id(checked) -> (weak reference to checked, CostTables): one slot per
#: live program, holding its tables for the last model asked for.  No
#: strong reference to the program: the entry drops when it dies.
_TABLES: dict[int, tuple[weakref.ref, CostTables]] = {}


def cost_tables(
    checked: CheckedProgram,
    cfgs: dict[str, ControlFlowGraph],
    model: MachineModel,
) -> CostTables:
    """The COST tables of a program's CFGs under ``model``, computed
    once per program for its last model (or a model equal to it).

    The codegen emitter and :func:`repro.pipeline.analyze` both read
    them here, so a cold estimate computes them once; they live in
    this module, never in a pickled program.
    """
    key = id(checked)
    entry = _TABLES.get(key)
    if entry is not None:
        ref, tables = entry
        if (
            ref() is checked
            and tables.cfgs is cfgs
            and (tables.model is model or tables.model == model)
        ):
            return tables
    estimator = CostEstimator(checked, model)
    tables = CostTables(
        model,
        cfgs,
        {name: estimator.cfg_costs(cfg, name) for name, cfg in cfgs.items()},
    )
    _TABLES[key] = (
        weakref.ref(checked, lambda _ref: _TABLES.pop(key, None)),
        tables,
    )
    return tables


def node_cost(
    node: CFGNode,
    proc_name: str,
    checked: CheckedProgram,
    model: MachineModel,
) -> NodeCost:
    """Convenience wrapper: COST(u) of one node."""
    return CostEstimator(checked, model).node_cost(node, proc_name)
