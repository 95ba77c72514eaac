"""The four production dataflow analyses.

All run on the :mod:`repro.dataflow.framework` solver over the
statement-level CFG:

* **reaching definitions** (forward, may): which definition sites can
  supply each scalar's value — the basis of the flow-sensitive REP301
  use-before-def lint;
* **liveness** (backward, may): which scalars may still be observed —
  the basis of REP306 dead-store detection and the codegen DCE pass.
  Observability is minifort-specific: the MAIN program exports every
  scalar into ``RunResult.main_vars``, any STOP ends the run with
  those exports, and a CALL can transitively STOP, so calls in MAIN
  keep everything alive;
* **conditional constant propagation** (SCCP-style, forward): per
  scalar TOP-less CONST/BOTTOM facts with branch-edge feasibility.
  Every scalar has a definite initial value (minifort zero-initializes
  locals), so the lattice needs no TOP: entry maps parameters to
  BOTTOM and everything else to its zero value.  Folding mirrors the
  reference interpreter *exactly* (truncating integer division,
  short-circuit ``.AND.``/``.OR.``, Fortran integer POW, store
  coercion); anything that could raise at runtime degrades to BOTTOM
  instead of folding — a folded branch label claims only "if this
  node completes, it takes this edge", which is exactly what the
  REP307 constant-branch lint reports;
* **value ranges** (forward, widening): per numeric scalar intervals,
  giving DO trip-count bounds for the static TIME/VAR envelopes.

SCCP's feasible-edge set can be fed back into the other analyses via
``edge_alive`` so they run on the feasible subgraph.

Each analysis accepts a ``corruption`` keyword from
:data:`ANALYSIS_CORRUPTIONS` (transfer-function defects for the
mutation-kill suite) in addition to the solver-level corruptions in
:data:`repro.dataflow.framework.SOLVER_CORRUPTIONS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.cfg.graph import StmtKind
from repro.dataflow.framework import (
    DataflowProblem,
    OrientedGraph,
    Solution,
    oriented_graph,
    solve,
)
from repro.dataflow.usedef import (
    NodeFacts,
    ProcSummary,
    all_node_facts,
    param_summaries,
    referenced_names,
)
from repro.lang import ast

#: Seeded transfer-function defects for the mutation-kill suite.
ANALYSIS_CORRUPTIONS = (
    "sccp-const-meet",   # meet of two different constants keeps the first
    "sccp-taken-flip",   # a folded IF/WHILE branch marks the wrong arm
    "range-no-widen",    # widening disabled: loops never stabilize
    "live-kill-use",     # liveness kills after adding uses (wrong order)
    "rd-gen-drop",       # reaching defs forgets the gen set on kills
)

_ENTRY_SITE = -1  # pseudo definition site: "defined at procedure entry"


def _check_corruption(corruption: str | None) -> None:
    if corruption is not None and corruption not in ANALYSIS_CORRUPTIONS:
        raise ValueError(f"unknown analysis corruption {corruption!r}")


def _scalar_names(checked, proc_name: str) -> list[str]:
    table = checked.tables[proc_name]
    return sorted(
        name
        for name, info in table.variables.items()
        if not info.is_array and name not in table.constants
    )


def _zero_value(type_: ast.Type):
    if type_ is ast.Type.INTEGER:
        return 0
    if type_ is ast.Type.LOGICAL:
        return False
    return 0.0


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


class ReachingDefinitions(DataflowProblem):
    """var -> frozenset of CFG node ids that may have defined it.

    ``_ENTRY_SITE`` marks values available at procedure entry
    (parameters, PARAMETER constants and a FUNCTION's result slot —
    the same initial set the historical REP301 lint used, so plain
    zero-initialized locals still count as undefined for lint
    purposes).
    """

    direction = "forward"

    def __init__(
        self,
        checked,
        proc_name: str,
        facts: dict[int, NodeFacts],
        *,
        feasible: set[tuple[int, str]] | None = None,
        refs: frozenset[str] | None = None,
        corruption: str | None = None,
    ):
        _check_corruption(corruption)
        self.facts = facts
        self.feasible = feasible
        self.corruption = corruption
        proc = checked.unit.procedures[proc_name]
        table = checked.tables[proc_name]
        if refs is None:
            refs = referenced_names(facts)
        initial = set(proc.params) | (set(table.constants) & refs)
        if proc.kind is ast.ProcKind.FUNCTION:
            initial.add(proc.name)
        self._boundary = {
            name: frozenset([_ENTRY_SITE]) for name in sorted(initial)
        }
        self.passthrough_nodes = frozenset(
            nid
            for nid, f in facts.items()
            if not f.kills and not f.clobbers
        )

    def boundary(self, cfg):
        return dict(self._boundary)

    def join(self, values):
        if len(values) == 1:
            return values[0]  # transfer copies before mutating
        merged: dict[str, frozenset[int]] = dict(values[0])
        for value in values[1:]:
            for var, sites in value.items():
                prev = merged.get(var)
                if prev is None:
                    merged[var] = sites
                elif prev is not sites and prev != sites:
                    merged[var] = prev | sites
        return merged

    def transfer(self, node, value):
        return rd_transfer(value, self.facts[node], corruption=self.corruption)

    def edge_alive(self, src, label):
        return self.feasible is None or (src, label) in self.feasible

    def height(self, cfg):
        return len(cfg.nodes) + 2


def rd_transfer(value, facts: NodeFacts, *, corruption=None):
    if not facts.kills and not facts.clobbers:
        return value  # no scalar effects: facts pass through unchanged
    out = dict(value)
    site_set = frozenset([facts.site])
    for var in facts.kills:
        if corruption == "rd-gen-drop":
            out.pop(var, None)
        else:
            out[var] = site_set
    for var in facts.clobbers:
        prev = out.get(var)
        out[var] = site_set if prev is None else prev | site_set
    return out


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------


class Liveness(DataflowProblem):
    """Backward may-analysis: the set of scalars still observable.

    The boundary (live at procedure exit) and the treatment of STOP
    and call-bearing nodes encode minifort observability — see the
    module docstring.  ``kills`` (strong updates) remove liveness;
    ``clobbers`` (by-reference may-writes) never do.
    """

    direction = "backward"

    def __init__(
        self,
        checked,
        proc_name: str,
        facts: dict[int, NodeFacts],
        cfg,
        *,
        feasible: set[tuple[int, str]] | None = None,
        refs: frozenset[str] | None = None,
        corruption: str | None = None,
    ):
        _check_corruption(corruption)
        self.facts = facts
        self.feasible = feasible
        self.corruption = corruption
        proc = checked.unit.procedures[proc_name]
        self.is_main = proc.kind is ast.ProcKind.PROGRAM
        if refs is None:
            refs = referenced_names(facts)
        self._refs = refs
        observable = set(proc.params)
        if proc.kind is ast.ProcKind.FUNCTION:
            observable.add(proc.name)
        if self.is_main:
            observable.update(
                n for n in _scalar_names(checked, proc_name) if n in refs
            )
        self._observable = frozenset(observable)
        self._stop_nodes = {
            node.id for node in cfg if node.kind is StmtKind.STOP
        }
        self.passthrough_nodes = frozenset(
            nid
            for nid, f in facts.items()
            if not f.uses_live
            and not f.kills
            and not f.has_call
            and nid not in self._stop_nodes
        )

    def boundary(self, cfg):
        return self._observable

    def join(self, values):
        if len(values) == 1:
            return values[0]
        merged = frozenset()
        for value in values:
            merged |= value
        return merged

    def transfer(self, node, value):
        facts = self.facts[node]
        uses = facts.uses_live
        if (
            not uses
            and not facts.kills
            and not facts.has_call
            and node not in self._stop_nodes
        ):
            return value  # no reads, writes or exports: pass through
        if node in self._stop_nodes or facts.has_call:
            # STOP ends the run with the observable set exported; a
            # call may transitively STOP, which observes the same set
            # (in MAIN every scalar, elsewhere the parameters whose
            # storage the caller chain can still see).
            uses = uses | self._observable
        if self.corruption == "live-kill-use":
            return (value | uses) - facts.kills
        return (value - facts.kills) | uses

    def edge_alive(self, src, label):
        return self.feasible is None or (src, label) in self.feasible

    def height(self, cfg):
        # Live sets only ever contain referenced scalars plus the
        # observable set, so their union bounds the chain height.
        return len(self._refs | self._observable) + 4


# ---------------------------------------------------------------------------
# Conditional constant propagation (SCCP-style)
# ---------------------------------------------------------------------------

_BOT = ("bot",)


def _const(value) -> tuple:
    # The type name keeps True distinct from 1 and 1 from 1.0 under ==.
    return ("c", type(value).__name__, value)


def _is_const(elem) -> bool:
    return elem[0] == "c"


def _const_value(elem):
    return elem[2]


def _meet(a, b, *, corruption=None):
    if a == b:
        return a
    if corruption == "sccp-const-meet" and _is_const(a) and _is_const(b):
        return a
    return _BOT


def _coerce_elem(elem, type_: ast.Type):
    """Mirror :func:`repro.interp.values.coerce`; errors become BOT."""
    if not _is_const(elem):
        return _BOT
    value = _const_value(elem)
    if type_ is ast.Type.INTEGER:
        if isinstance(value, bool):
            return _BOT  # runtime error path: never fold
        return _const(int(value))
    if type_ is ast.Type.REAL:
        if isinstance(value, bool):
            return _BOT
        return _const(float(value))
    if type_ is ast.Type.LOGICAL:
        if not isinstance(value, bool):
            return _BOT
        return _const(value)
    return _BOT


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


class ConstEvaluator:
    """Fold an expression over a constant-lattice state.

    The contract is *conditional soundness*: if the folded result is a
    constant, then whenever runtime evaluation of the expression
    completes, it yields exactly that value.  Anything whose runtime
    evaluation could error (division by a zero constant, ``.NOT.`` of
    a number, Fortran POW corner cases) folds to BOT rather than
    guessing; user function calls and array loads are always BOT.
    """

    def __init__(self, checked, proc_name: str, state: dict):
        self.table = checked.tables[proc_name]
        self.checked = checked
        self.proc_name = proc_name
        self.state = state

    def eval(self, expr: ast.Expr | None):
        if expr is None:
            return _BOT
        if isinstance(expr, ast.IntLit):
            return _const(expr.value)
        if isinstance(expr, ast.RealLit):
            return _const(expr.value)
        if isinstance(expr, ast.LogicalLit):
            return _const(expr.value)
        if isinstance(expr, ast.VarRef):
            if expr.name in self.table.constants:
                return _const(self.table.constants[expr.name])
            return self.state.get(expr.name, _BOT)
        if isinstance(expr, ast.Unary):
            return self._unary(expr)
        if isinstance(expr, ast.Binary):
            return self._binary(expr)
        return _BOT  # ArrayRef, FuncCall, StringLit: never folded

    def _unary(self, expr: ast.Unary):
        inner = self.eval(expr.operand)
        if not _is_const(inner):
            return _BOT
        value = _const_value(inner)
        if expr.op is ast.UnOp.NEG:
            return _const(-value)
        if expr.op is ast.UnOp.POS:
            return _const(value)  # the interpreter returns it untouched
        if not isinstance(value, bool):
            return _BOT  # .NOT. of a number raises
        return _const(not value)

    def _binary(self, expr: ast.Binary):
        op = expr.op
        if op in (ast.BinOp.AND, ast.BinOp.OR):
            return self._logical(expr)
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if not (_is_const(left) and _is_const(right)):
            return _BOT
        a, b = _const_value(left), _const_value(right)
        try:
            if op is ast.BinOp.ADD:
                return _const(a + b)
            if op is ast.BinOp.SUB:
                return _const(a - b)
            if op is ast.BinOp.MUL:
                return _const(a * b)
            if op is ast.BinOp.DIV:
                if b == 0:
                    return _BOT  # division by zero raises at runtime
                if isinstance(a, int) and isinstance(b, int):
                    return _const(_trunc_div(a, b))
                return _const(a / b)
            if op is ast.BinOp.POW:
                # Fold only the total integer case; the float corners
                # (negative bases, overflow) raise or drift.
                if (
                    isinstance(a, int)
                    and isinstance(b, int)
                    and not isinstance(a, bool)
                    and not isinstance(b, bool)
                    and 0 <= b <= 64
                ):
                    return _const(a**b)
                return _BOT
            if op is ast.BinOp.LT:
                return _const(a < b)
            if op is ast.BinOp.LE:
                return _const(a <= b)
            if op is ast.BinOp.GT:
                return _const(a > b)
            if op is ast.BinOp.GE:
                return _const(a >= b)
            if op is ast.BinOp.EQ:
                return _const(a == b)
            if op is ast.BinOp.NE:
                return _const(a != b)
        except Exception:
            return _BOT
        return _BOT

    def _logical(self, expr: ast.Binary):
        """Short-circuit ternary logic, exact wrt evaluation order.

        A constant must be an actual bool — a numeric operand raises at
        runtime, so it degrades the whole expression to BOT.
        """
        left = self.eval(expr.left)
        right = self.eval(expr.right)

        def as_bool(elem):
            if _is_const(elem) and isinstance(_const_value(elem), bool):
                return _const_value(elem)
            if _is_const(elem):
                return "error"  # non-LOGICAL operand: raises if reached
            return None  # unknown

        lv, rv = as_bool(left), as_bool(right)
        if lv == "error":
            return _BOT
        if expr.op is ast.BinOp.AND:
            if lv is False:
                return _const(False)
            if rv is False:
                # left unknown: if it completes it is a bool; both
                # branches then yield False (short-circuit or not).
                return _const(False)
            if lv is True and rv is True:
                return _const(True)
            return _BOT
        if lv is True:
            return _const(True)
        if rv is True:
            return _const(True)
        if lv is False and rv is False:
            return _const(False)
        return _BOT


class ConstantPropagation(DataflowProblem):
    """Dense SCCP: constant facts plus branch-edge feasibility."""

    direction = "forward"

    def __init__(
        self,
        checked,
        proc_name: str,
        facts: dict[int, NodeFacts],
        cfg,
        *,
        refs: frozenset[str] | None = None,
        corruption: str | None = None,
    ):
        _check_corruption(corruption)
        self.checked = checked
        self.proc_name = proc_name
        self.facts = facts
        self.corruption = corruption
        self.cfg = cfg
        self._edge_cache = None
        proc = checked.unit.procedures[proc_name]
        table = checked.tables[proc_name]
        params = set(proc.params)
        if refs is None:
            refs = referenced_names(facts)
        state = {}
        for name in _scalar_names(checked, proc_name):
            if name not in params and name not in refs:
                continue  # untouched scalar: can't influence anything
            info = table.variables[name]
            if name in params:
                state[name] = _BOT
            else:
                state[name] = _const(_zero_value(info.type))
        self._boundary = state
        self._ev = ConstEvaluator(checked, proc_name, {})
        self.passthrough_nodes = frozenset(
            nid
            for nid, f in facts.items()
            if not f.kills and not f.clobbers
        )
        self._nodes = {node.id: node for node in cfg}
        self._branch_nodes = {
            node.id
            for node in cfg
            if node.kind
            in (
                StmtKind.IF,
                StmtKind.WHILE_TEST,
                StmtKind.DO_TEST,
                StmtKind.AIF,
                StmtKind.CGOTO,
            )
        }

    def edge_transfer_nodes(self, cfg):
        # ``feasible_labels`` is None everywhere else, so only branch
        # nodes need a fact per out-edge.
        return self._branch_nodes

    def boundary(self, cfg):
        return dict(self._boundary)

    def join(self, values):
        if len(values) == 1:
            return values[0]  # transfer copies before mutating
        merged = dict(values[0])
        for value in values[1:]:
            for var, elem in value.items():
                prev = merged.get(var)
                if prev is None:
                    merged[var] = elem
                elif prev is not elem and prev != elem:
                    # Equal elements meet to themselves, for any seeded
                    # corruption too, so only disagreements pay _meet.
                    merged[var] = _meet(
                        prev, elem, corruption=self.corruption
                    )
        return merged

    # -- transfer --------------------------------------------------------

    def transfer(self, node_id, value):
        node = self._nodes[node_id]
        facts = self.facts[node_id]
        if not facts.kills and not facts.clobbers:
            return value  # no scalar writes: facts pass through
        out = dict(value)
        if facts.clobbers:
            # A user call may rewrite scalars mid-expression; evaluation
            # order makes folding around it unsound, so degrade every
            # write this node performs.
            for var in facts.clobbers | facts.kills:
                out[var] = _BOT
            return out
        ev = self._ev
        ev.state = value
        stmt = node.stmt
        kind = node.kind
        if kind is StmtKind.ASSIGN and isinstance(stmt, ast.Assign):
            target = stmt.target
            if isinstance(target, ast.VarRef) and target.name in out:
                info = ev.table.variables.get(target.name)
                elem = ev.eval(stmt.value)
                out[target.name] = (
                    _coerce_elem(elem, info.type) if info else _BOT
                )
        elif kind is StmtKind.DO_INIT and isinstance(stmt, ast.DoLoop):
            self._do_init(node, stmt, ev, out)
        elif kind is StmtKind.DO_INCR and isinstance(stmt, ast.DoLoop):
            self._do_incr(node, stmt, ev, out)
        return out

    def _do_init(self, node, stmt, ev, out):
        table = self.checked.tables[self.proc_name]
        start = ev.eval(stmt.start)
        stop = ev.eval(stmt.stop)
        step = ev.eval(stmt.step) if stmt.step is not None else _const(1)
        info = table.variables.get(stmt.var)
        out[stmt.var] = _coerce_elem(start, info.type) if info else _BOT
        trip = _BOT
        if _is_const(start) and _is_const(stop) and _is_const(step):
            s, e, p = (
                _const_value(start),
                _const_value(stop),
                _const_value(step),
            )
            if not any(isinstance(v, bool) for v in (s, e, p)) and p != 0:
                span = e - s + p
                if isinstance(span, int) and isinstance(p, int):
                    trip = _const(max(0, _trunc_div(span, p)))
                else:
                    trip = _const(max(0, int(span / p)))
        if node.trip_var:
            out[node.trip_var] = trip

    def _do_incr(self, node, stmt, ev, out):
        table = self.checked.tables[self.proc_name]
        step = ev.eval(stmt.step) if stmt.step is not None else _const(1)
        var = out.get(stmt.var, _BOT)
        if _is_const(var) and _is_const(step):
            info = table.variables.get(stmt.var)
            raw = _const(_const_value(var) + _const_value(step))
            out[stmt.var] = _coerce_elem(raw, info.type) if info else _BOT
        else:
            out[stmt.var] = _BOT
        if node.trip_var:
            trip = out.get(node.trip_var, _BOT)
            out[node.trip_var] = (
                _const(_const_value(trip) - 1) if _is_const(trip) else _BOT
            )

    # -- branch feasibility ---------------------------------------------

    def feasible_labels(self, node_id, value) -> set[str] | None:
        """The out-labels a node can take, or None for "all"."""
        node = self._nodes[node_id]
        facts = self.facts[node_id]
        kind = node.kind
        if facts.clobbers:
            return None  # calls in the condition: evaluation order bites
        if kind in (StmtKind.IF, StmtKind.WHILE_TEST):
            ev = self._ev
            ev.state = value
            elem = ev.eval(node.cond)
            if _is_const(elem) and isinstance(_const_value(elem), bool):
                taken = "T" if _const_value(elem) else "F"
                if self.corruption == "sccp-taken-flip":
                    taken = "F" if taken == "T" else "T"
                return {taken}
            return None
        if kind is StmtKind.DO_TEST:
            trip = value.get(node.trip_var, _BOT) if node.trip_var else _BOT
            if _is_const(trip):
                return {"T" if _const_value(trip) > 0 else "F"}
            return None
        if kind is StmtKind.AIF:
            ev = self._ev
            ev.state = value
            elem = ev.eval(node.cond)
            if _is_const(elem) and not isinstance(
                _const_value(elem), bool
            ):
                v = _const_value(elem)
                return {"LT" if v < 0 else ("EQ" if v == 0 else "GT")}
            return None
        if kind is StmtKind.CGOTO:
            ev = self._ev
            ev.state = value
            elem = ev.eval(node.cond)
            if _is_const(elem) and not isinstance(
                _const_value(elem), bool
            ):
                k = int(_const_value(elem))
                targets = getattr(node.stmt, "targets", [])
                return {f"C{k}" if 1 <= k <= len(targets) else "U"}
            return None
        return None

    def transfer_edge(self, node_id, value, label):
        # Branch nodes have no scalar effects (and DO_TEST's transfer
        # leaves the trip var untouched), so the output state handed to
        # this hook equals the input state the condition reads.  The
        # solver calls this once per out-edge with the same state
        # object, so the condition is evaluated once per visit.
        cache = self._edge_cache
        if cache is None or cache[0] != node_id or cache[1] is not value:
            cache = (node_id, value, self.feasible_labels(node_id, value))
            self._edge_cache = cache
        labels = cache[2]
        if labels is not None and label not in labels:
            return None
        return value

    def height(self, cfg):
        return 2 * (len(self._boundary) + 2)


@dataclass
class ConstantFacts:
    """Post-processed SCCP results for one procedure."""

    solution: Solution
    #: (src node id, label) pairs that can execute.
    feasible_edges: set[tuple[int, str]] = field(default_factory=set)
    #: node ids that can execute.
    executable: set[int] = field(default_factory=set)
    #: branch node id -> the single label it always takes.
    forced: dict[int, str] = field(default_factory=dict)


def solve_constants(
    checked,
    proc_name: str,
    cfg,
    facts: dict[int, NodeFacts],
    *,
    refs: frozenset[str] | None = None,
    corruption: str | None = None,
    solver_corruption: str | None = None,
    graph=None,
) -> ConstantFacts:
    """Run SCCP for one procedure and post-process feasibility."""
    problem = ConstantPropagation(
        checked, proc_name, facts, cfg, refs=refs, corruption=corruption
    )
    solution = solve(
        cfg, problem, corruption=solver_corruption, graph=graph
    )

    result = ConstantFacts(solution=solution)
    branchy = problem._branch_nodes
    for node in cfg:
        if solution.in_of.get(node.id) is None:
            continue
        result.executable.add(node.id)
        # ``feasible_labels`` is None off branch nodes by construction.
        labels = (
            problem.feasible_labels(node.id, solution.in_of[node.id])
            if node.id in branchy
            else None
        )
        out_labels = []
        seen = set()
        for edge in cfg.out_edges(node.id):
            if edge.label not in seen:
                seen.add(edge.label)
                out_labels.append(edge.label)
        for label in out_labels:
            if labels is None or label in labels:
                result.feasible_edges.add((node.id, label))
        if labels is not None and len(out_labels) > 1:
            alive = [lab for lab in out_labels if lab in labels]
            if len(alive) == 1:
                result.forced[node.id] = alive[0]
    return result


# ---------------------------------------------------------------------------
# Value ranges
# ---------------------------------------------------------------------------

_INF = math.inf
_FULL = (-_INF, _INF)


def _hull(a, b):
    return (min(a[0], b[0]), max(a[1], b[1]))


def _ivl_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _ivl_sub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _ivl_neg(a):
    return (-a[1], -a[0])


def _mul_point(x, y):
    if x == 0 or y == 0:
        return 0  # 0 * inf = 0: a zero factor annihilates
    return x * y


def _ivl_mul(a, b):
    products = [
        _mul_point(a[0], b[0]),
        _mul_point(a[0], b[1]),
        _mul_point(a[1], b[0]),
        _mul_point(a[1], b[1]),
    ]
    return (min(products), max(products))


def _trunc_point(x):
    if math.isinf(x):
        return x
    return float(math.trunc(x)) if isinstance(x, float) else x


class RangeEvaluator:
    """Interval evaluation of numeric expressions."""

    def __init__(self, checked, proc_name: str, state: dict):
        self.table = checked.tables[proc_name]
        self.state = state

    def eval(self, expr: ast.Expr | None):
        if expr is None:
            return _FULL
        if isinstance(expr, ast.IntLit):
            return (expr.value, expr.value)
        if isinstance(expr, ast.RealLit):
            return (expr.value, expr.value)
        if isinstance(expr, ast.VarRef):
            if expr.name in self.table.constants:
                v = self.table.constants[expr.name]
                return (v, v)
            return self.state.get(expr.name, _FULL)
        if isinstance(expr, ast.Unary):
            if expr.op is ast.UnOp.NEG:
                return _ivl_neg(self.eval(expr.operand))
            if expr.op is ast.UnOp.POS:
                return self.eval(expr.operand)
            return _FULL
        if isinstance(expr, ast.Binary):
            if expr.op is ast.BinOp.ADD:
                return _ivl_add(self.eval(expr.left), self.eval(expr.right))
            if expr.op is ast.BinOp.SUB:
                return _ivl_sub(self.eval(expr.left), self.eval(expr.right))
            if expr.op is ast.BinOp.MUL:
                return _ivl_mul(self.eval(expr.left), self.eval(expr.right))
            return _FULL
        return _FULL


def trip_interval(start, stop, step):
    """Interval of ``max(0, trunc((stop - start + step) / step))``.

    The trip function is monotone in each operand once the step sign
    is fixed, so evaluating the eight interval corners is exact; a
    step interval straddling zero gives the unbounded [0, inf).
    """
    if step[0] <= 0 <= step[1]:
        return (0, _INF)

    def one(s, e, p):
        if math.isinf(s) or math.isinf(e) or math.isinf(p):
            span = float(e) - float(s) + float(p)
            if math.isnan(span):
                return None  # inf - inf: this corner is unconstrained
            if math.isinf(span):
                return _INF if (span > 0) == (p > 0) else 0
            return max(0, int(span / float(p))) if p else None
        span = e - s + p
        if isinstance(span, int) and isinstance(p, int):
            return max(0, _trunc_div(span, p))
        return max(0, int(span / p))

    corners = [one(s, e, p) for s in start for e in stop for p in step]
    if any(c is None for c in corners):
        return (0, _INF)
    return (min(corners), max(corners))


class ValueRanges(DataflowProblem):
    """Forward interval analysis over the numeric scalars.

    ``param_ranges`` optionally narrows the entry interval of named
    parameters (the static-bounds pass seeds it with the hull of the
    argument intervals over all call sites); parameters without an
    entry stay unconstrained.
    """

    direction = "forward"
    widen_after = 2

    def __init__(
        self,
        checked,
        proc_name: str,
        facts: dict[int, NodeFacts],
        cfg,
        *,
        feasible: set[tuple[int, str]] | None = None,
        param_ranges: dict[str, tuple] | None = None,
        refs: frozenset[str] | None = None,
        corruption: str | None = None,
    ):
        _check_corruption(corruption)
        self.checked = checked
        self.proc_name = proc_name
        self.facts = facts
        self.feasible = feasible
        self.corruption = corruption
        if corruption == "range-no-widen":
            self.widen_after = None
        table = checked.tables[proc_name]
        params = set(checked.unit.procedures[proc_name].params)
        if refs is None:
            refs = referenced_names(facts)
        state = {}
        for name in _scalar_names(checked, proc_name):
            if name not in params and name not in refs:
                continue  # untouched scalar: can't influence anything
            info = table.variables[name]
            if info.type is ast.Type.LOGICAL:
                continue
            if name in params:
                seeded = (param_ranges or {}).get(name, _FULL)
                state[name] = seeded
            else:
                z = _zero_value(info.type)
                state[name] = (z, z)
        self._boundary = state
        self._ev = RangeEvaluator(checked, proc_name, {})

        # Classify every node once so each visit dispatches on a
        # compact plan instead of re-inspecting AST shapes.
        def is_int(name: str) -> bool:
            info = table.variables.get(name)
            return info is not None and info.type is ast.Type.INTEGER

        plans: dict[int, tuple | None] = {}
        for node in cfg:
            f = facts[node.id]
            stmt = node.stmt
            kind = node.kind
            if not f.kills and not f.clobbers:
                plans[node.id] = None  # no scalar writes: pass through
            elif f.clobbers:
                plans[node.id] = ("clobber", tuple(f.clobbers | f.kills))
            elif (
                kind is StmtKind.ASSIGN
                and isinstance(stmt, ast.Assign)
                and isinstance(stmt.target, ast.VarRef)
            ):
                plans[node.id] = (
                    "assign",
                    stmt.target.name,
                    stmt.value,
                    is_int(stmt.target.name),
                )
            elif kind is StmtKind.DO_INIT and isinstance(stmt, ast.DoLoop):
                plans[node.id] = (
                    "do_init",
                    stmt.var,
                    stmt.start,
                    stmt.stop,
                    stmt.step,
                    node.trip_var,
                    is_int(stmt.var),
                )
            elif kind is StmtKind.DO_INCR and isinstance(stmt, ast.DoLoop):
                plans[node.id] = (
                    "do_incr",
                    stmt.var,
                    stmt.step,
                    node.trip_var,
                    is_int(stmt.var),
                )
            else:
                plans[node.id] = None  # kills without a handled shape
        self._plans = plans
        self.passthrough_nodes = frozenset(
            nid for nid, plan in plans.items() if plan is None
        )

    def boundary(self, cfg):
        return dict(self._boundary)

    def join(self, values):
        if len(values) == 1:
            return values[0]  # transfer/widen copy before mutating
        merged = dict(values[0])
        for value in values[1:]:
            for var, ivl in value.items():
                prev = merged.get(var)
                if prev is None:
                    merged[var] = ivl
                elif prev is not ivl and prev != ivl:
                    merged[var] = _hull(prev, ivl)
        return merged

    def widen(self, old, new):
        # Standard interval widening: keep a stable bound, blow an
        # unstable one to infinity.  The result must dominate *old* or
        # the iteration oscillates instead of climbing.  Copy lazily:
        # most calls widen nothing, and the solver never mutates what
        # we return.
        out = None
        for var, ivl in new.items():
            prev = old.get(var)
            if prev is None or prev is ivl or prev == ivl:
                continue
            lo = prev[0] if ivl[0] >= prev[0] else -_INF
            hi = prev[1] if ivl[1] <= prev[1] else _INF
            if (lo, hi) != ivl:
                if out is None:
                    out = dict(new)
                out[var] = (lo, hi)
        return new if out is None else out

    def transfer(self, node_id, value):
        plan = self._plans[node_id]
        if plan is None:
            return value  # no scalar writes: facts pass through
        op = plan[0]
        out = dict(value)
        if op == "clobber":
            for var in plan[1]:
                if var in out:
                    out[var] = _FULL
            return out
        ev = self._ev
        ev.state = value
        if op == "assign":
            _, name, expr, int_target = plan
            if name in out:
                ivl = ev.eval(expr)
                out[name] = (
                    (_trunc_point(ivl[0]), _trunc_point(ivl[1]))
                    if int_target
                    else ivl
                )
        elif op == "do_init":
            _, var, start_e, stop_e, step_e, trip_var, int_var = plan
            start = ev.eval(start_e)
            stop = ev.eval(stop_e)
            step = ev.eval(step_e) if step_e is not None else (1, 1)
            if var in out:
                out[var] = (
                    (_trunc_point(start[0]), _trunc_point(start[1]))
                    if int_var
                    else start
                )
            if trip_var:
                out[trip_var] = trip_interval(start, stop, step)
        else:  # do_incr
            _, var, step_e, trip_var, int_var = plan
            step = ev.eval(step_e) if step_e is not None else (1, 1)
            if var in out:
                ivl = _ivl_add(out[var], step)
                out[var] = (
                    (_trunc_point(ivl[0]), _trunc_point(ivl[1]))
                    if int_var
                    else ivl
                )
            if trip_var:
                trip = out.get(trip_var, _FULL)
                out[trip_var] = _ivl_sub(trip, (1, 1))
        return out

    def edge_alive(self, src, label):
        return self.feasible is None or (src, label) in self.feasible

    def height(self, cfg):
        return 8 * (len(self._boundary) + 2)


# ---------------------------------------------------------------------------
# Per-procedure bundle
# ---------------------------------------------------------------------------


@dataclass
class ProcDataflow:
    """Every dataflow fact for one procedure, solved on demand."""

    proc_name: str
    facts: dict[int, NodeFacts]
    constants: ConstantFacts
    reaching: Solution
    liveness: Solution
    ranges: Solution


def analyze_procedure(
    checked,
    proc_name: str,
    cfg,
    *,
    summaries: dict[str, ProcSummary] | None = None,
    feasibility: bool = True,
) -> ProcDataflow:
    """Solve all four analyses for one procedure's CFG."""
    if summaries is None:
        summaries = param_summaries(checked)
    facts = all_node_facts(cfg, checked, proc_name, summaries)
    refs = referenced_names(facts)
    # SCCP runs on the unfiltered forward orientation; when it proves
    # nothing infeasible (the common case) the same graph serves RD
    # and ranges, and liveness gets its cheap flip.  Building these
    # once is a large slice of total solver cost.
    forward_graph = OrientedGraph(cfg, True)
    constants = solve_constants(
        checked, proc_name, cfg, facts, refs=refs, graph=forward_graph
    )
    feasible = constants.feasible_edges if feasibility else None
    rd = ReachingDefinitions(
        checked, proc_name, facts, feasible=feasible, refs=refs
    )
    live = Liveness(
        checked, proc_name, facts, cfg, feasible=feasible, refs=refs
    )
    vr = ValueRanges(
        checked, proc_name, facts, cfg, feasible=feasible, refs=refs
    )
    all_pairs = {(edge.src, edge.label) for edge in cfg.edges}
    if feasible is None or feasible >= all_pairs:
        fwd = forward_graph
        bwd = forward_graph.flipped(cfg.exit)
    else:
        fwd = oriented_graph(cfg, rd)
        bwd = oriented_graph(cfg, live)
    reaching = solve(cfg, rd, graph=fwd)
    liveness = solve(cfg, live, graph=bwd)
    ranges = solve(cfg, vr, graph=fwd)
    return ProcDataflow(
        proc_name=proc_name,
        facts=facts,
        constants=constants,
        reaching=reaching,
        liveness=liveness,
        ranges=ranges,
    )
