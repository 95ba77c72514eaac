"""Source emission: one checked CFG -> one Python function's text.

Each procedure lowers to a ``def P_<name>(...)`` whose body replays the
reference interpreter's observable semantics exactly — same evaluation
order, same error messages, same float accumulation order for costs —
but with loops as native ``while`` blocks, scalars as Python locals,
constants folded, coercions inlined, and counter bumps emitted as
``slots[i] += 1.0`` (Opt-3 batched trip additions stay one add per
loop entry).

Steps are counted exactly, into the local ``_d`` (one ``_d += K`` per
fused straight-line block), but the ``max_steps`` budget is a bound,
not a stopping point: like the reference, emitted code checks it only
when a loop back edge is taken (at the ``continue``, after the edge's
bookkeeping), before a user call (before ``_d`` is flushed into the
run's step box) and at a procedure's EXIT or STOP.  A run past its
budget therefore raises within one acyclic stretch of one activation.

There is one emission strategy, total on the reducible CFGs the front
end guarantees: branches join at their region postdominators
(:mod:`repro.codegen.structure`), a loop with several exit targets
leaves through an exit-code local resolved after the loop, and a node
reached again away from a join is emitted again, up to
:data:`_MAX_GROWTH` emitted nodes per reachable node.
:class:`~repro.codegen.shape.LoweringError` covers what the emitter
cannot express: call and node shapes (unknown callee, arity mismatch,
a node missing a successor), a procedure past the duplication bound or
nested past the recursion limit, and emitted source Python refuses to
compile.

Emission is per *variant*: the cost constants of one machine model and
the slot table of one counter plan are folded into the text, so a
variant is keyed by ``(plan_fingerprint, model)``.

The ``mutation`` hook deliberately miscompiles one site (used by the
mutation-kill suite to prove the conformance harness and the REP4xx
audit actually catch emitter bugs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.graph import StmtKind
from repro.codegen.shape import LoweringError, ProcShape
from repro.codegen.structure import FlowInfo
from repro.lang import ast
from repro.lang.symbols import INTRINSICS

#: Seeded miscompile modes for the mutation-kill tests.
MUTATIONS = (
    "slot-off-by-one",
    "drop-node-bump",
    "drop-edge-bump",
    "dup-node-bump",
    "drop-coercion",
    "wrong-loop-bound",
    "swap-branch",
    "off-by-one-bounds",
    "drop-zero-div",
    "drop-cost",
    "swap-exit-code",
)

#: Tail duplication bound: a procedure's structured body may emit at
#: most this many nodes per reachable CFG node (the same kind of
#: growth bound :mod:`repro.cfg.reducibility` puts on node splitting).
_MAX_GROWTH = 4

_TERMINALS = (StmtKind.EXIT, StmtKind.STOP)

_SIMPLE_OPS = {
    ast.BinOp.ADD: "+",
    ast.BinOp.SUB: "-",
    ast.BinOp.MUL: "*",
    ast.BinOp.LT: "<",
    ast.BinOp.LE: "<=",
    ast.BinOp.GT: ">",
    ast.BinOp.GE: ">=",
    ast.BinOp.EQ: "==",
    ast.BinOp.NE: "!=",
}

_TYPE_CH = {
    ast.Type.INTEGER: "I",
    ast.Type.REAL: "R",
    ast.Type.LOGICAL: "L",
}

_TYPE_NAME = {
    ast.Type.INTEGER: "_T_I",
    ast.Type.REAL: "_T_R",
    ast.Type.LOGICAL: "_T_L",
}


def _lit(value) -> str:
    """A literal whose evaluation reproduces ``value`` exactly."""
    return repr(value)


_FOLDERS = {
    ast.BinOp.ADD: lambda a, b: a + b,
    ast.BinOp.SUB: lambda a, b: a - b,
    ast.BinOp.MUL: lambda a, b: a * b,
    ast.BinOp.LT: lambda a, b: a < b,
    ast.BinOp.LE: lambda a, b: a <= b,
    ast.BinOp.GT: lambda a, b: a > b,
    ast.BinOp.GE: lambda a, b: a >= b,
    ast.BinOp.EQ: lambda a, b: a == b,
    ast.BinOp.NE: lambda a, b: a != b,
}


def _fold(op, a, b):
    """Fold a non-raising operator exactly as the runtime would."""
    return _FOLDERS[op](a, b)


@dataclass
class EV:
    """An emitted expression: code string plus hoisting facts.

    ``frozen`` means re-evaluating the string later in the same node
    cannot raise, has no side effects, and cannot observe state a user
    call or our own emitted statements may change (literals, temps,
    raw locals and pure arithmetic over them).
    """

    code: str
    frozen: bool = False
    const: object = None
    has_const: bool = False


@dataclass
class _Loop:
    header: int
    body: set[int]
    #: Non-terminal exit targets; an exit's code is its index here.
    exits: list[int]


@dataclass
class EmitMeta:
    """What the backend and the checker audit need to know per proc."""

    #: proc -> emission strategy; always ``"structured"``, the only one.
    mode: dict[str, str] = field(default_factory=dict)
    #: proc -> [(slot, kind, where)] in textual order, one entry per
    #: emitted ``slots[`` bump site (duplicates possible for inlined
    #: terminals and tail-duplicated nodes).
    bumps: dict[str, list[tuple]] = field(default_factory=dict)
    #: proc -> original node ids reachable under the reference's
    #: last-wins dispatch (what the structured body covers).
    reachable: dict[str, set] = field(default_factory=dict)
    #: proc -> [(kind, where, *constants)] in textual order, one entry
    #: per emitted path-register site (path-mode variants only):
    #: ``("inc", (nid, label), k)``, ``("flush", (nid, label), bump,
    #: reset)``, ``("exit", nid)``, ``("stop", nid)``, ``("partial",
    #: nid)``.  Duplicates possible, like ``bumps``.
    path_sites: dict[str, list[tuple]] = field(default_factory=dict)
    #: proc -> node emissions in the structured body, tail duplicates
    #: included (at most ``_MAX_GROWTH`` x its reachable nodes).
    emitted_nodes: dict[str, int] = field(default_factory=dict)
    lines: int = 0
    mutation_applied: bool = False


class ProcEmitter:
    """Emits one procedure's function definition."""

    def __init__(
        self,
        checked,
        shapes: dict[str, ProcShape],
        shape: ProcShape,
        *,
        plan_table=None,
        paths=None,
        costs: list | None = None,
        cu: float | None = None,
        mutation: str | None = None,
        meta: EmitMeta | None = None,
    ):
        self.checked = checked
        self.shapes = shapes
        self.shape = shape
        self.table = checked.tables[shape.name]
        self.constants = self.table.constants
        self.procedures = checked.unit.procedures
        self.plan = plan_table  # ProcSlotTable or None
        self.paths = paths  # ProcPathPlan or None (exclusive with plan)
        #: Ground-truth hit counts (``_h*``/``_e*``/``_blk*`` locals
        #: flushed into ``_NH_*``/``_EH_*``) are kept by the plan-free
        #: variant only: a profiled run's profile comes from its plan.
        self.hits = plan_table is None and paths is None
        #: Original node id currently being emitted — the suspension
        #: marker the path-mode call-site guards record in partials.
        self.cur_nid = None
        self.costs = costs
        self.cu = cu
        self.mutation = mutation
        self.meta = meta if meta is not None else EmitMeta()

        self.buf: list[str] = []
        self.ind = 0
        self._tmp = 0
        self.hits_used: set[int] = set()
        self.edges_used: set[int] = set()
        self.trips_used: set[int] = set()
        #: Declared-shape 1-D dummy arrays whose accesses took the
        #: inline fast path; the prologue unpacks their data list.
        self.param_arrays: set[str] = set()
        self.blocks: list[tuple[list[int], list[int]]] = []
        self.uses_ir = False
        self.uses_rnd = False
        self.uses_slots = False
        self.boxed = self._boxed_locals()

        cfg = shape.cfg
        self.kind = {}
        self.node_line = {}
        self.node_stmt = {}
        self.node_cond = {}
        self.node_trip = {}
        for i, nid in enumerate(shape.node_ids):
            node = cfg.nodes[nid]
            self.kind[i] = node.kind
            self.node_line[i] = node.line
            self.node_stmt[i] = node.stmt
            self.node_cond[i] = node.cond
            self.node_trip[i] = node.trip_var
        # The reference dispatch table: every edge, last wins.
        dispatch = {(e.src, e.label): e.dst for e in cfg.edges}
        self.succ_by_label: dict[int, list[tuple[str, int]]] = {}
        for i, nid in enumerate(shape.node_ids):
            pairs = []
            for label in self._labels_of(i):
                dst = dispatch.get((nid, label))
                if dst is None:
                    raise LoweringError(
                        f"{shape.name}: node {nid} has no {label!r} successor"
                    )
                pairs.append((label, shape.dense[dst]))
            self.succ_by_label[i] = pairs

    # -- small infrastructure ------------------------------------------

    def line(self, text: str) -> None:
        self.buf.append("    " * self.ind + text)

    def temp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def _mut(self, name: str) -> bool:
        """True exactly once per module for the requested mutation."""
        if self.mutation == name and not self.meta.mutation_applied:
            self.meta.mutation_applied = True
            return True
        return False

    def _labels_of(self, i: int):
        kind = self.kind[i]
        if kind in _TERMINALS:
            return ()
        if kind in (StmtKind.IF, StmtKind.WHILE_TEST, StmtKind.DO_TEST):
            return ("T", "F")
        if kind is StmtKind.AIF:
            return ("LT", "EQ", "GT")
        if kind is StmtKind.CGOTO:
            n = len(self.node_stmt[i].targets)
            return tuple(f"C{k}" for k in range(1, n + 1)) + ("U",)
        return ("U",)

    def _boxed_locals(self) -> set[str]:
        """Non-param scalars that must live in Cells (passed by ref)."""
        boxed: set[str] = set()

        def mark(args):
            for arg in args:
                if (
                    isinstance(arg, ast.VarRef)
                    and arg.name not in self.constants
                ):
                    info = self.table.lookup(arg.name)
                    if info is not None and not info.is_array:
                        boxed.add(arg.name)

        proc = self.shape.proc
        for stmt in proc.walk_statements():
            if isinstance(stmt, ast.CallStmt):
                mark(stmt.args)
            for expr in ast.stmt_expressions(stmt):
                for sub in ast.walk_expr(expr):
                    if isinstance(sub, ast.FuncCall) and self._is_user_call(
                        sub.name
                    ):
                        mark(sub.args)
        return boxed

    def _is_user_call(self, name: str) -> bool:
        info = self.table.lookup(name)
        if info is not None and info.is_array:
            return False
        if name in INTRINSICS and name not in self.procedures:
            return False
        return True

    # -- variable access -----------------------------------------------

    def _vinfo(self, name: str):
        return self.table.lookup(name)

    def _is_param(self, name: str) -> bool:
        info = self._vinfo(name)
        return info is not None and info.is_param

    def _read_scalar(self, name: str) -> EV:
        if self._is_param(name) or name in self.boxed:
            return EV(f"V_{name}.value", False)
        return EV(f"V_{name}", True)

    def _ty(self, e) -> str | None:
        """Static value type: 'I'/'R'/'L'/'S' or None when unknown."""
        if isinstance(e, ast.IntLit):
            return "I"
        if isinstance(e, ast.RealLit):
            return "R"
        if isinstance(e, ast.LogicalLit):
            return "L"
        if isinstance(e, ast.StringLit):
            return "S"
        if isinstance(e, ast.VarRef):
            if e.name in self.constants:
                value = self.constants[e.name]
                if isinstance(value, bool):
                    return "L"
                if isinstance(value, int):
                    return "I"
                if isinstance(value, float):
                    return "R"
                return None
            info = self._vinfo(e.name)
            if info is None or info.is_array:
                return None
            return _TYPE_CH.get(info.type)
        if isinstance(e, ast.ArrayRef):
            info = self._vinfo(e.name)
            return _TYPE_CH.get(info.type) if info is not None else None
        if isinstance(e, ast.FuncCall):
            info = self._vinfo(e.name)
            if info is not None and info.is_array:
                return _TYPE_CH.get(info.type)
            if e.name in INTRINSICS and e.name not in self.procedures:
                return self._intrinsic_ty(e)
            callee = self.procedures.get(e.name)
            if callee is not None and callee.kind is ast.ProcKind.FUNCTION:
                ret = self.checked.tables[e.name].lookup(e.name)
                if ret is not None:
                    return _TYPE_CH.get(ret.type)
            return None
        if isinstance(e, ast.Unary):
            if e.op is ast.UnOp.NOT:
                return "L"
            inner = self._ty(e.operand)
            if e.op is ast.UnOp.POS:
                return inner
            return inner if inner in ("I", "R") else None
        if isinstance(e, ast.Binary):
            op = e.op
            if op.is_comparison or op.is_logical:
                return "L"
            lt, rt = self._ty(e.left), self._ty(e.right)
            if lt not in ("I", "R") or rt not in ("I", "R"):
                return None
            if op is ast.BinOp.POW:
                return "I" if (lt, rt) == ("I", "I") else "R"
            if op is ast.BinOp.DIV:
                return "I" if (lt, rt) == ("I", "I") else "R"
            return "I" if (lt, rt) == ("I", "I") else "R"
        return None

    def _intrinsic_ty(self, e: ast.FuncCall) -> str | None:
        name, n = e.name, len(e.args)
        args = [self._ty(a) for a in e.args]
        if name == "MOD" and n == 2:
            if args == ["I", "I"]:
                return "I"
            if all(a in ("I", "R") for a in args):
                return "R" if "R" in args else "I"
            return None
        if name in ("MIN", "MAX") and n >= 1:
            if all(a == "I" for a in args):
                return "I"
            if all(a == "R" for a in args):
                return "R"
            return None
        if name == "ABS" and n == 1:
            return args[0] if args[0] in ("I", "R") else None
        if name == "SIGN" and n == 2:
            if args[0] in ("I", "R") and args[1] in ("I", "R"):
                return args[0]
            return None
        if name in ("SQRT", "EXP", "LOG", "SIN", "COS", "ATAN") and n == 1:
            return "R"
        if name in ("INT", "NINT") and n == 1:
            return "I"
        if name in ("REAL", "FLOAT") and n == 1:
            return "R"
        if name == "IRAND" and n == 2:
            return "I"
        if name == "RAND" and n == 0:
            return "R"
        return None

    def _stmtful(self, e) -> bool:
        """Will ``ex(e)`` emit statements (calls or checked loads)?"""
        if isinstance(e, (ast.ArrayRef,)):
            return True
        if isinstance(e, ast.FuncCall):
            info = self._vinfo(e.name)
            if info is not None and info.is_array:
                return True
            if self._is_user_call(e.name):
                return True
            return any(self._stmtful(a) for a in e.args)
        if isinstance(e, ast.Unary):
            return self._stmtful(e.operand)
        if isinstance(e, ast.Binary):
            return self._stmtful(e.left) or self._stmtful(e.right)
        return False

    def _has_call(self, e) -> bool:
        for sub in ast.walk_expr(e):
            if isinstance(sub, ast.FuncCall) and self._is_user_call(sub.name):
                return True
        return False

    # -- expressions ----------------------------------------------------

    def _hoist(self, ev: EV) -> EV:
        if ev.frozen:
            return ev
        t = self.temp()
        self.line(f"{t} = {ev.code}")
        return EV(t, True, ev.const, ev.has_const)

    def ex_list(self, exprs) -> list[EV]:
        """Emit a list of expressions preserving reference order."""
        out: list[EV] = []
        for e in exprs:
            if self._stmtful(e):
                # Statements follow: force everything pending that the
                # statements could affect (or outrace in raising).
                out = [self._hoist(ev) for ev in out]
            out.append(self.ex(e))
        return out

    def ex(self, e) -> EV:
        if isinstance(e, (ast.IntLit, ast.RealLit, ast.LogicalLit)):
            return EV(_lit(e.value), True, e.value, True)
        if isinstance(e, ast.StringLit):
            return EV(_lit(e.value), True, e.value, True)
        if isinstance(e, ast.VarRef):
            if e.name in self.constants:
                value = self.constants[e.name]
                return EV(_lit(value), True, value, True)
            info = self._vinfo(e.name)
            if info is not None and info.is_array:
                # The reference reads ``slot.value`` and crashes with
                # AttributeError; reproduce the same crash shape.
                return EV(f"V_{e.name}.value", False)
            return self._read_scalar(e.name)
        if isinstance(e, ast.ArrayRef):
            return self._element_get(e.name, e.indices, e.line)
        if isinstance(e, ast.FuncCall):
            info = self._vinfo(e.name)
            if info is not None and info.is_array:
                return self._element_get(e.name, e.args, e.line)
            if e.name in INTRINSICS and e.name not in self.procedures:
                return self._intrinsic(e)
            result = self.emit_call(e.name, list(e.args), e.line)
            return EV(result, True)
        if isinstance(e, ast.Unary):
            if e.op is ast.UnOp.POS:
                return self.ex(e.operand)
            inner = self.ex(e.operand)
            if e.op is ast.UnOp.NEG:
                return EV(f"(-{inner.code})", inner.frozen)
            if self._ty(e.operand) == "L":
                return EV(f"(not {inner.code})", inner.frozen)
            return EV(f"_notc({inner.code}, {e.line})", False)
        if isinstance(e, ast.Binary):
            return self._binary(e)
        raise LoweringError(f"cannot lower expression {e!r}")

    def _binary(self, e: ast.Binary) -> EV:
        op = e.op
        if op is ast.BinOp.AND or op is ast.BinOp.OR:
            return self._logical(e)
        parts = self.ex_list([e.left, e.right])
        left, right = parts
        sym = _SIMPLE_OPS.get(op)
        if sym is not None:
            if left.has_const and right.has_const:
                value = _fold(op, left.const, right.const)
                return EV(_lit(value), True, value, True)
            return EV(
                f"({left.code} {sym} {right.code})",
                left.frozen and right.frozen,
            )
        if op is ast.BinOp.DIV:
            if self._mut("drop-zero-div"):
                return EV(f"({left.code} / {right.code})", False)
            return EV(f"_divc({left.code}, {right.code}, {e.line})", False)
        if op is ast.BinOp.POW:
            return EV(f"_pow({left.code}, {right.code}, {e.line})", False)
        raise LoweringError(f"cannot lower operator {op}")

    def _logical(self, e: ast.Binary) -> EV:
        word = "and" if e.op is ast.BinOp.AND else "or"
        chk = "_andchk" if e.op is ast.BinOp.AND else "_orchk"
        msg = ".AND. of non-LOGICAL" if word == "and" else ".OR. of non-LOGICAL"
        lt, rt = self._ty(e.left), self._ty(e.right)
        if not self._stmtful(e.right):
            left = self.ex(e.left)
            right = self.ex(e.right)
            lc = (
                left.code
                if lt == "L"
                else f"{chk}({left.code}, {e.line})"
            )
            rc = (
                right.code
                if rt == "L"
                else f"{chk}({right.code}, {e.line})"
            )
            frozen = left.frozen and right.frozen and lt == "L" and rt == "L"
            return EV(f"({lc} {word} {rc})", frozen)
        # The right side needs statements: spell out the short circuit.
        left = self.ex(e.left)
        t = self.temp()
        self.line(f"{t} = {left.code}")
        if lt != "L":
            self.line(f"if not _isinst({t}, _bool):")
            self.line(f"    raise IE({msg!r}, {e.line})")
        self.line(f"if {t}:" if word == "and" else f"if not {t}:")
        self.ind += 1
        right = self.ex(e.right)
        self.line(f"{t} = {right.code}")
        if rt != "L":
            self.line(f"if not _isinst({t}, _bool):")
            self.line(f"    raise IE({msg!r}, {e.line})")
        self.ind -= 1
        return EV(t, True)

    def _index_codes(self, index_exprs) -> list[tuple[str, EV]]:
        """Evaluate subscripts in reference order; int-coerce each."""
        parts = self.ex_list(list(index_exprs))
        out = []
        for p, ix in zip(parts, index_exprs):
            code = p.code
            if self._ty(ix) != "I":
                code = f"_int({code})"
            if not p.frozen or self._ty(ix) != "I":
                t = self.temp()
                self.line(f"{t} = {code}")
                code = t
            out.append((code, p))
        return out

    def _bounds_checks(self, name, info, codes, line) -> None:
        """Per-subscript checks in index order, like Array._offset."""
        for (code, p), dim in zip(codes, info.dims):
            if (
                p.has_const
                and isinstance(p.const, (int, float, bool))
                and 1 <= int(p.const) <= dim
            ):
                continue
            self.line(f"if not (1 <= {code} <= {dim}):")
            self.line(
                f"    raise IE('{name}: subscript %d out of bounds "
                f"1..{dim}' % {code}, {line})"
            )

    @staticmethod
    def _dummy_guard(name, codes) -> str:
        """When a dummy array access may index the unpacked data list.

        The actual array passed the prologue's guard, and every
        subscript lies within the actual's extents (dummies are
        conventionally declared with extent 1).  Otherwise ``_getn`` /
        ``_setn`` reach ``FortranArray._offset``, which checks the
        subscripts in the same order and raises the reference's error,
        naming the caller's array.
        """
        checks = [f"V_{name}_d is not None"]
        checks += [
            f"1 <= {code} <= V_{name}_b{k}"
            for k, (code, _p) in enumerate(codes, 1)
        ]
        return " and ".join(checks)

    def _offset_code(self, name, info, codes, *, runtime: bool) -> str:
        """The column-major flat offset with strides folded in."""
        terms = []
        if runtime:
            strides: list[str] = []
            for k, (code, _p) in enumerate(codes, 1):
                if not strides:
                    terms.append(f"{code} - 1")
                elif len(strides) == 1:
                    terms.append(f"({code} - 1) * {strides[0]}")
                else:
                    terms.append(
                        f"({code} - 1) * ({' * '.join(strides)})"
                    )
                strides.append(f"V_{name}_b{k}")
            return " + ".join(terms)
        stride = 1
        for (code, p), dim in zip(codes, info.dims):
            if p.has_const and isinstance(p.const, (int, float, bool)):
                k = (int(p.const) - 1) * stride
                if k:
                    terms.append(str(k))
            elif stride == 1:
                terms.append(f"{code} - 1")
            else:
                terms.append(f"({code} - 1) * {stride}")
            stride *= dim
        return " + ".join(terms) if terms else "0"

    def _element_get(self, name, index_exprs, line) -> EV:
        info = self._vinfo(name)
        obj = f"V_{name}"
        if (
            info is not None
            and info.is_array
            and 1 < len(index_exprs) == len(info.dims)
        ):
            # Multi-dimensional with statically known shape: inline
            # the checks and the strided flat offset.
            codes = self._index_codes(index_exprs)
            if not info.is_param:
                self._bounds_checks(name, info, codes, line)
                return EV(
                    f"{obj}_d"
                    f"[{self._offset_code(name, info, codes, runtime=False)}]",
                    False,
                )
            self.param_arrays.add(name)
            t = self.temp()
            idxs = ", ".join(c for c, _p in codes)
            self.line(
                f"{t} = {obj}_d"
                f"[{self._offset_code(name, info, codes, runtime=True)}] "
                f"if {self._dummy_guard(name, codes)} "
                f"else _getn({obj}, ({idxs}), {name!r}, {line})"
            )
            return EV(t, True)
        if (
            info is not None
            and info.is_array
            and len(index_exprs) == len(info.dims) == 1
        ):
            dim = info.dims[0]
            ix = index_exprs[0]
            ev = self.ex(ix)
            in_bounds = False
            if ev.has_const and isinstance(ev.const, (int, float, bool)):
                k = int(ev.const)
                in_bounds = 1 <= k <= dim
                if not info.is_param:
                    if in_bounds:
                        return EV(f"{obj}_d[{k - 1}]", False)
                    self.line(
                        f"raise IE('{name}: subscript {k} out of bounds "
                        f"1..{dim}', {line})"
                    )
                    return EV("None", True)
            code = ev.code
            if self._ty(ix) != "I":
                code = f"_int({code})"
            if not ev.frozen or self._ty(ix) != "I":
                t = self.temp()
                self.line(f"{t} = {code}")
                code = t
            if info.is_param:
                self.param_arrays.add(name)
                t = self.temp()
                self.line(
                    f"{t} = {obj}_d[{code} - 1] "
                    f"if {self._dummy_guard(name, [(code, ev)])} "
                    f"else _getn({obj}, ({code},), {name!r}, {line})"
                )
                return EV(t, True)
            lo = 0 if self._mut("off-by-one-bounds") else 1
            self.line(f"if not ({lo} <= {code} <= {dim}):")
            self.line(
                f"    raise IE('{name}: subscript %d out of bounds "
                f"1..{dim}' % {code}, {line})"
            )
            return EV(f"{obj}_d[{code} - 1]", False)
        parts = self.ex_list(list(index_exprs))
        idxs = ", ".join(
            p.code if self._ty(ix) == "I" else f"_int({p.code})"
            for p, ix in zip(parts, index_exprs)
        )
        tail = "," if len(index_exprs) == 1 else ""
        return EV(f"_getn({obj}, ({idxs}{tail}), {name!r}, {line})", False)

    def _intrinsic(self, e: ast.FuncCall) -> EV:
        name, line = e.name, e.line
        parts = self.ex_list(list(e.args))
        a = [p.code for p in parts]
        n = len(a)
        if name == "MOD" and n == 2:
            lt, rt = self._ty(e.args[0]), self._ty(e.args[1])
            if lt in ("I", "R") and rt in ("I", "R"):
                # Known numeric operands: the divisor check and the
                # int/float split of _fortran_mod resolve statically.
                pa, pb = parts
                if not pa.frozen:
                    pa = self._hoist(pa)
                if not pb.frozen:
                    pb = self._hoist(pb)
                if not (pb.has_const and pb.const != 0):
                    self.line(f"if {pb.code} == 0:")
                    self.line("    raise IE('MOD with zero divisor')")
                inner = f"_mfmod({pa.code}, {pb.code})"
                if (lt, rt) == ("I", "I"):
                    inner = f"_int({inner})"
                return EV(inner, False)
            return EV(f"_mod({a[0]}, {a[1]})", False)
        if name == "MIN":
            return EV(f"_min([{', '.join(a)}])", False)
        if name == "MAX":
            return EV(f"_max([{', '.join(a)}])", False)
        if name == "ABS" and n == 1:
            return EV(f"_abs({a[0]})", False)
        if name == "SIGN" and n == 2:
            return EV(f"_sign({a[0]}, {a[1]})", False)
        if name == "SQRT" and n == 1:
            return EV(f"_sqrtc({a[0]}, {line})", False)
        if name == "EXP" and n == 1:
            return EV(f"_mexp({a[0]})", False)
        if name == "LOG" and n == 1:
            return EV(f"_logc({a[0]}, {line})", False)
        if name == "SIN" and n == 1:
            return EV(f"_msin({a[0]})", False)
        if name == "COS" and n == 1:
            return EV(f"_mcos({a[0]})", False)
        if name == "ATAN" and n == 1:
            return EV(f"_matan({a[0]})", False)
        if name == "INT" and n == 1:
            return EV(f"_int({a[0]})", False)
        if name == "NINT" and n == 1:
            return EV(f"_int(_round({a[0]}))", False)
        if name in ("REAL", "FLOAT") and n == 1:
            return EV(f"_float({a[0]})", False)
        if name == "IRAND" and n == 2:
            self.uses_ir = True
            return EV(f"_irand(_ir, {a[0]}, {a[1]}, {line})", False)
        if name == "RAND" and n == 0:
            self.uses_rnd = True
            return EV("_rnd()", False)
        if name == "INPUT" and n == 1:
            self.uses_ir = True
            return EV(f"_input(_ir, {a[0]}, {line})", False)
        self.uses_ir = True
        return EV(f"_ir.call({name!r}, [{', '.join(a)}], {line})", False)

    # -- calls ----------------------------------------------------------

    def emit_call(self, name: str, arg_exprs: list, line) -> str:
        """Emit a user-procedure call; returns the result temp name."""
        callee = self.procedures.get(name)
        if callee is None:
            raise LoweringError(f"call to unknown procedure {name}")
        if name not in self.shapes:
            raise LoweringError(f"no lowered body for procedure {name}")
        callee_table = self.checked.tables[name]
        if len(arg_exprs) != len(callee.params):
            raise LoweringError(
                f"arity mismatch calling {name}: "
                f"{len(arg_exprs)} args for {len(callee.params)} params"
            )
        self.bk_limit()
        self.line("_s[0] += _d")
        self.line("_d = 0")
        self.line(f"_dchk({name!r})")
        args: list[str] = []
        dead = False
        for param, actual in zip(callee.params, arg_exprs):
            info = callee_table.lookup(param)
            if info is None:
                raise LoweringError(f"{name}: unknown param {param}")
            if dead:
                args.append("None")
                continue
            arg, dead = self._binder(info, actual, name)
            args.append(arg)
        result = self.temp()
        if dead:
            self.line(f"{result} = None")
        elif self.paths is not None:
            # If the callee STOPs, this frame is suspended mid-path:
            # record its partial prefix as _HALT unwinds (innermost
            # frames append first, matching finalize_run's order).
            self.line("try:")
            self.line(f"    {result} = P_{name}({', '.join(args)})")
            self.line("except _HALT:")
            self.line(
                f"    _PSB[0].append(({self.shape.name!r}, "
                f"{self.cur_nid}, _pr))"
            )
            self.line("    raise")
            self.line("_b = _ms - _s[0]")
        else:
            self.line(f"{result} = P_{name}({', '.join(args)})")
            self.line("_b = _ms - _s[0]")
        return result

    def _binder(self, info, actual, callee: str) -> tuple[str, bool]:
        """One argument binding; returns (arg expression, now-dead)."""
        line = actual.line
        if (
            isinstance(actual, ast.VarRef)
            and actual.name not in self.constants
        ):
            ainfo = self._vinfo(actual.name)
            if ainfo is not None and ainfo.is_array:
                if not info.is_array:
                    self.line(
                        f"raise IE('{callee}: array passed for scalar "
                        f"param {info.name}', {line})"
                    )
                    return "None", True
                return f"V_{actual.name}", False
            if info.is_array:
                self.line(
                    f"raise IE('{callee}: scalar passed for array "
                    f"param {info.name}', {line})"
                )
                return "None", True
            return f"V_{actual.name}", False
        if info.is_array:
            self.line(
                f"raise IE('{callee}: expression passed for array "
                f"param {info.name}', {line})"
            )
            return "None", True
        element = None
        if isinstance(actual, ast.ArrayRef):
            element = (actual.name, actual.indices)
        elif isinstance(actual, ast.FuncCall):
            ainfo = self._vinfo(actual.name)
            if ainfo is not None and ainfo.is_array:
                element = (actual.name, actual.args)
        if element is not None:
            aname, index_exprs = element
            parts = self.ex_list(list(index_exprs))
            idxs = ", ".join(
                p.code if self._ty(ix) == "I" else f"_int({p.code})"
                for p, ix in zip(parts, index_exprs)
            )
            tail = "," if len(index_exprs) == 1 else ""
            t = self.temp()
            self.line(f"{t} = _eref(V_{aname}, ({idxs}{tail}), {line})")
            return t, False
        value = self.ex(actual)
        t = self.temp()
        self.line(
            f"{t} = _cellv({_TYPE_NAME[info.type]}, {value.code}, {line})"
        )
        return t, False

    # -- stores ---------------------------------------------------------

    def _can_coerce(self, target_type, vty) -> bool:
        """False when a store of static type ``vty`` into the target
        must unconditionally raise (``_coerced`` would return None)."""
        if target_type is ast.Type.LOGICAL:
            return vty not in ("I", "R")
        return vty != "L"

    def _coerced(self, code: str, target_type, vty, line) -> str | None:
        """Inline coercion of ``code`` into ``target_type``.

        Returns None when the store must unconditionally raise (the
        caller emits the raise after evaluating the value).
        """
        # The mutation drops the first *real* conversion: a store that
        # already matches its target type coerces trivially, so firing
        # there would be observationally invisible.
        if target_type is ast.Type.INTEGER:
            if vty == "I":
                return code
            if self._mut("drop-coercion"):
                return code
            if vty == "R":
                return f"_int({code})"
            if vty == "L":
                return None
            return f"_cI({code}, {line})"
        if target_type is ast.Type.REAL:
            if vty == "R":
                return code
            if self._mut("drop-coercion"):
                return code
            if vty == "I":
                return f"_float({code})"
            if vty == "L":
                return None
            return f"_cR({code}, {line})"
        if vty == "L":
            return code
        if self._mut("drop-coercion"):
            return code
        if vty in ("I", "R"):
            return None
        return f"_cL({code}, {line})"

    _RAISE_MSG = {
        ast.Type.INTEGER: "cannot store LOGICAL in INTEGER",
        ast.Type.REAL: "cannot store LOGICAL in REAL",
        ast.Type.LOGICAL: "cannot store number in LOGICAL",
    }

    def _store_scalar(self, name: str, value_ev: EV, vty, line) -> None:
        if self._is_param(name):
            self.line(f"V_{name}.set({value_ev.code}, {line})")
            return
        info = self._vinfo(name)
        coerced = self._coerced(value_ev.code, info.type, vty, line)
        if coerced is None:
            if not value_ev.frozen:
                self._hoist(value_ev)
            self.line(f"raise IE({self._RAISE_MSG[info.type]!r}, {line})")
            return
        if name in self.boxed:
            self.line(f"V_{name}.value = {coerced}")
        else:
            self.line(f"V_{name} = {coerced}")

    def _emit_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        line = stmt.line
        if isinstance(target, ast.VarRef):
            vty = self._ty(stmt.value)
            value = self.ex(stmt.value)
            self._store_scalar(target.name, value, vty, line)
            return
        # Array element store: value first, then indices, then the
        # bounds check, then the coercion — the reference's order.
        info = self._vinfo(target.name)
        vty = self._ty(stmt.value)
        value = self.ex(stmt.value)
        if not value.frozen:
            value = self._hoist(value)
        if (
            info is not None
            and info.is_array
            and 1 < len(target.indices) == len(info.dims)
            and (not info.is_param or self._can_coerce(info.type, vty))
        ):
            obj = f"V_{target.name}"
            codes = self._index_codes(target.indices)
            if info.is_param:
                self.param_arrays.add(target.name)
                coerced = self._coerced(value.code, info.type, vty, line)
                idxs = ", ".join(c for c, _p in codes)
                self.line(
                    f"if {self._dummy_guard(target.name, codes)}: "
                    f"{obj}_d[{self._offset_code(target.name, info, codes, runtime=True)}]"
                    f" = {coerced}"
                )
                self.line(
                    f"else: _setn({obj}, ({idxs}), {value.code}, "
                    f"{target.name!r}, {line})"
                )
                return
            self._bounds_checks(target.name, info, codes, line)
            coerced = self._coerced(value.code, info.type, vty, line)
            if coerced is None:
                self.line(
                    f"raise IE({self._RAISE_MSG[info.type]!r}, {line})"
                )
                return
            self.line(
                f"{obj}_d[{self._offset_code(target.name, info, codes, runtime=False)}]"
                f" = {coerced}"
            )
            return
        if (
            info is not None
            and info.is_array
            and len(target.indices) == len(info.dims) == 1
            and (not info.is_param or self._can_coerce(info.type, vty))
        ):
            dim = info.dims[0]
            ix = target.indices[0]
            ev = self.ex(ix)
            code = ev.code
            if self._ty(ix) != "I":
                code = f"_int({code})"
            if not ev.frozen or self._ty(ix) != "I":
                t = self.temp()
                self.line(f"{t} = {code}")
                code = t
            in_bounds = ev.has_const and 1 <= int(ev.const) <= dim
            if info.is_param:
                # Rank-1 dummy array (see _dummy_guard): the fast path
                # only exists when the store cannot be an unconditional
                # type error, so the inline coercion is total and the
                # generic fallback stays bit-identical.
                self.param_arrays.add(target.name)
                obj = f"V_{target.name}"
                coerced = self._coerced(value.code, info.type, vty, line)
                self.line(
                    f"if {self._dummy_guard(target.name, [(code, ev)])}: "
                    f"{obj}_d[{code} - 1] = {coerced}"
                )
                self.line(
                    f"else: _setn({obj}, ({code},), {value.code}, "
                    f"{target.name!r}, {line})"
                )
                return
            if not in_bounds:
                self.line(f"if not (1 <= {code} <= {dim}):")
                self.line(
                    f"    raise IE('{target.name}: subscript %d out of "
                    f"bounds 1..{dim}' % {code}, {line})"
                )
            coerced = self._coerced(value.code, info.type, vty, line)
            if coerced is None:
                self.line(
                    f"raise IE({self._RAISE_MSG[info.type]!r}, {line})"
                )
                return
            self.line(f"V_{target.name}_d[{code} - 1] = {coerced}")
            return
        parts = self.ex_list(list(target.indices))
        idxs = ", ".join(
            p.code if self._ty(ix) == "I" else f"_int({p.code})"
            for p, ix in zip(parts, target.indices)
        )
        tail = "," if len(target.indices) == 1 else ""
        self.line(
            f"_setn(V_{target.name}, ({idxs}{tail}), {value.code}, "
            f"{target.name!r}, {line})"
        )

    # -- per-node bookkeeping -------------------------------------------

    def bk_charge(self) -> None:
        self.line("_d += 1")

    def bk_limit(self) -> None:
        """The step-budget check, emitted only where the reference
        checks it: a taken loop back edge, a user call, an exit."""
        self.line("if _d > _b:")
        self.line("    raise ILE('exceeded %d node executions' % _ms)")

    def bk_cost(self, k: int) -> None:
        if self.costs is None:
            return
        cost = float(self.costs[k])
        # A zero add is never emitted: the accumulator starts at +0.0
        # and an IEEE sum is -0.0 only when both addends are, so
        # skipping it is bit-identical.  For the same reason the
        # mutation drops the first *non-zero* cost add.
        if not cost or self._mut("drop-cost"):
            return
        self.line(f"_c[0] += {_lit(cost)}")

    def bk_ccost(self, ops: int) -> None:
        """The counter-update cycle add for ``ops`` updates; a zero add
        is skipped, as in :meth:`bk_cost`."""
        if self.cu is not None and ops * self.cu:
            self.line(f"_cc[0] += {_lit(ops * self.cu)}")

    def bk_node(self, k: int) -> None:
        self.bk_charge()
        if self.hits:
            self.line(f"_h{k} += 1")
            self.hits_used.add(k)
        self.bk_cost(k)

    # -- fused straight-line blocks -------------------------------------

    #: Kinds a fused block may contain mid-run (single ``U`` successor).
    _FUSE_MID = frozenset(
        {
            StmtKind.ENTRY,
            StmtKind.NOOP,
            StmtKind.ASSIGN,
            StmtKind.PRINT,
            StmtKind.DO_INIT,
            StmtKind.DO_INCR,
        }
    )
    #: Kinds a fused block may end with (the charge covers the branch;
    #: its arms keep exact edge bookkeeping).
    _FUSE_BRANCH = frozenset(
        {
            StmtKind.IF,
            StmtKind.WHILE_TEST,
            StmtKind.DO_TEST,
            StmtKind.AIF,
            StmtKind.CGOTO,
        }
    )

    def _node_has_call(self, k: int) -> bool:
        """Whether the node's emitted code may invoke a user procedure
        (which flushes ``_d`` and consumes step budget of its own)."""
        kind = self.kind[k]
        if kind in (
            StmtKind.ENTRY,
            StmtKind.NOOP,
            StmtKind.DO_INCR,
            StmtKind.DO_TEST,
        ):
            return False
        cond = self.node_cond[k]
        if cond is not None:
            return self._has_call(cond)
        stmt = self.node_stmt[k]
        if kind is StmtKind.PRINT:
            return any(self._has_call(e) for e in stmt.items)
        if kind in (StmtKind.ASSIGN, StmtKind.DO_INIT):
            return any(
                self._has_call(e) for e in ast.stmt_expressions(stmt)
            )
        return True

    def fusable_mid(self, k: int) -> bool:
        return self.kind[k] in self._FUSE_MID and not self._node_has_call(k)

    def fusable_branch(self, k: int) -> bool:
        return self.kind[k] in self._FUSE_BRANCH and not self._node_has_call(k)

    def begin_block(self, nodes: list[int], trailing_branch: bool) -> None:
        """One step charge (and, plan-free, one hit counter) for a whole
        straight-line run.

        The block charges ``len(nodes)`` steps up front and checks no
        budget: a fused block holds no call, no back edge and no exit,
        the only places either engine checks it.  In the plan-free
        variant it also bumps a single block counter, and the
        ``finally`` flush credits every node (and every interior
        unconditional edge) of the block with the block count.  Step
        and hit counts can only over-count on runs that raise inside
        the block, and a raising run never surfaces its counts.
        """
        self.line(f"_d += {len(nodes)}")
        if not self.hits:
            return
        mids = nodes[:-1] if trailing_branch else nodes
        fused_edges = []
        for k in mids:
            label, _d = self.succ_by_label[k][0]
            nid = self.shape.node_ids[k]
            fused_edges.append(self.shape.edge_index[(nid, label)])
        self.line(f"_blk{len(self.blocks)} += 1")
        self.blocks.append((list(nodes), fused_edges))

    def _slot_of(self, k: int) -> int | None:
        if self.plan is None:
            return None
        return self.plan.node_slots.get(self.shape.node_ids[k])

    def bump_node(self, k: int, trip_code: str | None = None) -> None:
        """The on_node counter updates (node slot + DO_INIT batches)."""
        if self.plan is None:
            return
        nid = self.shape.node_ids[k]
        ops = 0
        cid = self.plan.node_slots.get(nid)
        if cid is not None:
            if self._mut("slot-off-by-one"):
                cid = cid + 1
            if self._mut("drop-node-bump"):
                pass
            else:
                self.line(f"slots[{cid}] += 1.0")
                self.meta.bumps[self.shape.name].append((cid, "node", nid))
                if self._mut("dup-node-bump"):
                    self.line(f"slots[{cid}] += 1.0")
                    self.meta.bumps[self.shape.name].append(
                        (cid, "node", nid)
                    )
            ops += 1
        if trip_code is not None:
            for bcid, offset in self.plan.batch_slots.get(nid, ()):
                add = trip_code if not offset else f"{trip_code} + {offset}"
                self.line(f"slots[{bcid}] += {add}")
                self.meta.bumps[self.shape.name].append((bcid, "batch", nid))
                ops += 1
        if ops:
            self.uses_slots = True
            self.line(f"_o_l += {ops}")
            self.bk_ccost(ops)

    def bk_path_edge(self, k: int, label: str) -> None:
        """The on_edge path-register update: ``_pr += k`` on a non-zero
        increment (1 op) or the back-edge flush ``paths[_pr + b] += 1;
        _pr = reset`` (2 ops, one ``2*cu`` cycle add, matching the
        reference's per-event charge)."""
        if self.paths is None:
            return
        nid = self.shape.node_ids[k]
        key = (nid, label)
        flush = self.paths.flushes.get(key)
        if flush is not None:
            bump_add, reset = flush
            self.line(f"_pk = _pr + {bump_add}" if bump_add else "_pk = _pr")
            self.line("_pp[_pk] = _pp.get(_pk, 0.0) + 1.0")
            self.line(f"_pr = {reset}")
            self.line("_o_l += 2")
            self.bk_ccost(2)
            self.meta.path_sites[self.shape.name].append(
                ("flush", key, bump_add, reset)
            )
            return
        inc = self.paths.increments.get(key, 0)
        if inc:
            self.line(f"_pr += {inc}")
            self.line("_o_l += 1")
            self.bk_ccost(1)
            self.meta.path_sites[self.shape.name].append(("inc", key, inc))

    def bk_edge_slot(self, k: int, label: str) -> None:
        """The on_edge counter update alone — for edges interior to a
        fused block, whose traversal count comes from the block
        counter instead of a per-edge local."""
        self.bk_path_edge(k, label)
        if self.plan is None:
            return
        nid = self.shape.node_ids[k]
        cid = self.plan.edge_slots.get((nid, label))
        if cid is None:
            return
        self.uses_slots = True
        self.line(f"slots[{cid}] += 1.0")
        self.meta.bumps[self.shape.name].append((cid, "edge", (nid, label)))
        self.line("_o_l += 1")
        self.bk_ccost(1)

    def bk_edge(self, k: int, label: str) -> None:
        nid = self.shape.node_ids[k]
        if self.hits:
            eidx = self.shape.edge_index[(nid, label)]
            self.line(f"_e{eidx} += 1")
            self.edges_used.add(eidx)
        self.bk_path_edge(k, label)
        if self.plan is None:
            return
        cid = self.plan.edge_slots.get((nid, label))
        if cid is None:
            return
        if self._mut("drop-edge-bump"):
            return
        self.uses_slots = True
        self.line(f"slots[{cid}] += 1.0")
        self.meta.bumps[self.shape.name].append((cid, "edge", (nid, label)))
        self.line("_o_l += 1")
        self.bk_ccost(1)

    # -- node actions ---------------------------------------------------

    def emit_terminal(self, k: int) -> None:
        """EXIT or STOP, inlined at a predecessor.  Both check the
        step budget: EXIT after its on_node bookkeeping, STOP (which
        exits every active procedure) before settling its path."""
        self.bk_node(k)
        if self.kind[k] is StmtKind.STOP:
            # The reference raises inside _exec_node: no hooks fire.
            self.bk_limit()
            if self.paths is not None:
                # Settling the halted frame costs 0 updates (the run is
                # over): a sink STOP's register is a complete path id,
                # the usual STOP leaves a partial-path prefix.  Outer
                # suspended frames add theirs as _HALT unwinds through
                # the call-site guards, innermost first.
                nid = self.shape.node_ids[k]
                if nid in self.paths.stop_sinks:
                    self.line("_pp[_pr] = _pp.get(_pr, 0.0) + 1.0")
                    self.meta.path_sites[self.shape.name].append(
                        ("stop", nid)
                    )
                else:
                    self.line(
                        f"_PSB[0].append(({self.shape.name!r}, {nid}, _pr))"
                    )
                    self.meta.path_sites[self.shape.name].append(
                        ("partial", nid)
                    )
            self.line("raise _HALT()")
            return
        self.bump_node(k)
        if self.paths is not None:
            # The on_node EXIT flush: paths[_pr] += 1 (1 update).
            self.line("_pp[_pr] = _pp.get(_pr, 0.0) + 1.0")
            self.line("_o_l += 1")
            self.bk_ccost(1)
            self.meta.path_sites[self.shape.name].append(
                ("exit", self.shape.node_ids[k])
            )
        self.bk_limit()
        shape = self.shape
        if shape.ret_slot is not None:
            rname = shape.proc.name
            if self._is_param(rname) or rname in self.boxed:
                self.line(f"return V_{rname}.value")
            else:
                self.line(f"return V_{rname}")
        else:
            self.line("return None")

    def emit_action(self, k: int) -> str | None:
        """Bookkeeping + the node's effect, up to (not including) the
        outgoing-edge bookkeeping.  For branch-free kinds the node bump
        is included; returns a selector temp for branching kinds (the
        caller emits the bump + branch)."""
        self.bk_node(k)
        return self.emit_action_body(k)

    def emit_action_body(self, k: int) -> str | None:
        """The node's effect alone — no step charge, hit or cost
        bookkeeping (fused blocks emit those per block)."""
        self.cur_nid = self.shape.node_ids[k]
        kind = self.kind[k]
        line = self.node_line[k]
        if kind in (StmtKind.ENTRY, StmtKind.NOOP):
            self.bump_node(k)
            return None
        if kind is StmtKind.ASSIGN:
            self._emit_assign(self.node_stmt[k])
            self.bump_node(k)
            return None
        if kind is StmtKind.CALL:
            stmt = self.node_stmt[k]
            self.emit_call(stmt.name, list(stmt.args), stmt.line)
            self.bump_node(k)
            return None
        if kind is StmtKind.PRINT:
            stmt = self.node_stmt[k]
            parts = self.ex_list(list(stmt.items))
            if not parts:
                self.line("_out.append('')")
            elif len(parts) == 1:
                self.line(f"_out.append(_fmt({parts[0].code}))")
            else:
                fmts = ", ".join(f"_fmt({p.code})" for p in parts)
                self.line(f"_out.append(' '.join(({fmts})))")
            self.bump_node(k)
            return None
        if kind is StmtKind.DO_INIT:
            self._emit_do_init(k)
            return None
        if kind is StmtKind.DO_INCR:
            self._emit_do_incr(k)
            self.bump_node(k)
            return None
        if kind in (StmtKind.IF, StmtKind.WHILE_TEST):
            cond = self.node_cond[k]
            ev = self.ex(cond)
            t = self.temp()
            self.line(f"{t} = {ev.code}")
            if self._ty(cond) != "L":
                self.line(f"if not _isinst({t}, _bool):")
                self.line(
                    f"    raise IE('IF condition is not LOGICAL', {line})"
                )
            self.bump_node(k)
            return t
        if kind is StmtKind.DO_TEST:
            ts = self.shape.trip_slots[self.node_trip[k]]
            self.trips_used.add(ts)
            self.bump_node(k)
            return f"(_tr{ts} > 0)"
        if kind is StmtKind.AIF:
            cond = self.node_cond[k]
            ev = self.ex(cond)
            t = self.temp()
            self.line(f"{t} = {ev.code}")
            if self._ty(cond) not in ("I", "R"):
                self.line(f"if _isinst({t}, _bool):")
                self.line(
                    f"    raise IE('arithmetic IF on a LOGICAL value', "
                    f"{line})"
                )
            self.bump_node(k)
            return t
        if kind is StmtKind.CGOTO:
            selector = self.node_cond[k]
            ev = self.ex(selector)
            t = self.temp()
            code = ev.code
            if self._ty(selector) != "I":
                code = f"_int({code})"
            self.line(f"{t} = {code}")
            self.bump_node(k)
            return t
        raise LoweringError(f"cannot lower node kind {kind}")

    def _emit_do_init(self, k: int) -> None:
        stmt = self.node_stmt[k]
        line = self.node_line[k]
        exprs = [stmt.start, stmt.stop]
        if stmt.step is not None:
            exprs.append(stmt.step)
        parts = self.ex_list(exprs)
        # All three must be values before the zero check, the var set
        # and the trip computation (the var set may invalidate reads).
        codes = []
        for p in parts:
            if p.has_const:
                codes.append(p.code)
            else:
                t = self.temp()
                self.line(f"{t} = {p.code}")
                codes.append(t)
        if stmt.step is None:
            codes.append("1")
            step_ty = "I"
            step_const_nonzero = True
        else:
            sp = parts[2]
            step_ty = self._ty(stmt.step)
            step_const_nonzero = sp.has_const and sp.const != 0
        start_c, stop_c, step_c = codes
        if not step_const_nonzero:
            self.line(f"if {step_c} == 0:")
            self.line(f"    raise IE('DO loop with zero step', {line})")
        self._store_scalar(
            stmt.var, EV(start_c, True), self._ty(stmt.start), line
        )
        ts = self.shape.trip_slots[self.node_trip[k]]
        self.trips_used.add(ts)
        cstep = None
        if stmt.step is None:
            cstep = 1
        elif parts[2].has_const and type(parts[2].const) is int:
            cstep = parts[2].const
        if self._mut("wrong-loop-bound"):
            self.line(f"_tr{ts} = _trip({start_c}, {stop_c}, {step_c}) + 1")
        elif (
            cstep is not None
            and cstep > 0
            and self._ty(stmt.start) == "I"
            and self._ty(stmt.stop) == "I"
        ):
            # Integer bounds with a constant positive step: the trip
            # count is max(0, span // step) and truncating division
            # matches floor division for the positive spans that
            # survive the clamp.
            self.line(f"_tr{ts} = {stop_c} - {start_c} + {cstep}")
            if cstep == 1:
                self.line(f"if _tr{ts} < 0:")
                self.line(f"    _tr{ts} = 0")
            else:
                self.line(
                    f"_tr{ts} = _tr{ts} // {cstep} if _tr{ts} > 0 else 0"
                )
        else:
            self.line(f"_tr{ts} = _trip({start_c}, {stop_c}, {step_c})")
        self.line(f"_st{ts} = {step_c}")
        self.bump_node(k, trip_code=f"_tr{ts}")

    def _emit_do_incr(self, k: int) -> None:
        stmt = self.node_stmt[k]
        line = self.node_line[k]
        ts = self.shape.trip_slots[self.node_trip[k]]
        self.trips_used.add(ts)
        step_ty = self._ty(stmt.step) if stmt.step is not None else "I"
        var = stmt.var
        read = self._read_scalar(var)
        self._store_scalar(
            var, EV(f"{read.code} + _st{ts}", False), self._mix(var, step_ty),
            line,
        )
        self.line(f"_tr{ts} -= 1")

    def _mix(self, var: str, step_ty: str | None) -> str | None:
        """Static type of ``var + step`` for the DO increment."""
        info = self._vinfo(var)
        vt = _TYPE_CH.get(info.type) if info is not None else None
        if vt == "I" and step_ty == "I":
            return "I"
        if vt in ("I", "R") and step_ty in ("I", "R"):
            return "R" if "R" in (vt, step_ty) else "I"
        return None

    # -- branch heads ---------------------------------------------------

    def branch_cond(self, sel: str) -> str:
        if self._mut("swap-branch"):
            return f"(not {sel})"
        return sel

    def _arm_heads(self, k: int, sel: str) -> list[str]:
        """The if/elif/else header lines for a branching node, in the
        same order as ``succ_by_label[k]``."""
        kind = self.kind[k]
        if kind in (StmtKind.IF, StmtKind.WHILE_TEST, StmtKind.DO_TEST):
            return [f"if {self.branch_cond(sel)}:", "else:"]
        if kind is StmtKind.AIF:
            return [f"if {sel} < 0:", f"elif {sel} == 0:", "else:"]
        if kind is StmtKind.CGOTO:
            n = len(self.node_stmt[k].targets)
            heads = [f"if {sel} == 1:"]
            heads.extend(f"elif {sel} == {j}:" for j in range(2, n + 1))
            heads.append("else:")
            return heads
        raise LoweringError(f"cannot branch on node kind {kind}")

    # -- whole-procedure emission ---------------------------------------

    def emit(self) -> list[str]:
        """The complete function definition, as a list of lines."""
        name = self.shape.name
        self.meta.bumps.setdefault(name, [])
        self.meta.path_sites.setdefault(name, [])
        n_nodes = len(self.shape.node_ids)
        flow = FlowInfo(
            {
                i: [d for (_l, d) in self.succ_by_label[i]]
                for i in range(n_nodes)
            },
            self.shape.entry_idx,
            {i for i, kd in self.kind.items() if kd in _TERMINALS},
            self.shape.loops,
        )
        self.meta.reachable[name] = {
            self.shape.node_ids[i] for i in flow.reachable
        }
        self.ind = 2
        walker = _Walker(self, flow)
        try:
            walker.chain(flow.entry, None, ())
        except RecursionError:
            raise LoweringError(
                f"{name}: control flow nests too deeply to emit"
            ) from None
        self.meta.mode[name] = "structured"
        self.meta.emitted_nodes[name] = walker.emitted
        return self._assemble(self.buf)

    def _assemble(self, body: list[str]) -> list[str]:
        shape = self.shape
        name = shape.name
        is_main = name == self.checked.unit.main.name
        params = ", ".join(f"V_{p}" for p in shape.proc.params)
        out = [f"def P_{name}({params}):"]

        def pro(text: str) -> None:
            out.append("    " + text)

        pro(f"_CB_{name}[0] += 1")
        pro("_ms = _msb[0]")
        pro("_b = _ms - _s[0]")
        pro("_d = 0")
        if self.uses_ir or self.uses_rnd:
            pro("_ir = _irb[0]")
        if self.uses_rnd:
            pro("_rnd = _ir.rng.random")
        if self.uses_slots:
            pro(f"slots = _K[{shape.index}]")
            # The counter-update tally is an exact integer sum, so it
            # can accumulate locally; the finally flush preserves the
            # events recorded so far even when the run raises.
            pro("_o_l = 0")
        if self.paths is not None:
            # The path register lives in the Python frame: call and
            # return restore it for free, exactly the per-frame
            # save/restore the reference executor performs.
            pro(f"_pp = _PC[{shape.index}]")
            pro("_pr = 0")
            pro("_o_l = 0")
        for vname in shape.names:
            info = self.table.lookup(vname)
            if info is None or info.is_param:
                continue
            if info.is_array:
                pro(
                    f"V_{vname} = Array({vname!r}, "
                    f"{_TYPE_NAME[info.type]}, {info.dims!r})"
                )
                pro(f"V_{vname}_d = V_{vname}.data")
            elif vname in self.boxed:
                pro(f"V_{vname} = Cell({_TYPE_NAME[info.type]})")
            else:
                pro(f"V_{vname} = {_lit(_zero(info.type))}")
        for pname in shape.proc.params:
            if pname not in self.param_arrays:
                continue
            info = self.table.lookup(pname)
            # Unpack the dummy array's data list and extents once per
            # call.  The guard pins what the inlined accesses assume:
            # exact class, the declared rank (strides line up) and the
            # declared element type (stores coerce inline).  Bounds
            # come from the *actual* array's extents — dummies are
            # conventionally declared with extent 1 — so any mismatch
            # in rank or type leaves the alias None and every access
            # falls back to the generic checked helpers.
            rank = len(info.dims)
            names = [f"V_{pname}_d"]
            names += [f"V_{pname}_b{k}" for k in range(1, rank + 1)]
            pro(
                f"{', '.join(names)} = (V_{pname}.data, *V_{pname}.dims) "
                f"if V_{pname}.__class__ is Array "
                f"and _len(V_{pname}.dims) == {rank} "
                f"and V_{pname}.type is {_TYPE_NAME[info.type]} "
                f"else {(None,) * (rank + 1)!r}"
            )
        for k in sorted(self.hits_used):
            pro(f"_h{k} = 0")
        for e in sorted(self.edges_used):
            pro(f"_e{e} = 0")
        for j in range(len(self.blocks)):
            pro(f"_blk{j} = 0")
        if not is_main:
            pro("_dep[0] += 1")
        pro("try:")
        out.extend(body)
        pro("finally:")

        def fin(text: str) -> None:
            out.append("        " + text)

        if not is_main:
            fin("_dep[0] -= 1")
        fin("_s[0] += _d")
        if self.uses_slots or self.paths is not None:
            fin("_o[0] += _o_l")
        for k in sorted(self.hits_used):
            fin(f"_NH_{name}[{k}] += _h{k}")
        for e in sorted(self.edges_used):
            fin(f"_EH_{name}[{e}] += _e{e}")
        for j, (bnodes, bedges) in enumerate(self.blocks):
            for k in bnodes:
                fin(f"_NH_{name}[{k}] += _blk{j}")
            for e in bedges:
                fin(f"_EH_{name}[{e}] += _blk{j}")
        if is_main:
            fin("_mv = _mvb[0]")
            for vname in shape.names:
                info = self.table.lookup(vname)
                if info is None or info.is_array:
                    continue
                read = (
                    f"V_{vname}.value" if vname in self.boxed else f"V_{vname}"
                )
                fin(f"_mv[{vname!r}] = {read}")
        return out


def _zero(type_):
    if type_ is ast.Type.INTEGER:
        return 0
    if type_ is ast.Type.LOGICAL:
        return False
    return 0.0


class _Walker:
    """Structured body emission: loops become ``while True`` blocks,
    branches become ``if``/``elif`` trees joined at their region
    postdominators (see :mod:`repro.codegen.structure`).

    Terminals (EXIT, STOP) are inlined wherever control reaches them.
    A loop with one exit target leaves by ``break``; a loop with more
    sets its exit-code local ``_x<header>`` first, and an ``if`` chain
    on the code after the loop resolves each target in the enclosing
    context.  A non-terminal node reached a second time away from a
    join is emitted again (tail duplication), bounded by
    :data:`_MAX_GROWTH`.
    """

    def __init__(self, pe: ProcEmitter, flow: FlowInfo):
        self.pe = pe
        self.flow = flow
        #: Non-terminal node emissions so far, duplicates included.
        self.emitted = 0
        self.budget = _MAX_GROWTH * len(flow.reachable)

    def _grow(self) -> None:
        self.emitted += 1
        if self.emitted > self.budget:
            raise LoweringError(
                f"{self.pe.shape.name}: structured emission exceeds "
                f"{_MAX_GROWTH}x its {len(self.flow.reachable)} "
                f"reachable nodes"
            )

    # -- resolution ----------------------------------------------------

    def resolve(self, d: int, stack: tuple, follow: int | None):
        """How to reach dense node ``d`` from the current position:
        ('terminal', d) inline it, ('continue',) re-enter the innermost
        loop, ('exit', loop, code) leave it, ('fall',) it is the local
        join, None emit it here."""
        if d in self.flow.terminals:
            return ("terminal", d)
        if stack:
            top = stack[-1]
            if d == top.header:
                return ("continue",)
            if d not in top.body:
                return ("exit", top, top.exits.index(d))
        if d == follow:
            return ("fall",)
        return None

    def transfer(self, r) -> None:
        pe = self.pe
        if r[0] == "terminal":
            pe.emit_terminal(r[1])
        elif r[0] == "continue":
            # A taken back edge, its bookkeeping already emitted.
            pe.bk_limit()
            pe.line("continue")
        elif r[0] == "exit":
            loop, code = r[1], r[2]
            if len(loop.exits) > 1:
                if pe._mut("swap-exit-code"):
                    code = (code + 1) % len(loop.exits)
                pe.line(f"_x{loop.header} = {code}")
            pe.line("break")

    def region(self, stack: tuple) -> int | None:
        return stack[-1].header if stack else None

    # -- walking -------------------------------------------------------

    def chain(
        self,
        n: int | None,
        follow: int | None,
        stack: tuple,
        skip_loop: bool = False,
    ) -> None:
        first = True
        while n is not None and n != follow:
            skip = first and skip_loop
            first = False
            if not skip:
                r = self.resolve(n, stack, follow)
                if r is not None:
                    self.transfer(r)
                    return
                if n in self.flow.loops:
                    n = self.loop(n, stack)
                    continue
            self._grow()
            if self.pe.fusable_mid(n):
                n = self.block(n, stack, follow)
            else:
                n = self.step(n, stack)

    def loop(self, h: int, stack: tuple) -> int | None:
        """Emit the loop headed by ``h``; returns where control goes
        after it (None: nowhere, every exit was a transfer)."""
        pe = self.pe
        loop = _Loop(h, self.flow.loops[h], self.flow.loop_exits[h])
        pe.line("while True:")
        pe.ind += 1
        self.chain(h, None, stack + (loop,), skip_loop=True)
        pe.ind -= 1
        if len(loop.exits) < 2:
            return loop.exits[0] if loop.exits else None
        join = self.flow.join(
            self.region(stack),
            [t for t in loop.exits if self.resolve(t, stack, None) is None],
        )
        last = len(loop.exits) - 1
        for code, t in enumerate(loop.exits):
            if code == 0:
                pe.line(f"if _x{h} == 0:")
            elif code < last:
                pe.line(f"elif _x{h} == {code}:")
            else:
                pe.line("else:")
            pe.ind += 1
            mark = len(pe.buf)
            self.arm(t, stack, join)
            if len(pe.buf) == mark:
                pe.line("pass")
            pe.ind -= 1
        return join

    def arm(self, d: int, stack: tuple, join: int | None) -> None:
        r = self.resolve(d, stack, join)
        if r is None:
            self.chain(d, join, stack)
        elif r[0] != "fall":
            self.transfer(r)

    def step(self, n: int, stack: tuple) -> int | None:
        pe = self.pe
        sel = pe.emit_action(n)
        pairs = pe.succ_by_label[n]
        if len(pairs) == 1:
            label, d = pairs[0]
            pe.bk_edge(n, label)
            return d
        return self.arms(n, sel, stack)

    def arms(self, n: int, sel: str | None, stack: tuple) -> int | None:
        """Emit a branching node's if/elif/else arms; returns the join."""
        pe = self.pe
        join = self.flow.postdominators(self.region(stack)).get(n)
        if join in self.flow.terminals:
            join = None
        pairs = pe.succ_by_label[n]
        for head, (label, d) in zip(pe._arm_heads(n, sel), pairs):
            pe.line(head)
            mark = len(pe.buf)
            pe.ind += 1
            pe.bk_edge(n, label)
            self.arm(d, stack, join)
            if len(pe.buf) == mark:
                # An arm with no bookkeeping that falls to the join
                # (profiled variants keep no hit counts): an empty
                # ``else`` is dropped, any other arm says ``pass``.
                if head == "else:":
                    pe.buf.pop()
                else:
                    pe.line("pass")
            pe.ind -= 1
        return join

    def block(
        self, n: int, stack: tuple, follow: int | None
    ) -> int | None:
        """Collect the maximal fusable straight-line run starting at
        ``n`` (optionally ending with a branch) and emit it as one
        fused block."""
        pe = self.pe
        nodes = [n]
        trailing = False
        cur = n
        while True:
            _label, d = pe.succ_by_label[cur][0]
            if (
                d in self.flow.loops
                or self.resolve(d, stack, follow) is not None
            ):
                break
            if pe.fusable_branch(d):
                self._grow()
                nodes.append(d)
                trailing = True
                break
            if not pe.fusable_mid(d):
                break
            self._grow()
            nodes.append(d)
            cur = d
        mids = nodes[:-1] if trailing else nodes
        pe.begin_block(nodes, trailing)
        for k in mids:
            pe.bk_cost(k)
            pe.emit_action_body(k)
            label, _d = pe.succ_by_label[k][0]
            pe.bk_edge_slot(k, label)
        if trailing:
            b = nodes[-1]
            pe.bk_cost(b)
            sel = pe.emit_action_body(b)
            return self.arms(b, sel, stack)
        # Leave along the final node's (fused) unconditional edge.
        _label, d = pe.succ_by_label[cur][0]
        r = self.resolve(d, stack, follow)
        if r is None or r[0] == "fall":
            return d
        self.transfer(r)
        return None


def emit_module(
    checked,
    cfgs,
    shapes: dict[str, ProcShape],
    *,
    plan_tables: dict | None = None,
    path_tables: dict | None = None,
    costs: dict | None = None,
    cu: float | None = None,
    mutation: str | None = None,
) -> tuple[str, EmitMeta]:
    """Lower every procedure of a checked program to Python source.

    ``plan_tables`` maps procedure name to its
    :class:`~repro.codegen.plans.ProcSlotTable` (profiled variants),
    ``path_tables`` maps procedure name to its
    :class:`~repro.paths.numbering.ProcPathPlan` (path-profiled
    variants; mutually exclusive with ``plan_tables``),
    ``costs`` maps procedure name to a node-id -> cost dict and ``cu``
    is the machine model's counter-update cost (costed variants).
    Returns ``(source, meta)``; ``exec`` the source in a namespace from
    :func:`repro.codegen.runtime.make_namespace` to obtain the
    ``P_<name>`` functions.
    """
    meta = EmitMeta()
    lines: list[str] = []
    for name, cfg in cfgs.items():
        shape = shapes[name]
        table = plan_tables.get(name) if plan_tables else None
        proc_costs = costs.get(name) if costs else None
        dense_costs = (
            [proc_costs[nid] for nid in shape.node_ids]
            if proc_costs is not None
            else None
        )
        emitter = ProcEmitter(
            checked,
            shapes,
            shape,
            plan_table=table,
            paths=path_tables.get(name) if path_tables else None,
            costs=dense_costs,
            cu=cu,
            mutation=mutation,
            meta=meta,
        )
        lines.extend(emitter.emit())
        lines.append("")
    source = "\n".join(lines) + "\n"
    meta.lines = len(lines) + 1
    return source, meta
