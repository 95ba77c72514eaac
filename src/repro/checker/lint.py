"""Dataflow lints over minifort sources (REP3xx).

The linter runs on the checked AST and the statement-level CFGs.  The
path-sensitive findings come from the worklist analyses of
:mod:`repro.dataflow` (reaching definitions, liveness, SCCP
constants).

* **REP301** (hint) — a scalar read that no path from the procedure
  entry can have defined.  Computed from reaching definitions
  restricted to SCCP-*feasible* edges, so a definition under a
  constant-false guard does not count, and a scalar passed to a CALL
  only counts as defined when the callee's parameter summary says the
  position is writable.  A hint rather than a warning because
  minifort (unlike Fortran 77) guarantees zero-initialization, so
  relying on it is defined behavior — merely suspect;
* **REP302** — a statement that can never execute: every statement
  the CFG builder pruned as unreachable from the procedure entry;
* **REP303** — an assignment to a DO loop's index variable (or a
  nested DO reusing it) inside the loop body: Fortran-77 leaves the
  result undefined, and the interval analysis assumes the hidden trip
  counter is authoritative;
* **REP304** (hint) — the main program has no STOP statement;
* **REP305** (hint) — an exit-free DO loop whose trip count is not a
  compile-time constant: the counter-free half of Opt 3 silently does
  not apply, so the loop keeps a batched counter;
* **REP306** (hint) — a scalar store no feasible path ever reads
  (liveness-dead) whose right-hand side provably cannot raise, so
  deleting the statement could not change what the program does;
* **REP307** (hint) — a branch whose condition SCCP proves constant
  on every feasible path, naming the taken arm;
* **REP308** — a loop no feasible edge ever leaves: once entered, the
  program can never terminate.

Hints are only produced with ``hints=True``; they describe missed
optimizations rather than likely bugs, and built-in workloads trip
them by design.
"""

from __future__ import annotations

from repro.cfg.graph import StmtKind
from repro.checker.diagnostics import Diagnostic, diag
from repro.lang import ast
from repro.lang.symbols import CheckedProgram
from repro.profiling.placement import _constant_trip


def lint_program(
    checked: CheckedProgram, cfgs, *, hints: bool = False
) -> list[Diagnostic]:
    """All REP3xx findings for a checked program.

    ``cfgs`` holds one CFG per procedure, as
    :func:`repro.cfg.build_program_cfgs` builds them.
    """
    from repro.dataflow import analyze_procedure, param_summaries

    summaries = param_summaries(checked)
    findings: list[Diagnostic] = []
    for name, proc in sorted(checked.unit.procedures.items()):
        cfg = cfgs[name]
        df = analyze_procedure(checked, name, cfg, summaries=summaries)
        findings.extend(_df_unreachable(proc, cfg))
        findings.extend(_df_infinite_loops(proc, cfg, df))
        findings.extend(_lint_do_index_mutation(proc))
        if hints:
            findings.extend(_df_use_before_def(proc, cfg, df))
            findings.extend(_df_constant_branches(proc, cfg, df))
            findings.extend(_df_dead_stores(checked, proc, cfg, df))
            findings.extend(_lint_missing_stop(proc))
            findings.extend(_lint_nonconstant_trip(checked, proc))
    return findings


# ---------------------------------------------------------------------------
# REP301 / REP302 / REP306 / REP307 / REP308 — dataflow findings
# ---------------------------------------------------------------------------


def _df_use_before_def(proc: ast.Procedure, cfg, df) -> list[Diagnostic]:
    """REP301 over reaching definitions on the feasible subgraph."""
    findings: list[Diagnostic] = []
    reported: set[str] = set()
    for node_id in sorted(cfg.nodes):
        state = df.reaching.in_of.get(node_id)
        if state is None:
            continue  # unreachable along feasible edges
        facts = df.facts[node_id]
        for var in sorted(facts.uses_rd):
            if var in state or var in reported:
                continue
            reported.add(var)  # one finding per variable per procedure
            findings.append(
                diag(
                    "REP301",
                    f"{var} is read but defined on no feasible path "
                    "from entry",
                    proc=proc.name,
                    node=node_id,
                    line=cfg.nodes[node_id].line,
                )
            )
    return findings


def _df_unreachable(proc: ast.Procedure, cfg) -> list[Diagnostic]:
    """REP302 from the CFG builder's pruned-statement record."""
    findings: list[Diagnostic] = []
    for line, text in getattr(cfg, "pruned", ()):
        detail = f": {text}" if text else ""
        findings.append(
            diag(
                "REP302",
                "statement can never execute (unreachable in the "
                f"control-flow graph){detail}",
                proc=proc.name,
                line=line,
            )
        )
    return findings


def _df_constant_branches(proc: ast.Procedure, cfg, df) -> list[Diagnostic]:
    """REP307: SCCP proves the branch one-way; name the taken arm."""
    findings: list[Diagnostic] = []
    for node_id in sorted(df.constants.forced):
        label = df.constants.forced[node_id]
        node = cfg.nodes.get(node_id)
        if node is None:
            continue
        findings.append(
            diag(
                "REP307",
                "branch condition is constant on every feasible path; "
                f"always takes the {label!r} arm",
                proc=proc.name,
                node=node_id,
                line=node.line,
            )
        )
    return findings


def _df_dead_stores(
    checked: CheckedProgram, proc: ast.Procedure, cfg, df
) -> list[Diagnostic]:
    """REP306: liveness-dead stores whose evaluation cannot raise."""
    table = checked.tables[proc.name]
    findings: list[Diagnostic] = []
    for node_id in sorted(cfg.nodes):
        node = cfg.nodes[node_id]
        if node.kind is not StmtKind.ASSIGN:
            continue
        stmt = node.stmt
        if not isinstance(stmt, ast.Assign):
            continue
        if node_id not in df.constants.executable:
            continue
        target = stmt.target
        if not isinstance(target, ast.VarRef):
            continue
        live_out = df.liveness.out_of.get(node_id)
        if live_out is None or target.name in live_out:
            continue
        if not _store_is_total(stmt, table):
            continue
        findings.append(
            diag(
                "REP306",
                f"value stored to {target.name} is never read on any "
                "feasible path (dead store)",
                proc=proc.name,
                node=node_id,
                line=node.line,
            )
        )
    return findings


def _leaf_type(expr, table):
    """The static type of a total leaf, or None if not a safe leaf."""
    if isinstance(expr, ast.IntLit):
        return ast.Type.INTEGER
    if isinstance(expr, ast.RealLit):
        return ast.Type.REAL
    if isinstance(expr, ast.LogicalLit):
        return ast.Type.LOGICAL
    if isinstance(expr, ast.VarRef):
        if expr.name in table.constants:
            value = table.constants[expr.name]
            return (
                ast.Type.INTEGER if isinstance(value, int) else ast.Type.REAL
            )
        info = table.lookup(expr.name)
        if info is None or info.is_array:
            return None
        return info.type
    return None


def _pure_integer(expr, table) -> bool:
    """True when ``expr`` is arithmetic over INTEGER scalars only.

    Python integers never overflow and ADD/SUB/MUL/NEG/POS never
    raise, so evaluating (or not evaluating) such an expression is
    observationally identical as long as its value goes unused.
    """
    if isinstance(expr, ast.IntLit):
        return True
    if isinstance(expr, ast.VarRef):
        return _leaf_type(expr, table) is ast.Type.INTEGER
    if isinstance(expr, ast.Unary):
        return expr.op in (ast.UnOp.NEG, ast.UnOp.POS) and _pure_integer(
            expr.operand, table
        )
    if isinstance(expr, ast.Binary):
        return expr.op in (
            ast.BinOp.ADD,
            ast.BinOp.SUB,
            ast.BinOp.MUL,
        ) and all(_pure_integer(side, table) for side in (expr.left, expr.right))
    return False


def _store_is_total(stmt: ast.Assign, table) -> bool:
    """Can ``target = value`` provably never raise at runtime?

    No division, exponentiation, calls or array loads on the right,
    and no store coercion that can overflow.
    """
    target = stmt.target
    if not isinstance(target, ast.VarRef):
        return False
    info = table.lookup(target.name)
    if info is None or info.is_array:
        return False
    ttype = info.type

    # A single type-compatible leaf: literals coerce totally (their
    # magnitude is fixed at compile time), variables only when no
    # coercion happens at all (int(huge_int) and float(huge_int) can
    # overflow, so REAL<-INTEGER and INTEGER<-REAL are out).
    value = stmt.value
    if isinstance(value, (ast.IntLit, ast.RealLit)):
        return ttype in (ast.Type.INTEGER, ast.Type.REAL)
    if isinstance(value, ast.LogicalLit):
        return ttype is ast.Type.LOGICAL
    leaf = _leaf_type(value, table)
    if leaf is not None:
        return leaf is ttype

    # Pure-INTEGER arithmetic into an INTEGER target.
    if ttype is ast.Type.INTEGER:
        return _pure_integer(value, table)
    return False


def _df_infinite_loops(proc: ast.Procedure, cfg, df) -> list[Diagnostic]:
    """REP308: a cycle of executable nodes with no feasible way out.

    Strongly connected components over the SCCP-feasible subgraph;
    a non-trivial SCC (or feasible self-loop) that no feasible edge
    leaves can never terminate once entered.  Structurally exit-free
    loops never reach the linter (the FCDG construction rejects them
    during compilation), so in practice every finding here is a loop
    whose only exits SCCP proved infeasible.
    """
    feasible = df.constants.feasible_edges
    executable = df.constants.executable
    succ: dict[int, list[int]] = {n: [] for n in executable}
    for edge in cfg.edges:
        if (
            edge.src in executable
            and edge.dst in executable
            and (edge.src, edge.label) in feasible
        ):
            succ[edge.src].append(edge.dst)

    # Iterative Tarjan SCC over the feasible subgraph.
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = [0]

    def strongconnect(root: int) -> None:
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)

    for node_id in sorted(succ):
        if node_id not in index:
            strongconnect(node_id)

    findings: list[Diagnostic] = []
    for component in sccs:
        members = set(component)
        cyclic = len(component) > 1 or any(
            child in members for child in succ[component[0]]
        )
        if not cyclic:
            continue
        if any(
            child not in members
            for member in component
            for child in succ[member]
        ):
            continue  # some feasible edge leaves the cycle
        where = min(
            (n for n in component if cfg.nodes[n].line is not None),
            key=lambda n: cfg.nodes[n].line,
            default=min(component),
        )
        findings.append(
            diag(
                "REP308",
                "loop has no feasible exit: once entered, the program "
                "can never terminate",
                proc=proc.name,
                node=where,
                line=cfg.nodes[where].line,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# REP303 — DO index mutation
# ---------------------------------------------------------------------------


def _lint_do_index_mutation(proc: ast.Procedure) -> list[Diagnostic]:
    findings: list[Diagnostic] = []

    def scan(body: list[ast.Stmt], active: tuple[str, ...]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                target = stmt.target
                if isinstance(target, ast.VarRef) and target.name in active:
                    findings.append(
                        diag(
                            "REP303",
                            f"DO index {target.name} is assigned inside "
                            "its loop",
                            proc=proc.name,
                            line=stmt.line,
                        )
                    )
            elif isinstance(stmt, ast.DoLoop):
                if stmt.var in active:
                    findings.append(
                        diag(
                            "REP303",
                            f"nested DO reuses active index {stmt.var}",
                            proc=proc.name,
                            line=stmt.line,
                        )
                    )
                scan(stmt.body, active + (stmt.var,))
            elif isinstance(stmt, ast.DoWhile):
                scan(stmt.body, active)
            elif isinstance(stmt, ast.IfBlock):
                for _, arm in stmt.arms:
                    scan(arm, active)
                scan(stmt.else_body, active)
            elif isinstance(stmt, ast.LogicalIf):
                scan([stmt.stmt], active)

    scan(proc.body, ())
    return findings


# ---------------------------------------------------------------------------
# REP304 / REP305 — hints
# ---------------------------------------------------------------------------


def _lint_missing_stop(proc: ast.Procedure) -> list[Diagnostic]:
    if proc.kind is not ast.ProcKind.PROGRAM:
        return []
    for stmt in proc.walk_statements():
        if isinstance(stmt, ast.StopStmt):
            return []
        if isinstance(stmt, ast.LogicalIf) and isinstance(
            stmt.stmt, ast.StopStmt
        ):
            return []
    return [
        diag(
            "REP304",
            "main program ends without a STOP statement",
            proc=proc.name,
            line=proc.line,
        )
    ]


def _has_loop_exit(body: list[ast.Stmt]) -> bool:
    """True when the body can leave the loop other than by completing."""
    for stmt in body:
        if isinstance(
            stmt,
            (ast.Goto, ast.ReturnStmt, ast.StopStmt, ast.ArithmeticIf,
             ast.ComputedGoto),
        ):
            return True
        if isinstance(stmt, ast.LogicalIf) and isinstance(
            stmt.stmt,
            (ast.Goto, ast.ReturnStmt, ast.StopStmt),
        ):
            return True
        if isinstance(stmt, ast.IfBlock):
            if any(_has_loop_exit(arm) for _, arm in stmt.arms):
                return True
            if _has_loop_exit(stmt.else_body):
                return True
        elif isinstance(stmt, (ast.DoLoop, ast.DoWhile)):
            if _has_loop_exit(stmt.body):
                return True
    return False


def _lint_nonconstant_trip(
    checked: CheckedProgram, proc: ast.Procedure
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for stmt in proc.walk_statements():
        if not isinstance(stmt, ast.DoLoop):
            continue
        if _has_loop_exit(stmt.body):
            continue  # Opt 3 does not apply anyway
        if _constant_trip(stmt, checked, proc.name) is None:
            findings.append(
                diag(
                    "REP305",
                    f"trip count of DO {stmt.var} is not a compile-time "
                    "constant; the loop keeps a batched counter "
                    "(counter-free Opt 3 disabled)",
                    proc=proc.name,
                    line=stmt.line,
                )
            )
    return findings
