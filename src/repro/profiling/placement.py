"""Counter placement plans (Section 3).

Two families of plans:

* :func:`naive_plan` — one counter per basic block, with the paper's
  caveat that the DO-loop batching trick is applied "only when the
  body consists of straight-line code";
* :func:`smart_plan` — the optimized scheme:

  - **Opt 1**: one counter per FCDG *control condition* rather than
    per basic block (identically control-dependent blocks share);
  - **Opt 2**: drop counters whose values follow from sum
    constraints — one branch label per fully-covered branch node, the
    loop-frequency counter when back-edge takings are derivable, one
    exit condition per loop when the rest are derivable;
  - **Opt 3**: for exit-free DO loops, add the trip count once at
    loop entry instead of counting header executions per iteration;
    when the trip count is a compile-time constant, keep no counter.

Every drop is validated symbolically: a counter is only removed when
its measure stays derivable from the counters that remain.  Every
counter measures a target and the rule closure is monotone, so that
local test is the same as asking that the full target set stays in
:meth:`RuleSet.closure`, the engine reconstruction and the checker's
REP201 read; it only searches the measure's backward rule cone, so
placement stays linear in the procedure.  One full closure of the
final counters then checks the finished plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProfilingError
from repro.lang import ast
from repro.lang.symbols import CheckedProgram
from repro.cdg.fcdg import FCDG
from repro.cfg.graph import (
    LABEL_FALSE,
    ControlFlowGraph,
    StmtKind,
    is_pseudo_label,
)
from repro.profiling.measures import (
    DerivedRule,
    Measure,
    RuleSet,
    block_measure,
    cond_measure,
    exec_measure,
    header_measure,
    invoc_measure,
)


@dataclass
class CounterPlan:
    """A counter placement for one procedure.

    Counter ids are small integers.  The runtime actions:

    * ``edge_counters[(u, l)] = cid`` — increment when edge taken;
    * ``node_counters[u] = cid``      — increment when node executes;
    * ``batch_counters[do_init] = [(cid, offset), ...]`` — when the
      DO_INIT node executes with iteration count *trip*, add
      ``trip + offset`` to each counter.
    """

    proc: str
    kind: str
    edge_counters: dict[tuple[int, str], int] = field(default_factory=dict)
    node_counters: dict[int, int] = field(default_factory=dict)
    batch_counters: dict[int, list[tuple[int, int]]] = field(
        default_factory=dict
    )
    #: counter id -> the measure its final value equals.
    counter_measures: dict[int, Measure] = field(default_factory=dict)
    #: rules recovering dropped / derived measures.
    rules: RuleSet = field(default_factory=RuleSet)
    #: all measures a full profile needs (reconstruction targets).
    targets: list[Measure] = field(default_factory=list)
    _next_id: int = 0

    @property
    def n_counters(self) -> int:
        """Live counters (allocated ids minus dropped ones)."""
        return len(self.counter_measures)

    @property
    def id_space(self) -> int:
        """Upper bound on counter ids (dropped ids are not reused)."""
        return self._next_id

    def new_counter(self, measure: Measure) -> int:
        cid = self._next_id
        self._next_id += 1
        self.counter_measures[cid] = measure
        return cid

    def measured(self) -> set[Measure]:
        return set(self.counter_measures.values())


@dataclass
class ProgramPlan:
    """Counter plans for every procedure of a program."""

    kind: str
    plans: dict[str, CounterPlan] = field(default_factory=dict)

    @property
    def n_counters(self) -> int:
        return sum(plan.n_counters for plan in self.plans.values())


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _exec_rules(fcdg: FCDG, rules: RuleSet) -> None:
    """exec(n) = Σ parent condition counts, for every FCDG node."""
    ecfg = fcdg.ecfg
    start = ecfg.start
    header_of = ecfg.header_of
    root = fcdg.root
    add = rules.add
    invoc = invoc_measure()
    for node in fcdg.nodes:
        if node == root:
            add(DerivedRule(exec_measure(node), "exec", ((1.0, invoc),)))
            continue
        terms: list[tuple[float, object]] = []
        for edge in fcdg.parents(node):
            src = edge.src
            if is_pseudo_label(edge.label):
                terms.append((1.0, 0.0))  # pseudo conditions never fire
            elif src == start:
                terms.append((1.0, invoc))
            elif src in header_of:
                terms.append((1.0, header_measure(header_of[src])))
            else:
                terms.append((1.0, cond_measure(src, edge.label)))
        add(DerivedRule(exec_measure(node), "exec", tuple(terms)))


def _sum_constraint_rules(fcdg: FCDG, rules: RuleSet) -> None:
    """The Opt-2 sum constraints, as general derivation rules.

    * complement, for every label of every branching node:
      ``cond(u, l) = exec(u) − Σ_{l'≠l} cond(u, l')``;
    * loop frequency from back edges:
      ``header(h) = exec(preheader) + Σ back-edge takings``;
    * exit sums (each loop entry exits exactly once):
      ``cond(exit e) = exec(preheader) − Σ other exits' takings``.

    Which constraints are *used* is decided later: a counter is only
    dropped when its measure stays derivable.  The takings of CFG
    edge (u, l) are ``exec(u)`` when u has one successor, else the
    label's ``cond`` measure (a valid unknown even when no FCDG
    condition exists for it — the complement rules define it).
    """
    ecfg = fcdg.ecfg
    intervals = ecfg.intervals
    graph = ecfg.graph
    add = rules.add
    labels_of: dict[int, list[str]] = {}
    for node in intervals.cfg.nodes:
        labels = labels_of[node] = graph.out_labels(node)
        if len(labels) < 2:
            continue
        conds = [cond_measure(node, label) for label in labels]
        for dropped in conds:
            terms = [(1.0, exec_measure(node))]
            terms += [(-1.0, cond) for cond in conds if cond is not dropped]
            add(DerivedRule(dropped, "complement", tuple(terms)))

    def taken(edge) -> Measure:
        if len(labels_of[edge.src]) == 1:
            return exec_measure(edge.src)
        return cond_measure(edge.src, edge.label)

    for header in intervals.loop_headers:
        entries = (1.0, exec_measure(ecfg.preheader_of[header]))
        back_terms = [entries]
        back_terms += [
            (1.0, taken(edge)) for edge in intervals.loop_back_edges[header]
        ]
        add(
            DerivedRule(
                header_measure(header), "backedge_sum", tuple(back_terms)
            )
        )
        exits = intervals.loop_exits[header]
        takings = [(-1.0, taken(edge)) for edge in exits]
        for k, dropped_edge in enumerate(exits):
            if len(labels_of[dropped_edge.src]) < 2:
                continue  # its takings equal an exec measure anyway
            terms = [entries]
            terms += [term for j, term in enumerate(takings) if j != k]
            add(
                DerivedRule(
                    cond_measure(dropped_edge.src, dropped_edge.label),
                    "exit_sum",
                    tuple(terms),
                )
            )


def _constant_trip(stmt: ast.DoLoop, checked: CheckedProgram, proc: str) -> int | None:
    """The compile-time trip count of a DO loop, if it has one."""
    table = checked.tables[proc]

    def const_value(expr: ast.Expr | None):
        if expr is None:
            return 1
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.RealLit):
            return expr.value
        if isinstance(expr, ast.VarRef) and expr.name in table.constants:
            return table.constants[expr.name]
        if isinstance(expr, ast.Unary) and expr.op is ast.UnOp.NEG:
            inner = const_value(expr.operand)
            return None if inner is None else -inner
        return None

    start = const_value(stmt.start)
    stop = const_value(stmt.stop)
    step = const_value(stmt.step)
    if start is None or stop is None or step is None or step == 0:
        return None
    span = stop - start + step
    if isinstance(span, int) and isinstance(step, int):
        quotient = abs(span) // abs(step)
        trip = quotient if (span >= 0) == (step >= 0) else -quotient
    else:
        trip = int(span / step)
    return max(0, trip)


# ---------------------------------------------------------------------------
# The optimized (smart) plan
# ---------------------------------------------------------------------------


def smart_plan(
    checked: CheckedProgram,
    cfg: ControlFlowGraph,
    fcdg: FCDG,
    *,
    enable_drops: bool = True,
    enable_do_batch: bool = True,
) -> CounterPlan:
    """Build the optimized counter plan for one procedure.

    ``enable_drops`` toggles Opt 2 and ``enable_do_batch`` Opt 3, so
    ablation benchmarks can measure each optimization separately
    (Opt 1 — conditions instead of basic blocks — is inherent).
    """
    ecfg = fcdg.ecfg
    intervals = ecfg.intervals
    plan = CounterPlan(proc=cfg.name, kind="smart")
    _exec_rules(fcdg, plan.rules)

    conditions: set[tuple[int, str]] = set()
    branch_conditions: list[tuple[int, str]] = []
    headers: list[int] = []
    for node, label in fcdg.conditions():
        if is_pseudo_label(label):
            continue
        if node == ecfg.start:
            continue  # measured by the invocation counter
        if ecfg.is_preheader(node):
            headers.append(ecfg.header_of[node])
            continue
        conditions.add((node, label))
        branch_conditions.append((node, label))

    # Targets: what a complete profile must contain.
    plan.targets = (
        [invoc_measure()]
        + [cond_measure(u, l) for u, l in branch_conditions]
        + [header_measure(h) for h in headers]
    )

    # Opt 1 base placement: one counter per control condition.
    plan.node_counters[cfg.entry] = plan.new_counter(invoc_measure())
    for node, label in branch_conditions:
        plan.edge_counters[(node, label)] = plan.new_counter(
            cond_measure(node, label)
        )

    # Loop-frequency counters, with Opt 3 batching where it applies.
    batched: set[int] = set()
    for header in headers:
        header_node = ecfg.graph.nodes[header]
        do_init = _exit_free_do_init(cfg, intervals, header)
        if enable_do_batch and header_node.kind is StmtKind.DO_TEST and (
            do_init is not None
        ):
            stmt = header_node.stmt
            assert isinstance(stmt, ast.DoLoop)
            trip = _constant_trip(stmt, checked, cfg.name)
            preheader = ecfg.preheader_of[header]
            if trip is not None:
                # Constant trip: no counter at all (second half of Opt 3).
                plan.rules.add(
                    DerivedRule(
                        target=header_measure(header),
                        kind="const_trip",
                        terms=((float(trip + 1), exec_measure(preheader)),),
                    )
                )
                batched.add(header)
                continue
            cid = plan.new_counter(header_measure(header))
            plan.batch_counters.setdefault(do_init, []).append((cid, 1))
            batched.add(header)
            continue
        plan.node_counters[header] = plan.new_counter(header_measure(header))

    # Opt 2: the sum constraints hold whether or not we exploit them;
    # record them all, then greedily drop counters as long as each
    # dropped measure stays derivable.
    _sum_constraint_rules(fcdg, plan.rules)
    if enable_drops:
        producers = _producers(plan.rules)
        known = plan.measured()
        for header in sorted(h for h in headers if h in plan.node_counters):
            _try_drop(plan, plan.node_counters, header, known, producers)
        for key in _edge_drop_order(plan):
            _try_drop(plan, plan.edge_counters, key, known, producers)

    _validate_plan(plan)
    return plan


def _edge_drop_order(plan: CounterPlan) -> list[tuple[int, str]]:
    """Candidate drop order for edge counters: F labels first (the
    usually-hotter fall-through), then lexicographic."""
    keys = sorted(plan.edge_counters)
    return sorted(keys, key=lambda k: (k[0], k[1] != LABEL_FALSE, k[1]))


def _exit_free_do_init(cfg, intervals, header: int) -> int | None:
    """The DO_INIT node of an exit-free DO loop, else None.

    "Exit-free" in the paper's Opt-3 sense: the only way out of the
    interval is the DO test's normal completion (its F edge).
    """
    header_node = cfg.nodes.get(header)
    if header_node is None or header_node.kind is not StmtKind.DO_TEST:
        return None
    for edge in intervals.loop_exits[header]:
        if edge.src != header or edge.label != LABEL_FALSE:
            return None
    for edge in cfg.in_edges(header):
        source = cfg.nodes[edge.src]
        if (
            source.kind is StmtKind.DO_INIT
            and source.trip_var == header_node.trip_var
        ):
            return edge.src
    return None


def _producers(rules: RuleSet) -> dict[Measure, list[DerivedRule]]:
    """The rules deriving each measure, by target."""
    producers: dict[Measure, list[DerivedRule]] = {}
    for rule in rules.rules:
        producers.setdefault(rule.target, []).append(rule)
    return producers


def _derivable(goal: Measure, known: set[Measure], producers) -> bool:
    """Whether ``goal`` is in the rule closure of ``known``.

    Only ``goal``'s backward cone is searched: the rules deriving it,
    then the rules deriving their unknown dependencies, and so on; the
    closure of the cone's rules over the known measures they read
    then decides.
    """
    cone = RuleSet()
    inputs: set[Measure] = set()
    seen = {goal}
    stack = [goal]
    while stack:
        for rule in producers.get(stack.pop(), ()):
            cone.add(rule)
            for _, term in rule.terms:
                if not isinstance(term, tuple) or term in seen:
                    continue
                if term in known:
                    inputs.add(term)
                else:
                    seen.add(term)
                    stack.append(term)
    return goal in cone.closure(inputs)


def _try_drop(
    plan: CounterPlan, registry: dict, key, known: set[Measure], producers
) -> bool:
    """Drop a counter if its measure is derivable from the others.

    ``known`` is the measured set, kept in step with the plan.  Every
    counter measures a target, every target is in the closure of
    ``known`` and the closure is monotone, so "``m`` is derivable from
    ``known − {m}``" is the same test as "every target stays in the
    closure of ``known − {m}``".
    """
    cid = registry[key]
    measure = plan.counter_measures[cid]
    known.discard(measure)
    if not _derivable(measure, known, producers):
        known.add(measure)
        return False
    del registry[key]
    del plan.counter_measures[cid]
    return True


def _validate_plan(plan: CounterPlan) -> None:
    """Every target is in the rule closure of the final counters: one
    full closure per plan, which checks the drops without trusting
    the local test."""
    closure = plan.rules.closure(plan.measured())
    missing = [t for t in plan.targets if t not in closure]
    if missing:
        raise ProfilingError(
            f"{plan.proc}: plan cannot reconstruct measures {missing}"
        )


# ---------------------------------------------------------------------------
# The naive plan
# ---------------------------------------------------------------------------


def basic_blocks(cfg: ControlFlowGraph) -> dict[int, list[int]]:
    """Basic blocks of the statement-level CFG: leader -> members."""
    leaders: set[int] = {cfg.entry}
    for node in cfg.nodes:
        preds = cfg.in_edges(node)
        if len(preds) != 1:
            leaders.add(node)
        elif len(cfg.out_edges(preds[0].src)) > 1:
            leaders.add(node)
    blocks: dict[int, list[int]] = {}
    for leader in leaders:
        members = [leader]
        cursor = leader
        while True:
            outs = cfg.out_edges(cursor)
            if len(outs) != 1:
                break
            nxt = outs[0].dst
            if nxt in leaders:
                break
            members.append(nxt)
            cursor = nxt
        blocks[leader] = members
    return blocks


def naive_plan(
    checked: CheckedProgram,
    cfg: ControlFlowGraph,
    *,
    straightline_do_opt: bool = True,
) -> CounterPlan:
    """One counter per basic block (the paper's Table-1 baseline).

    With ``straightline_do_opt`` (the paper's configuration), a DO
    loop whose body is straight-line code has its body-block and
    test-block counters replaced by two batched adds at loop entry.
    """
    plan = CounterPlan(proc=cfg.name, kind="naive")
    blocks = basic_blocks(cfg)
    block_of: dict[int, int] = {}
    for leader, members in blocks.items():
        for member in members:
            block_of[member] = leader

    batched_blocks: set[int] = set()
    if straightline_do_opt:
        for node in cfg:
            if node.kind is not StmtKind.DO_INIT:
                continue
            stmt = node.stmt
            assert isinstance(stmt, ast.DoLoop)
            if not _is_straightline_body(stmt.body):
                continue
            test = next(
                (
                    e.dst
                    for e in cfg.out_edges(node.id)
                    if cfg.nodes[e.dst].kind is StmtKind.DO_TEST
                ),
                None,
            )
            if test is None:
                continue
            body_leader = next(
                (
                    e.dst
                    for e in cfg.out_edges(test)
                    if e.label == "T"
                ),
                None,
            )
            test_block = block_of[test]
            # Header executions: trip + 1 per entry.
            cid = plan.new_counter(block_measure(test_block))
            plan.batch_counters.setdefault(node.id, []).append((cid, 1))
            batched_blocks.add(test_block)
            if body_leader is not None:
                body_block = block_of[body_leader]
                if body_block not in batched_blocks:
                    cid = plan.new_counter(block_measure(body_block))
                    plan.batch_counters.setdefault(node.id, []).append(
                        (cid, 0)
                    )
                    batched_blocks.add(body_block)

    for leader in sorted(blocks):
        if leader in batched_blocks:
            continue
        plan.node_counters[leader] = plan.new_counter(block_measure(leader))
    plan.targets = [block_measure(leader) for leader in sorted(blocks)]
    return plan


def _is_straightline_body(body: list[ast.Stmt]) -> bool:
    allowed = (ast.Assign, ast.CallStmt, ast.PrintStmt, ast.ContinueStmt)
    return all(isinstance(stmt, allowed) for stmt in body)
