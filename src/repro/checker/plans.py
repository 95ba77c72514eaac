"""Counter-plan soundness verification (REP2xx).

A counter plan is trusted by the reconstruction engine: the runtime
increments exactly the counters the plan names, and every dropped
measure is recovered through the plan's derivation rules.  A corrupted
plan therefore produces silently wrong profiles — the worst failure
mode of the whole framework.  These checks re-derive the ground truth
from the artifacts and compare:

* **REP201** — the full target measure set must lie in the rule
  closure of the measured counter set (the plan can reconstruct every
  ``TOTAL_FREQ(u, l)`` symbolically), by :meth:`RuleSet.closure`,
  the engine placement and reconstruction also use;
* **REP202** — every recorded derivation rule must be a genuine flow
  conservation law of the graphs: exec-sums are regenerated from the
  FCDG, Opt-2 complement/back-edge/exit sums from the ECFG and its
  intervals, and Opt-3 constant-trip rules are re-derived from the
  AST.  A rule the generator would not produce is a corruption;
* **REP203** — the plan's target list must cover exactly the control
  conditions the FCDG demands (nothing missing, nothing foreign);
* **REP204** — Opt-3 batch counters may only hang off the DO_INIT of
  an *exit-free* DO loop (the paper's no-loop-exit precondition);
* **REP205** — registry integrity: every placed counter id exists,
  ids are not shared, and each counter sits at the location its
  measure describes;
* **REP206** — the plan and the program must cover the same
  procedures.
"""

from __future__ import annotations

from repro.cfg.graph import StmtKind, is_pseudo_label
from repro.checker.diagnostics import Diagnostic, diag
from repro.lang import ast
from repro.profiling.measures import (
    RuleSet,
    block_measure,
    cond_measure,
    exec_measure,
    header_measure,
    invoc_measure,
)
from repro.profiling.placement import (
    _constant_trip,
    _exec_rules,
    _exit_free_do_init,
    _sum_constraint_rules,
    basic_blocks,
)


def check_program_plan(program, plan) -> list[Diagnostic]:
    """All plan findings (REP2xx + REP4xx) for one :class:`ProgramPlan`."""
    findings: list[Diagnostic] = []
    plan_procs = set(plan.plans)
    program_procs = set(program.cfgs)
    for name in sorted(program_procs - plan_procs):
        findings.append(
            diag("REP206", f"no counter plan for procedure {name}", proc=name)
        )
    for name in sorted(plan_procs - program_procs):
        findings.append(
            diag(
                "REP206",
                f"plan names unknown procedure {name}",
                proc=name,
            )
        )
    for name in sorted(plan_procs & program_procs):
        findings.extend(_check_procedure_plan(program, name, plan.plans[name]))
    # REP4xx: the dense slot tables the codegen backend lowers the
    # plan to must stay one-to-one with the measured counter set, and
    # its emitted bump sites must realize exactly the planned counters.
    from repro.checker.slots import check_codegen_bumps, check_slot_tables

    findings.extend(check_slot_tables(plan))
    findings.extend(check_codegen_bumps(program, plan))
    return findings


def _check_procedure_plan(program, name: str, plan) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    cfg = program.cfgs[name]
    fcdg = program.fcdgs[name]

    out.extend(_check_registries(cfg, plan, name))
    if plan.kind == "smart":
        out.extend(_check_smart_targets(fcdg, plan, name))
        out.extend(_check_rules(program, name, plan))
        out.extend(_check_batching(program, name, plan))
    elif plan.kind == "naive":
        out.extend(_check_naive_targets(cfg, plan, name))

    # REP201 last: with rules and registries individually validated,
    # the closure check certifies end-to-end reconstructibility.
    closure = plan.rules.closure(plan.measured())
    missing = [t for t in plan.targets if t not in closure]
    if missing:
        out.append(
            diag(
                "REP201",
                f"targets not derivable from the counter set: "
                f"{sorted(map(str, missing))}",
                proc=name,
            )
        )
    return out


# ---------------------------------------------------------------------------
# REP205 — registry integrity
# ---------------------------------------------------------------------------


def _check_registries(cfg, plan, name: str) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    seen: dict[int, str] = {}

    def claim(cid: int, where: str, node: int | None = None) -> bool:
        if cid in seen:
            out.append(
                diag(
                    "REP205",
                    f"counter {cid} placed twice ({seen[cid]} and {where})",
                    proc=name,
                    node=node,
                )
            )
            return False
        seen[cid] = where
        if cid not in plan.counter_measures:
            out.append(
                diag(
                    "REP205",
                    f"counter {cid} at {where} has no measure "
                    "(deleted or never allocated)",
                    proc=name,
                    node=node,
                )
            )
            return False
        if not (0 <= cid < plan.id_space):
            out.append(
                diag(
                    "REP205",
                    f"counter id {cid} outside the plan's id space "
                    f"[0, {plan.id_space})",
                    proc=name,
                    node=node,
                )
            )
            return False
        return True

    for node, cid in sorted(plan.node_counters.items()):
        if not claim(cid, f"node {node}", node):
            continue
        measure = plan.counter_measures[cid]
        if node not in cfg.nodes:
            out.append(
                diag(
                    "REP205",
                    f"node counter {cid} placed on unknown node {node}",
                    proc=name,
                    node=node,
                )
            )
        elif measure == invoc_measure():
            if node != cfg.entry:
                out.append(
                    diag(
                        "REP205",
                        f"invocation counter {cid} not on the entry node",
                        proc=name,
                        node=node,
                    )
                )
        elif measure[0] == "header":
            if measure[1] != node:
                out.append(
                    diag(
                        "REP205",
                        f"header counter {cid} for {measure[1]} placed on "
                        f"node {node}",
                        proc=name,
                        node=node,
                    )
                )
        elif measure[0] == "block":
            if measure[1] != node:
                out.append(
                    diag(
                        "REP205",
                        f"block counter {cid} for leader {measure[1]} "
                        f"placed on node {node}",
                        proc=name,
                        node=node,
                    )
                )
        else:
            out.append(
                diag(
                    "REP205",
                    f"node counter {cid} carries unexpected measure "
                    f"{measure}",
                    proc=name,
                    node=node,
                )
            )

    for (src, label), cid in sorted(plan.edge_counters.items()):
        if not claim(cid, f"edge ({src}, {label!r})", src):
            continue
        measure = plan.counter_measures[cid]
        if measure != cond_measure(src, label):
            out.append(
                diag(
                    "REP205",
                    f"edge counter {cid} at ({src}, {label!r}) carries "
                    f"measure {measure}",
                    proc=name,
                    node=src,
                )
            )
        if src not in cfg.nodes or label not in cfg.out_labels(src):
            out.append(
                diag(
                    "REP205",
                    f"edge counter {cid} placed on nonexistent edge "
                    f"({src}, {label!r})",
                    proc=name,
                    node=src,
                )
            )

    for node, entries in sorted(plan.batch_counters.items()):
        for cid, offset in entries:
            claim(cid, f"batch at node {node}", node)
        if node not in cfg.nodes:
            out.append(
                diag(
                    "REP205",
                    f"batch counters placed on unknown node {node}",
                    proc=name,
                    node=node,
                )
            )
    return out


# ---------------------------------------------------------------------------
# REP203 — target completeness (smart plans)
# ---------------------------------------------------------------------------


def _expected_smart_targets(fcdg) -> set:
    ecfg = fcdg.ecfg
    targets = {invoc_measure()}
    for node, label in fcdg.conditions():
        if is_pseudo_label(label) or node == ecfg.start:
            continue
        if ecfg.is_preheader(node):
            targets.add(header_measure(ecfg.header_of[node]))
        else:
            targets.add(cond_measure(node, label))
    return targets


def _check_smart_targets(fcdg, plan, name: str) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    expected = _expected_smart_targets(fcdg)
    actual = set(plan.targets)
    for measure in sorted(expected - actual, key=str):
        out.append(
            diag(
                "REP203",
                f"profile target {measure} missing from the plan",
                proc=name,
            )
        )
    for measure in sorted(actual - expected, key=str):
        out.append(
            diag(
                "REP203",
                f"plan targets {measure}, which no FCDG condition demands",
                proc=name,
            )
        )
    return out


def _check_naive_targets(cfg, plan, name: str) -> list[Diagnostic]:
    expected = {block_measure(leader) for leader in basic_blocks(cfg)}
    actual = set(plan.targets)
    out: list[Diagnostic] = []
    if expected != actual:
        missing = sorted(expected - actual, key=str)
        extra = sorted(actual - expected, key=str)
        out.append(
            diag(
                "REP203",
                f"naive plan target set mismatch "
                f"(missing={missing}, extra={extra})",
                proc=name,
            )
        )
    return out


# ---------------------------------------------------------------------------
# REP202 — every recorded rule is a real flow conservation law
# ---------------------------------------------------------------------------


def _check_rules(program, name: str, plan) -> list[Diagnostic]:
    fcdg = program.fcdgs[name]
    out: list[Diagnostic] = []

    regenerated = RuleSet()
    _exec_rules(fcdg, regenerated)
    _sum_constraint_rules(fcdg, regenerated)
    # Placement records exactly the regenerated laws, in order, around
    # its const_trip rules: one list comparison then certifies them.
    recorded = [r for r in plan.rules.rules if r.kind != "const_trip"]
    valid = None if recorded == regenerated.rules else set(regenerated.rules)

    for rule in plan.rules.rules:
        if rule.kind == "const_trip":
            out.extend(_check_const_trip_rule(program, name, rule))
        elif valid is not None and rule not in valid:
            out.append(
                diag(
                    "REP202",
                    f"{rule.kind} rule for {rule.target} does not match "
                    "any flow conservation law of the graphs",
                    proc=name,
                )
            )
    return out


def _check_const_trip_rule(program, name: str, rule) -> list[Diagnostic]:
    cfg = program.cfgs[name]
    ecfg = program.ecfgs[name]
    intervals = ecfg.intervals

    def bad(message: str) -> Diagnostic:
        return diag("REP202", message, proc=name)

    if rule.target[0] != "header":
        return [bad(f"const_trip rule targets {rule.target}, not a header")]
    header = rule.target[1]
    header_node = cfg.nodes.get(header)
    if header_node is None or header_node.kind is not StmtKind.DO_TEST:
        return [bad(f"const_trip rule for non-DO header {header}")]
    if _exit_free_do_init(cfg, intervals, header) is None:
        return [
            diag(
                "REP204",
                f"const_trip rule for loop {header}, which is not "
                "exit-free",
                proc=name,
                node=header,
            )
        ]
    stmt = header_node.stmt
    assert isinstance(stmt, ast.DoLoop)
    trip = _constant_trip(stmt, program.checked, name)
    if trip is None:
        return [
            bad(
                f"const_trip rule for loop {header} whose trip count is "
                "not a compile-time constant"
            )
        ]
    preheader = ecfg.preheader_of.get(header)
    expected_terms = ((float(trip + 1), exec_measure(preheader)),)
    if rule.terms != expected_terms or rule.bias != 0.0:
        return [
            bad(
                f"const_trip rule for loop {header} expects "
                f"{trip + 1} x exec(preheader {preheader}), recorded "
                f"{rule.terms}"
            )
        ]
    return []


# ---------------------------------------------------------------------------
# REP204 — Opt-3 batching preconditions
# ---------------------------------------------------------------------------


def _check_batching(program, name: str, plan) -> list[Diagnostic]:
    cfg = program.cfgs[name]
    ecfg = program.ecfgs[name]
    intervals = ecfg.intervals
    out: list[Diagnostic] = []

    for node, entries in sorted(plan.batch_counters.items()):
        node_obj = cfg.nodes.get(node)
        if node_obj is None or node_obj.kind is not StmtKind.DO_INIT:
            out.append(
                diag(
                    "REP204",
                    f"batch counters attached to node {node}, which is "
                    "not a DO_INIT",
                    proc=name,
                    node=node,
                )
            )
            continue
        for cid, offset in entries:
            measure = plan.counter_measures.get(cid)
            if measure is None:
                continue  # REP205 already reported the dangling id
            if measure[0] != "header":
                out.append(
                    diag(
                        "REP204",
                        f"batch counter {cid} carries {measure}, not a "
                        "loop-frequency measure",
                        proc=name,
                        node=node,
                    )
                )
                continue
            header = measure[1]
            if offset != 1:
                out.append(
                    diag(
                        "REP204",
                        f"batch counter {cid} for loop {header} uses "
                        f"offset {offset} (header executions are trip+1)",
                        proc=name,
                        node=node,
                    )
                )
            if _exit_free_do_init(cfg, intervals, header) != node:
                out.append(
                    diag(
                        "REP204",
                        f"batch counter {cid} for loop {header} placed on "
                        f"DO_INIT {node}, but the loop is not exit-free "
                        "(or not this loop's init)",
                        proc=name,
                        node=node,
                    )
                )
    return out
