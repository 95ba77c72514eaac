"""REP4xx: counter-slot-table validation (the codegen bump layout).

The codegen backend lowers every counter plan to dense slot tables
(:mod:`repro.codegen.plans`); a table is sound when each measured
counter is written by exactly one runtime site and every written slot
backs a measured counter.  This module turns the lowering's
:class:`~repro.codegen.plans.SlotFault` records into stable checker
diagnostics so broken tables are caught by the same gate (``repro
check``, cache ``verify_loads``, batch ``--verify``) as every other
artifact defect.

REP405 extends the same audit to the codegen backend's *emitted
source*: every ``slots[i] += ...`` bump site the emitter folded into
the text must correspond to a planned site, and every planned site on
emitter-reachable code must have been emitted.  A miscompiled emitter
(wrong slot index, dropped or duplicated bump) is caught statically,
before any run diverges.
"""

from __future__ import annotations

from repro.cfg.graph import StmtKind
from repro.checker.diagnostics import Diagnostic, diag
from repro.codegen.plans import lower_counter_plan, validate_slot_table

#: SlotFault.kind -> diagnostic code.
_FAULT_CODES = {
    "orphan": "REP401",
    "unmapped": "REP402",
    "duplicate": "REP403",
    "range": "REP404",
}


def check_slot_tables(plan) -> list[Diagnostic]:
    """All REP401-404 findings for one :class:`ProgramPlan`."""
    findings: list[Diagnostic] = []
    for name in sorted(plan.plans):
        proc_plan = plan.plans[name]
        table = lower_counter_plan(proc_plan)
        for fault in validate_slot_table(proc_plan, table):
            findings.append(
                diag(_FAULT_CODES[fault.kind], fault.detail, proc=name)
            )
    return findings


def check_codegen_bumps(program, plan) -> list[Diagnostic]:
    """REP405: audit the codegen backend's emitted bump sites.

    Emits the profiled variant for ``plan`` (cached by plan
    fingerprint) and compares its recorded ``slots[`` sites against
    the plan's lowered slot tables.  A program the emitter cannot
    lower produces no findings — there is no emitted source to audit,
    and backend auto-selection never runs codegen for it.
    """
    from repro.codegen import LoweringError, codegen_backend_for

    backend = codegen_backend_for(program)
    try:
        meta = backend.emit_meta(plan)
    except LoweringError:
        return []
    return audit_bump_sites(program, plan, meta)


def audit_bump_sites(program, plan, meta) -> list[Diagnostic]:
    """Compare an emission's bump metadata against the plan's tables.

    Split from :func:`check_codegen_bumps` so the mutation-kill suite
    can audit deliberately miscompiled emissions directly.
    """
    findings: list[Diagnostic] = []
    for name in sorted(plan.plans):
        table = lower_counter_plan(plan.plans[name])
        cfg = program.cfgs[name]
        reachable = meta.reachable.get(name, set())
        emitted = {
            (slot, kind, where)
            for slot, kind, where in meta.bumps.get(name, ())
        }
        planned_all: set[tuple] = set()
        planned_live: set[tuple] = set()

        def add(site, nid):
            planned_all.add(site)
            # STOP raises before its on_node event fires, so the
            # reference never bumps a counter there either.
            node = cfg.nodes.get(nid)
            stopped = node is not None and node.kind is StmtKind.STOP
            if nid in reachable and not stopped:
                planned_live.add(site)

        for nid, slot in table.node_slots.items():
            add((slot, "node", nid), nid)
        for (nid, label), slot in table.edge_slots.items():
            add((slot, "edge", (nid, label)), nid)
        for nid, pairs in table.batch_slots.items():
            for slot, _offset in pairs:
                add((slot, "batch", nid), nid)

        for site in sorted(emitted - planned_all, key=repr):
            slot, kind, where = site
            findings.append(
                diag(
                    "REP405",
                    f"emitted {kind} bump of slot {slot} at {where!r} "
                    "matches no planned site",
                    proc=name,
                )
            )
        for site in sorted(planned_live - emitted, key=repr):
            slot, kind, where = site
            findings.append(
                diag(
                    "REP405",
                    f"planned {kind} counter in slot {slot} at {where!r} "
                    "has no emitted bump site",
                    proc=name,
                )
            )
    return findings
