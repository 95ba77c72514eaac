"""REP5xx: Ball–Larus path-plan validation.

A path plan is trusted twice over: the runtime bumps ``paths[r]``
at whatever id the increments steer the register to, and the
reconstruction engine turns those ids back into edge frequencies.  A
corrupted plan therefore produces silently wrong profiles, exactly
like a corrupted counter plan.  These checks re-derive the ground
truth from the plan's own decode table (``choices`` — the ordered DAG
skeleton the numbering walked) and compare:

* **REP501** — the numbering must be a bijection onto
  ``[0, NumPaths)``: re-running the NumPaths recurrence over the
  decode table must reproduce ``num_paths`` and every stored edge
  increment, and (below an enumeration cap) every id must decode to a
  distinct path whose increment/flush constants re-sum to that id;
* **REP502** — flush coverage: the flush table must cover *exactly*
  the CFG's back edges, each ``bump_add`` must equal its dummy
  ``u → EXIT`` increment, each ``reset`` the dummy ``ENTRY → h``
  increment of its own header, and the non-EXIT DAG sinks must be
  exactly ``stop_sinks`` (the nodes whose register is flushed as a
  complete path on halt);
* **REP503** — the codegen backend's emitted path-update sites
  (register increments, back-edge flushes, EXIT/STOP settles) must
  map one-to-one onto the plan, mirroring REP405 for counter bumps.
"""

from __future__ import annotations

from repro.cfg.graph import StmtKind
from repro.cfg.reducibility import back_edges
from repro.checker.diagnostics import Diagnostic, diag
from repro.paths.numbering import (
    _KIND_EDGE,
    _KIND_ENTRY_DUMMY,
    _KIND_EXIT_DUMMY,
)

#: Full-enumeration bijection checking is bounded; wider procedures
#: rely on the algebraic recurrence audit alone.
ENUMERATION_CAP = 4096


def check_path_plan(program, plan) -> list[Diagnostic]:
    """All path-plan findings (REP206 + REP5xx) for one program."""
    findings: list[Diagnostic] = []
    plan_procs = set(plan.plans)
    program_procs = set(program.cfgs)
    for name in sorted(program_procs - plan_procs):
        findings.append(
            diag("REP206", f"no path plan for procedure {name}", proc=name)
        )
    for name in sorted(plan_procs - program_procs):
        findings.append(
            diag(
                "REP206",
                f"path plan names unknown procedure {name}",
                proc=name,
            )
        )
    for name in sorted(plan_procs & program_procs):
        findings.extend(
            _check_proc_numbering(program.cfgs[name], plan.plans[name])
        )
    findings.extend(check_codegen_path_sites(program, plan))
    return findings


def _recompute_numbering(plan):
    """Re-run the NumPaths recurrence over the plan's decode table.

    Returns ``(num_paths, edge_incs, exit_dummy_incs, entry_dummy_incs,
    sinks)`` — the per-node path counts and the increment every DAG
    edge *should* carry, derived independently of the stored
    ``increments``/``flushes`` tables.
    """
    nodes = set(plan.choices)
    for options in plan.choices.values():
        for _inc, kind, data in options:
            if kind == _KIND_EDGE:
                nodes.add(data[2])
            elif kind == _KIND_ENTRY_DUMMY:
                nodes.add(data)
    nodes.add(plan.entry)
    nodes.add(plan.exit)

    num: dict[int, int] = {}
    stack = [plan.entry] + sorted(nodes)
    while stack:
        node = stack[-1]
        if node in num:
            stack.pop()
            continue
        options = plan.choices.get(node, ())
        pending = []
        total = 0
        for _inc, kind, data in options:
            succ = None
            if kind == _KIND_EDGE:
                succ = data[2]
            elif kind == _KIND_ENTRY_DUMMY:
                succ = data
            else:
                total += 1
                continue
            if succ in num:
                total += num[succ]
            else:
                pending.append(succ)
        if pending:
            stack.extend(pending)
            continue
        num[node] = total if options else 1
        stack.pop()

    edge_incs: dict[tuple[int, str], int] = {}
    exit_incs: dict[tuple[int, str], int] = {}
    entry_incs: dict[int, int] = {}
    for node, options in plan.choices.items():
        prefix = 0
        for stored_inc, kind, data in options:
            if kind == _KIND_EDGE:
                edge_incs[(data[0], data[1])] = prefix
                prefix += num[data[2]]
            elif kind == _KIND_ENTRY_DUMMY:
                entry_incs[data] = prefix
                prefix += num[data]
            else:
                exit_incs[data] = prefix
                prefix += 1
    sinks = {n for n in nodes if not plan.choices.get(n)}
    return num, edge_incs, exit_incs, entry_incs, sinks


def _check_proc_numbering(cfg, plan) -> list[Diagnostic]:
    """REP501/REP502 for one procedure's path plan."""
    name = plan.proc
    out: list[Diagnostic] = []
    num, edge_incs, exit_incs, entry_incs, sinks = _recompute_numbering(plan)

    # -- REP501: the recurrence must reproduce the stored tables -------
    derived = num.get(plan.entry, 1)
    if derived != plan.num_paths:
        out.append(
            diag(
                "REP501",
                f"NumPaths recurrence yields {derived} paths, plan "
                f"records {plan.num_paths}",
                proc=name,
            )
        )
    if plan.increments != edge_incs:
        for key in sorted(set(plan.increments) | set(edge_incs)):
            stored = plan.increments.get(key)
            want = edge_incs.get(key)
            if stored != want:
                out.append(
                    diag(
                        "REP501",
                        f"edge {key} carries increment {stored}, "
                        f"recurrence demands {want}",
                        proc=name,
                        node=key[0],
                    )
                )

    # -- REP502: flushes cover exactly the back edges ------------------
    backs = {(e.src, e.label): e.dst for e in back_edges(cfg)}
    for key in sorted(set(backs) - set(plan.flushes)):
        out.append(
            diag(
                "REP502",
                f"back edge {key} has no flush entry",
                proc=name,
                node=key[0],
            )
        )
    for key in sorted(set(plan.flushes) - set(backs)):
        out.append(
            diag(
                "REP502",
                f"flush entry {key} is not a back edge",
                proc=name,
                node=key[0],
            )
        )
    for key in sorted(set(plan.flushes) & set(backs)):
        bump_add, reset = plan.flushes[key]
        want_bump = exit_incs.get(key)
        want_reset = entry_incs.get(backs[key])
        if bump_add != want_bump:
            out.append(
                diag(
                    "REP502",
                    f"flush {key} bumps paths[r + {bump_add}], dummy "
                    f"exit edge carries {want_bump}",
                    proc=name,
                    node=key[0],
                )
            )
        if reset != want_reset:
            out.append(
                diag(
                    "REP502",
                    f"flush {key} resets the register to {reset}, dummy "
                    f"entry edge of header {backs[key]} carries "
                    f"{want_reset}",
                    proc=name,
                    node=key[0],
                )
            )
    if sinks - {plan.exit} != set(plan.stop_sinks):
        out.append(
            diag(
                "REP502",
                f"stop sinks {sorted(plan.stop_sinks)} disagree with the "
                f"DAG's non-exit sinks {sorted(sinks - {plan.exit})}",
                proc=name,
            )
        )
    if out:
        # The tables are already known-corrupt; enumeration would only
        # chase the same defects through decode errors.
        return out

    # -- REP501: exhaustive bijection below the cap --------------------
    if plan.num_paths <= ENUMERATION_CAP:
        seen: dict[tuple, int] = {}
        for path_id in range(plan.num_paths):
            try:
                decoded = plan.decode(path_id)
            except Exception as exc:
                out.append(
                    diag(
                        "REP501",
                        f"path id {path_id} fails to decode: {exc}",
                        proc=name,
                    )
                )
                continue
            shape = (decoded.start, decoded.nodes, decoded.edges, decoded.end)
            if shape in seen:
                out.append(
                    diag(
                        "REP501",
                        f"path ids {seen[shape]} and {path_id} decode to "
                        "the same path",
                        proc=name,
                    )
                )
            seen[shape] = path_id
            resum = _resum(plan, decoded, entry_incs)
            if resum != path_id:
                out.append(
                    diag(
                        "REP501",
                        f"path id {path_id} re-sums to {resum} from the "
                        "increment/flush tables",
                        proc=name,
                    )
                )
    return out


def _resum(plan, decoded, entry_incs: dict[int, int]) -> int:
    """Rebuild a decoded path's id from the runtime's own constants:
    the entry-dummy reset, the per-edge increments, and the back-edge
    ``bump_add`` — the exact additions the register would perform."""
    total = 0
    if decoded.start != plan.entry:
        total += entry_incs.get(decoded.start, 0)
    edges = decoded.edges
    if decoded.end == "backedge":
        total += plan.flushes[decoded.back_edge][0]
        edges = edges[:-1]
    for key in edges:
        total += plan.increments.get(key, 0)
    return total


# ---------------------------------------------------------------------------
# REP503: the codegen backend's emitted path-update sites
# ---------------------------------------------------------------------------


def check_codegen_path_sites(program, plan) -> list[Diagnostic]:
    """REP503: audit the codegen backend's emitted path sites.

    Emits the path-profiled variant for ``plan`` (cached by path-plan
    fingerprint) and compares its recorded sites against the plan.  A
    program the emitter cannot lower produces no findings — there is
    no emitted source to audit, and backend auto-selection never runs
    codegen for it.
    """
    from repro.codegen import LoweringError, codegen_backend_for

    backend = codegen_backend_for(program)
    try:
        meta = backend.emit_meta(plan)
    except LoweringError:
        return []
    return audit_path_sites(program, plan, meta)


def audit_path_sites(program, plan, meta) -> list[Diagnostic]:
    """Compare an emission's path-site metadata against the plan.

    Split from :func:`check_codegen_path_sites` so tests can audit
    deliberately corrupted metadata directly.
    """
    findings: list[Diagnostic] = []
    for name in sorted(plan.plans):
        proc_plan = plan.plans[name]
        cfg = program.cfgs[name]
        reachable = meta.reachable.get(name, set())
        emitted = set(
            tuple(site) for site in meta.path_sites.get(name, ())
        )
        expected: set[tuple] = set()

        def stop_node(nid):
            node = cfg.nodes.get(nid)
            return node is not None and node.kind is StmtKind.STOP

        for key, inc in proc_plan.increments.items():
            # A STOP source raises before traversing its out edge, so
            # the emitter plants no increment there (it is always the
            # node's first ordered choice and carries 0 anyway).
            if inc and key[0] in reachable and not stop_node(key[0]):
                expected.add(("inc", key, inc))
        for key, (bump_add, reset) in proc_plan.flushes.items():
            if key[0] in reachable:
                expected.add(("flush", key, bump_add, reset))
        if proc_plan.exit in reachable:
            expected.add(("exit", proc_plan.exit))
        for nid in reachable:
            if stop_node(nid):
                site = (
                    ("stop", nid)
                    if nid in proc_plan.stop_sinks
                    else ("partial", nid)
                )
                expected.add(site)

        for site in sorted(emitted - expected, key=repr):
            findings.append(
                diag(
                    "REP503",
                    f"emitted {site[0]} path site at {site[1:]!r} "
                    "matches no planned site",
                    proc=name,
                )
            )
        for site in sorted(expected - emitted, key=repr):
            findings.append(
                diag(
                    "REP503",
                    f"planned {site[0]} path site at {site[1:]!r} "
                    "has no emitted update",
                    proc=name,
                )
            )
    return findings
