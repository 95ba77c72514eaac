"""Top-level entry points of the checker subsystem.

* :func:`verify_program` — structural + plan verification of compiled
  artifacts (the reproducibility check the batch cache and pipeline
  call);
* :func:`check_source` — compile a source text and run the full
  battery (structure, plans, lints) into one report; frontend
  failures become REP001 findings instead of exceptions, so callers
  can treat "does not compile" and "compiles but broken" uniformly.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.checker.diagnostics import DiagnosticReport, diag
from repro.checker.lint import lint_program
from repro.checker.plans import check_program_plan
from repro.checker.structure import check_structure
from repro.obs import metrics, span


def verify_program(
    program, plans=None, *, program_id: str = ""
) -> DiagnosticReport:
    """Verify a :class:`CompiledProgram` and (optionally) its plans.

    ``plans`` may be a single :class:`ProgramPlan`, an iterable of
    them, or a mapping (e.g. the cache's kind → plan dict).  The
    verifier never raises on a finding: broken artifacts produce a
    report with errors.
    """
    report = DiagnosticReport(program_id=program_id)
    with span("check.verify", attrs={"program": program_id or "?"}):
        try:
            with span("check.structure"):
                report.extend(check_structure(program))
        except Exception as exc:  # a hopelessly corrupt artifact
            report.add(
                diag("REP100", f"structural verification crashed: {exc}")
            )
            return report
        for plan in _iter_plans(plans):
            try:
                with span(
                    "check.plan",
                    attrs={"kind": getattr(plan, "kind", "?")},
                ):
                    report.extend(_check_plan(program, plan))
            except Exception as exc:
                report.add(
                    diag("REP205", f"plan verification crashed: {exc}")
                )
    metrics.counter(
        "repro_checks_total",
        "Artifact verifications run.",
        labels=("outcome",),
    ).inc(outcome="clean" if not report.errors else "errors")
    return report


def check_source(
    source: str,
    *,
    program_id: str = "",
    plan_kinds: tuple[str, ...] = ("smart",),
    lint: bool = True,
    hints: bool = False,
) -> DiagnosticReport:
    """Compile ``source`` and run every applicable check."""
    from repro.pipeline import (
        compile_source,
        naive_program_plan,
        smart_program_plan,
    )

    report = DiagnosticReport(program_id=program_id)
    with span("check", attrs={"program": program_id or "?"}):
        try:
            program = compile_source(source)
        except ReproError as exc:
            report.add(
                diag(
                    "REP001",
                    f"compilation failed: {exc}",
                    line=getattr(exc, "line", None),
                )
            )
            return report

        with span("check.structure"):
            report.extend(check_structure(program))
        from repro.paths import path_program_plan

        builders = {
            "smart": smart_program_plan,
            "naive": naive_program_plan,
            "paths": path_program_plan,
        }
        for kind in plan_kinds:
            if kind not in builders:
                raise ValueError(f"unknown plan kind {kind!r}")
            try:
                plan = builders[kind](program)
            except ReproError as exc:
                report.add(
                    diag("REP201", f"{kind} plan construction failed: {exc}")
                )
                continue
            with span("check.plan", attrs={"kind": kind}):
                report.extend(_check_plan(program, plan))
        if lint:
            with span("check.lint"):
                report.extend(
                    lint_program(program.checked, program.cfgs, hints=hints)
                )
    return report


def _check_plan(program, plan):
    """Route a plan to its checker by kind: counter plans get the
    REP2xx/REP4xx battery, path plans the REP5xx audit."""
    if getattr(plan, "kind", None) == "paths":
        from repro.checker.pathaudit import check_path_plan

        return check_path_plan(program, plan)
    return check_program_plan(program, plan)


def _iter_plans(plans):
    if plans is None:
        return []
    if hasattr(plans, "plans"):  # a single ProgramPlan
        return [plans]
    if hasattr(plans, "values"):  # kind -> plan mapping
        return list(plans.values())
    return list(plans)
