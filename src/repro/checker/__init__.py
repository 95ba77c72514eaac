"""Artifact verifier, counter-plan checker and minifort linter.

The checker is the framework's reproducibility gate: every structural
claim Section 2 makes about the compiled artifacts (reducibility,
interval nesting, the preheader/postexit pseudo structure, FCDG
shape) and every soundness property of the Section-3 counter plans
(flow conservation of the Opt-2 sum constraints, the Opt-3 no-exit
precondition, symbolic reconstructibility of all ``TOTAL_FREQ``) is
re-established on demand and reported through a diagnostics engine
with stable ``REPnnn`` error codes.

Entry points:

* :func:`check_source` — compile + verify + lint one source text;
* :func:`verify_program` — verify already-compiled artifacts (used by
  the batch cache on disk hits and by ``pipeline.compile_source``'s
  ``verify=`` flag);
* :func:`lint_program` — the REP3xx dataflow lints alone;
* ``repro check`` — the CLI surface over all of the above.
"""

from repro.checker.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticReport,
    Severity,
    diag,
)
from repro.checker.lint import lint_program
from repro.checker.plans import check_program_plan
from repro.checker.slots import (
    audit_bump_sites,
    check_codegen_bumps,
    check_slot_tables,
)
from repro.checker.structure import check_structure
from repro.checker.verify import check_source, verify_program

__all__ = [
    "CODES",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "diag",
    "audit_bump_sites",
    "check_codegen_bumps",
    "check_program_plan",
    "check_slot_tables",
    "check_source",
    "check_structure",
    "lint_program",
    "verify_program",
]
