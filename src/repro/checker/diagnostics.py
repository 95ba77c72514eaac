"""The diagnostics engine of the artifact verifier and linter.

Every finding the checker can produce is identified by a *stable error
code* so that tooling (CI gates, quarantine logic, the mutation-kill
suite) can match on codes rather than message text:

* ``REP0xx`` — the program could not be checked at all (frontend
  failure);
* ``REP1xx`` — structural artifact invariants (CFG / intervals / ECFG
  / FCDG);
* ``REP2xx`` — counter-plan soundness (flow conservation, derivability,
  Opt-3 preconditions);
* ``REP3xx`` — minifort source lints (dataflow findings and hints);
* ``REP4xx`` — counter-slot tables (the codegen backend's bump layout:
  update sites must map one-to-one onto the plan's measured counters);
* ``REP5xx`` — Ball–Larus path plans (the numbering must biject onto
  ``[0, NumPaths)``, flushes must cover every back edge, and the
  codegen backend's fused path sites must realize the plan exactly).

A :class:`Diagnostic` carries the code, a severity, a human-readable
message and an optional source span (procedure, node, line).  A
:class:`DiagnosticReport` aggregates findings and renders them as text
or JSON.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Ordered severities: hints < warnings < errors."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


#: The error-code catalogue: code -> (default severity, short title).
#: docs/checker.md documents each code's invariant and the paper
#: section it comes from; tests assert the two stay in sync.
CODES: dict[str, tuple[Severity, str]] = {
    # REP0xx — frontend
    "REP001": (Severity.ERROR, "program failed to compile"),
    # REP1xx — structural artifact invariants
    "REP100": (Severity.ERROR, "malformed control flow graph"),
    "REP101": (Severity.ERROR, "control flow graph is irreducible"),
    "REP102": (Severity.ERROR, "interval structure is not well-nested"),
    "REP103": (Severity.ERROR, "preheader/header bijection broken"),
    "REP104": (Severity.ERROR, "postexit does not split one exit edge"),
    "REP105": (Severity.ERROR, "pseudo-edge invariant violated"),
    "REP106": (Severity.ERROR, "FCDG not rooted/acyclic/connected"),
    "REP107": (Severity.ERROR, "ECFG header mapping inconsistent"),
    # REP2xx — counter-plan soundness
    "REP201": (Severity.ERROR, "profile not derivable from counter set"),
    "REP202": (Severity.ERROR, "derivation rule breaks flow conservation"),
    "REP203": (Severity.ERROR, "plan target set incomplete"),
    "REP204": (Severity.ERROR, "Opt-3 batching precondition violated"),
    "REP205": (Severity.ERROR, "counter registry corrupt"),
    "REP206": (Severity.ERROR, "plan/procedure set mismatch"),
    # REP3xx — minifort lints
    "REP301": (Severity.INFO, "variable used before any definition"),
    "REP302": (Severity.WARNING, "unreachable statement"),
    "REP303": (Severity.WARNING, "DO index mutated inside loop"),
    "REP304": (Severity.INFO, "program has no STOP statement"),
    "REP305": (Severity.INFO, "non-constant trip disables Opt-3 elision"),
    "REP306": (Severity.INFO, "dead store: assigned value is never read"),
    "REP307": (Severity.INFO, "branch condition is constant on all paths"),
    "REP308": (Severity.WARNING, "loop has no feasible exit"),
    # REP4xx — counter-slot tables (codegen bump layout)
    "REP401": (Severity.ERROR, "slot written but backs no measured counter"),
    "REP402": (Severity.ERROR, "measured counter has no update site"),
    "REP403": (Severity.ERROR, "slot written by multiple update sites"),
    "REP404": (Severity.ERROR, "slot outside the dense counter id space"),
    "REP405": (Severity.ERROR, "codegen bump sites diverge from the plan"),
    # REP5xx — Ball–Larus path plans (numbering + fused lowering)
    "REP501": (Severity.ERROR, "path numbering is not a bijection"),
    "REP502": (Severity.ERROR, "path flush coverage broken"),
    "REP503": (Severity.ERROR, "codegen path sites diverge from the plan"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One checker finding, locatable and stable across runs."""

    code: str
    message: str
    severity: Severity
    proc: str | None = None
    node: int | None = None
    line: int | None = None

    def render(self) -> str:
        """``REP103 error [MAIN] message (node 5, line 12)``."""
        parts = [self.code, str(self.severity)]
        if self.proc:
            parts.append(f"[{self.proc}]")
        text = " ".join(parts) + f": {self.message}"
        where = []
        if self.node is not None:
            where.append(f"node {self.node}")
        if self.line is not None:
            where.append(f"line {self.line}")
        if where:
            text += f" ({', '.join(where)})"
        return text

    def as_dict(self) -> dict:
        record: dict = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }
        if self.proc is not None:
            record["proc"] = self.proc
        if self.node is not None:
            record["node"] = self.node
        if self.line is not None:
            record["line"] = self.line
        return record


def diag(
    code: str,
    message: str,
    *,
    proc: str | None = None,
    node: int | None = None,
    line: int | None = None,
    severity: Severity | None = None,
) -> Diagnostic:
    """Build a diagnostic with the catalogue's default severity."""
    if code not in CODES:
        raise ValueError(f"unknown diagnostic code {code!r}")
    return Diagnostic(
        code=code,
        message=message,
        severity=severity if severity is not None else CODES[code][0],
        proc=proc,
        node=node,
        line=line,
    )


@dataclass
class DiagnosticReport:
    """All findings for one checked program."""

    program_id: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics) -> None:
        self.diagnostics.extend(diagnostics)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, minimum: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= minimum]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return [
            d for d in self.diagnostics if d.severity is Severity.WARNING
        ]

    @property
    def ok(self) -> bool:
        """True when nothing at warning level or above was found."""
        return not self.by_severity(Severity.WARNING)

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    # -- renderers ---------------------------------------------------------

    def render_text(self) -> str:
        """One line per finding, errors first, stable order."""
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (-int(d.severity), d.code, d.proc or "", d.node or 0),
        )
        header = self.program_id or "program"
        if not ordered:
            return f"{header}: clean"
        lines = [f"{header}: {self.summary()}"]
        lines += [f"  {d.render()}" for d in ordered]
        return "\n".join(lines)

    def summary(self) -> str:
        n_err = len(self.errors)
        n_warn = len(self.warnings)
        n_info = len(self.diagnostics) - n_err - n_warn
        return (
            f"{len(self.diagnostics)} finding(s) "
            f"({n_err} error(s), {n_warn} warning(s), {n_info} hint(s))"
        )

    def as_dict(self) -> dict:
        return {
            "program": self.program_id,
            "ok": self.ok,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)
