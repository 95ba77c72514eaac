"""Output checks, all against the reference interpreter.

* (a) a reconstructed profile equals ground truth built from
  ``run_program(backend="reference")`` + ``oracle_profile``, merged over
  the operation's run specs: per procedure, ``invocations`` and every
  reconstructed ``branch_counts``/``header_counts`` entry, a missing
  oracle entry reading as 0.0.  (Whole-profile equality is never the
  rule: the oracle records ``U`` edges, reconstruction records
  zero-valued arms.)
* (b) each run's outputs equal the reference run's.
* (c) ``TIME x runs == base_cost`` to relative ``TIME_RTOL``; the two
  sides are summed in different orders, so exact float equality would
  fail on correct results.
* (d) the service checks (:mod:`perfbench.service`) reuse (a) and
  :func:`time_mismatch`.

Each check returns ``None`` when it passes, else a one-line reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TIME_RTOL = 1e-9


@dataclass
class Truth:
    """What the reference interpreter says about one set of runs."""

    profile: object  # repro.profiling.ProgramProfile
    outputs: list[list[str]]


def reference_truth(program, runs) -> Truth:
    from repro.pipeline import run_program
    from repro.profiling import ProgramProfile, oracle_profile

    total = ProgramProfile()
    outputs = []
    for spec in runs:
        result = run_program(program, backend="reference", **spec)
        total.merge(oracle_profile(result, program.ecfgs))
        outputs.append(list(result.outputs))
    return Truth(total, outputs)


def profile_mismatch(procedures, reconstructed, oracle) -> str | None:
    """Check (a) over ``procedures`` (the program's procedure names)."""
    for name in procedures:
        rec = reconstructed.procedures.get(name)
        orc = oracle.procedures.get(name)
        rec_invocations = rec.invocations if rec is not None else 0.0
        orc_invocations = orc.invocations if orc is not None else 0.0
        if rec_invocations != orc_invocations:
            return (
                f"{name}: invocations {rec_invocations} != "
                f"reference {orc_invocations}"
            )
        if rec is None:
            continue
        orc_branches = orc.branch_counts if orc is not None else {}
        for key, value in rec.branch_counts.items():
            if value != orc_branches.get(key, 0.0):
                return (
                    f"{name}: branch {key} {value} != reference "
                    f"{orc_branches.get(key, 0.0)}"
                )
        orc_headers = orc.header_counts if orc is not None else {}
        for header, value in rec.header_counts.items():
            if value != orc_headers.get(header, 0.0):
                return (
                    f"{name}: header {header} {value} != reference "
                    f"{orc_headers.get(header, 0.0)}"
                )
    return None


def outputs_mismatch(outputs: list[list[str]], expected: list[list[str]]) -> str | None:
    """Check (b): run ``i`` printed what reference run ``i`` printed."""
    if len(outputs) != len(expected):
        return f"{len(outputs)} runs recorded, reference made {len(expected)}"
    for i, (got, want) in enumerate(zip(outputs, expected)):
        if got != want:
            return f"run {i}: outputs {got[:3]!r} != reference {want[:3]!r}"
    return None


def time_mismatch(time: float, expected: float, what: str = "TIME") -> str | None:
    """Equality to relative ``TIME_RTOL``."""
    if math.isclose(time, expected, rel_tol=TIME_RTOL, abs_tol=0.0):
        return None
    return f"{what} {time!r} != {expected!r} (rel tol {TIME_RTOL})"


def time_identity_mismatch(total_time: float, runs: int, base_cost: float) -> str | None:
    """Check (c): ``analysis.total_time x runs == ProfileStats.base_cost``."""
    return time_mismatch(total_time * runs, base_cost, "TIME x runs vs base_cost:")
