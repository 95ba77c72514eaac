"""The dataflow-engine lints: new codes and regression pins.

Two kinds of pin:

* programs where the historical syntactic lints were *imprecise* and
  the dataflow engine now finds (or correctly drops) a diagnostic;
* the REP306/307/308 codes firing on purpose-built programs and
  staying silent on the clean corpus.
"""

import pytest

from repro.checker import Severity, check_source
from repro.workloads import builtin_sources

pytestmark = pytest.mark.checker


def _codes(source, hints=True):
    report = check_source(source, hints=hints)
    assert not report.has("REP001"), report.render_text()
    return report


#: (a) X is only defined under a guard SCCP proves false: the old
#: syntactic lint saw "a def on some path" and stayed silent; the
#: dataflow lint knows no *feasible* path defines X.
DEF_UNDER_FALSE_GUARD = """\
      PROGRAM MAIN
      INTEGER N
      REAL X, Y
      N = 3
      IF (N .LT. 0) THEN
        X = 1.0
      ENDIF
      Y = X + 1.0
      PRINT *, Y
      END
"""

#: (b) SHOW only *reads* its parameter, so CALL SHOW(X) defines
#: nothing — the old lint counted every by-ref argument as a def and
#: suppressed the genuine REP301.
READ_ONLY_CALL = """\
      PROGRAM MAIN
      REAL X, Y
      CALL SHOW(X)
      Y = X + 1.0
      PRINT *, Y
      END
      SUBROUTINE SHOW(A)
      REAL A, B
      B = A * 2.0
      PRINT *, B
      RETURN
      END
"""

#: A callee that *does* write its parameter must keep suppressing
#: REP301 (the satellite fix must not overshoot).
WRITING_CALL = """\
      PROGRAM MAIN
      REAL X, Y
      CALL SETV(X)
      Y = X + 1.0
      PRINT *, Y
      END
      SUBROUTINE SETV(A)
      REAL A
      A = 3.0
      RETURN
      END
"""

#: (c) `X = 1.0` is unreachable (both arms jump past it) but does not
#: textually follow a GOTO, so the syntactic REP302 missed it; the
#: CFG builder prunes it and the dataflow lint reports the pruning.
PRUNED_NOT_AFTER_GOTO = """\
      PROGRAM MAIN
      INTEGER N
      REAL X
      N = 1
      IF (N .GT. 0) THEN
        GOTO 20
      ELSE
        GOTO 20
      ENDIF
      X = 1.0
20    CONTINUE
      PRINT *, N
      END
"""

#: (d) X is defined inside a *guaranteed-taken* branch: defined on
#: every feasible path, so the lint must not warn (no-regression pin).
DEF_UNDER_TAKEN_GUARD = """\
      PROGRAM MAIN
      INTEGER N
      REAL X, Y
      N = 3
      IF (N .GT. 0) THEN
        X = 1.0
      ENDIF
      Y = X + 1.0
      PRINT *, Y
      END
"""

DEAD_STORE = """\
      PROGRAM MAIN
      REAL X, Y
      X = 1.0
      X = 2.0
      Y = X + 1.0
      PRINT *, Y
      END
"""

CONSTANT_BRANCH = """\
      PROGRAM MAIN
      INTEGER N
      REAL X
      N = 3
      IF (N .GT. 0) THEN
        X = 1.0
      ELSE
        X = 2.0
      ENDIF
      PRINT *, X
      END
"""


def _dead_first_store(prelude, rhs, target):
    """``target = rhs`` overwritten before any read: liveness-dead."""
    lines = ["PROGRAM MAIN", *prelude, f"{target} = {rhs}", f"{target} = 1"]
    lines += [f"PRINT *, {target}", "STOP", "END"]
    return "".join(f"      {line}\n" for line in lines)


#: (source, reported?) — a liveness-dead store is REP306 only when
#: evaluating its right-hand side provably cannot raise.
DEAD_STORE_TOTALITY = {
    "division": (
        _dead_first_store(["INTEGER I, J", "J = 2"], "7 / J", "I"),
        False,
    ),
    "array_load": (
        _dead_first_store(["REAL A(3), X", "A(2) = 4.0"], "A(2)", "X"),
        False,
    ),
    "real_from_integer": (
        _dead_first_store(["INTEGER N", "REAL X", "N = 5"], "N", "X"),
        False,
    ),
    "pure_integer": (
        _dead_first_store(
            ["INTEGER I, J, K", "J = 3", "K = 4"], "-J * K + 1 - J", "I"
        ),
        True,
    ),
}

#: The loop's only exit edge tests N, and SCCP proves N stays 1: the
#: exit is structurally present but never feasible.
INFINITE_FEASIBLE_LOOP = """\
      PROGRAM MAIN
      INTEGER N, I
      N = 1
      I = 0
10    CONTINUE
      I = I + 1
      IF (N .GT. 0) GOTO 10
      PRINT *, I
      END
"""


class TestMigrationRegressionPins:
    def test_def_under_false_guard_now_warns(self):
        assert _codes(DEF_UNDER_FALSE_GUARD).has("REP301")

    def test_read_only_call_no_longer_suppresses(self):
        assert _codes(READ_ONLY_CALL).has("REP301")

    def test_writing_call_still_suppresses(self):
        assert not _codes(WRITING_CALL).has("REP301")

    def test_pruned_statement_now_reported(self):
        report = _codes(PRUNED_NOT_AFTER_GOTO, hints=False)
        assert report.has("REP302")
        found = next(d for d in report.diagnostics if d.code == "REP302")
        assert found.severity is Severity.WARNING

    def test_taken_guard_def_stays_silent_in_both_modes(self):
        assert not _codes(DEF_UNDER_TAKEN_GUARD).has("REP301")


class TestNewCodes:
    def test_dead_store_fires(self):
        report = _codes(DEAD_STORE)
        found = [d for d in report.diagnostics if d.code == "REP306"]
        assert len(found) == 1
        assert "X" in found[0].message
        # Hints off: REP306 is an optimization hint, not a warning.
        assert not _codes(DEAD_STORE, hints=False).has("REP306")

    @pytest.mark.parametrize("case", sorted(DEAD_STORE_TOTALITY))
    def test_dead_store_needs_a_total_rhs(self, case):
        source, reported = DEAD_STORE_TOTALITY[case]
        found = [d for d in _codes(source).diagnostics if d.code == "REP306"]
        assert len(found) == int(reported), [d.message for d in found]

    def test_constant_branch_names_the_taken_arm(self):
        report = _codes(CONSTANT_BRANCH)
        found = [d for d in report.diagnostics if d.code == "REP307"]
        assert len(found) == 1
        assert "'T'" in found[0].message

    def test_infinite_feasible_loop_warns(self):
        report = _codes(INFINITE_FEASIBLE_LOOP, hints=False)
        found = [d for d in report.diagnostics if d.code == "REP308"]
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING
        assert not report.ok


class TestCorpusStaysClean:
    @pytest.mark.parametrize("name", [n for n, _ in builtin_sources()])
    def test_no_new_findings_on_builtins(self, name):
        source = dict(builtin_sources())[name]
        report = check_source(source, plan_kinds=("smart",), hints=True)
        assert report.ok, report.render_text()
        # REP306 (dead store) and REP308 (infinite loop) must never
        # fire on the corpus; REP307 may fire only as a hint.
        assert not report.has("REP306")
        assert not report.has("REP308")
