"""Reconstruction round-trip: path spectra regenerate Definition 3.

The whole point of the mode: recording *which paths ran* loses
nothing.  ``reconstruct_path_profile`` must rebuild the exact
``ProcedureProfile`` a smart counter plan measures — bit-for-bit,
because every quantity is an integer carried in floats — and the
profiles must stay equal through the full ``profile_program`` surface
on every backend.

The STOP tests pin the one place the modes legitimately *differ*: a
run killed mid-loop.  Opt-3 charges a DO loop's constant trip count
in one batched add at DO_INIT, so a counter profile claims iterations
that never happened; the path register only records paths actually
completed.  Paths match the interpreter's ground truth; counters do
not.  (The conformance corpus contains no such program, which is why
the cross-mode bit-for-bit acceptance holds there.)
"""

import pytest

from repro.paths import PathExecutor, path_program_plan
from repro.pipeline import compile_source, profile_program, run_program
from repro.workloads import builtin_sources
from repro.workloads.paper_example import paper_program

pytestmark = pytest.mark.paths

STOP_SOURCE = """\
      PROGRAM PSTOP
      N = 5
      DO 10 I = 1, 10
         N = N - 1
         CALL DIP(N)
   10 CONTINUE
      END
      SUBROUTINE DIP(M)
      IF (M .LE. 1) THEN
         STOP
      ENDIF
      M = M + 0
      END
"""


@pytest.mark.parametrize("backend", ["reference", "codegen"])
def test_paper_example_round_trip(backend):
    program = paper_program()
    counters, _ = profile_program(
        program, 3, mode="counters", backend=backend
    )
    paths, _ = profile_program(program, 3, mode="paths", backend=backend)
    assert paths.to_dict() == counters.to_dict()


@pytest.mark.parametrize(
    "name", [n for n, _ in builtin_sources()][:4]
)
def test_builtin_round_trip(name):
    program = compile_source(dict(builtin_sources())[name])
    runs = [{"seed": seed} for seed in range(2)]
    counters, cstats = profile_program(program, runs, mode="counters")
    paths, pstats = profile_program(program, runs, mode="paths")
    assert paths.to_dict() == counters.to_dict()
    # Both stats count dynamic updates in the same currency.
    assert pstats.runs == cstats.runs == 2
    assert pstats.counter_updates > 0


def test_stop_partials_reconstruct_ground_truth():
    """Frames unwound by STOP land as partial-path prefixes and the
    reconstruction equals what actually executed."""
    program = compile_source(STOP_SOURCE)
    plan = path_program_plan(program)
    executor = PathExecutor(plan)
    result = run_program(program, seed=0, hooks=executor)
    executor.finalize_run()
    # The run STOPped suspended in CALL DIP: both live frames were
    # mid-path, so both are recorded as partials, innermost first.
    assert [p for p, _, _ in executor.partials] == ["DIP", "PSTOP"]

    profile, _ = profile_program(
        program, [{"seed": 0}], plan=plan, mode="paths"
    )
    main = profile.procedures["PSTOP"]
    # Ground truth from the interpreter: the DO test ran exactly as
    # many times as the run survived.  A plan-driven run records no
    # counts; the plan-free run with the same seed takes the same path.
    truth = run_program(program, seed=0)
    assert truth.outputs == result.outputs
    header = next(iter(main.header_counts))
    assert main.header_counts[header] == truth.node_counts["PSTOP"][header]


def test_stop_mid_loop_beats_counters():
    """Counter Opt-3 overcounts an interrupted loop; paths do not."""
    program = compile_source(STOP_SOURCE)
    counters, _ = profile_program(program, [{"seed": 0}], mode="counters")
    paths, _ = profile_program(program, [{"seed": 0}], mode="paths")
    c_main = counters.procedures["PSTOP"]
    p_main = paths.procedures["PSTOP"]
    header = next(iter(c_main.header_counts))
    # Opt-3 batched the full constant trip count (10 -> header 11)...
    assert c_main.header_counts[header] == 11.0
    # ...but only 4 iterations ran before DIP's STOP unwound the loop.
    assert p_main.header_counts[header] == 4.0
    result = run_program(program, seed=0)
    assert result.node_counts["PSTOP"][header] == 4.0


def test_mode_plan_cross_validation():
    program = paper_program()
    path_plan = path_program_plan(program)
    with pytest.raises(ValueError, match="requires a path plan"):
        profile_program(program, 1, mode="paths", plan=object())
    with pytest.raises(ValueError, match="cannot execute a path plan"):
        profile_program(program, 1, mode="counters", plan=path_plan)
    with pytest.raises(ValueError, match="unknown profiling mode"):
        profile_program(program, 1, mode="spectral")
