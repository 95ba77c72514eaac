"""The shared cross-backend conformance harness.

Every execution backend is only allowed to exist because it is
*observationally identical* to the tree-walking reference
interpreter: same outputs, same error type and message (a step-limit
error raised at the same back edge, call or exit), same node/edge/call
counts, float-bit-exact ``total_cost``
and ``counter_cost``, same live counter values and update tallies,
and therefore bit-identical reconstructed ``FREQ``/``NODE_FREQ``/
``TOTAL_FREQ``.  Ground-truth node/edge counts come from plan-free
runs only (a plan-driven run records none on either engine), so a
profiled run's reconstructed profile is checked against the oracle
profile of the plan-free reference run with the same seed and inputs.
This module turns that contract into reusable functions:

* :func:`observe` — one run's full observable behaviour as a plain
  dict (errors included), with floats pinned by ``repr`` so ``-0.0``
  vs ``0.0`` or a one-ulp drift cannot hide behind ``==``;
* :func:`assert_conformance` — run one program through every backend,
  plain and profiled, and assert the observations are identical.

The conformance suite, the fuzz suite and the mutation-kill suite all
drive these same helpers, so "conformant" means exactly one thing
everywhere.
"""

from __future__ import annotations

import hashlib
import os

from repro import SCALAR_MACHINE, compile_source, smart_program_plan
from repro.analysis.freq import compute_frequencies
from repro.errors import ReproError
from repro.interp import RunResult
from repro.paths import (
    PathExecutor,
    path_program_plan,
    reconstruct_path_profile,
)
from repro.pipeline import run_program
from repro.profiling import PlanExecutor, oracle_profile, reconstruct_profile
from repro.workloads import builtin_sources
from repro.workloads.generators import ProgramGenerator

#: Both execution engines, reference first (it defines the truth).
BACKENDS = ("reference", "codegen")

#: Enough INPUT() values for every builtin that reads them.
INPUTS = (2.25, 9.0, 16.0)


#: Hand-written programs aimed at the emitter's structuring rules, run
#: next to the builtins by every conformance test parametrized over
#: :data:`CORPUS`.
HANDWRITTEN = {
    # A loop with three exit targets (exit codes); the exits to 20 and
    # 30 share the tail at 50 (duplicated), inside an outer DO loop so
    # one run takes several of them.
    "three_exit_targets": """\
      PROGRAM THREEX
      INTEGER J, K, R
      REAL ACC
      ACC = 0.0
      DO 60 J = 1, 8
        K = 0
10      K = K + 1
        R = IRAND(1, 12)
        IF (R .EQ. 7) GOTO 20
        IF (R .EQ. 11) GOTO 30
        ACC = ACC + REAL(R)
        IF (K .GE. 6) GOTO 40
        GOTO 10
20      ACC = ACC + 100.0
        GOTO 50
30      ACC = ACC - 100.0
50      K = K * 2
40      PRINT *, J, K, ACC
60    CONTINUE
      END
""",
    # An inner DO loop whose GOTO re-enters the outer loop's header:
    # the exit code resolves to a ``continue`` of the outer loop.
    "goto_outer_header": """\
      PROGRAM OUTERH
      INTEGER I, J, N
      N = 0
      I = 0
10    I = I + 1
      IF (I .GT. 6) GOTO 90
      DO 20 J = 1, 5
        N = N + 1
        IF (MOD(I * J, 4) .EQ. 0) GOTO 10
20    CONTINUE
      N = N + 100
      GOTO 10
90    PRINT *, I, N
      END
""",
    # A STOP inside a multi-exit loop, two frames deep.  The caller's
    # loop is GOTO-built: an interrupted Opt-3 DO loop is the pinned
    # counters-vs-paths exception (tests/paths/test_reconstruct.py).
    "stop_in_multi_exit_loop": """\
      PROGRAM STOPML
      INTEGER I
      REAL ACC
      ACC = 0.0
      I = 0
10    I = I + 1
      CALL WORK(I, ACC)
      IF (I .LT. 20) GOTO 10
      PRINT *, ACC
      END

      SUBROUTINE WORK(I, ACC)
      INTEGER I, K, R
      REAL ACC
      K = 0
20    K = K + 1
      R = IRAND(1, 10)
      IF (R .EQ. 3) GOTO 30
      IF (ACC .GT. 400.0) STOP
      IF (K .GE. I) GOTO 40
      ACC = ACC + REAL(R)
      GOTO 20
30    ACC = ACC + 1.0
40    ACC = ACC + REAL(K)
      END
""",
    # A computed GOTO whose fall-through arm shares label 20 with a
    # numbered arm (livermore KERN16's shape): a duplicated tail.
    "cgoto_shared_default": """\
      PROGRAM CGSHARE
      INTEGER S, N, HITS
      HITS = 0
      DO 50 N = 1, 40
        S = IRAND(0, 4)
        GOTO (10, 20, 30), S
        GOTO 20
10      HITS = HITS + 1
        GOTO 50
20      HITS = HITS + 10
30      HITS = HITS + 100
50    CONTINUE
      PRINT *, HITS
      END
""",
}



def _dummy_bounds_program(decl: str, actual: str, stmt: str) -> str:
    """MAIN passes array X to TOUCH, whose dummy A runs ``stmt`` with
    K = 4 and L = 6; X's extents decide the bounds, not A's."""
    return f"""\
      PROGRAM DUMMYB
      {actual}
      CALL TOUCH(X, 4, 6)
      END

      SUBROUTINE TOUCH(A, K, L)
      {decl}
      INTEGER K, L
      REAL T
      T = 0.0
      {stmt}
      PRINT *, T
      END
"""


#: Dummy-array accesses: each out-of-bounds subscript position of a
#: 1-D and a 2-D dummy, loads and stores, an actual whose type or rank
#: differs from the dummy's (the generic helper path), and an element
#: passed for a dummy array.  :data:`DUMMY_ARRAY_RESULTS` pins what
#: the reference interpreter reports for each.
DUMMY_ARRAYS = {
    "dummy_1d_load_oob": _dummy_bounds_program(
        "REAL A(1)", "REAL X(3)", "T = A(K)"
    ),
    "dummy_1d_store_oob": _dummy_bounds_program(
        "REAL A(1)", "REAL X(3)", "A(K) = 1.5"
    ),
    "dummy_2d_load_oob_first": _dummy_bounds_program(
        "REAL A(1, 1)", "REAL X(3, 5)", "T = A(K, 2)"
    ),
    "dummy_2d_load_oob_second": _dummy_bounds_program(
        "REAL A(1, 1)", "REAL X(3, 5)", "T = A(2, L)"
    ),
    "dummy_2d_load_oob_both": _dummy_bounds_program(
        "REAL A(1, 1)", "REAL X(3, 5)", "T = A(K, L)"
    ),
    "dummy_2d_store_oob_first": _dummy_bounds_program(
        "REAL A(1, 1)", "REAL X(3, 5)", "A(K, 2) = 1.5"
    ),
    "dummy_2d_store_oob_second": _dummy_bounds_program(
        "REAL A(1, 1)", "REAL X(3, 5)", "A(2, L) = 1.5"
    ),
    "dummy_2d_in_bounds": _dummy_bounds_program(
        "REAL A(1, 1)",
        "REAL X(3, 5)",
        "A(3, 5) = 1.5\n      A(1, 2) = A(3, 5) + 1.0\n      T = A(1, 2)",
    ),
    "dummy_int_actual_real_dummy": """\
      PROGRAM DUMMYT
      INTEGER IX(3), M(2, 2)
      IX(1) = 7
      CALL SETR(IX, 3)
      CALL SET2(M)
      PRINT *, IX(1), IX(2), IX(3), M(1, 2), M(2, 1)
      END

      SUBROUTINE SETR(A, N)
      REAL A(1)
      INTEGER N
      A(2) = 2.5
      A(N) = A(1) + 0.75
      END

      SUBROUTINE SET2(B)
      REAL B(2, 2)
      B(1, 2) = 3.9
      B(2, 1) = B(1, 2) * 2.0
      END
""",
    "dummy_rank_mismatch": """\
      PROGRAM DUMMYR
      REAL X(3)
      X(1) = 1.0
      CALL RANK2(X)
      END

      SUBROUTINE RANK2(A)
      REAL A(3, 1)
      PRINT *, A(1, 1)
      END
""",
    "dummy_element_actual": """\
      PROGRAM DUMMYE
      REAL X(3)
      CALL S(X(1))
      END

      SUBROUTINE S(A)
      REAL A(3)
      A(1) = 2.0
      END
""",
}

#: The reference interpreter's output lines, or its error, per
#: DUMMY_ARRAYS program.
DUMMY_ARRAY_RESULTS = {
    "dummy_1d_load_oob": (
        "InterpreterError", "line 11: X: subscript 4 out of bounds 1..3"
    ),
    "dummy_1d_store_oob": (
        "InterpreterError", "line 11: X: subscript 4 out of bounds 1..3"
    ),
    "dummy_2d_load_oob_first": (
        "InterpreterError", "line 11: X: subscript 4 out of bounds 1..3"
    ),
    "dummy_2d_load_oob_second": (
        "InterpreterError", "line 11: X: subscript 6 out of bounds 1..5"
    ),
    "dummy_2d_load_oob_both": (
        "InterpreterError", "line 11: X: subscript 4 out of bounds 1..3"
    ),
    "dummy_2d_store_oob_first": (
        "InterpreterError", "line 11: X: subscript 4 out of bounds 1..3"
    ),
    "dummy_2d_store_oob_second": (
        "InterpreterError", "line 11: X: subscript 6 out of bounds 1..5"
    ),
    "dummy_2d_in_bounds": ["2.5"],
    "dummy_int_actual_real_dummy": ["7 2 7 3 6"],
    "dummy_rank_mismatch": (
        "InterpreterError", "line 9: X: expected 1 subscripts"
    ),
    "dummy_element_actual": (
        "InterpreterError", "line 3: S: expression passed for array param A"
    ),
}

#: Every named conformance input: the builtins, HANDWRITTEN, then
#: DUMMY_ARRAYS.
CORPUS = (
    [name for name, _ in builtin_sources()]
    + list(HANDWRITTEN)
    + list(DUMMY_ARRAYS)
)

_CACHE: dict[object, object] = {}


def builtin_program(name: str):
    """Compile a builtin workload (or a HANDWRITTEN or DUMMY_ARRAYS
    one) once per session."""
    if name not in _CACHE:
        source = (
            HANDWRITTEN.get(name)
            or DUMMY_ARRAYS.get(name)
            or dict(builtin_sources())[name]
        )
        _CACHE[name] = compile_source(source)
    return _CACHE[name]


def generated_program(gen_seed: int):
    """Compile a generator-corpus program once per session."""
    if gen_seed not in _CACHE:
        _CACHE[gen_seed] = compile_source(ProgramGenerator(gen_seed).source())
    return _CACHE[gen_seed]


def _pin_float(value):
    """A float compared by its repr: bit-identity, not mere equality."""
    return (value, repr(value))


def observe(program, backend: str, *, hooks=None, **kwargs) -> dict:
    """One run's complete observable behaviour, errors included."""
    try:
        result = run_program(program, backend=backend, hooks=hooks, **kwargs)
    except ReproError as exc:
        return {"error": (type(exc).__name__, str(exc))}
    return {
        "halted": result.halted,
        "steps": result.steps,
        "outputs": result.outputs,
        "total_cost": _pin_float(result.total_cost),
        "counter_ops": result.counter_ops,
        "counter_cost": _pin_float(result.counter_cost),
        "node_counts": result.node_counts,
        "edge_counts": result.edge_counts,
        "call_counts": result.call_counts,
        "main_vars": result.main_vars,
    }


def _diverge(backend: str, what: str, reference, candidate, context: str):
    raise AssertionError(
        f"{backend} backend diverges from reference on {what}{context}:\n"
        f"  reference: {reference!r}\n"
        f"  {backend}: {candidate!r}"
    )


def _compare_observations(reference: dict, candidates: dict, context: str):
    for backend, observed in candidates.items():
        if observed == reference:
            continue
        keys = set(reference) | set(observed)
        for key in sorted(keys):
            if reference.get(key) != observed.get(key):
                _diverge(
                    backend, key, reference.get(key), observed.get(key),
                    context,
                )
        _diverge(backend, "observation", reference, observed, context)


def assert_matches_oracle(program, profile, truth, context: str) -> None:
    """A reconstructed profile equals ``oracle_profile(truth)``.

    ``truth`` is the plan-free reference run (or its observation) with
    the profiled run's seed and inputs.  Per procedure the invocation
    counts must be equal, and every reconstructed branch and header
    count must equal the oracle's, a missing oracle entry reading 0.0
    (the oracle records ``U`` edges, reconstruction zero-valued arms).
    """
    if isinstance(truth, dict):
        truth = RunResult(
            node_counts=truth["node_counts"],
            edge_counts=truth["edge_counts"],
            call_counts=truth["call_counts"],
        )
    oracle = oracle_profile(truth, program.ecfgs)
    for name in program.cfgs:
        got = profile.proc(name)
        want = oracle.proc(name)
        assert got.invocations == want.invocations, (
            f"{name}: reconstructed invocations {got.invocations} != "
            f"oracle {want.invocations}{context}"
        )
        for table, truth_table in (
            (got.branch_counts, want.branch_counts),
            (got.header_counts, want.header_counts),
        ):
            for key, value in table.items():
                assert value == truth_table.get(key, 0.0), (
                    f"{name}: reconstructed {key} = {value} != oracle "
                    f"{truth_table.get(key, 0.0)}{context}"
                )


def _dump_emitted(program, plan, model) -> None:
    """Save the codegen backend's emitted source for post-mortems.

    Active only when ``REPRO_CONFORMANCE_DUMP`` names a directory (CI
    sets it and uploads the directory as an artifact on failure); a
    divergence report without the generated text it came from is
    nearly impossible to act on.
    """
    out = os.environ.get("REPRO_CONFORMANCE_DUMP")
    if not out:
        return
    try:
        from repro.codegen import codegen_backend_for

        source = codegen_backend_for(program).emitted_source(plan, model)
    except Exception:
        return  # not lowerable: the divergence is elsewhere
    os.makedirs(out, exist_ok=True)
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]
    with open(os.path.join(out, f"emitted-{digest}.py"), "w") as fh:
        fh.write(source)


def assert_conformance(
    program,
    *,
    backends=BACKENDS,
    model=SCALAR_MACHINE,
    **kwargs,
) -> None:
    """Every backend, plain and profiled, must be indistinguishable.

    ``backends`` must start with ``"reference"`` — it is the oracle the
    others are judged against.
    """
    assert backends[0] == "reference"
    others = backends[1:]

    # 1. Plain runs (with a cost model: total_cost must match too).
    plain = {b: observe(program, b, model=model, **kwargs) for b in backends}
    try:
        _compare_observations(
            plain["reference"],
            {b: plain[b] for b in others},
            " (plain run)",
        )
    except AssertionError:
        _dump_emitted(program, None, model)
        raise

    # 2. Profiled runs: RunResult, live counter state, update count.
    plan = smart_program_plan(program)
    executors = {}
    profiled = {}
    for backend in backends:
        executors[backend] = PlanExecutor(plan)
        profiled[backend] = observe(
            program, backend, hooks=executors[backend], model=model, **kwargs
        )
    try:
        _compare_observations(
            profiled["reference"],
            {b: profiled[b] for b in others},
            " (profiled run)",
        )
    except AssertionError:
        _dump_emitted(program, plan, model)
        raise
    for backend in others:
        assert executors[backend].counters == executors["reference"].counters, (
            f"{backend} live counter slots diverge"
        )
        assert executors[backend].updates == executors["reference"].updates, (
            f"{backend} counter update tally diverges"
        )

    # 3. Reconstruction: identical FREQ / NODE_FREQ / TOTAL_FREQ.
    if "error" in profiled["reference"]:
        return  # all runs failed identically; nothing to reconstruct
    profiles = {
        backend: reconstruct_profile(plan, executor, runs=1)
        for backend, executor in executors.items()
    }
    for name in program.cfgs:
        fcdg = program.fcdgs[name]
        freqs = {
            backend: compute_frequencies(fcdg, profiles[backend].proc(name))
            for backend in backends
        }
        for backend in others:
            assert freqs[backend].total_freq == freqs["reference"].total_freq, (
                f"{backend} TOTAL_FREQ diverges in {name}"
            )
            assert freqs[backend].freq == freqs["reference"].freq, (
                f"{backend} FREQ diverges in {name}"
            )
            assert freqs[backend].node_freq == freqs["reference"].node_freq, (
                f"{backend} NODE_FREQ diverges in {name}"
            )

    # 4. Reconstruction equals the plain reference run's ground truth.
    #    A STOP inside an Opt-3 batched loop is the pinned exception:
    #    the batch counted the full trip count (see
    #    tests/paths/test_reconstruct.py::test_stop_mid_loop_beats_counters).
    if profiled["reference"]["halted"] != "stop":
        for backend in backends:
            assert_matches_oracle(
                program, profiles[backend], plain["reference"],
                f" ({backend} counter profile vs plain reference run)",
            )


def observe_paths(program, backend: str, plan, **kwargs):
    """One path-profiled run's observable behaviour + path state.

    Returns ``(observation, executor)``.  The fused backends settle
    STOP-halted frames themselves; the reference interpreter leaves
    them live on the hook object, so only it needs ``finalize_run``.
    """
    executor = PathExecutor(plan)
    try:
        result = run_program(program, backend=backend, hooks=executor, **kwargs)
    except ReproError as exc:
        observation = {"error": (type(exc).__name__, str(exc))}
    else:
        if backend == "reference":
            executor.finalize_run()
        observation = {
            "halted": result.halted,
            "steps": result.steps,
            "outputs": result.outputs,
            "total_cost": _pin_float(result.total_cost),
            "counter_ops": result.counter_ops,
            "counter_cost": _pin_float(result.counter_cost),
            "node_counts": result.node_counts,
            "edge_counts": result.edge_counts,
            "call_counts": result.call_counts,
            "main_vars": result.main_vars,
        }
    observation["path_counts"] = {
        name: {
            path_id: _pin_float(count)
            for path_id, count in sorted(counts.items())
        }
        for name, counts in executor.path_counts.items()
    }
    observation["partials"] = tuple(executor.partials)
    observation["updates"] = executor.updates
    return observation, executor


def assert_path_conformance(
    program,
    *,
    backends=BACKENDS,
    model=SCALAR_MACHINE,
    **kwargs,
) -> None:
    """Path mode: every backend must record the identical spectrum.

    Beyond the counter-mode contract, every backend must agree on the
    path-count tables, STOP partials (order included) and register
    update tally — and the reference spectrum must reconstruct the
    counter-measured Definition-3 frequencies bit-for-bit.
    """
    assert backends[0] == "reference"
    others = backends[1:]
    plan = path_program_plan(program)

    observations = {}
    executors = {}
    for backend in backends:
        observations[backend], executors[backend] = observe_paths(
            program, backend, plan, model=model, **kwargs
        )
    try:
        _compare_observations(
            observations["reference"],
            {b: observations[b] for b in others},
            " (path-profiled run)",
        )
    except AssertionError:
        _dump_emitted(program, plan, model)
        raise

    if "error" in observations["reference"]:
        return  # identically-failing runs; no spectrum to reconstruct

    # Every backend's spectrum reconstructs the ground truth of the
    # plain reference run, STOP-halted runs included.
    truth = run_program(program, backend="reference", model=model, **kwargs)
    for backend, executor in executors.items():
        assert_matches_oracle(
            program,
            reconstruct_path_profile(program, plan, executor, runs=1),
            truth,
            f" ({backend} path profile vs plain reference run)",
        )

    # Cross-mode: the spectrum regenerates the counter-based profile.
    counter_plan = smart_program_plan(program)
    counter_executor = PlanExecutor(counter_plan)
    run_program(program, hooks=counter_executor, model=model, **kwargs)
    counter_profile = reconstruct_profile(counter_plan, counter_executor, runs=1)
    path_profile = reconstruct_path_profile(
        program, plan, executors["reference"], runs=1
    )
    for name in program.cfgs:
        fcdg = program.fcdgs[name]
        want = compute_frequencies(fcdg, counter_profile.proc(name))
        got = compute_frequencies(fcdg, path_profile.proc(name))
        assert got.total_freq == want.total_freq, (
            f"path-reconstructed TOTAL_FREQ diverges in {name}"
        )
        assert got.freq == want.freq, (
            f"path-reconstructed FREQ diverges in {name}"
        )
        assert got.node_freq == want.node_freq, (
            f"path-reconstructed NODE_FREQ diverges in {name}"
        )
