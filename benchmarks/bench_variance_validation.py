"""Validation of the Section-5 variance model against Monte Carlo.

The paper derives VAR(u) assuming independent branch outcomes; for a
program whose branches really are i.i.d. coin flips, the model's
VAR(START) should match the sample variance of measured per-run
costs.  Loops expose the model's two deliberate approximations:

* the trip-test branch of a counted loop is treated as probabilistic,
  so a deterministic loop gets nonzero variance;
* Case 1 scales body variance by FREQ², treating iterations as
  perfectly correlated rather than independent.

The benchmark quantifies all three regimes (the paper reports no such
validation — this reproduces what its model *implies*).
"""

from __future__ import annotations

import statistics

import pytest

from repro import (
    SCALAR_MACHINE,
    analyze,
    compile_source,
    run_program,
)
from repro.report import format_table

from conftest import publish

#: Branch-only DAG: three independent coin flips with different costs.
BRANCH_DAG = """\
      PROGRAM FLIPS
      IF (RAND() .LT. 0.3) X = X + SQRT(2.0)
      IF (RAND() .LT. 0.5) THEN
        Y = Y * 2.0 + 1.0
      ELSE
        Y = Y - 1.0
      ENDIF
      IF (RAND() .LT. 0.7) Z = Z + X * Y
      END
"""

#: Geometric loop: continue with probability 0.9 each iteration.
GEOMETRIC_LOOP = """\
      PROGRAM GEO
      K = 0
10    K = K + 1
      X = X + SQRT(REAL(K))
      IF (RAND() .LT. 0.9) GOTO 10
      END
"""

#: Deterministic counted loop (zero true variance).
COUNTED_LOOP = """\
      PROGRAM DET
      DO 10 I = 1, 50
        X = X + SQRT(REAL(I))
10    CONTINUE
      END
"""

N_RUNS = 600


def _validate(source):
    """Measured (mean, var) plus the model under each VAR(FREQ) route."""
    from repro import profile_program
    from repro.analysis.distributions import LoopDistribution

    program = compile_source(source)
    specs = [{"seed": s} for s in range(N_RUNS)]
    costs = [
        run_program(program, model=SCALAR_MACHINE, **spec).total_cost
        for spec in specs
    ]
    profile, _ = profile_program(
        program, runs=specs, record_loop_moments=True
    )
    models = {
        "zero": analyze(program, profile, SCALAR_MACHINE),
        "geometric": analyze(
            program,
            profile,
            SCALAR_MACHINE,
            loop_variance=LoopDistribution.GEOMETRIC,
        ),
        "profiled": analyze(
            program, profile, SCALAR_MACHINE, loop_variance="profiled"
        ),
    }
    return models, statistics.fmean(costs), statistics.pvariance(costs)


def test_variance_validation():
    results = {
        "branch DAG (iid)": _validate(BRANCH_DAG),
        "geometric loop": _validate(GEOMETRIC_LOOP),
        "counted loop": _validate(COUNTED_LOOP),
    }

    rows = []
    for name, (models, mean, var) in results.items():
        rows.append(
            [
                name,
                mean,
                var,
                models["zero"].total_var,
                models["geometric"].total_var,
                models["profiled"].total_var,
            ]
        )
    publish(
        "variance_validation",
        format_table(
            ["program", "mean (MC)", "var (MC)", "VAR zero",
             "VAR geometric", "VAR profiled"],
            rows,
            title=(
                f"Section-5 variance model vs {N_RUNS}-run Monte Carlo, "
                "under the three VAR(FREQ) routes (scalar machine)"
            ),
        ),
    )

    # TIME always matches the measured mean exactly.
    for name, (models, mean, _) in results.items():
        assert models["zero"].total_time == pytest.approx(mean, rel=1e-9), name

    # Branch-only DAG: no loops, every route identical and exact up
    # to sampling noise.
    models, _, var = results["branch DAG (iid)"]
    assert models["zero"].total_var == pytest.approx(var, rel=0.25)
    assert models["zero"].total_var == models["profiled"].total_var

    # Geometric loop: with VAR(FREQ) = 0 the model sees no variance
    # (all per-iteration work is deterministic); the profiled E[F²]
    # route recovers the true variance almost exactly, and the
    # assumed-geometric route lands the right order of magnitude.
    models, _, var = results["geometric loop"]
    assert models["zero"].total_var == pytest.approx(0.0)
    assert models["profiled"].total_var == pytest.approx(var, rel=0.35)
    assert 0.1 < models["geometric"].total_var / var < 10.0

    # Deterministic loop: reality has zero variance.  The model keeps
    # a conservative Case-2 term (the trip test is treated as a
    # probabilistic branch), identical under the zero and profiled
    # routes (profiling observes VAR(FREQ) = 0); it stays small
    # relative to TIME².  The assumed-geometric route, wrong for a
    # counted loop, overestimates by orders of magnitude.
    models, _, var = results["counted loop"]
    assert var == pytest.approx(0.0)
    assert models["profiled"].total_var == pytest.approx(
        models["zero"].total_var
    )
    assert models["zero"].total_var < (0.2 * models["zero"].total_time) ** 2
    assert models["geometric"].total_var > 10 * models["zero"].total_var
