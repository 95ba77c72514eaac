"""Calibrated-prediction accuracy against measured wall clock.

The validation observatory's acceptance gate (ISSUE 9): calibrating
the abstract cost model on a corpus of real executions must bring the
paper's TIME predictions within 25% median relative error of the
measured per-run wall-clock mean.  This benchmark runs the full loop
— measure the corpus, fit the calibration, score every program — and
emits a human table plus machine-readable
``benchmarks/results/BENCH_validation.json`` (the gate reading and
each program's timed runs as a layer) so later changes can diff
prediction accuracy.

The gate is ``REPRO_VALIDATION_GATE`` (default 0.25) applied to the
**median** TIME relative error across the corpus; per-program errors
and CI coverage are tabulated but not gated (a single noisy trial on
a shared CI box must not flake the build).
"""

from __future__ import annotations

import os

from repro.report import format_table
from repro.validate import AccuracyScorer, median_relative_error
from repro.validate.corpus import corpus_sources, run_calibration

from conftest import enforce, gate, publish, record

TRIALS = 5
WARMUP = 2


def test_calibrated_time_accuracy():
    limit = float(os.environ.get("REPRO_VALIDATION_GATE", "0.25"))
    sources = corpus_sources(builtins=True, generated=4, gen_seed=1000)
    calibration, measured = run_calibration(
        sources, trials=TRIALS, warmup=WARMUP
    )
    scores = AccuracyScorer(calibration).score_corpus(measured)
    median = median_relative_error(scores)

    rows = []
    for score in scores:
        rows.append(
            [
                score.label,
                f"{score.measured_mean_ns / 1e3:.1f}",
                f"{score.predicted_time_ns / 1e3:.1f}",
                f"{100 * score.time_relative_error:.1f}%",
                f"{score.time_z_score:+.2f}",
                "yes" if score.time_in_ci else "no",
                "yes" if score.var_in_ci else "no",
            ]
        )

    table = format_table(
        [
            "program",
            "measured µs",
            "predicted µs",
            "rel err",
            "z",
            "TIME in CI",
            "VAR in CI",
        ],
        rows,
        title=(
            f"calibrated TIME vs wall clock ({TRIALS} trials, "
            f"R² = {calibration.r_squared:.4f}, "
            f"median rel err {100 * median:.1f}%)"
        ),
    )
    publish("validation_accuracy", table)

    enforce(
        record(
            "validation",
            end_to_end={
                "validation.median_time_relative_error": gate(
                    median, limit, "lower"
                )
            },
            layers={
                f"validate.{label}": program.measurement
                for label, _program, program in measured
            },
        )
    )
