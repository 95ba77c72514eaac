"""The chunk-size application (Sections 1 & 5, after Kruskal-Weiss).

"When the execution time of the loop body has zero variance, we would
prefer to use a chunk size of N/P ...  However, when the variance is
large, we have to move to smaller chunk sizes."  This benchmark sweeps
chunk sizes for a low-variance and a high-variance parallel loop,
using the framework's compile-time (TIME, VAR) estimates to pick the
chunk, and validates against a self-scheduling simulation.

Shape: the variance-aware choice ties static N/P on the steady loop
and beats it clearly on the bursty loop; the crossover moves to
smaller chunks as variance grows.
"""

from __future__ import annotations

from repro import SCALAR_MACHINE, analyze, compile_source, profile_program
from repro.apps.chunking import (
    estimate_makespan,
    loop_iteration_stats,
    optimal_chunk_size,
    simulate_chunked_loop,
)
from repro.report import format_table

from conftest import publish

STEADY = """\
      PROGRAM STEADY
      INTEGER I
      DO 10 I = 1, 400
        X = X + SQRT(REAL(I)) * 1.5 + 2.0
10    CONTINUE
      END
"""

BURSTY = """\
      PROGRAM BURSTY
      INTEGER I, J, M
      DO 20 I = 1, 400
        M = IRAND(0, 40)
        DO 10 J = 1, M
          X = X + SQRT(REAL(J))
10      CONTINUE
20    CONTINUE
      END
"""

PROCESSORS = 8
OVERHEAD = 40.0
SWEEP = [1, 2, 5, 10, 25, 50]


def _loop_stats(source):
    program = compile_source(source)
    profile, _ = profile_program(program, runs=3, record_loop_moments=True)
    analysis = analyze(
        program, profile, SCALAR_MACHINE, loop_variance="profiled"
    )
    main = analysis.main
    outer = min(
        main.ecfg.preheader_of,
        key=lambda h: main.ecfg.intervals.depth_of(h),
    )
    mean, var = loop_iteration_stats(main, outer)
    n_iter = round(
        main.freqs.loop_frequency(main.ecfg.preheader_of[outer])
    )
    return n_iter, mean, var**0.5


def _sweep(n_iter, mean, std):
    """chunk -> (estimated makespan, simulated average makespan)."""
    out = {}
    for chunk in SWEEP:
        estimated = estimate_makespan(
            n_iter, PROCESSORS, mean, std, OVERHEAD, chunk
        )
        simulated = sum(
            simulate_chunked_loop(
                n_iter, PROCESSORS, mean, std, OVERHEAD, chunk, seed=s
            ).makespan
            for s in range(25)
        ) / 25
        out[chunk] = (estimated, simulated)
    return out


def test_chunk_size_sweep():
    results = {}
    for name, source in [("STEADY", STEADY), ("BURSTY", BURSTY)]:
        n_iter, mean, std = _loop_stats(source)
        advised = optimal_chunk_size(n_iter, PROCESSORS, mean, std, OVERHEAD)
        results[name] = (n_iter, mean, std, advised, _sweep(n_iter, mean, std))

    rows = []
    for name, (n_iter, mean, std, advised, sweep) in results.items():
        for chunk, (estimated, simulated) in sweep.items():
            rows.append(
                [
                    name,
                    chunk,
                    estimated,
                    simulated,
                    "advised" if chunk == advised else "",
                ]
            )
    publish(
        "chunking_sweep",
        format_table(
            ["loop", "chunk", "est. makespan", "sim. makespan", ""],
            rows,
            title=(
                f"Chunk-size sweep, P={PROCESSORS}, overhead={OVERHEAD} "
                "(compile-time estimate vs self-scheduling simulation)"
            ),
        ),
    )

    steady_iter, steady_mean, steady_std, steady_k, steady_sweep = results[
        "STEADY"
    ]
    bursty_iter, bursty_mean, bursty_std, bursty_k, bursty_sweep = results[
        "BURSTY"
    ]

    # Low variance -> big chunks; high variance -> smaller chunks.
    assert steady_std / steady_mean < 0.25
    assert bursty_std / bursty_mean > 0.4
    assert bursty_k < steady_k

    # Simulation agrees: on the bursty loop, the advised chunk beats
    # the static N/P split; on the steady loop, big chunks win.
    static = max(SWEEP)
    bursty_best = min(bursty_sweep, key=lambda k: bursty_sweep[k][1])
    assert bursty_sweep[bursty_best][1] <= bursty_sweep[static][1]
    assert bursty_best < static
    steady_best = min(steady_sweep, key=lambda k: steady_sweep[k][1])
    assert steady_best >= 25
