"""The linear-time claim (Section 7).

"The average execution times and variance values can be computed in a
single, linear time, bottom-up traversal of the forward control
dependence graph."  This benchmark grows generated programs by an
order of magnitude and checks that analysis latency grows roughly
linearly with FCDG size (within a generous constant for Python-level
noise and the small super-linear pieces: postdominators, closures).

Counter placement (``smart_program_plan``) is timed over the same
programs and recorded as ``placement.chunksN`` layers; its per-node
growth is gated under the same ceiling.  The greedy Opt-2 drop test
only searches each candidate measure's backward rule cone, so
placement must stay linear in the program too.

Codegen emission of the smart-plan, scalar-model variant (shapes,
emitted text and its ``compile()``, on a fresh backend each trial) is
recorded as ``codegen.chunksN`` layers, and its per-node growth is
gated under the same ceiling as the analysis passes: the emitted text
must stay linear in the program.
"""

from __future__ import annotations

from repro import (
    SCALAR_MACHINE,
    compile_source,
    oracle_program_profile,
    smart_program_plan,
)
from repro.analysis import (
    compute_frequencies, compute_times, compute_variances,
)
from repro.codegen import CodegenBackend
from repro.costs.estimate import CostEstimator
from repro.report import format_table
from repro.validate.measure import measure_callable
from repro.workloads.generators import ProgramGenerator

from conftest import enforce, gate, publish, record

SIZES = (4, 16, 64)
TRIALS = 5
LINEARITY_CEILING = 4.0


def _concatenate_program(n_copies: int) -> str:
    """A MAIN of ``n_copies`` structurally distinct chunks."""
    body: list[str] = []
    for i in range(n_copies):
        gen = ProgramGenerator(1000 + i, allow_calls=False, max_depth=2)
        gen._label = i * 1000  # keep statement labels globally unique
        gen._loop_var = (i * 37) % 5000
        body.extend(gen._block(0, []))
    return (
        "      PROGRAM BIG\n      REAL ARR(20)\n"
        + "\n".join("      " + line for line in body)
        + "\n      END\n"
    )


def test_analysis_scales_linearly():
    rows = []
    layers = {}
    per_node = []
    placement_per_node = []
    emit_per_node = []
    for n_copies in SIZES:
        program = compile_source(_concatenate_program(n_copies))
        profile = oracle_program_profile(
            program, runs=[{"seed": 0}], max_steps=20_000_000
        )
        name = program.main_name
        fcdg = program.fcdgs[name]
        estimator = CostEstimator(program.checked, SCALAR_MACHINE)
        node_costs = estimator.cfg_costs(program.cfgs[name], name)
        costs = {nid: nc.local for nid, nc in node_costs.items()}

        def passes(_trial) -> None:
            """Only the three per-FCDG passes the paper calls linear."""
            freqs = compute_frequencies(fcdg, profile.proc(name))
            times = compute_times(fcdg, freqs, costs)
            compute_variances(fcdg, freqs, times)

        label = f"analysis.chunks{n_copies}"
        layers[label] = measure_callable(
            passes, trials=TRIALS, warmup=1, label=label
        )
        per_node.append(layers[label].mean_ns / len(fcdg.nodes))

        placement = f"placement.chunks{n_copies}"
        layers[placement] = measure_callable(
            lambda _trial: smart_program_plan(program),
            trials=TRIALS,
            warmup=1,
            label=placement,
        )
        placement_per_node.append(
            layers[placement].mean_ns / len(fcdg.nodes)
        )

        plan = smart_program_plan(program)
        intervals = {n: e.intervals for n, e in program.ecfgs.items()}

        def emit(_trial) -> str:
            """One variant's emission on a backend with no variants
            cached yet."""
            backend = CodegenBackend(program.checked, program.cfgs, intervals)
            return backend.emitted_source(plan, SCALAR_MACHINE)

        codegen = f"codegen.chunks{n_copies}"
        layers[codegen] = measure_callable(
            emit, trials=TRIALS, warmup=1, label=codegen
        )
        emit_per_node.append(layers[codegen].mean_ns / len(fcdg.nodes))
        lines = emit(0).count("\n")
        rows.append(
            [
                n_copies,
                len(fcdg.nodes),
                layers[label].mean_ns / 1e6,
                per_node[-1] / 1e3,
                layers[placement].mean_ns / 1e6,
                placement_per_node[-1] / 1e3,
                layers[codegen].mean_ns / 1e6,
                emit_per_node[-1] / 1e3,
                lines / len(fcdg.nodes),
            ]
        )

    publish(
        "analysis_scaling",
        format_table(
            [
                "chunks",
                "FCDG nodes",
                "analysis ms",
                "us per node",
                "placement ms",
                "placement us per node",
                "emit ms",
                "emit us per node",
                "emitted lines per node",
            ],
            rows,
            title=(
                "FREQ+TIME+VAR pass, counter placement and codegen "
                f"emission latency vs program size (mean of {TRIALS} "
                "trials)"
            ),
        ),
    )
    # Per-node cost must stay roughly flat from the smallest to the
    # largest program (the linear-time claim), for placement and
    # emission too.
    enforce(
        record(
            "scaling",
            end_to_end={
                "analysis.per_node_growth": gate(
                    per_node[-1] / per_node[0], LINEARITY_CEILING, "lower"
                ),
                "placement.per_node_growth": gate(
                    placement_per_node[-1] / placement_per_node[0],
                    LINEARITY_CEILING,
                    "lower",
                ),
                "codegen.per_node_growth": gate(
                    emit_per_node[-1] / emit_per_node[0],
                    LINEARITY_CEILING,
                    "lower",
                ),
            },
            layers=layers,
        )
    )
