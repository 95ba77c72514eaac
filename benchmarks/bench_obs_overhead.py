"""Observability overhead: the instrumentation must pay for itself.

The paper's Table 1 argument is that measurement is only credible
when its own cost is measured and bounded; PR 4 applies that to the
reproduction's self-instrumentation.  Two regimes are gated:

* **disabled** (the default) — ``span()`` returns a shared no-op
  object.  We time the no-op path directly and require that the spans
  a full pipeline pass would have opened cost well under 0.5% of that
  pass, i.e. no measurable overhead when nobody is tracing;
* **enabled** (a ring-buffer sink, what ``repro trace`` uses) — a
  compile → plan → profile → analyze pass over the paper's program is
  timed with tracing off and on, ``TRIALS`` interleaved single-pass
  trials per leg.  Acceptance: enabled tracing costs < 5%
  wall time on the compile path, as measured (noise can read < 0).
"""

from __future__ import annotations

import gc

from repro import analyze, compile_source, profile_program, smart_program_plan
from repro.obs import RingBufferSink, configure_tracing, disable_tracing, span
from repro.report import format_table
from repro.validate.measure import measure_callable
from repro.workloads.paper_example import PAPER_SOURCE

from conftest import enforce, gate, interleaved, publish, record

#: Single-pass trials per leg.  Many short interleaved trials pair
#: the two legs far more tightly than a few long loops: on a shared
#: 2-vCPU VM, 5 x 20-pass loops read anywhere from -3% to +7%.
TRIALS = 150
NOOP_TRIALS = 5
NOOP_CALLS = 100_000
#: Spans opened by one pipeline pass (compile 6, plan 1, check 0 here,
#: profile 2 + per-run, analyze 1) — rounded up for headroom.
SPANS_PER_PASS = 16
ENABLED_CEILING = 0.05
DISABLED_CEILING = 0.005


def _pipeline_pass(_trial=None) -> None:
    program = compile_source(PAPER_SOURCE)
    plan = smart_program_plan(program)
    profile, _stats = profile_program(program, runs=1, plan=plan)
    analyze(program, profile)


def _noop_spans(_trial) -> None:
    for _ in range(NOOP_CALLS):
        with span("bench.noop"):
            pass


def test_observability_overhead():
    disable_tracing()
    noop = measure_callable(
        _noop_spans, trials=NOOP_TRIALS, warmup=1, label="obs.noop_spans"
    )
    noop_per_call = noop.mean_ns / NOOP_CALLS

    sink = RingBufferSink(capacity=SPANS_PER_PASS * 2)

    def enabled(_trial) -> None:
        configure_tracing(sink)
        try:
            _pipeline_pass()
        finally:
            disable_tracing()

    # Freeze the heap earlier benchmark modules left in this process:
    # otherwise every collection the spans trigger rescans it, and in
    # a full `pytest benchmarks/` run the reading depends on what ran
    # before (5-9% there against ~1% in a fresh process).
    gc.collect()
    gc.freeze()
    try:
        legs = interleaved(
            {"obs.disabled": _pipeline_pass, "obs.enabled": enabled},
            trials=TRIALS,
        )
    finally:
        gc.unfreeze()
    per_pass_disabled, per_pass_enabled = (m.mean_ns for m in legs.values())
    enabled_overhead = per_pass_enabled / per_pass_disabled - 1.0
    disabled_overhead = SPANS_PER_PASS * noop_per_call / per_pass_disabled

    publish(
        "obs_overhead",
        format_table(
            ["regime", "per pass", "overhead", "ceiling"],
            [
                [
                    "tracing disabled (no-op spans)",
                    f"{per_pass_disabled / 1e6:.3f} ms",
                    f"{100 * disabled_overhead:.3f}%",
                    f"{100 * DISABLED_CEILING:.1f}%",
                ],
                [
                    "tracing enabled (ring sink)",
                    f"{per_pass_enabled / 1e6:.3f} ms",
                    f"{100 * enabled_overhead:.2f}%",
                    f"{100 * ENABLED_CEILING:.0f}%",
                ],
                [
                    "no-op span call",
                    f"{noop_per_call:.0f} ns",
                    "-",
                    "-",
                ],
            ],
            title=(
                f"self-instrumentation overhead (mean of {TRIALS} "
                "interleaved single-pass trials per leg)"
            ),
        ),
    )
    enforce(
        record(
            "obs",
            end_to_end={
                "obs.disabled_overhead": gate(
                    disabled_overhead, DISABLED_CEILING, "lower"
                ),
                "obs.enabled_overhead": gate(
                    enabled_overhead, ENABLED_CEILING, "lower"
                ),
            },
            layers={"obs.noop_spans": noop, **legs},
        )
    )
