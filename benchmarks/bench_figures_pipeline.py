"""Figures 1-3 — the paper's running example through the pipeline.

Regenerates the three figures as text (CFG, ECFG, annotated FCDG) and
asserts the paper's exact numbers: TIME(START) = 920 and
STD_DEV(START) = 300, with all the intermediate FREQ/TIME/VAR values
of Figure 3.
"""

from __future__ import annotations

import pytest

from repro import analyze, compile_source, oracle_program_profile
from repro.report import render_cfg, render_fcdg
from repro.workloads.paper_example import (
    EXPECTED_STD_DEV,
    EXPECTED_TIME,
    EXPECTED_VAR,
    FigureCostEstimator,
    PAPER_SOURCE,
)

from conftest import publish


def test_figures_1_2_3():
    program = compile_source(PAPER_SOURCE)
    profile = oracle_program_profile(program, runs=[{}])
    analysis = analyze(
        program, profile, model=None, estimator=FigureCostEstimator()
    )

    figure1 = render_cfg(program.cfgs["MAIN"], title="Figure 1: CFG of MAIN")
    figure2 = render_cfg(
        program.ecfgs["MAIN"].graph, title="Figure 2: extended CFG of MAIN"
    )
    figure3 = render_fcdg(analysis.main)
    publish(
        "figures_1_2_3",
        figure1 + "\n\n" + figure2 + "\n\nFigure 3:\n" + figure3,
    )

    main = analysis.main
    graph = main.ecfg.graph
    assert analysis.total_time == pytest.approx(EXPECTED_TIME)
    assert analysis.total_var == pytest.approx(EXPECTED_VAR)
    assert analysis.total_std_dev == pytest.approx(EXPECTED_STD_DEV)

    n2 = next(n.id for n in graph if "IF (N .LT. 0)" in n.text)
    header = next(n.id for n in graph if "IF (M .GE. 0)" in n.text)
    call = next(n.id for n in graph if "CALL FOO" in n.text)
    (preheader,) = main.ecfg.header_of

    # Figure 3's interior annotations.
    assert main.freqs.freq[(n2, "F")] == pytest.approx(0.9)
    assert main.freqs.loop_frequency(preheader) == pytest.approx(10.0)
    assert main.times[call] == pytest.approx(100.0)
    assert main.times[n2] == pytest.approx(91.0)
    assert main.times[header] == pytest.approx(92.0)
    assert main.variances.var[n2] == pytest.approx(900.0)
    assert main.variances.var[preheader] == pytest.approx(90000.0)
