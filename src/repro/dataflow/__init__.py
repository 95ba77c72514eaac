"""Worklist dataflow analyses over the statement-level CFG.

The generic solver lives in :mod:`repro.dataflow.framework`; the four
production analyses (reaching definitions, liveness, SCCP constants,
value ranges) in :mod:`repro.dataflow.analyses`; scalar use/def
extraction with interprocedural by-reference summaries in
:mod:`repro.dataflow.usedef`; and static FREQ/TIME/VAR interval bounds
in :mod:`repro.dataflow.bounds`.  See ``docs/dataflow.md``.
"""

from repro.dataflow.framework import (
    SOLVER_CORRUPTIONS,
    DataflowProblem,
    FixpointDiverged,
    Solution,
    solve,
)
from repro.dataflow.analyses import (
    ANALYSIS_CORRUPTIONS,
    ConstantFacts,
    ConstantPropagation,
    Liveness,
    ProcDataflow,
    ReachingDefinitions,
    ValueRanges,
    analyze_procedure,
    solve_constants,
    trip_interval,
)
from repro.dataflow.bounds import (
    ProcStaticBounds,
    StaticBoundsAnalysis,
    compute_static_bounds,
    format_endpoint,
)
from repro.dataflow.usedef import (
    NodeFacts,
    ProcSummary,
    all_node_facts,
    node_facts,
    param_summaries,
)

__all__ = [
    "ANALYSIS_CORRUPTIONS",
    "SOLVER_CORRUPTIONS",
    "ConstantFacts",
    "ConstantPropagation",
    "DataflowProblem",
    "FixpointDiverged",
    "Liveness",
    "NodeFacts",
    "ProcDataflow",
    "ProcStaticBounds",
    "ProcSummary",
    "ReachingDefinitions",
    "Solution",
    "StaticBoundsAnalysis",
    "ValueRanges",
    "all_node_facts",
    "analyze_procedure",
    "compute_static_bounds",
    "format_endpoint",
    "node_facts",
    "param_summaries",
    "solve",
    "solve_constants",
    "trip_interval",
]
