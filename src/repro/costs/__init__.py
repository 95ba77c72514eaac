"""Architecture cost models and per-node COST estimation.

The paper assumes "the (average) local execution time of each node ...
has already been estimated, and is stored as COST(u)" and notes that
the same frequency information can be reused for different target
architectures.  This package provides table-driven machine models and
the static estimator that assigns COST(u) to CFG nodes.
"""

from repro.costs.model import MachineModel, OPTIMIZING_MACHINE, SCALAR_MACHINE
from repro.costs.estimate import (
    CostEstimator,
    CostTables,
    cost_tables,
    node_cost,
)

__all__ = [
    "MachineModel",
    "SCALAR_MACHINE",
    "OPTIMIZING_MACHINE",
    "CostEstimator",
    "CostTables",
    "cost_tables",
    "node_cost",
]
