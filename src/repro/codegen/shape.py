"""Lowering prep: the static shape of one procedure, and its errors.

Before emitting a procedure, the codegen backend fixes one static
description of it: which variables exist and in what order (the
reference interpreter's env insertion order), which hidden trip
counters its DO loops need, the dense numbering of CFG nodes and real
(non-pseudo) edges, the loops (the front end's intervals) over that
numbering, and the FUNCTION result variable.
:func:`build_shape` derives that once from the checked program;
anything it cannot express raises :class:`LoweringError` so the
pipeline can fall back to the reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.graph import ControlFlowGraph, is_pseudo_label
from repro.intervals import IntervalStructure
from repro.lang import ast


class LoweringError(Exception):
    """The codegen backend cannot lower this program; fall back.

    Deliberately not a :class:`~repro.errors.ReproError`: it signals
    an engine limitation, never a program error, so callers that
    catch ``ReproError`` for program failures must not swallow it.
    """


class UnsupportedHooksError(LoweringError):
    """The hooks object needs the reference interpreter's event stream."""


@dataclass
class ProcShape:
    """The static layout of one procedure."""

    name: str
    index: int
    proc: ast.Procedure
    cfg: ControlFlowGraph
    #: Variable names, params first (binding order) then the remaining
    #: symbol-table variables in declaration order — the same order the
    #: reference interpreter populates its env dict.
    names: list[str] = field(default_factory=list)
    #: Hidden DO trip counters, numbered after the variables.
    trip_slots: dict[str, int] = field(default_factory=dict)
    #: Result variable slot for FUNCTIONs, None for the rest.
    ret_slot: int | None = None
    #: CFG node ids in insertion order and their dense indices.
    node_ids: list[int] = field(default_factory=list)
    dense: dict[int, int] = field(default_factory=dict)
    entry_idx: int = 0
    #: Real (non-pseudo) edges in CFG order and their dense indices;
    #: a duplicated (src, label) keeps the *last* index, matching the
    #: reference interpreter's dict-built dispatch table.
    edge_keys: list[tuple[int, str]] = field(default_factory=list)
    edge_index: dict[tuple[int, str], int] = field(default_factory=dict)
    #: Dense loop header -> dense body (header included): the CFG's
    #: interval members without the whole-procedure pseudo-interval.
    loops: dict[int, set[int]] = field(default_factory=dict)


def build_shape(
    checked,
    name: str,
    cfg: ControlFlowGraph,
    index: int,
    intervals: IntervalStructure,
) -> ProcShape:
    """Derive one procedure's :class:`ProcShape` (raises LoweringError).

    ``intervals`` is the front end's interval structure of ``cfg``.
    """
    unit = checked.unit
    proc = unit.procedures.get(name)
    if proc is None:
        if unit.main.name != name:
            raise LoweringError(f"no procedure named {name}")
        proc = unit.main
    table = checked.tables[name]

    shape = ProcShape(name=name, index=index, proc=proc, cfg=cfg)

    layout: dict[str, int] = {}
    for param in proc.params:
        if param not in layout:
            layout[param] = len(layout)
    for vname in table.variables:
        if vname not in layout:
            layout[vname] = len(layout)
    shape.names = list(layout)

    trip_slots: dict[str, int] = {}
    for node in cfg.nodes.values():
        tv = node.trip_var
        if tv is not None and tv not in trip_slots:
            trip_slots[tv] = len(layout) + len(trip_slots)
    shape.trip_slots = trip_slots

    if proc.kind is ast.ProcKind.FUNCTION:
        ret_slot = layout.get(proc.name)
        if ret_slot is None:
            raise LoweringError(f"{name}: FUNCTION has no result variable slot")
        shape.ret_slot = ret_slot
    else:
        shape.ret_slot = None

    shape.node_ids = list(cfg.nodes)
    shape.dense = {nid: i for i, nid in enumerate(shape.node_ids)}
    if cfg.entry not in shape.dense:
        raise LoweringError(f"{name}: entry node missing from CFG")
    shape.entry_idx = shape.dense[cfg.entry]

    shape.edge_keys = [
        (edge.src, edge.label)
        for edge in cfg.edges
        if not is_pseudo_label(edge.label)
    ]
    shape.edge_index = {key: i for i, key in enumerate(shape.edge_keys)}

    dense = shape.dense
    shape.loops = {
        dense[header]: {dense[nid] for nid in body}
        for header, body in intervals.members.items()
        if header != intervals.root
    }
    return shape
