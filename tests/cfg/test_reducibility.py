"""Unit tests for reducibility testing and node splitting."""

import pytest

from repro import compile_source, run_program
from repro.cfg.graph import ControlFlowGraph, StmtKind
from repro.cfg.reducibility import (
    back_edges,
    forward_cycle,
    is_reducible,
    reducible_back_edges,
    split_nodes,
)
from repro.workloads import builtin_sources
from repro.workloads.generators import ProgramGenerator
from repro.workloads.unstructured import IRREDUCIBLE


def irreducible_cfg():
    """entry -> (a|b); a <-> b; a -> exit  (two-entry cycle)."""
    cfg = ControlFlowGraph(name="irr")
    ids = {}
    for name in ["entry", "a", "b", "exit"]:
        ids[name] = cfg.add_node(StmtKind.NOOP, text=name).id
    cfg.entry = ids["entry"]
    cfg.exit = ids["exit"]
    cfg.add_edge(ids["entry"], ids["a"], "T")
    cfg.add_edge(ids["entry"], ids["b"], "F")
    cfg.add_edge(ids["a"], ids["b"], "T")
    cfg.add_edge(ids["b"], ids["a"], "U")
    cfg.add_edge(ids["a"], ids["exit"], "F")
    return cfg, ids


def reducible_loop_cfg():
    cfg = ControlFlowGraph(name="red")
    ids = {}
    for name in ["entry", "h", "body", "exit"]:
        ids[name] = cfg.add_node(StmtKind.NOOP, text=name).id
    cfg.entry = ids["entry"]
    cfg.exit = ids["exit"]
    cfg.add_edge(ids["entry"], ids["h"], "U")
    cfg.add_edge(ids["h"], ids["body"], "T")
    cfg.add_edge(ids["body"], ids["h"], "U")
    cfg.add_edge(ids["h"], ids["exit"], "F")
    return cfg, ids


class TestDetection:
    def test_loop_is_reducible(self):
        cfg, _ = reducible_loop_cfg()
        assert is_reducible(cfg)

    def test_two_entry_cycle_is_irreducible(self):
        cfg, _ = irreducible_cfg()
        assert not is_reducible(cfg)

    def test_forward_cycle_reports_cycle_nodes(self):
        cfg, ids = irreducible_cfg()
        cycle = forward_cycle(cfg)
        assert cycle is not None
        assert set(cycle) <= {ids["a"], ids["b"]}

    def test_back_edges_of_natural_loop(self):
        cfg, ids = reducible_loop_cfg()
        edges = back_edges(cfg)
        assert [(e.src, e.dst) for e in edges] == [(ids["body"], ids["h"])]

    def test_self_loop_is_reducible(self):
        cfg = ControlFlowGraph()
        a = cfg.add_node(StmtKind.NOOP)
        b = cfg.add_node(StmtKind.NOOP)
        cfg.entry, cfg.exit = a.id, b.id
        cfg.add_edge(a.id, a.id, "T")
        cfg.add_edge(a.id, b.id, "F")
        assert is_reducible(cfg)


class TestSharedTraversal:
    """``reducible_back_edges`` answers reducibility and lists the back
    edges from one DFS; both answers match the separate definitions."""

    def test_irreducible_is_none(self):
        cfg, _ = irreducible_cfg()
        assert reducible_back_edges(cfg) is None

    def test_unreachable_node_falls_back_to_cycle_search(self):
        cfg, ids = reducible_loop_cfg()
        orphan = cfg.add_node(StmtKind.NOOP).id
        cfg.add_edge(orphan, ids["h"], "U")
        assert reducible_back_edges(cfg) == back_edges(cfg)

    def test_matches_back_edges_on_corpus(self):
        sources = [s for _, s in builtin_sources()] + [
            ProgramGenerator(seed).source() for seed in range(40)
        ]
        for source in sources:
            program = compile_source(source)
            for cfg in program.cfgs.values():
                assert reducible_back_edges(cfg) == back_edges(cfg)


class TestNodeSplitting:
    def test_splitting_makes_reducible(self):
        cfg, _ = irreducible_cfg()
        n_before = len(cfg)
        splits = split_nodes(cfg)
        assert splits >= 1
        assert is_reducible(cfg)
        assert len(cfg) > n_before

    def test_split_preserves_paths(self):
        cfg, ids = irreducible_cfg()
        split_nodes(cfg)
        reachable = cfg.reachable_from_entry()
        assert cfg.exit in reachable

    def test_splitting_reducible_graph_is_noop(self):
        cfg, _ = reducible_loop_cfg()
        assert split_nodes(cfg) == 0

    def test_irreducible_program_end_to_end(self):
        program = compile_source(IRREDUCIBLE)
        assert program.splits.get("IRRED", 0) >= 1
        result = run_program(program, inputs=(9.0,))
        assert result.outputs  # ran to completion

    def test_split_program_semantics_unchanged(self):
        # The split CFG must compute the same result as the source
        # semantics: K counts down from the input to below zero.
        program = compile_source(IRREDUCIBLE)
        for k in [0.0, 3.0, 7.0, 12.0]:
            result = run_program(program, inputs=(k,))
            assert int(result.outputs[0]) < 0
