"""Unit tests for the interval (loop-nesting) structure."""

import pytest

from repro.errors import IrreducibleError
from repro.intervals import compute_intervals
from repro.lang.parser import parse_program
from repro.cfg.builder import build_cfg
from repro.cfg.graph import StmtKind
from repro import compile_source
from repro.workloads import builtin_sources
from repro.workloads.generators import ProgramGenerator


def intervals_of(body_lines):
    source = "PROGRAM MAIN\n" + "\n".join(body_lines) + "\nEND\n"
    cfg = build_cfg(parse_program(source).main)
    return cfg, compute_intervals(cfg)


class TestStructure:
    def test_loop_free_program_has_only_root(self):
        cfg, intervals = intervals_of(["X = 1", "Y = 2"])
        assert intervals.headers == [cfg.entry]
        assert intervals.loop_headers == []

    def test_root_contains_all_nodes(self):
        cfg, intervals = intervals_of(["X = 1", "IF (X .GT. 0) Y = 2"])
        assert intervals.members[intervals.root] == set(cfg.nodes)

    def test_root_parent_is_zero(self):
        cfg, intervals = intervals_of(["X = 1"])
        assert intervals.parent_of(intervals.root) == 0

    def test_single_do_loop(self):
        cfg, intervals = intervals_of(
            ["DO 10 I = 1, 5", "X = X + 1.0", "10 CONTINUE"]
        )
        assert len(intervals.loop_headers) == 1
        header = intervals.loop_headers[0]
        assert cfg.nodes[header].kind is StmtKind.DO_TEST

    def test_loop_members(self):
        cfg, intervals = intervals_of(
            ["DO 10 I = 1, 5", "X = X + 1.0", "10 CONTINUE"]
        )
        header = intervals.loop_headers[0]
        member_kinds = {cfg.nodes[n].kind for n in intervals.members[header]}
        assert StmtKind.DO_TEST in member_kinds
        assert StmtKind.DO_INCR in member_kinds
        assert StmtKind.ASSIGN in member_kinds
        assert StmtKind.DO_INIT not in member_kinds  # init precedes the loop

    def test_goto_loop_header(self):
        cfg, intervals = intervals_of(
            ["10 X = X + 1.0", "IF (X .LT. 5.0) GOTO 10"]
        )
        assert len(intervals.loop_headers) == 1
        header = intervals.loop_headers[0]
        assert "X" in cfg.nodes[header].text

    def test_irreducible_rejected(self):
        from repro.workloads.unstructured import IRREDUCIBLE

        cfg = build_cfg(parse_program(IRREDUCIBLE).main)
        with pytest.raises(IrreducibleError):
            compute_intervals(cfg)


class TestNesting:
    def nested(self):
        return intervals_of(
            [
                "DO 20 I = 1, 4",
                "DO 10 J = 1, 3",
                "X = X + 1.0",
                "10 CONTINUE",
                "20 CONTINUE",
            ]
        )

    def test_two_loops_found(self):
        cfg, intervals = self.nested()
        assert len(intervals.loop_headers) == 2

    def test_nesting_parent_chain(self):
        cfg, intervals = self.nested()
        outer, inner = intervals.loop_headers  # ordered by depth
        assert intervals.parent_of(outer) == intervals.root
        assert intervals.parent_of(inner) == outer

    def test_depths(self):
        cfg, intervals = self.nested()
        outer, inner = intervals.loop_headers
        assert intervals.depth_of(outer) == 1
        assert intervals.depth_of(inner) == 2

    def test_lca(self):
        cfg, intervals = self.nested()
        outer, inner = intervals.loop_headers
        assert intervals.lca(inner, outer) == outer
        assert intervals.lca(inner, intervals.root) == intervals.root
        assert intervals.lca(inner, inner) == inner

    def test_lca_of_siblings(self):
        cfg, intervals = intervals_of(
            [
                "DO 10 I = 1, 3",
                "X = X + 1.0",
                "10 CONTINUE",
                "DO 20 J = 1, 3",
                "Y = Y + 1.0",
                "20 CONTINUE",
            ]
        )
        first, second = intervals.loop_headers
        assert intervals.lca(first, second) == intervals.root

    def test_hdr_of_inner_node(self):
        cfg, intervals = self.nested()
        outer, inner = intervals.loop_headers
        assign = next(n for n in cfg if n.kind is StmtKind.ASSIGN)
        assert intervals.hdr_of(assign.id) == inner

    def test_header_belongs_to_own_interval(self):
        cfg, intervals = self.nested()
        for header in intervals.loop_headers:
            assert intervals.hdr_of(header) == header

    def test_intervals_nest_properly(self):
        cfg, intervals = self.nested()
        outer, inner = intervals.loop_headers
        assert intervals.members[inner] < intervals.members[outer]


class TestEdges:
    def test_exit_edges_of_do_loop(self):
        cfg, intervals = intervals_of(
            ["DO 10 I = 1, 5", "X = X + 1.0", "10 CONTINUE"]
        )
        header = intervals.loop_headers[0]
        exits = intervals.exit_edges(header)
        assert len(exits) == 1
        assert exits[0].src == header
        assert exits[0].label == "F"

    def test_exit_edges_with_goto_exit(self):
        cfg, intervals = intervals_of(
            [
                "DO 10 I = 1, 5",
                "IF (X .GT. 2.0) GOTO 20",
                "X = X + 1.0",
                "10 CONTINUE",
                "20 CONTINUE",
            ]
        )
        header = intervals.loop_headers[0]
        assert len(intervals.exit_edges(header)) == 2

    def test_exit_edges_match_the_all_edge_definition(self):
        """The exit map built once per structure equals scanning every
        edge per interval, order included, on every header."""
        sources = [src for _, src in builtin_sources()]
        sources += [ProgramGenerator(seed).source() for seed in range(40)]
        for source in sources:
            for ecfg in compile_source(source).ecfgs.values():
                intervals = ecfg.intervals
                for header in intervals.headers:
                    body = intervals.members[header]
                    expected = [
                        edge
                        for edge in intervals.cfg.edges
                        if edge.src in body
                        and edge.dst not in body
                        and not edge.is_pseudo
                    ]
                    assert intervals.exit_edges(header) == expected

    def test_exit_edges_of_a_non_header_raise(self):
        cfg, intervals = intervals_of(["X = 1", "Y = 2"])
        non_header = next(n for n in cfg.nodes if n != intervals.root)
        with pytest.raises(KeyError):
            intervals.exit_edges(non_header)

    def test_entry_edges(self):
        cfg, intervals = intervals_of(
            ["DO 10 I = 1, 5", "X = X + 1.0", "10 CONTINUE"]
        )
        header = intervals.loop_headers[0]
        entries = intervals.entry_edges(header)
        assert len(entries) == 1
        assert cfg.nodes[entries[0].src].kind is StmtKind.DO_INIT

    def test_back_edges_grouped_by_header(self):
        cfg, intervals = intervals_of(
            ["DO 10 I = 1, 5", "X = X + 1.0", "10 CONTINUE"]
        )
        header = intervals.loop_headers[0]
        backs = intervals.loop_back_edges[header]
        assert len(backs) == 1
        assert cfg.nodes[backs[0].src].kind is StmtKind.DO_INCR
