"""Unit tests for the minifort parser."""

import pytest

from repro.errors import LexError, ParseError
from repro.lang import ast
from repro.lang.parser import parse_program


def parse_main_body(body_lines):
    source = "PROGRAM MAIN\n" + "\n".join(body_lines) + "\nEND\n"
    return parse_program(source).main.body


class TestProgramStructure:
    def test_single_program_unit(self):
        unit = parse_program("PROGRAM MAIN\nX = 1\nEND\n")
        assert set(unit.procedures) == {"MAIN"}
        assert unit.main.kind is ast.ProcKind.PROGRAM

    def test_subroutine_with_params(self):
        unit = parse_program(
            "PROGRAM MAIN\nCALL FOO(1, 2)\nEND\n"
            "SUBROUTINE FOO(M, N)\nX = M + N\nEND\n"
        )
        foo = unit.procedures["FOO"]
        assert foo.kind is ast.ProcKind.SUBROUTINE
        assert foo.params == ["M", "N"]

    def test_typed_function(self):
        unit = parse_program(
            "PROGRAM MAIN\nX = 1\nEND\n"
            "INTEGER FUNCTION TWICE(N)\nTWICE = 2 * N\nEND\n"
        )
        fn = unit.procedures["TWICE"]
        assert fn.kind is ast.ProcKind.FUNCTION
        assert fn.return_type is ast.Type.INTEGER

    def test_untyped_function_defaults_to_real(self):
        unit = parse_program(
            "PROGRAM MAIN\nX = 1\nEND\nFUNCTION HALF(X)\nHALF = X / 2.0\nEND\n"
        )
        assert unit.procedures["HALF"].return_type is ast.Type.REAL

    def test_duplicate_procedure_rejected(self):
        with pytest.raises(ParseError):
            parse_program("PROGRAM A\nX=1\nEND\nPROGRAM A\nX=2\nEND\n")

    def test_empty_source_rejected(self):
        with pytest.raises(ParseError):
            parse_program("")

    def test_main_property_requires_program(self):
        unit = parse_program("SUBROUTINE S\nX = 1\nEND\n")
        with pytest.raises(KeyError):
            unit.main


class TestSimpleStatements:
    def test_assignment(self):
        (stmt,) = parse_main_body(["X = 1 + 2"])
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.target, ast.VarRef)
        assert isinstance(stmt.value, ast.Binary)

    def test_array_assignment(self):
        (stmt,) = parse_main_body(["A(I, J) = 0.0"])
        assert isinstance(stmt.target, ast.ArrayRef)
        assert len(stmt.target.indices) == 2

    def test_statement_label(self):
        (stmt,) = parse_main_body(["10 CONTINUE"])
        assert stmt.label == 10
        assert isinstance(stmt, ast.ContinueStmt)

    def test_goto(self):
        stmts = parse_main_body(["10 CONTINUE", "GOTO 10"])
        assert isinstance(stmts[1], ast.Goto)
        assert stmts[1].target == 10

    def test_computed_goto(self):
        stmts = parse_main_body(
            ["GOTO (10, 20, 30), K", "10 CONTINUE", "20 CONTINUE", "30 CONTINUE"]
        )
        cg = stmts[0]
        assert isinstance(cg, ast.ComputedGoto)
        assert cg.targets == [10, 20, 30]
        assert isinstance(cg.selector, ast.VarRef)

    def test_call_no_args(self):
        (stmt,) = parse_main_body(["CALL INIT"])
        assert isinstance(stmt, ast.CallStmt)
        assert stmt.args == []

    def test_call_with_args(self):
        (stmt,) = parse_main_body(["CALL FOO(M, N + 1)"])
        assert len(stmt.args) == 2

    def test_return_stop_print(self):
        stmts = parse_main_body(["PRINT *, X, Y", "STOP", "RETURN"])
        assert isinstance(stmts[0], ast.PrintStmt)
        assert len(stmts[0].items) == 2
        assert isinstance(stmts[1], ast.StopStmt)
        assert isinstance(stmts[2], ast.ReturnStmt)

    def test_declaration(self):
        (stmt,) = parse_main_body(["REAL X, A(10), B(5, 5)"])
        assert isinstance(stmt, ast.Declaration)
        assert stmt.names == [("X", ()), ("A", (10,)), ("B", (5, 5))]

    def test_parameter_statement(self):
        (stmt,) = parse_main_body(["PARAMETER (N = 100, M = 2)"])
        assert isinstance(stmt, ast.ParameterStmt)
        assert [name for name, _ in stmt.bindings] == ["N", "M"]


class TestIfStatements:
    def test_logical_if(self):
        (stmt,) = parse_main_body(["IF (X .GT. 0) X = X - 1"])
        assert isinstance(stmt, ast.LogicalIf)
        assert isinstance(stmt.stmt, ast.Assign)

    def test_logical_if_goto(self):
        stmts = parse_main_body(["10 CONTINUE", "IF (N .LT. 0) GOTO 10"])
        assert isinstance(stmts[1], ast.LogicalIf)
        assert isinstance(stmts[1].stmt, ast.Goto)

    def test_block_if(self):
        (stmt,) = parse_main_body(["IF (X > 0) THEN", "Y = 1", "ENDIF"])
        assert isinstance(stmt, ast.IfBlock)
        assert len(stmt.arms) == 1
        assert stmt.else_body == []

    def test_if_else(self):
        (stmt,) = parse_main_body(
            ["IF (X > 0) THEN", "Y = 1", "ELSE", "Y = 2", "ENDIF"]
        )
        assert len(stmt.arms) == 1
        assert len(stmt.else_body) == 1

    def test_elseif_chain(self):
        (stmt,) = parse_main_body(
            [
                "IF (X > 0) THEN",
                "Y = 1",
                "ELSEIF (X < 0) THEN",
                "Y = 2",
                "ELSE IF (X == 0) THEN",
                "Y = 3",
                "ELSE",
                "Y = 4",
                "ENDIF",
            ]
        )
        assert len(stmt.arms) == 3
        assert len(stmt.else_body) == 1

    def test_end_if_spelling(self):
        (stmt,) = parse_main_body(["IF (X > 0) THEN", "Y = 1", "END IF"])
        assert isinstance(stmt, ast.IfBlock)

    def test_nested_if(self):
        (stmt,) = parse_main_body(
            ["IF (A > 0) THEN", "IF (B > 0) THEN", "C = 1", "ENDIF", "ENDIF"]
        )
        inner = stmt.arms[0][1][0]
        assert isinstance(inner, ast.IfBlock)

    def test_block_if_in_logical_if_rejected(self):
        with pytest.raises(ParseError):
            parse_main_body(["IF (X > 0) IF (Y > 0) Z = 1"])

    def test_missing_endif_rejected(self):
        with pytest.raises(ParseError):
            parse_main_body(["IF (X > 0) THEN", "Y = 1"])


class TestDoLoops:
    def test_enddo_form(self):
        (stmt,) = parse_main_body(["DO I = 1, 10", "S = S + I", "ENDDO"])
        assert isinstance(stmt, ast.DoLoop)
        assert stmt.var == "I"
        assert stmt.step is None
        assert len(stmt.body) == 1

    def test_end_do_spelling(self):
        (stmt,) = parse_main_body(["DO I = 1, 10", "S = S + I", "END DO"])
        assert isinstance(stmt, ast.DoLoop)

    def test_do_with_step(self):
        (stmt,) = parse_main_body(["DO I = 10, 1, -1", "S = S + I", "ENDDO"])
        assert isinstance(stmt.step, ast.Unary)

    def test_labelled_do(self):
        (stmt,) = parse_main_body(["DO 10 I = 1, N", "S = S + I", "10 CONTINUE"])
        assert isinstance(stmt, ast.DoLoop)
        assert len(stmt.body) == 2
        assert stmt.body[-1].label == 10

    def test_nested_labelled_do(self):
        (stmt,) = parse_main_body(
            [
                "DO 20 I = 1, N",
                "DO 10 J = 1, M",
                "A(I, J) = 0.0",
                "10 CONTINUE",
                "20 CONTINUE",
            ]
        )
        inner = stmt.body[0]
        assert isinstance(inner, ast.DoLoop)
        assert inner.var == "J"

    def test_do_while(self):
        (stmt,) = parse_main_body(["DO WHILE (X > 0)", "X = X - 1", "ENDDO"])
        assert isinstance(stmt, ast.DoWhile)

    def test_missing_terminator_rejected(self):
        with pytest.raises(ParseError):
            parse_main_body(["DO 10 I = 1, N", "S = S + I"])


class TestExpressions:
    def expr(self, text):
        (stmt,) = parse_main_body([f"X = {text}"])
        return stmt.value

    def test_precedence_mul_over_add(self):
        e = self.expr("1 + 2 * 3")
        assert e.op is ast.BinOp.ADD
        assert e.right.op is ast.BinOp.MUL

    def test_power_right_associative(self):
        e = self.expr("2 ** 3 ** 2")
        assert e.op is ast.BinOp.POW
        assert e.right.op is ast.BinOp.POW

    def test_power_binds_tighter_than_unary_minus(self):
        e = self.expr("-2 ** 2")
        assert isinstance(e, ast.Unary)
        assert e.operand.op is ast.BinOp.POW

    def test_comparison_below_arithmetic(self):
        e = self.expr("A + 1 .GT. B * 2")
        assert e.op is ast.BinOp.GT

    def test_and_or_precedence(self):
        e = self.expr("A .GT. 0 .OR. B .GT. 0 .AND. C .GT. 0")
        assert e.op is ast.BinOp.OR
        assert e.right.op is ast.BinOp.AND

    def test_not_binds_tighter_than_and(self):
        e = self.expr(".NOT. A .GT. 0 .AND. B .GT. 0")
        assert e.op is ast.BinOp.AND
        assert isinstance(e.left, ast.Unary)

    def test_parenthesized_grouping(self):
        e = self.expr("(1 + 2) * 3")
        assert e.op is ast.BinOp.MUL
        assert e.left.op is ast.BinOp.ADD

    def test_function_call_expression(self):
        e = self.expr("SQRT(Y + 1.0)")
        assert isinstance(e, ast.FuncCall)
        assert e.name == "SQRT"

    def test_unary_minus(self):
        e = self.expr("-Y")
        assert isinstance(e, ast.Unary)
        assert e.op is ast.UnOp.NEG

    def test_malformed_expression_rejected(self):
        with pytest.raises(ParseError):
            parse_main_body(["X = 1 +"])

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ParseError):
            parse_main_body(["X = (1 + 2"])


class TestPaperExample:
    """Figure 1 of the paper parses and has the expected structure."""

    SOURCE = """
      PROGRAM MAIN
      M = INPUT(1)
      N = INPUT(2)
10    IF (M .GE. 0) THEN
        IF (N .LT. 0) GOTO 20
      ELSE
        IF (N .GE. 0) GOTO 20
      ENDIF
      CALL FOO(M, N)
      GOTO 10
20    CONTINUE
      END

      SUBROUTINE FOO(M, N)
      M = M - 1
      END
"""

    def test_parses(self):
        unit = parse_program(self.SOURCE)
        assert set(unit.procedures) == {"MAIN", "FOO"}

    def test_if_block_with_labels(self):
        unit = parse_program(self.SOURCE)
        body = unit.main.body
        if_block = body[2]
        assert isinstance(if_block, ast.IfBlock)
        assert if_block.label == 10
        assert isinstance(if_block.arms[0][1][0], ast.LogicalIf)
        assert isinstance(if_block.else_body[0], ast.LogicalIf)


class TestExpressionPins:
    """Exact trees and errors of the expression grammar."""

    def expr(self, text):
        (stmt,) = parse_main_body([f"X = {text}"])
        return stmt.value

    def test_unary_minus_over_power(self):
        assert self.expr("-A**2") == ast.Unary(
            2,
            ast.UnOp.NEG,
            ast.Binary(
                2, ast.BinOp.POW, ast.VarRef(2, "A"), ast.IntLit(2, 2)
            ),
        )

    def test_negative_exponent(self):
        assert self.expr("A**-B") == ast.Binary(
            2,
            ast.BinOp.POW,
            ast.VarRef(2, "A"),
            ast.Unary(2, ast.UnOp.NEG, ast.VarRef(2, "B")),
        )

    def test_not_applies_to_one_comparison(self):
        zero = ast.IntLit(2, 0)
        assert self.expr(".NOT. A .GT. 0 .AND. B .GT. 0") == ast.Binary(
            2,
            ast.BinOp.AND,
            ast.Unary(
                2,
                ast.UnOp.NOT,
                ast.Binary(2, ast.BinOp.GT, ast.VarRef(2, "A"), zero),
            ),
            ast.Binary(2, ast.BinOp.GT, ast.VarRef(2, "B"), zero),
        )

    def test_nested_not(self):
        assert self.expr(".NOT. .NOT. A") == ast.Unary(
            2, ast.UnOp.NOT, ast.Unary(2, ast.UnOp.NOT, ast.VarRef(2, "A"))
        )

    def test_reals_without_digits_on_one_side(self):
        assert self.expr("1.E3 + .5") == ast.Binary(
            2, ast.BinOp.ADD, ast.RealLit(2, 1000.0), ast.RealLit(2, 0.5)
        )

    @pytest.mark.parametrize(
        "statement, error, message",
        [
            (
                "L = A .LT. B .LT. C",
                ParseError,
                "unexpected trailing tokens starting at '.LT.'",
            ),
            (
                "L = X .AND. A .LT. B .LT. C",
                ParseError,
                "unexpected trailing tokens starting at '.LT.'",
            ),
            (
                "IF (X .AND. A .LT. B .LT. C) GOTO 10",
                ParseError,
                "expected ')', found '.LT.'",
            ),
            (
                "X = A + .NOT. B",
                ParseError,
                "unexpected token '.NOT.' in expression",
            ),
            ("X = A .X. B", LexError, "malformed dot operator '.X.'"),
            ("X = (A", ParseError, "expected ')', found '\\n'"),
        ],
    )
    def test_error_message_and_line(self, statement, error, message):
        with pytest.raises(error) as info:
            parse_main_body([statement])
        assert str(info.value) == f"line 2: {message}"
        assert info.value.line == 2
