"""Unit tests for the minifort lexer."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind is not TokenKind.NEWLINE][:-1]


def values(source):
    return [t.value for t in tokenize(source) if t.kind is not TokenKind.NEWLINE][:-1]


class TestBasicTokens:
    def test_integer_literal(self):
        toks = tokenize("42")
        assert toks[0].kind is TokenKind.INT
        assert toks[0].value == "42"

    def test_real_literal(self):
        toks = tokenize("3.14")
        assert toks[0].kind is TokenKind.REAL
        assert toks[0].value == "3.14"

    def test_real_with_exponent(self):
        assert values("1.5E3") == ["1.5E3"]
        assert kinds("1.5E3") == [TokenKind.REAL]

    def test_real_with_negative_exponent(self):
        assert kinds("2.0E-6") == [TokenKind.REAL]

    def test_double_precision_exponent_normalized(self):
        toks = tokenize("1.0D0")
        assert toks[0].kind is TokenKind.REAL
        assert toks[0].value == "1.0E0"

    def test_real_starting_with_dot(self):
        assert kinds(".5") == [TokenKind.REAL]

    def test_integer_then_dot_operator(self):
        # `1.GE.` must lex as INT then GE, not a real literal.
        assert kinds("1.GE.2") == [TokenKind.INT, TokenKind.GE, TokenKind.INT]

    def test_name_uppercased(self):
        toks = tokenize("alpha")
        assert toks[0].kind is TokenKind.NAME
        assert toks[0].value == "ALPHA"

    def test_keyword_recognized_case_insensitively(self):
        toks = tokenize("Program")
        assert toks[0].kind is TokenKind.KEYWORD
        assert toks[0].value == "PROGRAM"

    def test_string_literal(self):
        toks = tokenize("'hello'")
        assert toks[0].kind is TokenKind.STRING
        assert toks[0].value == "hello"

    def test_string_with_escaped_quote(self):
        toks = tokenize("'it''s'")
        assert toks[0].value == "it's"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("A = 1 ; B = 2")


class TestOperators:
    def test_dot_operators(self):
        assert kinds("A .GE. B .AND. C .LT. D") == [
            TokenKind.NAME,
            TokenKind.GE,
            TokenKind.NAME,
            TokenKind.AND,
            TokenKind.NAME,
            TokenKind.LT,
            TokenKind.NAME,
        ]

    def test_modern_comparisons(self):
        assert kinds("A >= B") == [TokenKind.NAME, TokenKind.GE, TokenKind.NAME]
        assert kinds("A == B") == [TokenKind.NAME, TokenKind.EQ, TokenKind.NAME]
        assert kinds("A /= B") == [TokenKind.NAME, TokenKind.NE, TokenKind.NAME]
        assert kinds("A < B") == [TokenKind.NAME, TokenKind.LT, TokenKind.NAME]

    def test_power_vs_star(self):
        assert kinds("A ** 2 * B") == [
            TokenKind.NAME,
            TokenKind.POWER,
            TokenKind.INT,
            TokenKind.STAR,
            TokenKind.NAME,
        ]

    def test_logical_constants(self):
        assert kinds(".TRUE. .FALSE.") == [TokenKind.TRUE, TokenKind.FALSE]

    def test_not_operator(self):
        assert kinds(".NOT. X") == [TokenKind.NOT, TokenKind.NAME]

    def test_malformed_dot_operator_raises(self):
        with pytest.raises(LexError):
            tokenize(".FOO. 1")


class TestCommentsAndLines:
    def test_bang_comment(self):
        assert values("A = 1 ! set A") == ["A", "=", "1"]

    def test_c_comment_line(self):
        toks = tokenize("C this is a comment\nA = 1")
        assert toks[0].value == "A"

    def test_star_comment_line(self):
        toks = tokenize("* star comment\nA = 1")
        assert toks[0].value == "A"

    def test_bang_inside_string_preserved(self):
        toks = tokenize("PRINT *, 'A!B'")
        strings = [t for t in toks if t.kind is TokenKind.STRING]
        assert strings[0].value == "A!B"

    def test_blank_lines_produce_no_tokens(self):
        toks = tokenize("\n\nA = 1\n\n")
        assert toks[0].value == "A"

    def test_line_numbers_tracked(self):
        toks = tokenize("A = 1\nB = 2")
        b_tok = next(t for t in toks if t.value == "B")
        assert b_tok.line == 2

    def test_eof_is_last(self):
        assert tokenize("A = 1")[-1].kind is TokenKind.EOF

    def test_newline_between_statements(self):
        toks = tokenize("A = 1\nB = 2")
        newlines = [t for t in toks if t.kind is TokenKind.NEWLINE]
        assert len(newlines) == 2


class TestCommentColumn:
    """Only column one makes ``C `` a comment; indented, C is a name."""

    def test_c_in_column_one_is_a_comment(self):
        toks = tokenize("C = 2\nA = 1")
        assert toks[0].value == "A"

    def test_indented_c_is_an_assignment(self):
        assert values("      C = 2") == ["C", "=", "2"]

    def test_runs_agree_with_the_lexer(self):
        from repro import compile_source, run_program

        def printed(line):
            source = (
                "      PROGRAM MAIN\n      INTEGER C\n      C = 0\n"
                f"{line}\n      PRINT *, C\n      END\n"
            )
            return run_program(compile_source(source)).outputs

        assert printed("      C = 2") == ["2"]
        assert printed("C = 2") == ["0"]


class TestErrorMessages:
    def test_malformed_dot_operator_message_and_line(self):
        with pytest.raises(LexError) as info:
            tokenize("A = 1\nX = A .X. B")
        assert str(info.value) == "line 2: malformed dot operator '.X.'"
        assert info.value.line == 2

    def test_unterminated_string_message(self):
        with pytest.raises(LexError) as info:
            tokenize("PRINT *, 'oops")
        assert str(info.value) == "line 1: unterminated string literal"

    def test_unexpected_character_message(self):
        with pytest.raises(LexError) as info:
            tokenize("A = 1 ; B = 2")
        assert str(info.value) == "line 1: unexpected character ';'"


class TestNumberForms:
    def test_reals_without_digits_on_one_side(self):
        assert values("1.E3 + .5") == ["1.E3", "+", ".5"]
        assert kinds("1.E3 + .5") == [
            TokenKind.REAL, TokenKind.PLUS, TokenKind.REAL,
        ]

    def test_integer_before_operator_spelled_in_lower_case(self):
        assert kinds("1.lt.2") == [TokenKind.INT, TokenKind.LT, TokenKind.INT]

    def test_real_before_unknown_dot_word(self):
        # `1.ET` is no operator: the dot belongs to the real literal.
        assert values("1.ET") == ["1.", "ET"]
