"""Token kinds and the Token record for the minifort lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenKind(enum.Enum):
    """Lexical categories produced by :class:`repro.lang.lexer.Lexer`."""

    # Literals and names.
    INT = "int"
    REAL = "real"
    STRING = "string"
    NAME = "name"
    KEYWORD = "keyword"

    # Punctuation.
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    EQUALS = "="
    COLON = ":"

    # Arithmetic operators.
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    POWER = "**"

    # Relational operators (normalized: `.GE.` and `>=` both lex to GE).
    LT = ".LT."
    LE = ".LE."
    GT = ".GT."
    GE = ".GE."
    EQ = ".EQ."
    NE = ".NE."

    # Logical operators and constants.
    AND = ".AND."
    OR = ".OR."
    NOT = ".NOT."
    TRUE = ".TRUE."
    FALSE = ".FALSE."

    # Structure.
    NEWLINE = "newline"
    EOF = "eof"


#: Reserved words.  A NAME whose upper-cased spelling appears here is
#: emitted as a KEYWORD token instead.
KEYWORDS = frozenset(
    {
        "PROGRAM",
        "SUBROUTINE",
        "FUNCTION",
        "END",
        "INTEGER",
        "REAL",
        "LOGICAL",
        "DIMENSION",
        "IF",
        "THEN",
        "ELSE",
        "ELSEIF",
        "ENDIF",
        "DO",
        "WHILE",
        "ENDDO",
        "GOTO",
        "CONTINUE",
        "CALL",
        "RETURN",
        "STOP",
        "PRINT",
        "PARAMETER",
    }
)

#: Mapping from Fortran dot-operator spellings to token kinds.
DOT_OPERATORS = {
    "LT": TokenKind.LT,
    "LE": TokenKind.LE,
    "GT": TokenKind.GT,
    "GE": TokenKind.GE,
    "EQ": TokenKind.EQ,
    "NE": TokenKind.NE,
    "AND": TokenKind.AND,
    "OR": TokenKind.OR,
    "NOT": TokenKind.NOT,
    "TRUE": TokenKind.TRUE,
    "FALSE": TokenKind.FALSE,
}

#: Mapping from modern comparison spellings to the same token kinds.
MODERN_OPERATORS = {
    "<": TokenKind.LT,
    "<=": TokenKind.LE,
    ">": TokenKind.GT,
    ">=": TokenKind.GE,
    "==": TokenKind.EQ,
    "/=": TokenKind.NE,
}


class Token(NamedTuple):
    """One lexical token.

    ``value`` holds the normalized spelling: keywords and names are
    upper-cased, numeric literals keep their source spelling.  A
    NamedTuple: the lexer builds one per token, and tuple construction
    is several times cheaper than a frozen dataclass's field init.
    """

    kind: TokenKind
    value: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.value!r}, line={self.line})"
