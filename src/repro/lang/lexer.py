"""Line-oriented lexer for minifort.

The lexer is deliberately forgiving about layout: it accepts free-form
source, treats ``!`` as an end-of-line comment, treats a line whose
column one holds ``*``, or ``C`` followed by a blank, as a comment
line (an indented ``C`` is an ordinary name), and is case-insensitive
for keywords, names and dot-operators.

Statement labels (``10 CONTINUE``) are ordinary INT tokens at the start
of a line; the parser decides whether a leading integer is a label.
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.lang.tokens import (
    DOT_OPERATORS,
    KEYWORDS,
    MODERN_OPERATORS,
    Token,
    TokenKind,
)

#: Every operator and punctuation spelling, one or two characters.
_PUNCTUATION = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "/": TokenKind.SLASH,
    "=": TokenKind.EQUALS,
    "*": TokenKind.STAR,
    "**": TokenKind.POWER,
    **MODERN_OPERATORS,
}

_DOT_WORDS = "|".join(DOT_OPERATORS)

#: Blanks, then one token of an ASCII line (or the end of the line),
#: as :meth:`Lexer._lex_chars` would lex it: the cases start with
#: distinct characters, except that ``.5`` is a number before a dot
#: operator is tried, and a real's ``.`` must not begin a dot operator
#: (``1.GE.2`` is INT, GE, INT).  ``bad`` catches what no case
#: accepts: an unterminated string, a malformed dot operator or a
#: stray character, left to ``_lex_chars`` to report.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<name>[A-Za-z_]\w*)"
    r"|(?P<punct>\*\*|<=|>=|==|/=|[<>=*(),:+\-/])"
    rf"|(?P<number>(?:\d+(?:\.(?!(?:{_DOT_WORDS})\.)\d*)?|\.\d+)"
    r"(?:[EeDd][+-]?\d+)?)"
    rf"|\.(?P<dot>{_DOT_WORDS})\."
    r"|(?P<string>'(?:[^']|'')*')"
    r"|(?P<bad>.)"
    r"|$)",
    re.ASCII | re.IGNORECASE | re.DOTALL,
)

_new_token = tuple.__new__  # Token(...) without NamedTuple's Python __new__


class Lexer:
    """Tokenizes minifort source text into a flat list of tokens.

    NEWLINE tokens delimit statements; consecutive blank/comment lines
    collapse to a single NEWLINE.  The token stream always ends with a
    single EOF token.
    """

    def __init__(self, source: str):
        self.source = source
        self.tokens: list[Token] = []

    def tokenize(self) -> list[Token]:
        """Return the full token list for the source text.

        A line whose last non-blank character is ``&`` continues onto
        the next line (free-form Fortran style).
        """
        last_line = 0
        pending = ""
        pending_line = 0
        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            line = self._strip_comment(raw)
            if not line.strip():
                continue
            if pending:
                line = pending + " " + line.strip()
                lineno = pending_line
                pending = ""
            stripped = line.rstrip()
            if stripped.endswith("&"):
                pending = stripped[:-1]
                pending_line = lineno
                continue
            self._lex_line(line, lineno)
            self.tokens.append(Token(TokenKind.NEWLINE, "\n", lineno))
            last_line = max(last_line, lineno)
        if pending:
            raise LexError("continuation '&' at end of file", pending_line)
        self.tokens.append(Token(TokenKind.EOF, "", last_line + 1))
        return self.tokens

    @staticmethod
    def _strip_comment(raw: str) -> str:
        # Fixed-form-style comment lines: '*' or 'C ' in column one.
        if raw[:1] == "*":
            return ""
        if raw[:1] in {"C", "c"} and (len(raw) == 1 or raw[1] in " \t"):
            return ""
        if "!" not in raw:
            return raw
        if raw.lstrip()[:1] == "!":
            return ""
        # An end-of-line "!" comment (never inside a string literal).
        in_string = False
        for i, ch in enumerate(raw):
            if ch == "'":
                in_string = not in_string
            elif ch == "!" and not in_string:
                return raw[:i]
        return raw

    def _lex_line(self, line: str, lineno: int) -> None:
        """Scan an ASCII line with :data:`_TOKEN`; ``_lex_chars``
        takes over where it cannot decide, and lexes any other line."""
        if not line.isascii():
            self._lex_chars(line, 0, lineno)
            return
        tokens = self.tokens
        for match in _TOKEN.finditer(line):
            group = match.lastgroup
            if group is None:
                continue  # trailing blanks
            text = match.group(group)
            if group == "name":
                text = text.upper()
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.NAME
            elif group == "punct":
                kind = _PUNCTUATION[text]
            elif group == "number":
                kind = TokenKind.INT if text.isdigit() else TokenKind.REAL
                text = text.upper().replace("D", "E")
            elif group == "dot":
                text = text.upper()
                kind = DOT_OPERATORS[text]
                text = f".{text}."
            elif group == "string":
                kind = TokenKind.STRING
                text = text[1:-1].replace("''", "'")
            else:
                self._lex_chars(line, match.start(group), lineno)
                return
            tokens.append(_new_token(Token, (kind, text, lineno)))

    def _lex_chars(self, line: str, i: int, lineno: int) -> None:
        """Lex ``line`` from index ``i`` one character at a time."""
        n = len(line)
        while i < n:
            ch = line[i]
            if ch in " \t\r":
                i += 1
                continue
            if ch == "'":
                i = self._lex_string(line, i, lineno)
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and line[i + 1].isdigit()):
                i = self._lex_number(line, i, lineno)
                continue
            if ch == ".":
                i = self._lex_dot_operator(line, i, lineno)
                continue
            if ch.isalpha() or ch == "_":
                i = self._lex_name(line, i, lineno)
                continue
            two = line[i : i + 2]
            if len(two) == 2 and two in _PUNCTUATION:
                self._emit(_PUNCTUATION[two], two, lineno)
                i += 2
                continue
            if ch in _PUNCTUATION:
                self._emit(_PUNCTUATION[ch], ch, lineno)
                i += 1
                continue
            raise LexError(f"unexpected character {ch!r}", lineno)

    def _lex_string(self, line: str, start: int, lineno: int) -> int:
        i = start + 1
        chars: list[str] = []
        while i < len(line):
            if line[i] == "'":
                # Doubled quote is an escaped quote, Fortran style.
                if i + 1 < len(line) and line[i + 1] == "'":
                    chars.append("'")
                    i += 2
                    continue
                self._emit(TokenKind.STRING, "".join(chars), lineno)
                return i + 1
            chars.append(line[i])
            i += 1
        raise LexError("unterminated string literal", lineno)

    def _lex_number(self, line: str, start: int, lineno: int) -> int:
        i = start
        n = len(line)
        while i < n and line[i].isdigit():
            i += 1
        is_real = False
        if i < n and line[i] == ".":
            # `1.5`, `1.` and `1.E3` are reals, but `1.GE.` is INT then
            # a dot-operator: look ahead for a letter sequence ending in
            # another dot.
            if not self._dot_starts_operator(line, i):
                is_real = True
                i += 1
                while i < n and line[i].isdigit():
                    i += 1
        if i < n and line[i] in "eEdD" and self._has_exponent(line, i):
            is_real = True
            i += 1
            if i < n and line[i] in "+-":
                i += 1
            while i < n and line[i].isdigit():
                i += 1
        text = line[start:i].upper().replace("D", "E")
        kind = TokenKind.REAL if is_real else TokenKind.INT
        self._emit(kind, text, lineno)
        return i

    @staticmethod
    def _dot_starts_operator(line: str, i: int) -> bool:
        """True when the ``.`` at index ``i`` begins a ``.XX.`` operator."""
        j = i + 1
        while j < len(line) and line[j].isalpha():
            j += 1
        return j > i + 1 and j < len(line) and line[j] == "." and (
            line[i + 1 : j].upper() in DOT_OPERATORS
        )

    @staticmethod
    def _has_exponent(line: str, i: int) -> bool:
        j = i + 1
        if j < len(line) and line[j] in "+-":
            j += 1
        return j < len(line) and line[j].isdigit()

    def _lex_dot_operator(self, line: str, start: int, lineno: int) -> int:
        j = start + 1
        while j < len(line) and line[j].isalpha():
            j += 1
        name = line[start + 1 : j].upper()
        if j >= len(line) or line[j] != "." or name not in DOT_OPERATORS:
            raise LexError(f"malformed dot operator {line[start:j + 1]!r}", lineno)
        self._emit(DOT_OPERATORS[name], f".{name}.", lineno)
        return j + 1

    def _lex_name(self, line: str, start: int, lineno: int) -> int:
        i = start
        while i < len(line) and (line[i].isalnum() or line[i] == "_"):
            i += 1
        text = line[start:i].upper()
        if text in KEYWORDS:
            self._emit(TokenKind.KEYWORD, text, lineno)
        else:
            self._emit(TokenKind.NAME, text, lineno)
        return i

    def _emit(self, kind: TokenKind, value: str, lineno: int) -> None:
        self.tokens.append(Token(kind, value, lineno))


def tokenize(source: str) -> list[Token]:
    """Tokenize minifort source text; convenience wrapper over Lexer."""
    return Lexer(source).tokenize()
