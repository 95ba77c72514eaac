"""Recursive-descent parser for minifort.

The parser consumes the token stream produced by
:mod:`repro.lang.lexer` and builds the AST of :mod:`repro.lang.ast`.
It is statement-oriented: every statement occupies one source line, and
block constructs (IF/THEN/ENDIF, DO/ENDDO, labelled DO) consume the
following lines until their terminator.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind

#: Binding powers of the expression grammar, loosest first:
#: ``.OR.``, ``.AND.``, prefix ``.NOT.``, one non-chaining comparison,
#: ``+ -``, ``* /``, prefix ``+ -``, then right-associative ``**``
#: whose base is a primary.
_OR, _AND, _NOT, _COMPARE, _ADD, _MUL, _SIGN, _POW, _PRIMARY = range(1, 10)

#: token kind -> (binding power, operator) of every binary operator.
_BINARY = {
    TokenKind.OR: (_OR, ast.BinOp.OR),
    TokenKind.AND: (_AND, ast.BinOp.AND),
    TokenKind.LT: (_COMPARE, ast.BinOp.LT),
    TokenKind.LE: (_COMPARE, ast.BinOp.LE),
    TokenKind.GT: (_COMPARE, ast.BinOp.GT),
    TokenKind.GE: (_COMPARE, ast.BinOp.GE),
    TokenKind.EQ: (_COMPARE, ast.BinOp.EQ),
    TokenKind.NE: (_COMPARE, ast.BinOp.NE),
    TokenKind.PLUS: (_ADD, ast.BinOp.ADD),
    TokenKind.MINUS: (_ADD, ast.BinOp.SUB),
    TokenKind.STAR: (_MUL, ast.BinOp.MUL),
    TokenKind.SLASH: (_MUL, ast.BinOp.DIV),
    TokenKind.POWER: (_POW, ast.BinOp.POW),
}

#: token kind -> (operand binding power, operator) of the prefix
#: operators; ``.NOT.`` only begins an operand of ``.AND.``/``.OR.``
#: (or a whole expression), while a sign may begin any operand.
_PREFIX = {
    TokenKind.NOT: (_NOT, ast.UnOp.NOT),
    TokenKind.MINUS: (_SIGN, ast.UnOp.NEG),
    TokenKind.PLUS: (_SIGN, ast.UnOp.POS),
}

_TYPE_KEYWORDS = {
    "INTEGER": ast.Type.INTEGER,
    "REAL": ast.Type.REAL,
    "LOGICAL": ast.Type.LOGICAL,
}


class Parser:
    """Parses a token list into a :class:`repro.lang.ast.ProgramUnit`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token stream helpers ------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        if not offset:
            return self.tokens[self.pos]  # EOF is always last
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _check(self, kind: TokenKind, value: str | None = None) -> bool:
        token = self.tokens[self.pos]
        return token.kind is kind and (value is None or token.value == value)

    def _match(self, kind: TokenKind, value: str | None = None) -> Token | None:
        token = self.tokens[self.pos]
        if token.kind is not kind or (value is not None and token.value != value):
            return None
        if kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _expect(self, kind: TokenKind, value: str | None = None) -> Token:
        token = self._match(kind, value)
        if token is None:
            token = self.tokens[self.pos]
            wanted = value or kind.value
            raise ParseError(
                f"expected {wanted!r}, found {token.value!r}", token.line
            )
        return token

    def _expect_newline(self) -> None:
        token = self._peek()
        if token.kind is TokenKind.EOF:
            return
        if token.kind is not TokenKind.NEWLINE:
            raise ParseError(
                f"unexpected trailing tokens starting at {token.value!r}",
                token.line,
            )
        while self._match(TokenKind.NEWLINE):
            pass

    def _skip_newlines(self) -> None:
        while self._match(TokenKind.NEWLINE):
            pass

    # -- program structure ---------------------------------------------------

    def parse_program(self) -> ast.ProgramUnit:
        """Parse a whole source file into a ProgramUnit."""
        procedures: dict[str, ast.Procedure] = {}
        self._skip_newlines()
        while not self._check(TokenKind.EOF):
            proc = self._parse_procedure()
            if proc.name in procedures:
                raise ParseError(f"duplicate procedure {proc.name}", proc.line)
            procedures[proc.name] = proc
            self._skip_newlines()
        if not procedures:
            raise ParseError("empty program", 1)
        return ast.ProgramUnit(procedures)

    def _parse_procedure(self) -> ast.Procedure:
        token = self._peek()
        return_type: ast.Type | None = None
        if token.kind is TokenKind.KEYWORD and token.value in _TYPE_KEYWORDS:
            if self._peek(1).kind is TokenKind.KEYWORD and (
                self._peek(1).value == "FUNCTION"
            ):
                return_type = _TYPE_KEYWORDS[self._advance().value]
                token = self._peek()
        if token.kind is not TokenKind.KEYWORD or token.value not in {
            "PROGRAM",
            "SUBROUTINE",
            "FUNCTION",
        }:
            raise ParseError(
                f"expected PROGRAM/SUBROUTINE/FUNCTION, found {token.value!r}",
                token.line,
            )
        kind = ast.ProcKind(self._advance().value)
        name = self._expect(TokenKind.NAME).value
        params: list[str] = []
        if self._match(TokenKind.LPAREN):
            if not self._check(TokenKind.RPAREN):
                params.append(self._expect(TokenKind.NAME).value)
                while self._match(TokenKind.COMMA):
                    params.append(self._expect(TokenKind.NAME).value)
            self._expect(TokenKind.RPAREN)
        if kind is ast.ProcKind.FUNCTION and return_type is None:
            return_type = ast.Type.REAL
        self._expect_newline()
        body = self._parse_block(until=_END_OF_PROCEDURE)
        self._expect(TokenKind.KEYWORD, "END")
        self._expect_newline()
        return ast.Procedure(
            kind=kind,
            name=name,
            params=params,
            body=body,
            line=token.line,
            return_type=return_type,
        )

    # -- statement blocks ----------------------------------------------------

    def _parse_block(
        self, until, stop_label: int | None = None
    ) -> list[ast.Stmt]:
        """Parse statements until ``until(self)`` says stop.

        ``stop_label``: when set (labelled DO), the statement carrying
        that label terminates the block and is *included* in it.
        """
        stmts: list[ast.Stmt] = []
        while True:
            self._skip_newlines()
            token = self._peek()
            if token.kind is TokenKind.EOF:
                raise ParseError("unexpected end of file inside a block", token.line)
            if until(self):
                return stmts
            stmt = self._parse_statement()
            stmts.append(stmt)
            if stop_label is not None and stmt.label == stop_label:
                return stmts

    def _parse_statement(self) -> ast.Stmt:
        label: int | None = None
        if self._check(TokenKind.INT):
            label = int(self._advance().value)
        stmt = self._parse_unlabelled_statement()
        stmt.label = label
        return stmt

    def _parse_unlabelled_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.kind is TokenKind.KEYWORD:
            handler = _STATEMENT_HANDLERS.get(token.value)
            if handler is None:
                raise ParseError(
                    f"unexpected keyword {token.value!r}", token.line
                )
            return handler(self)
        if token.kind is TokenKind.NAME:
            return self._parse_assignment()
        raise ParseError(f"cannot start a statement with {token.value!r}", token.line)

    # -- individual statements -----------------------------------------------

    def _parse_declaration(self) -> ast.Stmt:
        token = self._advance()
        decl_type = _TYPE_KEYWORDS[token.value]
        names: list[tuple[str, tuple[int, ...]]] = []
        while True:
            name = self._expect(TokenKind.NAME).value
            dims: tuple[int, ...] = ()
            if self._match(TokenKind.LPAREN):
                sizes = [int(self._expect(TokenKind.INT).value)]
                while self._match(TokenKind.COMMA):
                    sizes.append(int(self._expect(TokenKind.INT).value))
                self._expect(TokenKind.RPAREN)
                dims = tuple(sizes)
            names.append((name, dims))
            if not self._match(TokenKind.COMMA):
                break
        self._expect_newline()
        return ast.Declaration(token.line, type=decl_type, names=names)

    def _parse_parameter(self) -> ast.Stmt:
        token = self._advance()
        self._expect(TokenKind.LPAREN)
        bindings: list[tuple[str, ast.Expr]] = []
        while True:
            name = self._expect(TokenKind.NAME).value
            self._expect(TokenKind.EQUALS)
            bindings.append((name, self._parse_expression()))
            if not self._match(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN)
        self._expect_newline()
        return ast.ParameterStmt(token.line, bindings=bindings)

    def _parse_assignment(self) -> ast.Stmt:
        token = self._peek()
        target = self._parse_designator()
        self._expect(TokenKind.EQUALS)
        value = self._parse_expression()
        self._expect_newline()
        return ast.Assign(token.line, target=target, value=value)

    def _parse_designator(self) -> ast.VarRef | ast.ArrayRef:
        token = self._expect(TokenKind.NAME)
        if self._match(TokenKind.LPAREN):
            indices = [self._parse_expression()]
            while self._match(TokenKind.COMMA):
                indices.append(self._parse_expression())
            self._expect(TokenKind.RPAREN)
            return ast.ArrayRef(token.line, token.value, tuple(indices))
        return ast.VarRef(token.line, token.value)

    def _parse_if(self) -> ast.Stmt:
        token = self._advance()
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN)
        if self._check(TokenKind.INT):
            # Arithmetic IF: three labels for negative / zero / positive.
            negative = int(self._expect(TokenKind.INT).value)
            self._expect(TokenKind.COMMA)
            zero = int(self._expect(TokenKind.INT).value)
            self._expect(TokenKind.COMMA)
            positive = int(self._expect(TokenKind.INT).value)
            self._expect_newline()
            return ast.ArithmeticIf(
                token.line,
                expr=cond,
                negative=negative,
                zero=zero,
                positive=positive,
            )
        if not self._match(TokenKind.KEYWORD, "THEN"):
            inner = self._parse_simple_statement_for_logical_if()
            return ast.LogicalIf(token.line, cond=cond, stmt=inner)
        self._expect_newline()
        arms: list[tuple[ast.Expr, list[ast.Stmt]]] = []
        body = self._parse_block(until=_END_OF_IF_ARM)
        arms.append((cond, body))
        else_body: list[ast.Stmt] = []
        while True:
            if self._is_elseif():
                self._consume_elseif()
                self._expect(TokenKind.LPAREN)
                arm_cond = self._parse_expression()
                self._expect(TokenKind.RPAREN)
                self._expect(TokenKind.KEYWORD, "THEN")
                self._expect_newline()
                arms.append((arm_cond, self._parse_block(until=_END_OF_IF_ARM)))
                continue
            if self._check(TokenKind.KEYWORD, "ELSE"):
                self._advance()
                self._expect_newline()
                else_body = self._parse_block(until=_END_OF_IF_ARM)
                if not self._is_endif():
                    bad = self._peek()
                    raise ParseError("expected ENDIF after ELSE block", bad.line)
            break
        self._consume_endif()
        self._expect_newline()
        return ast.IfBlock(token.line, arms=arms, else_body=else_body)

    def _parse_simple_statement_for_logical_if(self) -> ast.Stmt:
        token = self._peek()
        stmt = self._parse_unlabelled_statement()
        if isinstance(
            stmt,
            (ast.IfBlock, ast.LogicalIf, ast.DoLoop, ast.DoWhile, ast.Declaration),
        ):
            raise ParseError("illegal statement in logical IF", token.line)
        return stmt

    def _is_elseif(self) -> bool:
        if self._check(TokenKind.KEYWORD, "ELSEIF"):
            return True
        return self._check(TokenKind.KEYWORD, "ELSE") and self._peek(1).kind is (
            TokenKind.KEYWORD
        ) and self._peek(1).value == "IF"

    def _consume_elseif(self) -> None:
        if self._match(TokenKind.KEYWORD, "ELSEIF"):
            return
        self._expect(TokenKind.KEYWORD, "ELSE")
        self._expect(TokenKind.KEYWORD, "IF")

    def _is_endif(self) -> bool:
        if self._check(TokenKind.KEYWORD, "ENDIF"):
            return True
        return self._check(TokenKind.KEYWORD, "END") and self._peek(1).kind is (
            TokenKind.KEYWORD
        ) and self._peek(1).value == "IF"

    def _consume_endif(self) -> None:
        if self._match(TokenKind.KEYWORD, "ENDIF"):
            return
        self._expect(TokenKind.KEYWORD, "END")
        self._expect(TokenKind.KEYWORD, "IF")

    def _is_enddo(self) -> bool:
        if self._check(TokenKind.KEYWORD, "ENDDO"):
            return True
        return self._check(TokenKind.KEYWORD, "END") and self._peek(1).kind is (
            TokenKind.KEYWORD
        ) and self._peek(1).value == "DO"

    def _consume_enddo(self) -> None:
        if self._match(TokenKind.KEYWORD, "ENDDO"):
            return
        self._expect(TokenKind.KEYWORD, "END")
        self._expect(TokenKind.KEYWORD, "DO")

    def _parse_do(self) -> ast.Stmt:
        token = self._advance()
        if self._match(TokenKind.KEYWORD, "WHILE"):
            self._expect(TokenKind.LPAREN)
            cond = self._parse_expression()
            self._expect(TokenKind.RPAREN)
            self._expect_newline()
            body = self._parse_block(until=_END_OF_DO)
            self._consume_enddo()
            self._expect_newline()
            return ast.DoWhile(token.line, cond=cond, body=body)

        terminator: int | None = None
        if self._check(TokenKind.INT):
            terminator = int(self._advance().value)
        var = self._expect(TokenKind.NAME).value
        self._expect(TokenKind.EQUALS)
        start = self._parse_expression()
        self._expect(TokenKind.COMMA)
        stop = self._parse_expression()
        step: ast.Expr | None = None
        if self._match(TokenKind.COMMA):
            step = self._parse_expression()
        self._expect_newline()
        if terminator is None:
            body = self._parse_block(until=_END_OF_DO)
            self._consume_enddo()
            self._expect_newline()
        else:
            body = self._parse_block(until=_NEVER, stop_label=terminator)
            if not body or body[-1].label != terminator:
                raise ParseError(
                    f"labelled DO missing terminator label {terminator}", token.line
                )
        return ast.DoLoop(
            token.line, var=var, start=start, stop=stop, step=step, body=body
        )

    def _parse_goto(self) -> ast.Stmt:
        token = self._advance()
        if self._match(TokenKind.LPAREN):
            targets = [int(self._expect(TokenKind.INT).value)]
            while self._match(TokenKind.COMMA):
                targets.append(int(self._expect(TokenKind.INT).value))
            self._expect(TokenKind.RPAREN)
            self._match(TokenKind.COMMA)
            selector = self._parse_expression()
            self._expect_newline()
            return ast.ComputedGoto(token.line, targets=targets, selector=selector)
        target = int(self._expect(TokenKind.INT).value)
        self._expect_newline()
        return ast.Goto(token.line, target=target)

    def _parse_call(self) -> ast.Stmt:
        token = self._advance()
        name = self._expect(TokenKind.NAME).value
        args: list[ast.Expr] = []
        if self._match(TokenKind.LPAREN):
            if not self._check(TokenKind.RPAREN):
                args.append(self._parse_expression())
                while self._match(TokenKind.COMMA):
                    args.append(self._parse_expression())
            self._expect(TokenKind.RPAREN)
        self._expect_newline()
        return ast.CallStmt(token.line, name=name, args=args)

    def _parse_return(self) -> ast.Stmt:
        token = self._advance()
        self._expect_newline()
        return ast.ReturnStmt(token.line)

    def _parse_stop(self) -> ast.Stmt:
        token = self._advance()
        self._expect_newline()
        return ast.StopStmt(token.line)

    def _parse_continue(self) -> ast.Stmt:
        token = self._advance()
        self._expect_newline()
        return ast.ContinueStmt(token.line)

    def _parse_print(self) -> ast.Stmt:
        token = self._advance()
        self._expect(TokenKind.STAR)
        items: list[ast.Expr] = []
        while self._match(TokenKind.COMMA):
            items.append(self._parse_expression())
        self._expect_newline()
        return ast.PrintStmt(token.line, items=items)

    # -- expressions -----------------------------------------------------

    def _parse_expression(self, min_power: int = _OR) -> ast.Expr:
        """Precedence climbing over :data:`_BINARY` and :data:`_PREFIX`.

        An operator binds only if its power is at least ``min_power``
        and at most ``level``, the power of the expression built so
        far: a comparison or ``.NOT.`` result (level ``_NOT``) takes
        only ``.AND.``/``.OR.``, so comparisons never chain.
        """
        tokens = self.tokens
        token = tokens[self.pos]
        prefix = _PREFIX.get(token.kind)
        if prefix is not None and (prefix[0] >= _SIGN or min_power <= _NOT):
            self.pos += 1
            power, op = prefix
            left = ast.Unary(token.line, op, self._parse_expression(power))
            level = power
        else:
            left = self._parse_primary()
            level = _PRIMARY
        while True:
            token = tokens[self.pos]
            binary = _BINARY.get(token.kind)
            if binary is None:
                return left
            power, op = binary
            if not min_power <= power <= level:
                return left
            self.pos += 1
            if power == _POW:
                right = self._parse_expression(_SIGN)
            else:
                right = self._parse_expression(power + 1)
            left = ast.Binary(token.line, op, left, right)
            level = _NOT if power == _COMPARE else power

    def _parse_primary(self) -> ast.Expr:
        token = self.tokens[self.pos]
        kind = token.kind
        literal = _LITERALS.get(kind)
        if literal is not None:
            self.pos += 1
            return literal(token)
        if kind is TokenKind.LPAREN:
            self.pos += 1
            inner = self._parse_expression()
            self._expect(TokenKind.RPAREN)
            return inner
        # The REAL/INTEGER type keywords double as conversion intrinsics
        # inside expressions: `REAL(I)`, `INT(X)` (INT is a plain name).
        if (
            kind is TokenKind.KEYWORD
            and token.value in {"REAL", "INTEGER"}
            and self._peek(1).kind is TokenKind.LPAREN
        ):
            self.pos += 2
            arg = self._parse_expression()
            self._expect(TokenKind.RPAREN)
            name = "REAL" if token.value == "REAL" else "INT"
            return ast.FuncCall(token.line, name, (arg,))
        if kind is TokenKind.NAME:
            self.pos += 1
            if self._match(TokenKind.LPAREN):
                args: list[ast.Expr] = []
                if not self._check(TokenKind.RPAREN):
                    args.append(self._parse_expression())
                    while self._match(TokenKind.COMMA):
                        args.append(self._parse_expression())
                self._expect(TokenKind.RPAREN)
                # FuncCall vs ArrayRef is resolved by the symbol checker.
                return ast.FuncCall(token.line, token.value, tuple(args))
            return ast.VarRef(token.line, token.value)
        raise ParseError(f"unexpected token {token.value!r} in expression", token.line)


#: token kind -> the literal node a primary of that kind builds.
_LITERALS = {
    TokenKind.INT: lambda t: ast.IntLit(t.line, int(t.value)),
    TokenKind.REAL: lambda t: ast.RealLit(t.line, float(t.value)),
    TokenKind.STRING: lambda t: ast.StringLit(t.line, t.value),
    TokenKind.TRUE: lambda t: ast.LogicalLit(t.line, True),
    TokenKind.FALSE: lambda t: ast.LogicalLit(t.line, False),
}


# -- block terminator predicates --------------------------------------------


def _END_OF_PROCEDURE(parser: Parser) -> bool:
    if not parser._check(TokenKind.KEYWORD, "END"):
        return False
    nxt = parser._peek(1)
    # `END IF` / `END DO` belong to their blocks, a bare END ends the unit.
    return not (nxt.kind is TokenKind.KEYWORD and nxt.value in {"IF", "DO"})


def _END_OF_IF_ARM(parser: Parser) -> bool:
    return (
        parser._is_endif()
        or parser._is_elseif()
        or parser._check(TokenKind.KEYWORD, "ELSE")
    )


def _END_OF_DO(parser: Parser) -> bool:
    return parser._is_enddo()


def _NEVER(parser: Parser) -> bool:
    return False


#: Dispatch table from statement-leading keyword to parser method.
_STATEMENT_HANDLERS = {
    "INTEGER": Parser._parse_declaration,
    "REAL": Parser._parse_declaration,
    "LOGICAL": Parser._parse_declaration,
    "PARAMETER": Parser._parse_parameter,
    "IF": Parser._parse_if,
    "DO": Parser._parse_do,
    "GOTO": Parser._parse_goto,
    "CALL": Parser._parse_call,
    "RETURN": Parser._parse_return,
    "STOP": Parser._parse_stop,
    "CONTINUE": Parser._parse_continue,
    "PRINT": Parser._parse_print,
}


def parse_program(source: str) -> ast.ProgramUnit:
    """Parse minifort source text into a ProgramUnit (no symbol checks)."""
    return Parser(tokenize(source)).parse_program()
