"""Recursive-descent parser for the loop mini-language.

Grammar (EBNF)::

    program  := loop EOF
    loop     := 'for' IDENT '=' expr 'to' expr body
    body     := '{' (loop | stmt+) '}'
    stmt     := [IDENT ':'] arrayref '=' expr ';'
    arrayref := IDENT '[' expr (',' expr)* ']'
    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | atom
    atom     := INT | arrayref | IDENT | '(' expr ')'

The parser enforces the paper's model: the nest must be *perfect*
(statements only at the innermost level), bounds must be affine in the
enclosing indices, and subscripts must be affine in all loop indices
with integer coefficients (checked later by reference extraction).
"""

from __future__ import annotations

from typing import Optional

from repro.lang.affine import NotAffineError, affine_of
from repro.lang.ast import ArrayRef, Assign, BinOp, Const, Expr, LoopNest, Name, UnaryOp
from repro.lang.lexer import Token, TokenType, tokenize


class ParseError(ValueError):
    """Syntax or model-shape error in the mini-language source."""


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token plumbing ---------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.EOF:
            self.pos += 1
        return tok

    def _expect(self, ttype: TokenType) -> Token:
        tok = self._next()
        if tok.type is not ttype:
            raise ParseError(
                f"expected {ttype.value!r} but found {tok.text!r} "
                f"at line {tok.line}, col {tok.col}"
            )
        return tok

    def _at(self, ttype: TokenType) -> bool:
        return self._peek().type is ttype

    # -- grammar ------------------------------------------------------------
    def parse_program(self, name: str = "") -> LoopNest:
        nest = self.parse_loop(name=name)
        self._expect(TokenType.EOF)
        return nest

    def parse_loop(self, name: str = "") -> LoopNest:
        from repro.lang.normalize import NormalizationError, RawLoopLevel, normalize_steps

        levels: list[RawLoopLevel] = []
        while self._at(TokenType.FOR):
            self._expect(TokenType.FOR)
            idx = self._expect(TokenType.IDENT).text
            self._expect(TokenType.ASSIGN)
            lo = self.parse_expr()
            self._expect(TokenType.TO)
            hi = self.parse_expr()
            step = 1
            if self._at(TokenType.STEP):
                self._next()
                neg = False
                if self._at(TokenType.MINUS):
                    self._next()
                    neg = True
                tok = self._expect(TokenType.INT)
                step = -int(tok.text) if neg else int(tok.text)
            self._expect(TokenType.LBRACE)
            levels.append(RawLoopLevel(index=idx, lower=lo, upper=hi, step=step))
            if not self._at(TokenType.FOR):
                break
        if not levels:
            tok = self._peek()
            raise ParseError(f"expected 'for' at line {tok.line}, col {tok.col}")
        statements: list[Assign] = []
        while not self._at(TokenType.RBRACE):
            statements.append(self.parse_statement())
        for _ in levels:
            self._expect(TokenType.RBRACE)
        if not statements:
            raise ParseError("loop body has no statements")
        try:
            nest = normalize_steps(levels, statements, name=name)
        except NormalizationError as exc:
            raise ParseError(f"cannot normalize loop: {exc}") from exc
        self._validate_bounds(nest)
        return nest

    def parse_statement(self) -> Assign:
        label = ""
        if (self._at(TokenType.IDENT)
                and self._peek(1).type is TokenType.COLON):
            label = self._next().text
            self._next()  # colon
        lhs = self.parse_arrayref_required()
        self._expect(TokenType.ASSIGN)
        rhs = self.parse_expr()
        self._expect(TokenType.SEMI)
        return Assign(lhs=lhs, rhs=rhs, label=label)

    def parse_arrayref_required(self) -> ArrayRef:
        tok = self._expect(TokenType.IDENT)
        if not self._at(TokenType.LBRACKET):
            raise ParseError(
                f"assignment target {tok.text!r} at line {tok.line} must be an "
                "array reference (scalar assignments are outside the model)"
            )
        return self._finish_arrayref(tok.text)

    def _finish_arrayref(self, array: str) -> ArrayRef:
        self._expect(TokenType.LBRACKET)
        subs = [self.parse_expr()]
        while self._at(TokenType.COMMA):
            self._next()
            subs.append(self.parse_expr())
        self._expect(TokenType.RBRACKET)
        return ArrayRef(array=array, subscripts=tuple(subs))

    # expressions -------------------------------------------------------------
    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while self._peek().type in (TokenType.PLUS, TokenType.MINUS):
            op = self._next().text
            right = self.parse_term()
            left = BinOp(op, left, right)
        return left

    def parse_term(self) -> Expr:
        left = self.parse_unary()
        while self._peek().type in (TokenType.STAR, TokenType.SLASH):
            op = self._next().text
            right = self.parse_unary()
            left = BinOp(op, left, right)
        return left

    def parse_unary(self) -> Expr:
        if self._at(TokenType.MINUS):
            self._next()
            return UnaryOp("-", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self._peek()
        if tok.type is TokenType.INT:
            self._next()
            return Const(int(tok.text))
        if tok.type is TokenType.IDENT:
            self._next()
            if self._at(TokenType.LBRACKET):
                return self._finish_arrayref(tok.text)
            return Name(tok.text)
        if tok.type is TokenType.LPAREN:
            self._next()
            e = self.parse_expr()
            self._expect(TokenType.RPAREN)
            return e
        raise ParseError(
            f"unexpected token {tok.text!r} at line {tok.line}, col {tok.col}"
        )

    # model checks ---------------------------------------------------------------
    @staticmethod
    def _validate_bounds(nest: LoopNest) -> None:
        for k in range(nest.depth):
            prefix = nest.indices[:k]
            for which, bound in (("lower", nest.lowers[k]), ("upper", nest.uppers[k])):
                try:
                    ae = affine_of(bound, nest.indices)
                except NotAffineError as exc:
                    raise ParseError(
                        f"{which} bound of loop {nest.indices[k]!r} is not affine: {exc}"
                    ) from exc
                if not ae.depends_only_on_prefix(k):
                    raise ParseError(
                        f"{which} bound of loop {nest.indices[k]!r} references a "
                        f"non-enclosing index (allowed: {list(prefix)})"
                    )
                if not ae.is_integral():
                    raise ParseError(
                        f"{which} bound of loop {nest.indices[k]!r} has non-integer "
                        "coefficients"
                    )


def parse(source: str, name: str = "") -> LoopNest:
    """Parse mini-language source into a :class:`LoopNest`."""
    return Parser(source).parse_program(name=name)
