"""Recursive-descent parser for polynomial expressions.

Grammar (no implicit multiplication; '^' binds tighter than '*', which binds
tighter than '+'/'-'; '/' only forms rational literals):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := ('+'|'-')* power
    power  := atom ('^' INT)?
    atom   := INT ('/' INT)? | NAME | '(' expr ')'

Errors carry 1-based line/column positions; parentheses nested deeper than
the stack allows are one too ("parentheses nested too deeply").
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, NamedTuple

from .errors import ParseError
from .poly import Polynomial, VariableContext

_OPS = "+-*^()/"
_LEXEME = re.compile(r"\n|[ \t\r]+|[0-9]+|\w+|.")


class _Token(NamedTuple):
    kind: str      # 'int' | 'name' | one of + - * ^ ( ) / | 'end'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[_Token]:
    """The lexemes of `text`, each a token by its first character, then 'end'."""
    toks: List[_Token] = []
    line, line_start = 1, 0
    for m in _LEXEME.finditer(text):
        lexeme, col = m.group(), m.start() - line_start + 1
        ch = lexeme[0]
        if "0" <= ch <= "9":   # not str.isdigit, which accepts '²' that int() refuses
            toks.append(_Token("int", lexeme, line, col))
        elif ch.isalpha() or ch == "_":
            toks.append(_Token("name", lexeme, line, col))
        elif ch in _OPS:
            toks.append(_Token(ch, ch, line, col))
        elif ch == "\n":
            line, line_start = line + 1, m.end()
        elif ch not in " \t\r":
            raise ParseError(f"unexpected character {ch!r}", line, col)
    end_line, end_col = (toks[-1].line, toks[-1].col + len(toks[-1].text)) if toks else (1, 1)
    toks.append(_Token("end", "", end_line, end_col))
    return toks


class _Parser:
    def __init__(self, tokens: List[_Token], ctx: VariableContext):
        self.toks = tokens
        self.pos = 0
        self.ctx = ctx

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str, tok: _Token = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek().kind != "end":
            self.fail(f"unexpected {self.peek().text!r} after expression")
        return p

    def expr(self) -> Polynomial:
        if self.peek().kind == "end":
            self.fail("empty expression")
        p = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek().kind == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        sign = 1
        while self.peek().kind in "+-":
            if self.take().kind == "-":
                sign = -sign
        p = self.power()
        return p if sign > 0 else -p

    def power(self) -> Polynomial:
        p = self.atom()
        if self.peek().kind == "^":
            caret, t = self.take(), self.take()
            if t.kind != "int":
                self.fail("expected integer exponent after '^'", t if t.kind != "end" else caret)
            p = p ** int(t.text)
        return p

    def atom(self) -> Polynomial:
        t = self.take()
        if t.kind == "int":
            num, den = int(t.text), 1
            if self.peek().kind == "/":
                self.take()
                d = self.take()
                if d.kind != "int":
                    self.fail("expected integer denominator after '/'", d)
                den = int(d.text)
                if not den:
                    self.fail("zero denominator", d)
            return Polynomial.constant(self.ctx, Fraction(num, den))
        if t.kind == "name":
            if t.text not in self.ctx.names:
                self.fail(f"unknown variable {t.text!r}", t)
            return Polynomial.variable(self.ctx, t.text)
        if t.kind == "(":
            p = self.expr()
            if self.peek().kind != ")":
                self.fail("expected ')'")
            self.take()
            return p
        if t.kind == "end":
            self.fail("unexpected end of expression", t)
        self.fail(f"unexpected {t.text!r}", t)


def parse_polynomial(text: str, ctx: VariableContext) -> Polynomial:
    """Parse `text` into a Polynomial over `ctx`; raises ParseError on bad input."""
    parser = _Parser(_tokenize(text), ctx)
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.toks[min(parser.pos, len(parser.toks) - 1)]
        raise ParseError("parentheses nested too deeply", tok.line, tok.col) from None
