"""Parsing of polynomial and series expressions for the command line.

The grammar covers integer literals, variables, + - * ^ and parentheses;
exponents are integer literals, negative only on variables of Laurent
rings (``L^-1``).  Parsing an expression printed in canonical form gives
back the same polynomial, and printing after parsing normalizes
whitespace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .rings import Polynomial, RingDescriptor
from .series import Series


class ParseError(ValueError):
    """Syntax or validation error with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(src: str) -> List[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


# AST nodes: ("int", value), ("var", name, pos), ("sum", ((sign, term), ...)),
# ("product", (factor, ...)), ("pow", base, exponent, pos).  Chains of + -
# and * are flat, so the depth of a tree grows only with parentheses.
Node = Tuple

# Deeper nesting is refused with a ParseError before the recursive
# descent (and the evaluation after it) could exhaust the Python stack.
MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                "expected %r, found %r" % (kind, tok.text or "end of input"),
                tok.line, tok.column,
            )
        return self.take()

    def open_group(self):
        tok = self.expect("(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                "parentheses nest deeper than %d levels" % MAX_NESTING,
                tok.line, tok.column,
            )

    def close_group(self):
        self.expect(")")
        self.depth -= 1

    def parse(self) -> Node:
        node = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("unexpected %r" % tok.text, tok.line, tok.column)
        return node

    def expression(self) -> Node:
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.take().kind == "-" else 1
        terms = [(sign, self.term())]
        while self.peek().kind in ("+", "-"):
            sign = -1 if self.take().kind == "-" else 1
            terms.append((sign, self.term()))
        if len(terms) == 1 and sign == 1:
            return terms[0][1]
        return ("sum", tuple(terms))

    def term(self) -> Node:
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.take()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return ("product", tuple(factors))

    def factor(self) -> Node:
        node = self.atom()
        if self.peek().kind == "^":
            caret = self.take()
            node = ("pow", node, self.exponent(), (caret.line, caret.column))
        return node

    def exponent(self) -> int:
        tok = self.peek()
        if tok.kind == "(":
            self.open_group()
            value = self.exponent()
            self.close_group()
            return value
        negative = False
        if tok.kind == "-":
            self.take()
            negative = True
        tok = self.expect("int")
        value = int(tok.text)
        return -value if negative else value

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "(":
            self.open_group()
            node = self.expression()
            self.close_group()
            return node
        self.take()
        if tok.kind == "int":
            return ("int", int(tok.text))
        if tok.kind == "name":
            return ("var", tok.text, (tok.line, tok.column))
        raise ParseError(
            "expected a value, found %r" % (tok.text or "end of input"),
            tok.line, tok.column,
        )


def parse_ast(src: str) -> Node:
    return _Parser(src).parse()


def _evaluate(node: Node, ring: RingDescriptor) -> Polynomial:
    kind = node[0]
    if kind == "int":
        return Polynomial.constant(ring, node[1])
    if kind == "var":
        name, (line, col) = node[1], node[2]
        if name not in ring.variables:
            raise ParseError("unknown variable %r" % name, line, col)
        return Polynomial.variable(ring, name)
    if kind == "sum":
        total = Polynomial.zero(ring)
        for sign, term in node[1]:
            value = _evaluate(term, ring)
            total = total + value if sign > 0 else total - value
        return total
    if kind == "product":
        result = _evaluate(node[1][0], ring)
        for factor in node[1][1:]:
            result = result * _evaluate(factor, ring)
        return result
    if kind == "pow":
        base_node, exponent, (line, col) = node[1], node[2], node[3]
        if exponent < 0:
            if base_node[0] != "var":
                raise ParseError(
                    "negative exponents are only allowed on variables",
                    line, col,
                )
            if not ring.laurent:
                raise ParseError(
                    "negative exponent in non-Laurent ring %s" % ring,
                    line, col,
                )
            base = _evaluate(base_node, ring)
            exps = next(iter(base.terms))
            return Polynomial.monomial(
                ring, tuple(e * exponent for e in exps))
        return _evaluate(base_node, ring) ** exponent
    raise AssertionError("unhandled node %r" % (node,))


def parse_polynomial(src: str, ring: RingDescriptor) -> Polynomial:
    """Parse an expression into an exact polynomial over ``ring``."""
    return _evaluate(parse_ast(src), ring)


def parse_series(src: str, ring: RingDescriptor, order: int,
                 variable: str = "t") -> Series:
    """Parse an expression with the series variable into a truncated series.

    Terms of degree beyond ``order`` in the series variable are dropped,
    consistent with truncated arithmetic.  The series variable must not
    clash with a ring variable and cannot carry negative exponents.
    """
    if variable in ring.variables:
        raise ValueError(
            "ring variable %r clashes with the series variable" % variable
        )
    extended = RingDescriptor(ring.variables + (variable,), ring.laurent)
    poly = parse_polynomial(src, extended)
    t_index = extended.nvars - 1
    zero = Polynomial.zero(ring)
    coeffs = [dict() for _ in range(order + 1)]
    for exps, coef in poly.terms.items():
        degree = exps[t_index]
        if degree < 0:
            raise ValueError(
                "negative powers of %r are not allowed in a series" % variable
            )
        if degree <= order:
            coeffs[degree][exps[:t_index]] = coef
    return Series(ring, order,
                  [Polynomial(ring, c) if c else zero for c in coeffs])
