"""Parsing of polynomial and series expressions for the command line.

The grammar covers integer literals (ASCII digits), variables, + - * ^
and parentheses; exponents are integer literals, negative only on
variables of Laurent rings (``L^-1``).  Parsing an expression printed
in canonical form gives back the same polynomial, and printing after
parsing normalizes whitespace.
"""

from __future__ import annotations

import math
import re
import sys
from typing import List, NamedTuple, Tuple

from .rings import Polynomial, RingDescriptor
from .series import Series


class ParseError(ValueError):
    """Syntax or validation error with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


# One alternative per kind of token, tried in this order at each position:
# a run of whitespace (str.isspace, newlines counted inside it), an ASCII
# integer literal, a word (str.isalnum or "_", which is what \w matches;
# a name must start with a letter or "_"), an operator, and any other
# character, which is an error.
_TOKEN = re.compile(r"(\s+)|([0-9]+)|(\w+)|([-+*^()])|(.)", re.S)


def _tokenize(src: str) -> List[Token]:
    """The tokens of ``src``, each with its 1-based line and column, in
    one scan of :data:`_TOKEN`; the last is the "end" token."""
    tokens = []
    append = tokens.append
    line, start = 1, 0  # start: the index of the line's first character
    for m in _TOKEN.finditer(src):
        group = m.lastindex
        text = m.group(group)
        if group == 1:
            breaks = text.count("\n")
            if breaks:
                line += breaks
                start = m.start() + text.rindex("\n") + 1
            continue
        column = m.start() - start + 1
        if group == 2:
            append(Token("int", text, line, column))
        elif group == 3 and (text[0].isalpha() or text[0] == "_"):
            append(Token("name", text, line, column))
        elif group == 4:
            append(Token(text, text, line, column))
        else:
            raise ParseError("unexpected character %r" % text[0], line, column)
    append(Token("end", "", line, len(src) - start + 1))
    return tokens


def _literal(tok: Token) -> int:
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(
            "integer literal of %d digits, more than the %d allowed"
            % (len(tok.text), sys.get_int_max_str_digits()),
            tok.line, tok.column,
        ) from None


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
        value = _literal(tok)
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
            return ("int", _literal(tok))
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
        # one term map for the whole sum, so n summands cost O(n) updates
        total = {}
        get = total.get
        for sign, term in node[1]:
            for e, c in _evaluate(term, ring).terms.items():
                total[e] = get(e, 0) + sign * c
        return Polynomial._raw(ring, {e: c for e, c in total.items() if c})
    if kind == "product":
        result = _evaluate(node[1][0], ring)
        for factor in node[1][1:]:
            result = result * _evaluate(factor, ring)
        return result
    if kind == "pow":
        base_node, exponent, (line, col) = node[1], node[2], node[3]
        if base_node[0] != "var":
            if exponent < 0:
                raise ParseError(
                    "negative exponents are only allowed on variables",
                    line, col,
                )
            return _evaluate(base_node, ring) ** exponent
        if exponent < 0 and not ring.laurent:
            raise ParseError(
                "negative exponent in non-Laurent ring %s" % ring, line, col)
        # a power of a variable is one monomial, built directly
        exps = next(iter(_evaluate(base_node, ring).terms))
        return Polynomial.monomial(ring, tuple(e * exponent for e in exps))
    raise AssertionError("unhandled node %r" % (node,))


class Size(NamedTuple):
    """Bounds on the polynomial an expression evaluates to, and its cost.

    ``terms`` bounds the number of terms and ``bits`` is log2 of a bound
    on the L1 norm (the sum of |coefficients|, which also bounds every
    coefficient); ``box`` holds each variable's (low, high) exponent.
    ``work`` estimates what evaluating the expression spends in
    polynomial products, in the word products of ``cli.request_cost``.
    """

    terms: float
    bits: float
    box: Tuple[Tuple[int, int], ...]
    work: float


def _box_terms(box) -> float:
    return math.prod(float(min(hi - lo + 1, 1e300)) for lo, hi in box)


# A term pair of a polynomial product (a dict update in Python) costs
# about as much as this many word products in the series recurrences.
_PAIR_WORK = 20

# A term a product or power creates, held, solved and printed term by
# term: on a 2-vCPU VM, zeta --truncate 1 of (x^0+...+x^(n-1))*(y^0+...
# +y^(n-1)) took 7.3 s and 584 MB at n = 1000, and 37 s and 2.6 GB at
# n = 2221, the largest that MAX_COST (2e10) admits: 7 us and 530 B a term.
_TERM_WORK = 4000


def _size_product(a: Size, b: Size) -> Size:
    box = tuple((la + lb, ha + hb) for (la, ha), (lb, hb) in zip(a.box, b.box))
    terms = min(a.terms * b.terms, _box_terms(box))
    work = a.terms * b.terms * _PAIR_WORK * (
        1 + (1 + a.bits / 64) * (1 + b.bits / 64)) + terms * _TERM_WORK
    return Size(terms, a.bits + b.bits, box, a.work + b.work + work)


def _size(node: Node, ring: RingDescriptor) -> Size:
    """Abstract evaluation of ``node``: sizes only, no coefficient work."""
    kind = node[0]
    point = ((0, 0),) * ring.nvars
    if kind == "int":
        return Size(1, math.log2(max(1, abs(node[1]))), point, 0.0)
    if kind == "var":
        if node[1] not in ring.variables:
            return Size(1, 0.0, point, 0.0)
        i = ring.variables.index(node[1])
        return Size(1, 0.0, point[:i] + ((1, 1),) + point[i + 1:], 0.0)
    if kind == "sum":
        parts = [_size(term, ring) for _, term in node[1]]
        top = max(p.bits for p in parts)
        box = tuple((min(lo for lo, _ in axis), max(hi for _, hi in axis))
                    for axis in zip(*(p.box for p in parts)))
        return Size(min(sum(p.terms for p in parts), _box_terms(box)),
                    top + math.log2(sum(2.0 ** (p.bits - top) for p in parts)),
                    box, sum(p.work for p in parts))
    if kind == "product":
        result = _size(node[1][0], ring)
        for factor in node[1][1:]:
            result = _size_product(result, _size(factor, ring))
        return result
    if kind == "pow":
        base, exponent = _size(node[1], ring), node[2]
        if exponent < 0 or node[1][0] == "var":  # one monomial, built directly
            box = tuple((lo * exponent, lo * exponent) for lo, _ in base.box)
            return Size(1, 0.0, box, base.work + _TERM_WORK)
        # the squarings and products of Polynomial.__pow__
        work, base = base.work, base._replace(work=0.0)
        result = Size(1, 0.0, point, 0.0)
        while exponent:
            if exponent & 1:
                result = _size_product(result, base)
            exponent >>= 1
            if exponent:
                base = _size_product(base, base)
                work += base.work
                base = base._replace(work=0.0)
        return result._replace(work=result.work + work)
    raise AssertionError("unhandled node %r" % (node,))


def expression_size(src: str, ring: RingDescriptor) -> Size:
    """Bounds on ``parse_polynomial(src, ring)``, found without evaluating it.

    Parsing checks the syntax (raising :class:`ParseError`); the bounds
    follow the evaluation's sums, products and powers on sizes alone,
    so they take time linear in the expression and logarithmic in its
    exponents, however large the polynomial would be.
    """
    return _size(parse_ast(src), ring)


def parse_polynomial(src: str, ring: RingDescriptor) -> Polynomial:
    """Parse an expression into an exact polynomial over ``ring``."""
    return _evaluate(parse_ast(src), ring)


def series_ring(ring: RingDescriptor) -> RingDescriptor:
    """``ring`` with the series variable ``t``, which must be new to it."""
    if "t" in ring.variables:
        raise ValueError("ring variable 't' clashes with the series variable")
    return RingDescriptor(ring.variables + ("t",), ring.laurent)


def parse_series(src: str, ring: RingDescriptor, order: int) -> Series:
    """Parse an expression in the series variable ``t`` into a series.

    Terms of degree beyond ``order`` in ``t`` are dropped, consistent
    with truncated arithmetic.  ``t`` must not clash with a ring variable
    (:func:`series_ring`) and cannot carry negative exponents.
    """
    extended = series_ring(ring)
    poly = parse_polynomial(src, extended)
    t_index = extended.nvars - 1
    zero = Polynomial.zero(ring)
    coeffs = [dict() for _ in range(order + 1)]
    for exps, coef in poly.terms.items():
        degree = exps[t_index]
        if degree < 0:
            raise ValueError(
                "negative powers of 't' are not allowed in a series")
        if degree <= order:
            coeffs[degree][exps[:t_index]] = coef
    return Series(ring, order,
                  [Polynomial(ring, c) if c else zero for c in coeffs])
