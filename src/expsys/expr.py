"""Small arithmetic expression grammar for config-described functions.

Grammar: identifiers x1..x8, numeric literals, + - * / ^ (right-assoc),
unary minus, sin cos exp log sqrt abs sgn, constants pi and e, parentheses.
Parsed once into a closed AST; evaluation is vectorized over numpy arrays
bound to the identifiers.
"""

import math
import re

import numpy as np

from .errors import ExprError

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sgn": np.sign,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace manually to find the exact bad byte
            while pos < n and text[pos].isspace():
                pos += 1
            if pos >= n:
                break
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        if m.group("num") is not None:
            # the regex splits off any exponent suffix into the full match
            tokens.append(_Token("num", m.group(0).strip(), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


class Expression:
    """Compiled expression: call .evaluate(env) with arrays bound to x1..x8."""

    def __init__(self, source, root, variables):
        self.source = source
        self._root = root
        self.variables = frozenset(variables)

    def evaluate(self, env):
        missing = self.variables - set(env)
        if missing:
            raise ExprError(
                f"unbound identifier(s) {sorted(missing)} in {self.source!r}", 0
            )
        with np.errstate(all="ignore"):  # NaN/inf pass on; consumers check finiteness
            return self._root(env)

    def __call__(self, env):
        return self.evaluate(env)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = set()

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ExprError(f"expected {op!r}", tok.offset)

    def parse(self):
        root = self.sum_()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return root

    def sum_(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                node = (lambda l, r: lambda env: l(env) + r(env))(node, rhs) \
                    if tok.text == "+" else \
                    (lambda l, r: lambda env: l(env) - r(env))(node, rhs)
            else:
                return node

    def term(self):
        node = self.power()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.power()
                node = (lambda l, r: lambda env: l(env) * r(env))(node, rhs) \
                    if tok.text == "*" else \
                    (lambda l, r: lambda env: l(env) / r(env))(node, rhs)
            else:
                return node

    def power(self):
        base = self.unary()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self.power()  # right associative
            return lambda env, b=base, e=exponent: np.power(b(env), e(env))
        return base

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            inner = self.unary()
            return lambda env, i=inner: -i(env)
        return self.atom()

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            return lambda env, v=value: v
        if tok.kind == "name":
            name = tok.text
            if name in _CONSTANTS:
                value = _CONSTANTS[name]
                return lambda env, v=value: v
            if name in _FUNCTIONS:
                fn = _FUNCTIONS[name]
                self.expect_op("(")
                arg = self.sum_()
                self.expect_op(")")
                return lambda env, f=fn, a=arg: f(a(env))
            if re.fullmatch(r"x[1-8]", name):
                self.variables.add(name)
                return lambda env, n=name: env[n]
            raise ExprError(f"unknown identifier {name!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            node = self.sum_()
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {tok.text!r}", tok.offset)


def parse_expression(text: str) -> Expression:
    """Parse `text` into an Expression; raises ExprError with byte offset."""
    parser = _Parser(text)
    root = parser.parse()
    return Expression(text, root, parser.variables)


def expression_on_points(expr: Expression):
    """Adapt an Expression to a vectorized map on point arrays (n, d).

    Identifier xk is bound to column k-1.  Result broadcasts to (n,).
    """

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        env = {f"x{j + 1}": pts[:, j] for j in range(pts.shape[1])}
        out = expr.evaluate(env)
        return np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],)).copy()

    return fn
