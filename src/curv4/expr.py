"""Arithmetic expression language for metric components and form fields.

Grammar (loosest to tightest binding):

    sum     := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative, binds above unary minus
    atom    := NUMBER | IDENT | IDENT '(' sum ')' | '(' sum ')'

Identifiers: variables x1..x4, the constant pi, functions sin cos exp log sqrt.
Evaluation is generic over floats/arrays and jets; '^' with a non-constant
exponent requires a positive base (keeps jet lifting single-valued).
"""

from __future__ import annotations

import math

import numpy as np

from . import Curv4Error, jets
from .jets import Jet3

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
CONSTANTS = {"pi": math.pi}
VARIABLES = {"x1": 0, "x2": 1, "x3": 2, "x4": 3}


class ExprError(Curv4Error):
    pass


class ParseError(ExprError):
    def __init__(self, message, offset, expected=()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {', '.join(sorted(expected))})"
        super().__init__(detail)
        self.offset = offset
        self.expected = tuple(sorted(expected))


class DomainError(ExprError):
    """Raised when evaluation leaves a function's domain; cites the subtree."""

    def __init__(self, message, node):
        super().__init__(f"{message} in '{to_string(node)}' (offset {node.offset})")
        self.node = node


# -- AST ---------------------------------------------------------------------


class _Node:
    """Immutable node. Each subclass lists its fields in __slots__, `offset`
    last; equality and hash take the class and the fields, never the source
    offset, so equal subtrees compare equal wherever they were parsed."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, f) for f in self.__slots__[:-1])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((self.__class__, self._fields()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __reduce__(self):  # copy and pickle through the constructor
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({args})"


_set = object.__setattr__


class Num(_Node):
    __slots__ = ("value", "offset")

    def __init__(self, value, offset=0):
        _set(self, "value", value)
        _set(self, "offset", offset)


class Var(_Node):
    __slots__ = ("index", "offset")

    def __init__(self, index, offset=0):
        _set(self, "index", index)
        _set(self, "offset", offset)


class Const(_Node):
    __slots__ = ("name", "offset")

    def __init__(self, name, offset=0):
        _set(self, "name", name)
        _set(self, "offset", offset)


class Unary(_Node):
    __slots__ = ("op", "arg", "offset")

    def __init__(self, op, arg, offset=0):
        _set(self, "op", op)
        _set(self, "arg", arg)
        _set(self, "offset", offset)


class Bin(_Node):
    __slots__ = ("op", "left", "right", "offset")

    def __init__(self, op, left, right, offset=0):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "offset", offset)


class Call(_Node):
    __slots__ = ("fn", "arg", "offset")

    def __init__(self, fn, arg, offset=0):
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        _set(self, "offset", offset)


# -- tokenizer ---------------------------------------------------------------

_OPS = "+-*/^()"


def _tokenize(src):
    tokens = []  # (kind, text_or_value, offset)
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad number literal '{text}'", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character '{ch}'", i)
    tokens.append(("end", "", n))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, src):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"got '{text or 'end of input'}'", off, expected=(f"'{op}'",))
        return self.take()

    def parse(self):
        node = self.sum()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input '{text}'", off, expected=("operator", "end"))
        return node

    def sum(self):
        node = self.term()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                node = Bin(text, node, self.term(), off)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                node = Bin(text, node, self.unary(), off)
            else:
                return node

    def unary(self):
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Unary("-", self.unary(), off)
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.take()
            return Bin("^", base, self.unary(), off)
        return base

    def atom(self):
        kind, text, off = self.take()
        if kind == "num":
            return Num(text, off)
        if kind == "ident":
            if text in VARIABLES:
                return Var(VARIABLES[text], off)
            if text in CONSTANTS:
                return Const(text, off)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(text, arg, off)
            raise ParseError(f"unknown identifier '{text}'", off,
                             expected=("x1..x4", "pi") + FUNCTIONS)
        if kind == "op" and text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        what = text if text else "end of input"
        raise ParseError(f"got '{what}'", off, expected=("number", "identifier", "'('"))


def parse(src: str):
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    return _Parser(src).parse()


# -- printing ----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_string(node, parent_prec=0):
    if isinstance(node, Num):
        return repr(float(node.value))
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_string(node.arg)})"
    if isinstance(node, Unary):
        s = f"-{to_string(node.arg, _PREC['neg'])}"
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(node, Bin):
        p = _PREC[node.op]
        if node.op == "^":
            s = f"{to_string(node.left, p + 1)} ^ {to_string(node.right, p)}"
        else:
            s = f"{to_string(node.left, p)} {node.op} {to_string(node.right, p + 1)}"
        return f"({s})" if parent_prec > p else s
    raise TypeError(f"not an expression node: {node!r}")


# -- constant folding / substitution ------------------------------------------


def constant_value(node):
    """Float value if the subtree is constant, else None."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Unary):
        v = constant_value(node.arg)
        return None if v is None else -v
    if isinstance(node, Bin):
        l, r = constant_value(node.left), constant_value(node.right)
        if l is None or r is None:
            return None
        try:
            return {
                "+": lambda: l + r, "-": lambda: l - r, "*": lambda: l * r,
                "/": lambda: l / r, "^": lambda: l**r,
            }[node.op]()
        except (ZeroDivisionError, OverflowError, ValueError):
            return None
    if isinstance(node, Call):
        v = constant_value(node.arg)
        if v is None:
            return None
        try:
            return getattr(math, node.fn)(v)
        except ValueError:
            return None
    return None


def substitute(node, replacements):
    """Replace Var(i) by replacements[i] (expression nodes)."""
    if isinstance(node, Var):
        return replacements[node.index]
    if isinstance(node, (Num, Const)):
        return node
    if isinstance(node, Unary):
        return Unary(node.op, substitute(node.arg, replacements), node.offset)
    if isinstance(node, Bin):
        return Bin(node.op, substitute(node.left, replacements),
                   substitute(node.right, replacements), node.offset)
    if isinstance(node, Call):
        return Call(node.fn, substitute(node.arg, replacements), node.offset)
    raise TypeError(f"not an expression node: {node!r}")


def num(value):
    return Num(float(value))


def add(a, b):
    return _fold(Bin("+", a, b))


def sub(a, b):
    return _fold(Bin("-", a, b))


def mul(a, b):
    return _fold(Bin("*", a, b))


def _fold(node):
    v = constant_value(node)
    return Num(v) if v is not None else node


# -- evaluation ----------------------------------------------------------------

_REAL_FNS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt}
_JET_FNS = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp, "log": jets.log,
            "sqrt": jets.sqrt}


def eval_values(node, points):
    """Evaluate over plain reals; points has shape (..., 4)."""
    points = np.asarray(points, dtype=float)

    def go(n):
        if isinstance(n, Num):
            return n.value
        if isinstance(n, Const):
            return CONSTANTS[n.name]
        if isinstance(n, Var):
            return points[..., n.index]
        if isinstance(n, Unary):
            return -go(n.arg)
        if isinstance(n, Call):
            arg = go(n.arg)
            if n.fn in ("log", "sqrt") and np.any(~(np.asarray(arg) > 0.0)):
                raise DomainError(f"{n.fn} of nonpositive value", n)
            return _REAL_FNS[n.fn](arg)
        if isinstance(n, Bin):
            if n.op == "^":
                return _eval_pow_real(n)
            l, r = go(n.left), go(n.right)
            if n.op == "+":
                return l + r
            if n.op == "-":
                return l - r
            if n.op == "*":
                return l * r
            if np.any(np.asarray(r) == 0.0):
                raise DomainError("division by zero", n)
            return l / r
        raise TypeError(f"not an expression node: {n!r}")

    def _eval_pow_real(n):
        base = go(n.left)
        const_exp = constant_value(n.right)
        if const_exp is not None:
            if const_exp == round(const_exp):
                return np.power(base, int(round(const_exp)))
            if np.any(~(np.asarray(base) > 0.0)):
                raise DomainError("negative base for non-integer power", n)
            return np.power(base, const_exp)
        if np.any(~(np.asarray(base) > 0.0)):
            raise DomainError("nonpositive base for variable exponent", n)
        return np.power(base, go(n.right))

    return np.broadcast_to(np.asarray(go(node), dtype=float), points.shape[:-1]).copy()


def eval_jet(node, points):
    """Evaluate to a Jet3 at points of shape (..., 4)."""
    points = np.asarray(points, dtype=float)
    env = [Jet3.variable(i, points[..., i]) for i in range(4)]
    return eval_jet_env(node, env, points)


def eval_jet_env(node, env, points=None):
    """Evaluate with explicit jets bound to x1..x4 (used for chart composition)."""
    batch = env[0].value.shape

    def go(n):
        if isinstance(n, Num):
            return Jet3.constant(n.value, batch)
        if isinstance(n, Const):
            return Jet3.constant(CONSTANTS[n.name], batch)
        if isinstance(n, Var):
            return env[n.index]
        if isinstance(n, Unary):
            return -go(n.arg)
        if isinstance(n, Call):
            arg = go(n.arg)
            try:
                return _JET_FNS[n.fn](arg) if n.fn in ("sin", "cos", "exp") \
                    else _JET_FNS[n.fn](arg, points)
            except jets.JetError as e:
                raise DomainError(str(e), n) from None
        if isinstance(n, Bin):
            try:
                if n.op == "^":
                    const_exp = constant_value(n.right)
                    base = go(n.left)
                    if const_exp is not None:
                        return jets.powr(base, const_exp, points)
                    if np.any(~(base.value > 0.0)):
                        raise DomainError("nonpositive base for variable exponent", n)
                    return jets.exp(go(n.right) * jets.log(base, points))
                l, r = go(n.left), go(n.right)
                if n.op == "+":
                    return l + r
                if n.op == "-":
                    return l - r
                if n.op == "*":
                    return l * r
                return l / r
            except jets.JetError as e:
                raise DomainError(str(e), n) from None
        raise TypeError(f"not an expression node: {n!r}")

    out = go(node)
    jets.assert_finite(out, lambda: f"expression '{to_string(node)}'", points)
    return out
