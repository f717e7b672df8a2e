"""Arithmetic expression language for metric components and form fields.

Grammar (loosest to tightest binding):

    sum     := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative, binds above unary minus
    atom    := NUMBER | IDENT | IDENT '(' sum ')' | '(' sum ')'

Identifiers: variables x1..x4, the constant pi, functions sin cos exp log sqrt.
Trees are evaluated through a `Plan`, which compiles one or more of them into a
DAG of distinct subtrees and runs it on jets; plain values are the jets'
value row.  '^' with a non-constant exponent requires a positive base (keeps
jet lifting single-valued).
"""

from __future__ import annotations

import math
import operator
import struct

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


# -- evaluation: one compiled plan, one jet interpreter ----------------------------

_ARITH = {"neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul}


class Plan:
    """Expression trees compiled once into one evaluation order (a DAG).

    Equal subtrees of all the trees become one step, by value numbering: a step
    is keyed by its operation, its literal and the step numbers of its
    operands, a float literal by its bit pattern (0.0 and -0.0 compare equal
    but are different constants).  Steps run in the order of a left-to-right
    post-order walk of the trees, one tree after the other, so the first step
    to fail is the node a tree walker fails at first, and a shared step cites
    the first of its equal nodes.  Each step's value is dropped after its last
    reader unless it is a tree's result.  One interpreter runs the plan, on
    jets (`jets`); `values` is its value row, run on jets of one row.  Both
    yield the trees' results in order, each as soon as its steps have run.
    """

    def __init__(self, roots):
        self.roots = tuple(roots)
        self.steps = []  # (op, operand step numbers, literal, node)
        self.results = []  # (steps emitted through this tree, step of its result)
        self._ids = {}
        for root in self.roots:
            out = self._emit(root)
            self.results.append((len(self.steps), out))
        last = {i: k for k, (_, args, _, _) in enumerate(self.steps) for i in args}
        kept = {out for _, out in self.results}
        self.frees = [[] for _ in self.steps]
        for i, k in last.items():
            if i not in kept:
                self.frees[k].append(i)

    def _step(self, op, args, literal, node):
        key = (op, args, type(literal),
               struct.pack("<d", literal) if isinstance(literal, float) else literal)
        if key not in self._ids:
            self._ids[key] = len(self.steps)
            self.steps.append((op, args, literal, node))
        return self._ids[key]

    def _emit(self, n):
        if isinstance(n, Num):
            return self._step("num", (), n.value, n)
        if isinstance(n, Const):
            return self._step("num", (), CONSTANTS[n.name], n)
        if isinstance(n, Var):
            return self._step("var", (), n.index, n)
        if isinstance(n, (Unary, Call)):
            return self._step("call" if isinstance(n, Call) else "neg", (self._emit(n.arg),),
                              getattr(n, "fn", None), n)
        if not isinstance(n, Bin):
            raise TypeError(f"not an expression node: {n!r}")
        left = self._emit(n.left)
        const_exp = constant_value(n.right) if n.op == "^" else None
        if const_exp is not None:
            return self._step("^c", (left,), const_exp, n)
        if n.op == "^":  # the base is checked before the exponent is evaluated
            self.steps.append(("base>0", (left,), None, n))
        return self._step(n.op, (left, self._emit(n.right)), None, n)

    def jets(self, env, points=None):
        """Each tree as a Jet3, with the jets env bound to x1..x4 (constants take
        its rows); a domain failure raises DomainError naming its node and
        point, a non-finite coefficient of a result JetError naming its tree."""
        shape = env[0].c.shape  # (rows,) + batch

        def apply(op, a, literal):
            if op == "num":
                return Jet3.constant(literal, shape[1:], shape[0])
            if op == "var":
                return env[literal]
            if op == "base>0":
                return jets.require_positive(a[0], "nonpositive base for variable exponent",
                                             points)
            if op == "call":  # the FUNCTIONS are named as in jets
                fn = getattr(jets, literal)
                return fn(a[0], points) if literal in ("log", "sqrt") else fn(a[0])
            if op == "^c":
                return jets.powr(a[0], literal, points)
            if op == "^":
                return jets.exp(a[1] * jets.log(a[0], points))
            if op == "/":  # a (1/b), as every jet quotient
                return a[0] * jets.powr(a[1], -1, points)
            return _ARITH[op](*a)

        vals = [None] * len(self.steps)
        k = 0
        for root, (end, out) in zip(self.roots, self.results):
            while k < end:
                op, args, literal, node = self.steps[k]
                try:
                    vals[k] = apply(op, [vals[i] for i in args], literal)
                except jets.JetError as e:
                    raise DomainError(str(e), node) from None
                for i in self.frees[k]:
                    vals[i] = None
                k += 1
            jets.assert_finite(vals[out], lambda: f"expression '{to_string(root)}'", points)
            yield vals[out]

    def values(self, points):
        """Each tree over plain reals at points (shape (..., 4)), as an array of
        the batch shape: `jets` on jets of one row, the coordinates, so values
        are the jets' value slot bit for bit, with the same errors."""
        points = np.asarray(points, dtype=float)
        for u in self.jets([Jet3(points[None, ..., i]) for i in range(4)], points):
            yield u.value.copy()


def eval_values(node, points):
    """Evaluate over plain reals; points has shape (..., 4)."""
    return next(Plan([node]).values(points))


def eval_jet(node, points):
    """Evaluate to a Jet3 at points of shape (..., 4)."""
    points = np.asarray(points, dtype=float)
    env = [Jet3.variable(i, points[..., i]) for i in range(4)]
    return eval_jet_env(node, env, points)


def eval_jet_env(node, env, points=None):
    """Evaluate with explicit jets bound to x1..x4 (used for chart composition)."""
    return next(Plan([node]).jets(env, points))
